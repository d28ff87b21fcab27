"""Command-line interface.

::

    repro-butterfly info       GRAPH [--json]   # structural statistics
    repro-butterfly count      GRAPH [options]  # exact butterfly count
    repro-butterfly explain    GRAPH [options]  # engine plan table (no run)
    repro-butterfly explain    --drift          # cost-model drift ledger report
    repro-butterfly calibrate  [--if-drifted T] # re-pin cost-model constants
    repro-butterfly profile    PROFILE          # render collapsed-stack samples
    repro-butterfly peel       GRAPH --k K [--mode tip|wing] [--side left|right]
    repro-butterfly decompose  GRAPH [--mode tip|wing] [--top N]
    repro-butterfly bench      [--dataset NAME] # fig10-style sweep on a stand-in
    repro-butterfly algorithms [--executor E] [--run GRAPH]  # the registry
    repro-butterfly generate   OUT --n-left M --n-right N --edges E
    repro-butterfly stats      --from-metrics metrics.jsonl  # render metrics
    repro-butterfly stream     GRAPH SCRIPT [--snapshot-out P]

GRAPH is either a path to a KONECT-format edge list (optionally ``.gz``;
see :mod:`repro.graphs.io`) or ``dataset:<name>`` for one of the synthetic
Fig. 9 stand-ins.

Every command accepts a global ``--metrics-out PATH`` (before the
subcommand): it enables :mod:`repro.obs` for the run and appends one JSON
line per metric to PATH on exit — ``stats --from-metrics PATH`` renders
the accumulated file as a human table (``--run``/``--list-runs`` select
a single flush out of a multi-run file).

``--trace-out PATH`` (global, also accepted after ``count``) likewise
enables observability and writes the run's span tree as Chrome
trace-event JSON on exit; the whole command runs under a ``cli.<command>``
root span, so the file loads in Perfetto as one tree — with
``count --strategy blocked`` the nesting is engine.execute → blocked
count → panel, and parallel runs re-parent worker spans under their
dispatch span.

``--profile-out PATH`` (global) enables observability plus the
background sampling profiler (:mod:`repro.obs.profile`) and writes the
run's samples as collapsed stacks on exit — ``profile PATH`` renders the
file as a self/total frame table, and the same data loads directly in
speedscope / ``flamegraph.pl``.  ``--profile-hz`` tunes the sampling
rate.

``bench --compare BASELINE.json`` switches the bench subcommand into the
perf-regression gate: the current payload (``--current``, default
``BENCH_parallel.json``) is compared metric-by-metric against the
baseline and the process exits non-zero on any ≥ ``--tolerance``
regression (``--warn-only`` downgrades that to a warning for shared CI
runners).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import Sweep, time_callable
from repro.core import (
    ALL_INVARIANTS,
    count_butterflies,
    count_butterflies_unblocked,
    k_tip,
    k_wing,
)
from repro.engine import COUNT_STRATEGIES
from repro.graphs import (
    BipartiteGraph,
    dataset_names,
    graph_stats,
    load_dataset,
    load_konect,
)
from repro.metrics import bipartite_clustering_coefficient

__all__ = ["main", "build_parser"]


def _load(spec: str) -> BipartiteGraph:
    if spec.startswith("dataset:"):
        return load_dataset(spec.split(":", 1)[1])
    if spec.startswith("empty:"):
        # empty:MxN — a fresh edge-free graph for stream replays
        dims = spec.split(":", 1)[1]
        try:
            m, n = (int(part) for part in dims.lower().split("x"))
        except ValueError:
            raise SystemExit(
                f"bad empty-graph spec {spec!r}; expected empty:MxN"
            ) from None
        return BipartiteGraph.empty(m, n)
    try:
        return load_konect(spec)
    except ValueError as exc:  # names the file, line and offending token
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    p = argparse.ArgumentParser(
        prog="repro-butterfly",
        description="Butterfly counting and peeling for bipartite graphs "
        "(linear-algebra algorithm family).",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable observability (repro.obs) and append one JSON line "
        "per metric to PATH when the command finishes",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable observability and write the run's span tree to PATH "
        "as Chrome trace-event JSON (load at https://ui.perfetto.dev)",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="enable observability plus the background sampling profiler "
        "and write collapsed stacks to PATH on exit (render with the "
        "'profile' subcommand, speedscope, or flamegraph.pl)",
    )
    p.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="sampling rate for --profile-out (default: "
        "repro.obs.DEFAULT_PROFILE_HZ)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print structural statistics")
    p_info.add_argument("graph", help="KONECT file path or dataset:<name>")
    p_info.add_argument("--json", action="store_true", help="machine-readable output")

    p_count = sub.add_parser("count", help="exact butterfly count")
    p_count.add_argument("graph")
    p_count.add_argument("--json", action="store_true", help="machine-readable output")
    p_count.add_argument(
        "--invariant",
        type=int,
        choices=range(1, 9),
        default=None,
        help="family member 1-8 (default: the engine's cost model chooses)",
    )
    p_count.add_argument(
        "--strategy",
        choices=COUNT_STRATEGIES,
        default=None,
        help="pin the update strategy (default: the engine's cost model "
        "chooses among priority, blocked and wedge; adjacency/scratch/"
        "spmv run the paper's unblocked family member)",
    )
    p_count.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="count in parallel over N workers on the warm shared-memory "
        "pool (default: sequential; N <= 1 runs sequentially)",
    )
    p_count.add_argument(
        "--storage",
        choices=("auto", "raw", "compact", "mmap"),
        default="auto",
        help="graph storage layout (auto = raw int64 arrays; compact = "
        "varint-compressed indices, mmap = out-of-core column files)",
    )
    p_count.add_argument(
        "--block-size", type=int, default=None, metavar="B",
        help="pin the panel width of the blocked kernel (default: "
        "cost-model choice)",
    )
    # SUPPRESS: a subparser default would overwrite the value the global
    # --trace-out already parsed onto the namespace
    p_count.add_argument(
        "--trace-out", default=argparse.SUPPRESS, metavar="PATH",
        help="write this run's span tree as Chrome trace-event JSON "
        "(same as the global --trace-out, accepted after the subcommand)",
    )

    p_peel = sub.add_parser("peel", help="k-tip / k-wing subgraph extraction")
    p_peel.add_argument("graph")
    p_peel.add_argument("--k", type=int, required=True)
    p_peel.add_argument("--mode", choices=("tip", "wing"), default="tip")
    p_peel.add_argument("--side", choices=("left", "right"), default="left")

    p_explain = sub.add_parser(
        "explain",
        help="print the engine's scored plan table for a graph without "
        "executing it",
    )
    p_explain.add_argument(
        "graph", nargs="?", default=None,
        help="graph to plan for (not needed with --drift)",
    )
    p_explain.add_argument(
        "--workload", choices=("count", "vertex-counts", "tip", "wing"),
        default="count",
    )
    p_explain.add_argument("--k", type=int, default=None,
                           help="peeling threshold for tip/wing workloads")
    p_explain.add_argument("--side", choices=("left", "right"), default=None)
    p_explain.add_argument(
        "--invariant", type=int, choices=range(1, 9), default=None,
        help="pin the family member (the planner decides the rest)",
    )
    p_explain.add_argument(
        "--strategy", choices=COUNT_STRATEGIES, default=None,
        help="pin the update strategy",
    )
    p_explain.add_argument("--workers", type=int, default=None, metavar="N",
                           help="pin the pool size (N > 1: the shared pool, "
                           "1: serial)")
    p_explain.add_argument("--block-size", type=int, default=None, metavar="B",
                           help="pin the panel width")
    p_explain.add_argument(
        "--storage",
        choices=("auto", "raw", "compact", "mmap"),
        default="auto",
        help="pin the storage layout (auto = raw; compact/mmap rows "
        "appear only when pinned)",
    )
    p_explain.add_argument(
        "--calibrate", action="store_true",
        help="measure this machine's ns/op coefficients first (persisted "
        "under results/, used by every later plan)",
    )
    p_explain.add_argument(
        "--drift", action="store_true",
        help="report the cost model's predicted-vs-actual drift from the "
        "persistent ledger instead of planning a graph",
    )
    p_explain.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="drift ledger path for --drift (default: $REPRO_DRIFT_LEDGER)",
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="measure this machine's ns/op cost-model coefficients "
        "(optionally only when the drift ledger says they are stale)",
    )
    p_cal.add_argument(
        "--if-drifted", type=float, default=None, metavar="THRESHOLD",
        help="only recalibrate when the ledger's median relative error "
        "exceeds THRESHOLD (e.g. 0.5 = 50%%); otherwise keep the "
        "current table",
    )
    p_cal.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="measurement repeats per micro-benchmark (default 3)",
    )
    p_cal.add_argument(
        "--no-persist", action="store_true",
        help="measure but do not write results/engine_calibration.json",
    )
    p_cal.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="drift ledger consulted by --if-drifted (default: "
        "$REPRO_DRIFT_LEDGER)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="render a collapsed-stack profile written by --profile-out "
        "as a self/total frame table",
    )
    p_prof.add_argument("input", help="collapsed-stack file (--profile-out)")
    p_prof.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="show the N hottest frames (default 20)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="time all 8 invariants on a dataset, or compare two bench "
        "payloads (--compare) as a perf-regression gate",
    )
    p_bench.add_argument(
        "--dataset", choices=dataset_names(), default="arxiv"
    )
    p_bench.add_argument(
        "--strategy", choices=("adjacency", "scratch", "spmv"), default="adjacency"
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="regression-gate mode: compare --current against this "
        "baseline payload and exit non-zero on any regression",
    )
    p_bench.add_argument(
        "--current", default="BENCH_parallel.json", metavar="CURRENT.json",
        help="current bench payload for --compare "
        "(default: BENCH_parallel.json)",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="relative regression tolerance for --compare "
        "(default: 0.15 = 15%%)",
    )
    p_bench.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (advisory mode for noisy "
        "shared CI runners)",
    )
    p_bench.add_argument(
        "--history", default=None, metavar="HISTORY.jsonl",
        help="append the --current payload to this bench-history JSONL "
        "(one flattened record per run)",
    )

    p_dec = sub.add_parser(
        "decompose", help="tip-number or wing-number decomposition"
    )
    p_dec.add_argument("graph")
    p_dec.add_argument("--mode", choices=("tip", "wing"), default="tip")
    p_dec.add_argument("--side", choices=("left", "right"), default="left")
    p_dec.add_argument(
        "--top", type=int, default=10, help="show the N highest-numbered items"
    )
    p_dec.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="peel with bucketed parallel rounds over N workers "
        "(default: sequential)",
    )

    p_gen = sub.add_parser(
        "generate", help="write a synthetic bipartite graph in KONECT format"
    )
    p_gen.add_argument("output", help="output file path")
    p_gen.add_argument("--n-left", type=int, required=True)
    p_gen.add_argument("--n-right", type=int, required=True)
    p_gen.add_argument("--edges", type=int, required=True)
    p_gen.add_argument(
        "--model", choices=("powerlaw", "uniform"), default="powerlaw"
    )
    p_gen.add_argument("--seed", type=int, default=0)

    p_alg = sub.add_parser(
        "algorithms", help="list the registered algorithm family"
    )
    p_alg.add_argument("--executor", default=None,
                       choices=("unblocked", "blocked", "parallel"))
    p_alg.add_argument("--run", default=None, metavar="GRAPH",
                       help="also run every listed member on this graph "
                       "and assert agreement")

    p_stats = sub.add_parser(
        "stats", help="render a metrics JSONL file as a human table"
    )
    p_stats.add_argument(
        "--from-metrics",
        dest="from_metrics",
        required=True,
        metavar="PATH",
        help="metrics.jsonl written by --metrics-out (without --run the "
        "runs are merged: counters/histograms add, gauges apply their "
        "merge policy)",
    )
    p_stats.add_argument(
        "--run", default=None, metavar="RUN",
        help="render exactly one run id instead of merging every flush "
        "in the file (see --list-runs)",
    )
    p_stats.add_argument(
        "--list-runs", action="store_true",
        help="print the distinct run ids in the file and exit",
    )
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable merged snapshot")

    p_stream = sub.add_parser(
        "stream",
        help="replay an edge-script against the streaming counter",
    )
    p_stream.add_argument(
        "graph",
        help="starting graph: KONECT path, dataset:<name>, or empty:MxN",
    )
    p_stream.add_argument(
        "script",
        help="edge-script file: '+ u v' / '- u v' lines, 'flush' ends a "
        "batch (see docs/streaming.md)",
    )
    p_stream.add_argument(
        "--strategy", choices=("auto", "incremental", "recount"),
        default="auto",
        help="per-batch maintenance strategy (auto: the engine's cost "
        "model chooses between incremental and recount per batch)",
    )
    p_stream.add_argument(
        "--snapshot-in", default=None, metavar="PATH",
        help="restore counter state from a snapshot file before replaying",
    )
    p_stream.add_argument(
        "--snapshot-out", default=None, metavar="PATH",
        help="write the final counter state as a snapshot file",
    )
    p_stream.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_an = sub.add_parser(
        "analyze",
        help="run the project-native static analyzer (rules RPR001-RPR012)",
    )
    p_an.add_argument(
        "paths", nargs="*", default=["src/repro"], metavar="PATH",
        help="files or directories to scan (default: src/repro)",
    )
    p_an.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json follows schema repro.analysis.report/v1; "
        "sarif is SARIF 2.1.0)",
    )
    p_an.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse/scan N files in parallel (default: 1)",
    )
    p_an.add_argument(
        "--cache", default=None, metavar="PATH", dest="cache_path",
        help="content-hash result cache for warm runs "
        "(e.g. results/analysis_cache.json)",
    )
    p_an.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache and rescan everything",
    )
    p_an.add_argument(
        "--diff", default=None, metavar="REV",
        help="report findings only for files changed since git REV "
        "(plus untracked); the whole-program model still covers "
        "every scanned file",
    )
    p_an.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run, e.g. RPR001,RPR006 "
        "(default: all)",
    )
    p_an.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="JSON baseline of accepted findings to filter out "
        "(written by --write-baseline)",
    )
    p_an.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="record the current findings as the accepted baseline and "
        "exit 0",
    )
    p_an.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report (in the chosen --format) to PATH",
    )
    return p


def _cmd_info(args) -> int:
    g = _load(args.graph)
    stats = graph_stats(g)
    count = count_butterflies(g)
    cc = bipartite_clustering_coefficient(g, butterflies=count)
    if args.json:
        import json

        payload = dict(stats.as_dict())
        payload["butterflies"] = count
        payload["clustering_c4"] = cc
        print(json.dumps(payload, indent=2))
        return 0
    print(f"graph        : {g!r}")
    for key, value in stats.as_dict().items():
        print(f"{key:24s}: {value}")
    print(f"{'butterflies':24s}: {count}")
    print(f"{'clustering (C4)':24s}: {cc:.6f}")
    return 0


def _plan_or_exit(g, workload, **pins):
    """``engine.plan`` with the pins; a pin set no candidate honours
    exits 2 with one ``error:`` line naming the pins."""
    from repro import engine

    try:
        return engine.plan(g, workload, **pins)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _layout_arg(args):
    """``--storage`` flag value → planner ``layout`` pin (auto → None)."""
    return None if args.storage == "auto" else args.storage


def _describe_mode(plan) -> str:
    if plan.strategy == "blocked":
        return f"blocked (b={plan.block_size})"
    if plan.workers > 1 or plan.executor != "serial":
        return f"parallel ({plan.workers} workers, {plan.executor})"
    return "sequential"


def _cmd_count(args) -> int:
    from repro import engine

    g = _load(args.graph)
    plan = _plan_or_exit(
        g, "count", invariant=args.invariant, strategy=args.strategy,
        workers=args.workers, block_size=args.block_size,
        layout=_layout_arg(args),
    )
    result = engine.execute(plan, g)
    if args.invariant is not None:
        invariant_desc = str(args.invariant)
    elif plan.invariant is not None:
        invariant_desc = f"auto (chose {plan.invariant})"
    else:
        invariant_desc = "auto"
    mode = _describe_mode(plan)
    if args.json:
        import json

        print(json.dumps({
            "invariant": invariant_desc,
            "strategy": plan.strategy,
            "mode": mode,
            "plan": plan.label,
            "butterflies": result,
        }))
        return 0
    print(f"plan       : {plan.label} — {plan.reason}")
    print(f"invariant  : {invariant_desc}")
    print(f"strategy   : {plan.strategy}")
    print(f"mode       : {mode}")
    print(f"butterflies: {result}")
    return 0


def _cmd_peel(args) -> int:
    from repro import engine

    g = _load(args.graph)
    plan = engine.plan(g, args.mode, side=args.side, k=args.k)
    print(f"plan       : {plan.label} — {plan.reason}")
    if args.mode == "tip":
        res = k_tip(g, args.k, side=args.side, plan=plan)
        print(f"{args.k}-tip ({args.side} side): kept {res.n_kept} vertices, "
              f"{res.subgraph.n_edges} edges, {res.rounds} rounds")
    else:
        res = k_wing(g, args.k, plan=plan)
        print(f"{args.k}-wing: kept {res.n_edges} edges, {res.rounds} rounds")
    return 0


def _cmd_explain(args) -> int:
    from repro import engine

    if args.drift:
        report = engine.drift_report(path=args.ledger)
        print(engine.render_drift_report(report))
        return 0
    if args.graph is None:
        print("error: explain needs a GRAPH (or --drift)", file=sys.stderr)
        return 2
    g = _load(args.graph)
    calibration = None
    if args.calibrate:
        calibration = engine.calibrate()
        print(f"calibrated this machine -> {calibration.source}")
    plan = _plan_or_exit(
        g,
        args.workload,
        invariant=args.invariant,
        strategy=args.strategy,
        workers=args.workers,
        block_size=args.block_size,
        side=args.side,
        k=args.k,
        layout=_layout_arg(args),
        calibration=calibration,
    )
    print(engine.explain(plan, g, calibration=calibration))
    return 0


def _cmd_calibrate(args) -> int:
    from repro import engine
    from repro.engine.drift import NO_LEDGER

    persist = not args.no_persist
    if args.if_drifted is not None:
        table, report = engine.calibrate_if_drifted(
            args.if_drifted, path=args.ledger,
            repeats=args.repeats, persist=persist,
        )
        if report["path"] is None:
            print(f"drift ledger : {NO_LEDGER}")
            print("calibration  : kept (no ledger to read)")
            return 0
        median = report.get("median_rel_error")
        shown = "n/a (empty ledger)" if median is None else f"{median:.1%}"
        print(f"drift ledger : {report['path']} ({report['count']} records)")
        print(f"median error : {shown} (threshold {args.if_drifted:.1%})")
        if table is None:
            print("calibration  : kept (not drifted)")
            return 0
        print(f"calibration  : re-measured -> {table.source}")
        return 0
    table = engine.calibrate(repeats=args.repeats, persist=persist)
    print(f"calibrated this machine -> {table.source}")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import parse_collapsed, render_profile_report

    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read profile {args.input}: {exc}",
              file=sys.stderr)
        return 2
    try:
        counts = parse_collapsed(text)
    except ValueError as exc:
        print(f"error: {args.input} is not a collapsed-stack file: {exc}",
              file=sys.stderr)
        return 2
    print(render_profile_report(counts, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    if args.compare is not None or args.history is not None:
        return _cmd_bench_gate(args)
    g = load_dataset(args.dataset)
    sweep = Sweep(title=f"dataset {args.dataset}, strategy {args.strategy}")
    for inv in ALL_INVARIANTS:
        result = time_callable(
            lambda inv=inv: count_butterflies_unblocked(
                g, inv, strategy=args.strategy
            ),
            repeats=1,
            label=f"inv{inv.number}",
        )
        sweep.record(args.dataset, f"Inv. {inv.number}", result)
    print(sweep.render())
    if not sweep.values_agree():
        print("ERROR: family members disagree!", file=sys.stderr)
        return 1
    first = sweep.get(args.dataset, "Inv. 1")
    print(f"butterflies: {first.value}")
    return 0


def _cmd_bench_gate(args) -> int:
    """``bench --compare`` / ``--history``: the perf-regression gate."""
    import json

    from repro.bench.history import (
        DEFAULT_TOLERANCE,
        append_history,
        compare,
        has_regression,
        render_verdicts,
    )

    try:
        with open(args.current) as fh:
            current = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read current payload {args.current}: {exc}",
              file=sys.stderr)
        return 2
    if args.history is not None:
        record = append_history(args.history, current)
        print(f"appended run {record['run']} "
              f"({len(record['metrics'])} metrics) to {args.history}")
    if args.compare is None:
        return 0
    try:
        with open(args.compare) as fh:
            baseline = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read baseline {args.compare}: {exc}",
              file=sys.stderr)
        return 2
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    rows = compare(baseline, current, tolerance=tolerance)
    print(render_verdicts(rows, tolerance=tolerance))
    if has_regression(rows):
        if args.warn_only:
            print("WARNING: regression detected (exit 0: --warn-only)",
                  file=sys.stderr)
            return 0
        print("FAIL: performance regression beyond tolerance",
              file=sys.stderr)
        return 1
    return 0


def _cmd_decompose(args) -> int:
    g = _load(args.graph)
    if args.mode == "tip":
        if args.workers is not None and args.workers > 1:
            from repro.core import tip_numbers_bucket_parallel

            numbers = tip_numbers_bucket_parallel(
                g, side=args.side, n_workers=args.workers
            )
        else:
            from repro.core import tip_numbers_bucket

            numbers = tip_numbers_bucket(g, side=args.side)
        order = numbers.argsort()[::-1][: args.top]
        print(f"tip numbers ({args.side} side), top {args.top}:")
        for v in order:
            print(f"  vertex {int(v):6d}: {int(numbers[v])}")
        print(f"max tip number: {int(numbers.max()) if numbers.size else 0}")
    else:
        if args.workers is not None and args.workers > 1:
            from repro.core import wing_numbers_bucket_parallel

            wn = wing_numbers_bucket_parallel(g, n_workers=args.workers)
        else:
            from repro.core import wing_numbers

            wn = wing_numbers(g)
        ranked = sorted(wn.items(), key=lambda kv: -kv[1])[: args.top]
        print(f"wing numbers, top {args.top}:")
        for (u, v), w in ranked:
            print(f"  edge ({u}, {v}): {w}")
        print(f"max wing number: {max(wn.values()) if wn else 0}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graphs import gnm_bipartite, power_law_bipartite, save_konect

    if args.model == "powerlaw":
        g = power_law_bipartite(
            args.n_left, args.n_right, args.edges, seed=args.seed
        )
    else:
        g = gnm_bipartite(args.n_left, args.n_right, args.edges, seed=args.seed)
    save_konect(g, args.output)
    print(f"wrote {g!r} to {args.output}")
    return 0


def _cmd_algorithms(args) -> int:
    from repro.core import all_algorithms

    members = all_algorithms(executor=args.executor)
    graph = _load(args.run) if args.run else None
    results = set()
    for spec in members:
        line = f"{spec.name:30s} {spec.invariant.description}"
        if graph is not None:
            value = spec(graph)
            results.add(value)
            line += f"  -> {value}"
        print(line)
    print(f"{len(members)} members")
    if graph is not None:
        if len(results) != 1:
            print("ERROR: members disagree!", file=sys.stderr)
            return 1
        print(f"all agree: {results.pop()}")
    return 0


def _cmd_stats(args) -> int:
    from repro import obs

    if args.list_runs:
        for run in obs.jsonl_runs(args.from_metrics):
            print(run)
        return 0
    try:
        registry = obs.read_jsonl(args.from_metrics, run=args.run)
    except ValueError as exc:  # unknown --run id
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = f"metrics: {args.from_metrics}"
    if args.run is not None:
        title += f" (run {args.run})"
    if args.json:
        import json

        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    print(obs.render_table(registry, title=title))
    return 0


def _cmd_stream(args) -> int:
    """``repro-butterfly stream`` — replay an edge script (docs/streaming.md)."""
    from repro import engine
    from repro.core.stream import SnapshotError, StreamingButterflyCounter
    from repro.core.stream.script import iter_batches, load_script

    g = _load(args.graph)
    counter = StreamingButterflyCounter(g)
    if args.snapshot_in:
        try:
            with open(args.snapshot_in, "rb") as fh:
                counter.restore(fh.read())
        except (OSError, SnapshotError) as exc:
            print(f"error: cannot restore snapshot: {exc}", file=sys.stderr)
            return 1
    ops = load_script(args.script)
    batches = []
    for index, (insert, delete) in enumerate(iter_batches(ops)):
        strategy = args.strategy
        if strategy == "auto":
            chosen = engine.plan(
                counter.to_graph(), "stream_apply", batch=(insert, delete)
            )
            strategy = chosen.strategy
        stats = counter.apply(insert=insert, delete=delete, strategy=strategy)
        row = dict(stats, batch=index, strategy=strategy)
        batches.append(row)
        if not args.json:
            print(
                f"batch {index}: +{stats['inserted']} -{stats['deleted']} "
                f"created {stats['created']} destroyed {stats['destroyed']} "
                f"({strategy})"
            )
    if args.snapshot_out:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(counter.snapshot())
    if args.json:
        import json

        payload = {
            "graph": args.graph,
            "script": args.script,
            "batches": batches,
            "n_edges": counter.n_edges,
            "butterflies": counter.count,
        }
        if args.snapshot_out:
            payload["snapshot_out"] = args.snapshot_out
        print(json.dumps(payload, indent=2))
        return 0
    print(f"edges       : {counter.n_edges}")
    print(f"butterflies : {counter.count}")
    if args.snapshot_out:
        print(f"snapshot    : {args.snapshot_out}")
    return 0


def _changed_files_since(rev: str) -> set[str]:
    """Absolute paths changed since git ``rev``, plus untracked files.

    The set feeds ``analyze --diff``: only these files get *reported*
    per-file findings, while the whole-program model still covers every
    scanned file (interprocedural rules stay sound on partial scans).
    """
    import subprocess

    out: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", rev],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=True
        )
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                out.add(os.path.abspath(line))
    return out


def _cmd_analyze(args) -> int:
    """``repro-butterfly analyze`` — the domain lint gate (docs/analysis.md)."""
    import json as _json

    from repro import analysis

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    baseline = None
    if args.baseline:
        baseline = analysis.load_baseline(args.baseline)
    changed_only = None
    if args.diff:
        changed_only = _changed_files_since(args.diff)
    cache_path = None if args.no_cache else args.cache_path
    report = analysis.analyze_paths(
        list(args.paths),
        rules=rules,
        baseline=baseline,
        jobs=max(1, args.jobs),
        cache_path=cache_path,
        changed_only=changed_only,
    )
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            _json.dump(analysis.baseline_payload(report), fh, indent=2)
            fh.write("\n")
        print(
            f"baseline: recorded {len(report.findings)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0
    if args.format == "json":
        rendered = analysis.render_json(report)
    elif args.format == "sarif":
        rendered = analysis.render_sarif(report)
    else:
        rendered = analysis.render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            fh.write("\n")
    print(rendered)
    return report.exit_code


def main(argv=None) -> int:
    """CLI entry point (installed as ``repro-butterfly``)."""
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "count": _cmd_count,
        "peel": _cmd_peel,
        "explain": _cmd_explain,
        "calibrate": _cmd_calibrate,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "decompose": _cmd_decompose,
        "generate": _cmd_generate,
        "algorithms": _cmd_algorithms,
        "stats": _cmd_stats,
        "stream": _cmd_stream,
        "analyze": _cmd_analyze,
    }[args.command]
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    profile_out = getattr(args, "profile_out", None)
    if not metrics_out and not trace_out and not profile_out:
        return handler(args)
    from repro import obs

    obs.enable()
    if profile_out:
        obs.start_profiler(hz=getattr(args, "profile_hz", None))
    try:
        # root span: every command's trace renders as one cli.<command>
        # tree (worker spans re-parent under their dispatch span inside)
        with obs.span(f"cli.{args.command}", command=args.command):
            return handler(args)
    finally:
        if profile_out:
            obs.stop_profiler()
            obs.dump_profile(profile_out)
        if metrics_out:
            obs.dump_jsonl(metrics_out, command=args.command)
        if trace_out:
            obs.dump_trace(trace_out, command=args.command)
        obs.disable()
        obs.reset()  # keep back-to-back in-process invocations hermetic


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
