"""Layered end-to-end benchmark of the butterfly counter.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload count_dense --seed 7 --seconds 35 --trace 0

Each workload is a closed loop with one client: repetitions run one after
another, each in a fresh interpreter (``child.py``) that imports ``repro``,
loads a KONECT file, plans, executes and shuts its pool down -- what a CLI
user pays per call. The benchmark generates the input from ``--seed`` and
computes the expected answer with its own scipy oracle before timing starts,
then checks every repetition against it.

``--trace 0`` reports the end-to-end metrics (medians over the repetitions,
``REPRO_OBS=0``). ``--trace 1`` cycles untraced, traced (``REPRO_OBS=1``) and
probe repetitions and reports the per-layer metrics. The last line of
standard output is the result object; the line before it carries quartiles,
sample counts, the deterministic counters and the environment.

Children run in a scratch directory under ``.e2ebench-work/`` with the
planner calibration and the drift ledger pointed into it, so a run leaves no
file of the checkout changed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".e2ebench-work"
CHILD = HERE / "child.py"

#: A repetition that has not exited by then is killed and counted as failed;
#: small enough that a run with a hung warm-up and a hung last repetition
#: still ends within three minutes.
CHILD_TIMEOUT_S = 50.0

#: Counters that must read the same on every traced repetition.
DETERMINISTIC = (
    "core.wedges",
    "parallel.publish_bytes",
    "parallel.tasks",
    "parallel.pool_starts",
    "peel.rounds",
)

#: The traced layer table (disjoint, in order) must cover wall within this.
LAYER_SUM_TOLERANCE = 0.05

#: Layers of one traced repetition: (name, from stamp, to stamp). "launch"
#: and "exit" are run.py's own stamps around the child process.
LAYERS = (
    ("python.start_s", "launch", "start"),
    ("import_s", "start", "imported"),
    ("io.load_s", "imported", "loaded"),
    ("sparsela.build_s", "loaded", "built"),
    ("engine.plan_s", "built", "planned"),
    ("engine.execute_s", "planned", "executed"),
    ("teardown_s", "checked", "end"),
    ("python.exit_s", "end", "exit"),
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "1",
}

PER_LAYER_UNITS = {
    **{name: "s" for name, _, _ in LAYERS},
    "io.ns_per_edge": "ns",
    "engine.plan.candidates": "count",
    "engine.plan.rel_error": "1",
    "engine.regret": "1",
    "storage.layout_s": "s",
    "parallel.cold_start_s": "s",
    "parallel.publish_bytes": "bytes",
    "parallel.tasks": "count",
    "parallel.pool_starts": "count",
    "parallel.map_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.idle_frac": "1",
    "core.kernel_s": "s",
    "core.wedges": "count",
    "core.gather_bytes": "bytes",
    "core.ns_per_wedge": "ns",
    "peel.rounds": "count",
    "peel.round_s": "s",
    "traced.wall_s": "s",
    "unattributed_s": "s",
    "layers.sum_frac": "1",
    "obs.overhead_frac": "1",
}


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned descendants (the multiprocessing resource tracker
    outlives each child by a few ms) so they can be reaped here."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _live_children() -> list[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def reap_orphans(timeout: float = 10.0) -> None:
    """Wait for every adopted descendant; kill what outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _live_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.005)


def child_env(workdir: Path, traced: bool) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_OBS="1" if traced else "0",
        REPRO_CALIBRATION=str(workdir / "calibration.json"),
        REPRO_DRIFT_LEDGER=str(workdir / "plan_drift.jsonl"),
    )
    return env


def run_child(mode: str, workload, path: str, workdir: Path) -> dict:
    """Launch one repetition; return its stamps, usage and reply."""
    argv = [sys.executable, str(CHILD), mode, workload.task, str(workload.k), path]
    with open(workdir / "child.stderr", "w+b") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=workdir,
            env=child_env(workdir, mode == "traced"),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            exit_t = time.monotonic()
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    reap_orphans()
    rep = {
        "mode": mode,
        "returncode": proc.returncode,
        "wall_s": exit_t - launch,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        reply = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        rep["error"] = f"{exc}: {stderr.strip()[-600:]}"
        return rep
    stamps = dict(reply.pop("stamps"), launch=launch, exit=exit_t)
    rep.update(reply, stamps=stamps)
    rep["setup_s"] = stamps["built"] - launch
    rep["run_s"] = stamps["executed"] - stamps["built"]
    return rep


def judge(rep: dict, expected) -> None:
    """Mark a repetition ok only if every answer it produced is right."""
    if "error" in rep:
        rep["ok"] = False
        return
    answers = [rep["result"]]
    probe = rep.get("probe")
    if probe:
        answers.append(probe["warm_result"])
        answers.extend(p["result"] for p in probe["pinned"].values())
    rep["ok"] = all(answer == expected for answer in answers)
    if not rep["ok"]:
        rep["error"] = "answer disagrees with the oracle"


# ----------------------------------------------------------------------
# per-layer numbers from one traced / probe repetition
# ----------------------------------------------------------------------
def _value(metrics: dict, name: str) -> float:
    record = metrics.get(name)
    if record is None:
        return 0
    return record["value"] if "value" in record else record["total"]


def _kernel_seconds(spans: list[dict]) -> float:
    """Total duration of the leaf spans under ``engine.execute``: the
    panel / shard calls where the counting work happens."""
    by_id = {s["span_id"]: s for s in spans}
    parents = {s["parent_id"] for s in spans}

    def under_execute(span):
        seen = 0
        while span is not None and seen < 64:
            if span["name"] == "engine.execute":
                return True
            span = by_id.get(span["parent_id"])
            seen += 1
        return False

    return sum(
        s["dur"]
        for s in spans
        if s["span_id"] not in parents and s["name"] != "engine.execute"
        and under_execute(s)
    )


def traced_layers(rep: dict) -> dict:
    """Layer table, counters and pool figures of one traced repetition."""
    stamps = rep["stamps"]
    out = {name: stamps[b] - stamps[a] for name, a, b in LAYERS}
    layer_sum = sum(out.values())
    out["traced.wall_s"] = rep["wall_s"]
    out["unattributed_s"] = rep["wall_s"] - layer_sum
    out["layers.sum_frac"] = layer_sum / rep["wall_s"]
    out["io.ns_per_edge"] = out["io.load_s"] / max(rep["n_edges"], 1) * 1e9

    metrics, spans = rep["obs"]["metrics"], rep["obs"]["spans"]
    out["core.wedges"] = _value(metrics, "kernels.gather.items")
    out["core.gather_bytes"] = _value(metrics, "kernels.gather.bytes")
    out["parallel.publish_bytes"] = _value(metrics, "executor.publish_bytes")
    out["parallel.tasks"] = _value(metrics, "executor.tasks")
    out["parallel.pool_starts"] = _value(metrics, "executor.pool_starts")
    out["peel.rounds"] = _value(metrics, "peel.tip.rounds")
    rounds_s = _value(metrics, "peel.tip.round.seconds")
    out["peel.round_s"] = rounds_s / out["peel.rounds"] if out["peel.rounds"] else 0.0
    map_s = _value(metrics, "executor.map.seconds")
    busy_s = sum(
        _value(metrics, name)
        for name in metrics
        if name.startswith("worker.") and name.endswith(".seconds")
    )
    out["parallel.map_s"] = map_s
    out["parallel.worker_busy_s"] = busy_s
    width = rep["plan"]["workers"]
    out["parallel.idle_frac"] = 1.0 - busy_s / (map_s * width) if map_s else 0.0
    kernel_s = _kernel_seconds(spans)
    out["core.kernel_s"] = kernel_s
    out["core.ns_per_wedge"] = (
        kernel_s / out["core.wedges"] * 1e9 if out["core.wedges"] else 0.0
    )
    return out


def probe_layers(rep: dict) -> dict:
    probe = rep["probe"]
    cold_s = rep["stamps"]["executed"] - rep["stamps"]["planned"]
    best_pinned = min(p["seconds"] for p in probe["pinned"].values())
    return {
        "storage.layout_s": probe["layout_s"],
        "parallel.cold_start_s": cold_s - probe["warm_s"],
        "engine.regret": cold_s / best_pinned,
    }


def counters_stable(traced: list[dict]) -> list[str]:
    """Names of the deterministic counters that moved between repetitions."""
    return [
        name for name in DETERMINISTIC if len({t[name] for t in traced}) > 1
    ]


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "median": med, "p75": q3, "n": len(values)}


def layer_summary(ok: list[dict], detail: dict) -> dict | None:
    """Per-layer quartiles of a traced run; None if a repetition kind is
    missing. Fills the counters and the layer-sum check into ``detail``."""
    e2e = [r for r in ok if r["mode"] == "e2e"]
    traced = [traced_layers(r) for r in ok if r["mode"] == "traced"]
    probes = [r for r in ok if r["mode"] == "probe"]
    if not (e2e and traced and probes):
        return None
    rows = {name: [t[name] for t in traced] for name in traced[0]}
    for name in ("storage.layout_s", "parallel.cold_start_s", "engine.regret"):
        rows[name] = [probe_layers(r)[name] for r in probes]
    execute_s = statistics.median(
        r["stamps"]["executed"] - r["stamps"]["planned"] for r in e2e
    )
    plan = ok[0]["plan"]
    rows["engine.plan.candidates"] = [plan["candidates"]]
    rows["engine.plan.rel_error"] = [abs(plan["est_seconds"] - execute_s) / execute_s]
    untraced_wall = statistics.median(r["wall_s"] for r in e2e)
    rows["obs.overhead_frac"] = [
        statistics.median(rows["traced.wall_s"]) / untraced_wall - 1.0
    ]
    summary = {name: _quartiles(values) for name, values in rows.items()}
    detail["counters"] = {name: traced[0][name] for name in DETERMINISTIC}
    detail["counters_moved"] = counters_stable(traced)
    uncovered = abs(1.0 - summary["layers.sum_frac"]["median"])
    detail["layer_sum_ok"] = uncovered <= LAYER_SUM_TOLERANCE
    detail["pinned_s"] = {
        p["label"]: p["seconds"] for p in probes[0]["probe"]["pinned"].values()
    }
    return summary


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Generate the input, run repetitions for ``seconds``, summarise."""
    path, n_edges, expected = workload.prepare(seed, str(workdir))
    reps = []

    def one(mode):
        rep = run_child(mode, workload, path, workdir)
        judge(rep, expected)
        reps.append(rep)

    one("e2e")  # fills the bytecode and page caches; checked, not timed
    cycle = ("e2e", "traced", "probe") if trace else ("e2e",)
    deadline = time.monotonic() + seconds
    while True:
        for mode in cycle:
            one(mode)
        if time.monotonic() >= deadline:
            break

    ok = [r for r in reps[1:] if r["ok"]]
    failed = sum(not r["ok"] for r in reps)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "graph_seed": workload.graph_seed(seed),
        "n_edges": n_edges,
        "cpu_count": os.cpu_count(),
        "attempted": len(reps),
        "failed": failed,
        "errors": sorted({r["error"] for r in reps if "error" in r})[:5],
    }
    if ok:
        detail.update(
            pool_width=ok[0]["plan"]["workers"],
            plan=ok[0]["plan"]["label"],
            **ok[0]["versions"],
        )
    if trace:
        summary = layer_summary(ok, detail) or {}
        units = PER_LAYER_UNITS
        correct = (
            failed == 0
            and not detail.get("counters_moved")
            and detail.get("layer_sum_ok", False)
        )
    else:
        e2e = [r for r in ok if r["mode"] == "e2e"]
        summary = {
            name: _quartiles([r[name] for r in e2e])
            for name in ("wall_s", "setup_s", "run_s", "cpu_s", "peak_rss_mib")
            if e2e
        }
        summary["ok_frac"] = {"median": 1.0 - failed / len(reps), "n": len(reps)}
        units = END_TO_END_UNITS
        correct = failed == 0
    detail["summary"] = summary
    metrics = {
        name: {"value": summary[name]["median"], "unit": unit}
        for name, unit in units.items()
        if name in summary
    }
    return {
        "detail": detail,
        "result": {
            "correct": correct and len(metrics) == len(units),
            "attempted": len(reps),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _become_subreaper()
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
        reap_orphans()
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
