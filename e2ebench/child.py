"""One repetition of a workload, run the way a CLI user runs it.

Launched by ``run.py`` as a fresh interpreter per repetition::

    python3 child.py MODE TASK K PATH

``MODE`` is ``e2e`` (the timed user path; run.py sets ``REPRO_OBS=0``),
``traced`` (the same path with ``REPRO_OBS=1``; ships the obs registry and
span records back) or ``probe`` (the user path followed by the extra
measurements the layer table needs: layout build, warm re-execution, and
the pinned-plan set behind ``engine.regret``).

The last line of standard output is one JSON object. Timestamps are
``time.monotonic()`` readings, which share one system-wide clock with
run.py, so run.py can place the child's layers between its own launch and
exit stamps.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _result_form(task, result):
    """The program's answer in the form the oracle reports."""
    if task == "count":
        return int(result)
    import numpy as np

    return {
        "kept": np.flatnonzero(result.kept).tolist(),
        "rounds": int(result.rounds),
    }


def _plan(engine, graph, task, k, **pins):
    if task == "count":
        return engine.plan(graph, "count", **pins)
    return engine.plan(graph, "tip", side="left", k=k, **pins)


def _timed(fn):
    t0 = time.monotonic()
    value = fn()
    return value, time.monotonic() - t0


def _pinned_set(task):
    """The fixed comparison set for ``engine.regret``."""
    if task == "count":
        return {
            "family-serial": dict(family_only=True, executor="serial"),
            "wedge-serial": dict(strategy="wedge", executor="serial", workers=1),
            "wedge-sharedx2": dict(strategy="wedge", executor="shared", workers=2),
            "blocked-serial": dict(strategy="blocked", executor="serial"),
        }
    return {
        "blocked-serial": dict(executor="serial"),
        "blocked-sharedx2": dict(executor="shared", workers=2),
    }


def _probe(engine, graph, plan, task, k, shutdown):
    """Layout, warm re-execution and regret measurements for the traced
    run; called right after the cold ``engine.execute`` with its pool
    still up."""
    from repro.storage import resolve_storage

    _, layout_s = _timed(lambda: resolve_storage(graph, plan.layout))
    warm, warm_s = _timed(lambda: engine.execute(plan, graph))
    pinned = {}
    for name, pins in _pinned_set(task).items():
        shutdown()
        pinned_plan = _plan(engine, graph, task, k, **pins)
        result, seconds = _timed(lambda: engine.execute(pinned_plan, graph))
        pinned[name] = {
            "label": pinned_plan.label,
            "seconds": seconds,
            "result": _result_form(task, result),
        }
    return {
        "layout_s": layout_s,
        "warm_s": warm_s,
        "warm_result": _result_form(task, warm),
        "pinned": pinned,
    }


def main(argv):
    mode, task, k, path = argv[1], argv[2], int(argv[3]), argv[4]
    stamps = {"start": T_START}

    import repro  # noqa: F401
    from repro import engine, obs
    from repro.graphs.io import load_konect
    from repro.parallel import shutdown_default_executors

    stamps["imported"] = time.monotonic()
    graph = load_konect(path)
    stamps["loaded"] = time.monotonic()
    graph.csr
    graph.csc
    stamps["built"] = time.monotonic()
    plan = _plan(engine, graph, task, k)
    stamps["planned"] = time.monotonic()
    result = engine.execute(plan, graph)
    stamps["executed"] = time.monotonic()
    out = {"result": _result_form(task, result)}
    if mode == "probe":
        out["probe"] = _probe(
            engine, graph, plan, task, k, shutdown_default_executors
        )
    stamps["checked"] = time.monotonic()
    shutdown_default_executors()
    stamps["end"] = time.monotonic()

    import numpy

    out.update(
        stamps=stamps,
        plan={
            "label": plan.label,
            "workers": plan.workers,
            "layout": plan.layout,
            "est_seconds": plan.est_seconds,
            "candidates": len(plan.candidates),
        },
        n_edges=int(graph.n_edges),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__},
    )
    if mode == "traced":
        snapshot = obs.snapshot()
        for record in snapshot.values():
            record.pop("buckets", None)
        out["obs"] = {
            "metrics": snapshot,
            "spans": [
                {key: s.get(key) for key in ("name", "span_id", "parent_id", "dur")}
                for s in obs.trace_records()
            ],
        }
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv)
