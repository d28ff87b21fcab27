"""Self-tests for the end-to-end benchmark.

Run from the root of a checkout with ``python3 -m pytest e2ebench``. They
check that the inputs and oracles match the program's own definitions, that
a wrong answer and a moved counter are caught, and that the command runs
end to end on a second seed and refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    butterflies_oracle,
    gnm_edges,
    power_law_edges,
    tip_oracle,
)

TINY_COUNT = Workload("tiny_count", "test", "power_law", (60, 80, 500), 0, "count")
TINY_TIP = Workload("tiny_tip", "test", "power_law", (60, 80, 500), 0, "tip", k=3)


class WrongOracle(Workload):
    def expected(self, rows, cols):
        return butterflies_oracle(rows, cols, *self.shape[:2]) + 1


def _graph(rows, cols, shape):
    from repro.graphs.bipartite import BipartiteGraph

    return BipartiteGraph(np.stack([rows, cols], axis=1), n_left=shape[0], n_right=shape[1])


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_generators_match_the_program(seed):
    from repro.graphs.generators import gnm_bipartite, power_law_bipartite

    ref = power_law_bipartite(300, 400, 2500, seed=seed).edges()
    rows, cols = power_law_edges(300, 400, 2500, seed=seed)
    assert np.array_equal(ref[:, 0], rows) and np.array_equal(ref[:, 1], cols)
    ref = gnm_bipartite(50, 4000, 3000, seed=seed).edges()
    rows, cols = gnm_edges(50, 4000, 3000, seed=seed)
    assert np.array_equal(ref[:, 0], rows) and np.array_equal(ref[:, 1], cols)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracles_match_the_reference_implementations(seed):
    from repro.reference import k_tip_reference
    from repro.baselines.bruteforce import count_butterflies_bruteforce

    shape = (30, 40, 250)
    rows, cols = power_law_edges(*shape, seed=seed)
    graph = _graph(rows, cols, shape)
    assert butterflies_oracle(rows, cols, 30, 40) == count_butterflies_bruteforce(graph)
    assert butterflies_oracle(cols, rows, 40, 30) == count_butterflies_bruteforce(graph)
    for k in (1, 4, 20):
        kept, _ = tip_oracle(rows, cols, 30, 40, k)
        reference = k_tip_reference(graph, k, side="left")
        assert kept.tolist() == np.flatnonzero(reference).tolist()


def test_write_konect_round_trips_through_the_loader(tmp_path):
    from repro.graphs.io import load_konect

    path, n_edges, _ = TINY_COUNT.prepare(3, str(tmp_path))
    rows, cols = TINY_COUNT.edges(3)
    graph = load_konect(path)
    assert n_edges == graph.n_edges == rows.size
    assert graph == _graph(rows, cols, TINY_COUNT.shape)


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    wrong = WrongOracle(**dataclasses.asdict(TINY_COUNT))
    out = run.measure(wrong, 5, 0.0, False, tmp_path)["result"]
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 2
    assert out["metrics"]["ok_frac"]["value"] == 0.0


def test_right_answer_passes_and_reports_every_metric(tmp_path):
    out = run.measure(TINY_COUNT, 5, 0.0, False, tmp_path)["result"]
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_counters_repeat_and_layers_cover_wall(tmp_path):
    out = run.measure(TINY_TIP, 5, 0.0, True, tmp_path)
    assert out["result"]["correct"] is True
    assert set(out["result"]["metrics"]) == set(run.PER_LAYER_UNITS)
    assert out["detail"]["counters_moved"] == []
    assert out["detail"]["layer_sum_ok"] is True
    assert out["detail"]["counters"]["peel.rounds"] >= 1


def test_changed_counter_is_detected():
    rows = [{name: 10 for name in run.DETERMINISTIC} for _ in range(3)]
    assert run.counters_stable(rows) == []
    rows[2]["parallel.tasks"] = 11
    assert run.counters_stable(rows) == ["parallel.tasks"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_second_seed_runs_end_to_end():
    proc = _run(ROOT, "--workload", "count_wide", "--seed", "8", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert not (ROOT / ".e2ebench-work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "count_dense", "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
