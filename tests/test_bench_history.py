"""Tests for the bench history / perf-regression gate (PR 3 tentpole 3).

Pins both exit paths of ``repro-butterfly bench --compare`` (the ISSUE
acceptance criterion): 0 on an identical baseline, non-zero when a
≥tolerance regression is injected into the baseline fixture.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.history import (
    DEFAULT_TOLERANCE,
    append_history,
    compare,
    compare_files,
    flatten_metrics,
    has_regression,
    metric_direction,
    read_history,
    render_verdicts,
)

#: A miniature BENCH_parallel.json-shaped payload.
PAYLOAD = {
    "benchmark": "parallel_sharedmem_dispatch",
    "n_workers": 2,
    "cpu_count": 4,
    "dispatch_overhead": {
        "graph": {"n_edges": 150000, "butterflies": 77},
        "seconds_inproc": 0.050,
        "overhead_seed_seconds": 0.400,
        "overhead_shared_seconds": 0.050,
        "overhead_ratio": 8.0,
    },
    "throughput": {"seconds_serial": 0.9, "seconds_shared_warm_per_call": 0.3},
}


# ----------------------------------------------------------------------
# flattening + direction
# ----------------------------------------------------------------------
class TestFlatten:
    def test_nested_numeric_leaves(self):
        flat = flatten_metrics(PAYLOAD)
        assert flat["dispatch_overhead.overhead_ratio"] == 8.0
        assert flat["dispatch_overhead.graph.n_edges"] == 150000.0
        assert "benchmark" not in flat  # strings dropped

    def test_booleans_dropped(self):
        assert flatten_metrics({"a": True, "b": 1}) == {"b": 1.0}

    def test_directions(self):
        assert metric_direction("dispatch_overhead.overhead_ratio") == "higher"
        assert metric_direction("throughput.seconds_serial") == "lower"
        assert metric_direction("x.overhead_seed_seconds") == "lower"
        assert metric_direction("dispatch_overhead.graph.n_edges") is None
        assert metric_direction("n_workers") is None  # run metadata

    def test_bytes_leaves_are_lower_better(self):
        # storage.publish_bytes: a growing shm segment is a compression
        # regression the bench gate must trip on
        assert metric_direction("storage.publish_bytes") == "lower"
        assert metric_direction("storage.publish_bytes_raw") == "lower"
        assert metric_direction("storage.publish_shrink_ratio") == "higher"

    def test_publish_bytes_regression_trips_compare(self):
        baseline = {"storage": {"publish_bytes": 465000}}
        current = {"storage": {"publish_bytes": 930000}}  # codec regressed 2x
        rows = compare(baseline, current, tolerance=0.15)
        assert has_regression(rows)
        (bad,) = [r for r in rows if r.is_regression]
        assert bad.name == "storage.publish_bytes"


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_payloads_no_regression(self):
        rows = compare(PAYLOAD, copy.deepcopy(PAYLOAD))
        assert not has_regression(rows)
        assert all(r.status in ("ok", "info") for r in rows)

    def test_lower_better_regression(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["overhead_shared_seconds"] = 0.075  # +50%
        rows = compare(PAYLOAD, current, tolerance=0.15)
        assert has_regression(rows)
        (bad,) = [r for r in rows if r.is_regression]
        assert bad.name == "dispatch_overhead.overhead_shared_seconds"
        assert bad.change == pytest.approx(0.5)

    def test_higher_better_regression(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["overhead_ratio"] = 4.0  # halved
        rows = compare(PAYLOAD, current, tolerance=0.15)
        (bad,) = [r for r in rows if r.is_regression]
        assert bad.name == "dispatch_overhead.overhead_ratio"

    def test_within_tolerance_is_ok(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["overhead_shared_seconds"] = 0.055  # +10%
        assert not has_regression(compare(PAYLOAD, current, tolerance=0.15))

    def test_improvement_reported_not_failed(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["overhead_shared_seconds"] = 0.025
        rows = compare(PAYLOAD, current)
        assert not has_regression(rows)
        assert any(r.status == "improved" for r in rows)

    def test_informational_metrics_never_regress(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["graph"]["n_edges"] = 1  # wildly off
        rows = compare(PAYLOAD, current)
        assert not has_regression(rows)

    def test_added_and_removed(self):
        current = copy.deepcopy(PAYLOAD)
        del current["throughput"]
        current["new_section"] = {"seconds_new": 1.0}
        statuses = {r.name: r.status for r in compare(PAYLOAD, current)}
        assert statuses["new_section.seconds_new"] == "added"
        assert statuses["throughput.seconds_serial"] == "removed"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare(PAYLOAD, PAYLOAD, tolerance=-0.1)

    def test_render_verdicts_table(self):
        current = copy.deepcopy(PAYLOAD)
        current["dispatch_overhead"]["overhead_ratio"] = 4.0
        out = render_verdicts(
            compare(PAYLOAD, current), tolerance=DEFAULT_TOLERANCE
        )
        assert "REGRESSION" in out
        assert "dispatch_overhead.overhead_ratio" in out
        assert "1 regression" in out

    def test_compare_files(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(PAYLOAD))
        cur.write_text(json.dumps(PAYLOAD))
        assert not has_regression(compare_files(base, cur))


# ----------------------------------------------------------------------
# CLI exit-code paths (the unit-tested gate the CI job relies on)
# ----------------------------------------------------------------------
class TestCliGate:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_identical_baseline(self, tmp_path, capsys):
        from repro.cli import main

        base = self._write(tmp_path, "base.json", PAYLOAD)
        cur = self._write(tmp_path, "cur.json", PAYLOAD)
        rc = main(["bench", "--compare", base, "--current", cur])
        assert rc == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_regression(self, tmp_path, capsys):
        from repro.cli import main

        regressed = copy.deepcopy(PAYLOAD)
        regressed["dispatch_overhead"]["overhead_shared_seconds"] = 0.2
        base = self._write(tmp_path, "base.json", PAYLOAD)
        cur = self._write(tmp_path, "cur.json", regressed)
        rc = main([
            "bench", "--compare", base, "--current", cur,
            "--tolerance", "0.15",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "FAIL" in captured.err

    def test_warn_only_downgrades_to_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        regressed = copy.deepcopy(PAYLOAD)
        regressed["dispatch_overhead"]["overhead_ratio"] = 1.0
        base = self._write(tmp_path, "base.json", PAYLOAD)
        cur = self._write(tmp_path, "cur.json", regressed)
        rc = main(["bench", "--compare", base, "--current", cur, "--warn-only"])
        assert rc == 0
        assert "WARNING" in capsys.readouterr().err

    def test_missing_baseline_is_exit_two(self, tmp_path, capsys):
        from repro.cli import main

        cur = self._write(tmp_path, "cur.json", PAYLOAD)
        rc = main([
            "bench", "--compare", str(tmp_path / "nope.json"), "--current", cur,
        ])
        assert rc == 2
        assert "cannot read baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# history file
# ----------------------------------------------------------------------
class TestHistory:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        r1 = append_history(path, PAYLOAD, run="r1", commit="abc")
        r2 = append_history(path, PAYLOAD, run="r2")
        assert r1["metrics"]["dispatch_overhead.overhead_ratio"] == 8.0
        assert r1["commit"] == "abc"
        records = read_history(path)
        assert [r["run"] for r in records] == ["r1", "r2"]
        assert all(r["benchmark"] == PAYLOAD["benchmark"] for r in records)

    def test_cli_history_append(self, tmp_path, capsys):
        from repro.cli import main

        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(PAYLOAD))
        hist = tmp_path / "hist.jsonl"
        rc = main([
            "bench", "--current", str(cur), "--history", str(hist),
        ])
        assert rc == 0
        assert "appended run" in capsys.readouterr().out
        assert len(read_history(hist)) == 1

    def test_parallel_bench_history_flag(self, tmp_path):
        """--history on the bench module itself appends one record."""
        from repro.bench.history import read_history as rh

        # drive append_history exactly as parallel_bench.main does, with
        # a canned payload (running the real bench is minutes-slow)
        hist = tmp_path / "h.jsonl"
        append_history(hist, PAYLOAD)
        assert len(rh(hist)) == 1
