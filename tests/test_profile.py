"""Tests for the background sampling profiler (:mod:`repro.obs.profile`).

Covers the lifecycle (disabled no-op, start/stop idempotence, capture
hermeticity), span attribution through ``trace._ACTIVE_SPANS``, the
collapsed-stack exporter (format + round-trip), the
worker-delta transport (``PROFILE_DELTA_KEY`` re-parenting), and the CI
smoke: at least one sample lands inside a kernel span on a real count.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs import profile as obs_profile
from repro.obs.profile import (
    DEFAULT_PROFILE_HZ,
    PROFILE_THREAD_NAME,
    SampleBuffer,
    aggregate_frames,
    collapsed_stacks,
    parse_collapsed,
    render_profile_report,
    write_collapsed,
)


def _profiler_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name == PROFILE_THREAD_NAME
    ]


def _spin(seconds: float) -> int:
    """Busy loop the sampler can observe (needs real frames on the stack)."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += 1
    return acc


@pytest.fixture(autouse=True)
def _clean_profiler_state():
    """Every test starts and ends with no profiler thread and no samples."""
    obs_profile.stop_profiler()
    obs_profile.clear_samples()
    yield
    obs_profile.stop_profiler()
    obs_profile.clear_samples()
    assert not _profiler_threads()


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_disabled_start_is_noop(self):
        # obs is off by default in the suite: no thread may be created
        assert not obs.is_enabled()
        assert obs.start_profiler() is None
        assert not _profiler_threads()
        assert obs.profile_samples() == []

    def test_start_stop_under_capture(self):
        with obs.capture():
            prof = obs.start_profiler(hz=250)
            assert prof is not None
            assert prof.running
            assert len(_profiler_threads()) == 1
            # idempotent: same handle while running in this process
            assert obs.start_profiler() is prof
            assert len(_profiler_threads()) == 1
            stopped = obs.stop_profiler()
            assert stopped is prof
            assert not prof.running
        assert not _profiler_threads()

    def test_sampler_collects_and_attributes(self):
        with obs.capture():
            obs.start_profiler(hz=400)
            with obs.span("test.profiled_region"):
                _spin(0.2)
            obs.stop_profiler()
            records = obs.profile_samples()
        assert records, "sampler collected nothing in 200ms at 400 Hz"
        for s in records:
            assert set(s) >= {"ts", "pid", "tid", "stack", "span"}
            assert isinstance(s["stack"], list) and s["stack"]
        attributed = [s for s in records if s["span"] == "test.profiled_region"]
        assert attributed, "no sample attributed to the open span"
        assert any("_spin" in frame for s in attributed for frame in s["stack"])

    def test_capture_is_hermetic_for_samples(self):
        with obs.capture():
            obs.start_profiler(hz=400)
            _spin(0.05)
            obs.stop_profiler()
            assert obs.profile_samples()
        # leaving capture() restores the previous (empty) buffer
        assert obs.profile_samples() == []

    def test_default_hz(self):
        with obs.capture():
            prof = obs.start_profiler()
            assert prof.hz == DEFAULT_PROFILE_HZ
            assert prof.interval == pytest.approx(1.0 / DEFAULT_PROFILE_HZ)

    def test_forced_off_env_means_no_thread_and_no_writes(self, tmp_path):
        # REPRO_OBS=0 must make enable() + start_profiler() true no-ops:
        # no sampler thread, no samples, and dump_profile writes nothing
        code = (
            "import threading\n"
            "from repro import obs\n"
            "from repro.obs.profile import PROFILE_THREAD_NAME\n"
            "obs.enable()\n"
            "assert not obs.is_enabled()\n"
            "assert obs.start_profiler() is None\n"
            "names = [t.name for t in threading.enumerate()]\n"
            "assert PROFILE_THREAD_NAME not in names, names\n"
            "assert obs.profile_samples() == []\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"REPRO_OBS": "0", "PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# buffer
# ----------------------------------------------------------------------
class TestSampleBuffer:
    def test_bounded_capacity_counts_drops(self):
        buf = SampleBuffer(capacity=4)
        for i in range(10):
            buf.record({"i": i})
        assert len(buf) == 4
        assert buf.dropped == 6
        assert [s["i"] for s in buf.records()] == [6, 7, 8, 9]

    def test_drain_empties(self):
        buf = SampleBuffer(capacity=4)
        buf.record({"i": 0})
        assert buf.drain() == [{"i": 0}]
        assert len(buf) == 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _fake_records():
    return [
        {"ts": 1.0, "pid": 1, "tid": 2, "span": "family.count",
         "span_id": "s1", "trace_id": "t1",
         "stack": ["cli.py:main", "family.py:_count"]},
        {"ts": 2.0, "pid": 1, "tid": 2, "span": "family.count",
         "span_id": "s1", "trace_id": "t1",
         "stack": ["cli.py:main", "family.py:_count"]},
        {"ts": 3.0, "pid": 1, "tid": 2, "span": None,
         "span_id": None, "trace_id": None,
         "stack": ["cli.py:main"]},
    ]


class TestCollapsedStacks:
    def test_collapsed_format_and_roots(self):
        text = collapsed_stacks(_fake_records())
        lines = text.splitlines()
        assert len(lines) == 2
        assert "span:family.count;cli.py:main;family.py:_count 2" in lines
        assert "process;cli.py:main 1" in lines
        assert lines == sorted(lines)
        assert text.endswith("\n")

    def test_round_trip(self):
        text = collapsed_stacks(_fake_records())
        counts = parse_collapsed(text)
        assert counts == {
            "span:family.count;cli.py:main;family.py:_count": 2,
            "process;cli.py:main": 1,
        }

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed("no-count-here\n")
        with pytest.raises(ValueError):
            parse_collapsed("stack notanumber\n")

    def test_empty_records(self):
        assert collapsed_stacks([]) == ""
        assert parse_collapsed("") == {}

    def test_frame_sanitisation(self):
        records = [{
            "ts": 1.0, "pid": 1, "tid": 2, "span": None,
            "span_id": None, "trace_id": None,
            "stack": ["odd file.py:fn;weird"],
        }]
        counts = parse_collapsed(collapsed_stacks(records))
        (key,) = counts
        assert " " not in key.rpartition(" ")[0]
        assert counts[key] == 1

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "p.collapsed"
        write_collapsed(path, _fake_records())
        assert parse_collapsed(path.read_text())["process;cli.py:main"] == 1


class TestReport:
    def test_aggregate_and_render(self):
        counts = parse_collapsed(collapsed_stacks(_fake_records()))
        frames = aggregate_frames(counts)
        totals = {frame: total for frame, _, total in frames}
        assert totals["cli.py:main"] == 3
        assert totals["family.py:_count"] == 2
        out = render_profile_report(counts, top=10)
        assert "3 samples" in out
        assert "cli.py:main" in out

    def test_render_empty(self):
        assert "0 samples" in render_profile_report({})


# ----------------------------------------------------------------------
# worker-delta transport
# ----------------------------------------------------------------------
class TestWorkerDelta:
    def test_worker_delta_carries_samples(self):
        with obs.capture():
            obs_profile.ingest_samples(_fake_records(), None)
            delta = obs.worker_delta()
        part = delta[obs.PROFILE_DELTA_KEY]
        assert part["type"] == "profile"
        assert len(part["samples"]) == 3
        # drained: a second delta has no profile part
        with obs.capture():
            assert obs.PROFILE_DELTA_KEY not in obs.worker_delta()

    def test_merge_snapshot_adopts_and_reparents(self):
        with obs.capture():
            delta = {
                obs.PROFILE_DELTA_KEY: {
                    "type": "profile",
                    "samples": _fake_records(),
                },
                "worker.x": {"type": "counter", "value": 1},
            }
            obs.merge_snapshot(delta, parent=("trace-9", "span-9"))
            records = obs.profile_samples()
            assert obs.registry().value("worker.x") == 1
        assert len(records) == 3
        assert all(s["trace_id"] == "trace-9" for s in records)
        # attributed samples keep their own span; orphans re-parent
        spans = sorted(str(s["span_id"]) for s in records)
        assert spans == ["s1", "s1", "span-9"]

    def test_merge_snapshot_without_profile_part(self):
        with obs.capture():
            obs.merge_snapshot({"worker.y": {"type": "counter", "value": 2}})
            assert obs.registry().value("worker.y") == 2
            assert obs.profile_samples() == []


# ----------------------------------------------------------------------
# CI smoke: kernel-span attribution on a real workload
# ----------------------------------------------------------------------
class TestSmoke:
    def test_smoke_kernel_span_attribution(self):
        from repro.bench.parallel_bench import KERNEL_SPAN_PREFIXES
        from repro.core import count_butterflies
        from repro.graphs import power_law_bipartite

        g = power_law_bipartite(2_000, 3_000, 60_000, seed=7)
        with obs.capture():
            obs.start_profiler(hz=500)
            deadline = time.perf_counter() + 2.0
            kernel: list[dict] = []
            # retry until a sample lands in the kernel (bounded at 2 s —
            # one count is ~tens of ms, so this converges immediately)
            while not kernel and time.perf_counter() < deadline:
                count_butterflies(g)  # the serial production plan
                kernel = [
                    s for s in obs.profile_samples()
                    if str(s.get("span") or "").startswith(KERNEL_SPAN_PREFIXES)
                ]
            obs.stop_profiler()
        assert kernel, "no profiler sample attributed to a kernel span"
        assert all(s["stack"] for s in kernel)
