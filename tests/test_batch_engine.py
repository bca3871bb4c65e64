"""Property-based bit-identity of the batched wavefront engine.

The batched plan path (:mod:`repro.exec.batch`) may only ever be a
*faster spelling* of the stepped engine: for any trace, any quantum
schedule and any batch boundaries, vectorized == stepwise == monolithic
bit-identically — cycles, energy, per-engine report fields and
temporal-cache state — including a client abandoning mid-batch.  These
tests drive all three spellings over hypothesis-generated workloads;
``tests/test_execution.py`` pins the same contract on the golden trace.

Self-skips when ``hypothesis`` is absent (CI installs it; a bare
numpy+pytest checkout still collects cleanly).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.accelerator import ASDRAccelerator  # noqa: E402
from repro.arch.config import ArchConfig  # noqa: E402
from repro.cim.cache import TemporalVertexCache  # noqa: E402
from repro.exec.execution import (  # noqa: E402
    scalar_engine,
    sequence_executions,
)
from repro.exec.frame_trace import FrameTrace  # noqa: E402
from repro.exec.sequence import SequenceTrace  # noqa: E402
from repro.scenes.cameras import camera_path  # noqa: E402
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG  # noqa: E402

_ACCELERATOR = None


def accelerator() -> ASDRAccelerator:
    global _ACCELERATOR
    if _ACCELERATOR is None:
        _ACCELERATOR = ASDRAccelerator(
            ArchConfig.server(),
            TEST_GRID,
            TEST_MODEL_CONFIG.density_mlp_config,
            TEST_MODEL_CONFIG.color_mlp_config,
        )
    return _ACCELERATOR


def _trace(size: int, mod: int, mult: int, frame: int = 0) -> FrameTrace:
    """A deterministic multi-step budget-map trace from small seeds (so
    hypothesis shrinks over three integers, not a budget array)."""
    cameras = camera_path("orbit", frame + 1, size, size, arc=0.35).cameras()
    budgets = 1 + (np.arange(size * size) % mod) * mult
    return FrameTrace.from_budgets(cameras[frame], budgets.astype(np.int64))


def _sequence(num_frames: int, size: int, mod: int, mult: int) -> SequenceTrace:
    return SequenceTrace(
        frames=[_trace(size, mod, mult, frame=k) for k in range(num_frames)],
        path_key=("prop", num_frames, size, mod, mult),
        kind="asdr",
        planned=[k == 0 for k in range(num_frames)],
    )


def _report_tuple(report):
    """Every observable of a SimReport, as an exact-comparison tuple."""
    return (
        report.total_cycles,
        report.bus_cycles,
        report.buffer_stall_cycles,
        report.encoding.cycles,
        report.encoding.read_cycles,
        report.encoding.lookups,
        report.encoding.cache_hits,
        report.encoding.temporal_hits,
        report.encoding.xbar_accesses,
        report.encoding.conflict_cycles,
        report.encoding.xbar_energy_pj,
        report.mlp.cycles,
        report.render.cycles,
        tuple(sorted(report.energy_by_component.items())),
    )


def _drive(ex, schedule):
    """Advance ``ex`` to completion with ``schedule`` as the repeating
    quantum pattern (0 entries fall back to single steps)."""
    i = 0
    while not ex.done:
        quantum = schedule[i % len(schedule)] if schedule else 1
        i += 1
        if quantum <= 0:
            ex.step()
        else:
            ex.run(max_steps=quantum)
    return ex.finish()


class TestFrameBitIdentity:
    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 7),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_vectorized_equals_stepwise_equals_monolithic(
        self, size, mod, mult, schedule
    ):
        acc = accelerator()
        trace = _trace(size, mod, mult)
        with scalar_engine():
            mono = acc.simulate_trace(trace)
            ex = acc.trace_execution(trace)
            while not ex.done:
                ex.step()
            stepped = ex.finish()
        batched = _drive(acc.trace_execution(trace), schedule)
        assert _report_tuple(mono) == _report_tuple(stepped)
        assert _report_tuple(stepped) == _report_tuple(batched)

    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 7),
        mult=st.integers(1, 3),
        quantum=st.integers(1, 4),
        prefix=st.integers(0, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_abandon_mid_batch_matches_stepwise_prefix(
        self, size, mod, mult, quantum, prefix
    ):
        """Abandoning after a batched prefix charges exactly what the
        stepped engine charges for the same prefix of steps."""
        acc = accelerator()
        trace = _trace(size, mod, mult)
        ex_batched = acc.trace_execution(trace)
        while ex_batched.steps_done < prefix and not ex_batched.done:
            ex_batched.run(
                max_steps=min(quantum, prefix - ex_batched.steps_done)
            )
        with scalar_engine():
            ex_stepped = acc.trace_execution(trace)
            while ex_stepped.steps_done < ex_batched.steps_done:
                ex_stepped.step()
            a = ex_stepped.abandon()
        b = ex_batched.abandon()
        assert _report_tuple(a) == _report_tuple(b)

    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 6),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 4), min_size=1, max_size=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_mixed_step_and_batch_on_one_cursor(
        self, size, mod, mult, schedule
    ):
        """One execution may freely mix step() and run(max_steps) —
        the cursor keeps bit-identity across the mode switches."""
        acc = accelerator()
        trace = _trace(size, mod, mult)
        with scalar_engine():
            mono = acc.simulate_trace(trace)
        mixed = _drive(acc.trace_execution(trace), schedule)
        assert _report_tuple(mono) == _report_tuple(mixed)


class TestSequenceBitIdentity:
    @given(
        num_frames=st.integers(2, 3),
        size=st.integers(8, 10),
        mod=st.integers(2, 5),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        capacity=st.one_of(st.none(), st.integers(16, 512)),
    )
    @settings(max_examples=8, deadline=None)
    def test_temporal_cache_state_and_reports_match(
        self, num_frames, size, mod, mult, schedule, capacity
    ):
        """Across a sequence — temporal lookups, records and frame-boundary
        commits included — batched execution leaves the temporal cache in
        the same state as stepwise, frame by frame."""
        acc = accelerator()
        seq = _sequence(num_frames, size, mod, mult)

        with scalar_engine():
            cache_s = TemporalVertexCache(capacity)
            stepped = []
            for ex in sequence_executions(acc, seq, temporal=cache_s):
                while not ex.done:
                    ex.step()
                stepped.append(_report_tuple(ex.finish()))

        cache_b = TemporalVertexCache(capacity)
        batched = [
            _report_tuple(_drive(ex, schedule))
            for ex in sequence_executions(acc, seq, temporal=cache_b)
        ]

        assert stepped == batched
        assert cache_s.resident_token == cache_b.resident_token
        assert set(cache_s._resident) == set(cache_b._resident)
        for level, resident in cache_s._resident.items():
            assert np.array_equal(resident, cache_b._resident[level]), level


class TestServeBitIdentity:
    """End-to-end: the serving loop produces identical ServeReports with
    the batched engine on and off — preemption, twin clients and the
    cross-tenant plan prefetch included."""

    def test_serve_rows_identical_scalar_vs_batched(self):
        from repro.serving.policies import make_policy
        from repro.serving.request import ClientRequest
        from repro.serving.server import SequenceServer
        from tests.test_serving import synthetic_sequence

        acc = accelerator()
        paths = [
            camera_path("orbit", 3, 8, 8, arc=0.3),
            camera_path("orbit", 3, 8, 8, arc=0.5),
            camera_path("orbit", 3, 8, 8, arc=0.3),  # twin of the first
        ]

        def run_rows():
            server = SequenceServer(acc)
            for i, path in enumerate(paths):
                server.submit(
                    ClientRequest(
                        client_id=f"c{i}", scene="synthetic", path=path
                    ),
                    synthetic_sequence(path, varied=True),
                )
            return {
                name: server.serve(
                    make_policy(name, quantum=2 if "preemptive" in name else None)
                ).to_rows()
                for name in ("fifo", "round_robin_preemptive")
            }

        with scalar_engine():
            rows_scalar = run_rows()
        rows_batched = run_rows()
        assert rows_scalar == rows_batched


class TestWindowHits:
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=8),
        st.integers(0, 9),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_mask_equals_per_slice_gaps(
        self, slice_points, alphabet, window, seed
    ):
        """The fused shifted-comparison hit mask equals the stepped
        engine's per-slice ``previous_occurrence_gaps <= window`` —
        including slices shorter than the window."""
        from repro.cim.cache import previous_occurrence_gaps
        from repro.exec.batch import _window_hits

        sizes = np.array(slice_points, dtype=np.int64)
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, alphabet + 1, size=int(sizes.sum()) * 8)
        stream = stream.astype(np.int32)
        starts = np.concatenate([[0], np.cumsum(sizes * 8)[:-1]])
        want = np.concatenate(
            [
                previous_occurrence_gaps(chunk) <= window
                for chunk in np.split(stream, starts[1:])
            ]
        )
        assert np.array_equal(_window_hits(stream, starts, window), want)
