"""Property tests of the bitmap address-set primitives and their users.

* :func:`~repro.cim.cache.address_set` equals ``np.unique`` and
  :func:`~repro.cim.cache.address_members` equals ``np.isin`` — values
  and dtype — on int16/int32/int64 streams up to a level's storage bound;
* :class:`~repro.cim.cache.TemporalVertexCache` commits
  ``np.unique(concat)[:capacity]`` for any sequence of recorded chunks
  (overlapping, empty, mixed dtypes), its lookups equal ``np.isin``
  against the resident set, and ``resize``/``adopt`` keep their
  keep-the-lowest-addresses trims;
* :meth:`FrameTrace.voxel_bases` equals the per-wavefront floor/clip
  concatenation at every resolution, and
  :meth:`SequenceTrace.temporal_deltas` equals its sort-based reference.

Self-skips without ``hypothesis``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cim.cache import (  # noqa: E402
    TemporalVertexCache,
    address_bitmap,
    address_members,
    address_set,
)
from repro.errors import SimulationError  # noqa: E402
from repro.exec.frame_trace import (  # noqa: E402
    PHASE_MAIN,
    FrameTrace,
    TraceWavefront,
)
from repro.exec.sequence import SequenceTrace  # noqa: E402
from repro.nerf.hashgrid import CORNER_OFFSETS  # noqa: E402
from repro.scenes.cameras import camera_path  # noqa: E402

#: Level storage bounds: the workbench grid's table and paper scale.
STORAGE_BOUNDS = (8192, 2**19)
DTYPES = (np.int16, np.int32, np.int64)


@st.composite
def address_streams(draw, dtype=None, bound=None, max_size=200):
    """A non-negative stream below a level's storage bound, biased to the
    edges: empty, single values, all zeros, values at ``bound - 1``."""
    dtype = draw(st.sampled_from(DTYPES)) if dtype is None else dtype
    if bound is None:
        bound = draw(st.sampled_from(STORAGE_BOUNDS))
    bound = min(bound, int(np.iinfo(dtype).max) + 1)
    value = st.one_of(
        st.integers(0, bound - 1),
        st.sampled_from([0, 1, bound - 2, bound - 1]),
    )
    values = draw(st.lists(value, max_size=max_size))
    return np.asarray(values, dtype=dtype)


class TestAddressSet:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=address_streams())
    def test_equals_unique(self, stream):
        got = address_set(stream)
        want = np.unique(stream)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "values", [[], [0], [0, 0, 0], [5], [8191, 0, 8191], [2**15 - 1]]
    )
    def test_edge_streams(self, dtype, values):
        stream = np.asarray(values, dtype=dtype)
        got = address_set(stream)
        assert got.dtype == np.unique(stream).dtype
        np.testing.assert_array_equal(got, np.unique(stream))

    def test_negative_addresses_rejected(self):
        with pytest.raises(SimulationError):
            address_set(np.array([3, -1], dtype=np.int32))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_members_equal_isin(self, data):
        dtype = data.draw(st.sampled_from(DTYPES))
        bound = data.draw(st.sampled_from(STORAGE_BOUNDS))
        members = data.draw(address_streams(dtype=dtype, bound=bound))
        # The probe may use another dtype and reach past the members'
        # maximum (gathers beyond the bitmap must read absent).
        stream = data.draw(address_streams(bound=bound))
        got = address_members(stream, address_bitmap(members))
        want = np.isin(stream, members)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_bitmap_ends_in_absent_sentinel(self):
        bits = address_bitmap(np.array([0, 7], dtype=np.int16))
        assert bits.size == 9 and not bits[-1]
        assert address_bitmap(np.empty(0, np.int32)).tolist() == [False]
        assert address_bitmap(np.array([2]), size=16).size == 16


@st.composite
def record_histories(draw):
    """Per-level recorded chunks (overlapping, some empty, dtypes mixed
    within a level) plus a capacity (``None`` = unbounded)."""
    levels = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    chunks = []
    for level in levels:
        dtype = draw(st.sampled_from(DTYPES))
        for _ in range(draw(st.integers(1, 4))):
            chunk_dtype = draw(st.sampled_from((dtype, np.int32, np.int64)))
            stream = address_streams(dtype=chunk_dtype, bound=8192, max_size=60)
            chunks.append((level, draw(stream)))
    chunks = draw(st.permutations(chunks))
    capacity = draw(st.one_of(st.none(), st.integers(1, 40)))
    return chunks, capacity


def _reference_commit(chunks, capacity):
    out = {}
    for level in {lv for lv, _ in chunks}:
        merged = np.unique(np.concatenate([c for lv, c in chunks if lv == level]))
        out[level] = merged if capacity is None else merged[:capacity]
    return out


class TestTemporalCacheBitmaps:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(history=record_histories())
    def test_commit_equals_unique_prefix(self, history):
        chunks, capacity = history
        cache = TemporalVertexCache(capacity)
        for level, chunk in chunks:
            cache.record(chunk, level)
        cache.commit_frame(tag=0)
        want = _reference_commit(chunks, capacity)
        got = cache.export_state()["resident"]
        assert sorted(got) == sorted(want)
        for level in want:
            assert got[level].dtype == want[level].dtype
            np.testing.assert_array_equal(got[level], want[level])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(history=record_histories(), probe=address_streams(bound=8192))
    def test_lookup_equals_isin_across_trims(self, history, probe):
        chunks, capacity = history
        cache = TemporalVertexCache(capacity)
        for level, chunk in chunks:
            cache.record(chunk, level)
        cache.commit_frame(tag=1)
        resident = _reference_commit(chunks, capacity)
        for level, members in resident.items():
            np.testing.assert_array_equal(
                cache.lookup(probe, level), np.isin(probe, members)
            )
        # A trimming resize must drop the lookup bitmaps built above.
        cache.resize(5)
        for level, members in resident.items():
            np.testing.assert_array_equal(
                cache.export_state()["resident"][level], members[:5]
            )
            np.testing.assert_array_equal(
                cache.lookup(probe, level), np.isin(probe, members[:5])
            )

    def test_empty_level_keeps_integer_dtype(self):
        cache = TemporalVertexCache()
        cache.record(np.empty(0, dtype=np.int32), 2)
        cache.commit_frame()
        resident = cache.export_state()["resident"][2]
        assert resident.dtype == np.int32 and resident.size == 0
        assert cache.lookup(np.array([0, 4], np.int32), 2).tolist() == [False, False]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        members=address_streams(bound=8192, max_size=80),
        probe=address_streams(bound=8192),
        capacity=st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_adopted_unsorted_resident_set(self, members, probe, capacity):
        """An adopted set need not be ascending: the lookup bitmap must
        cover its true maximum, and the adopt trim keeps the exported
        array's prefix (the pre-existing semantics)."""
        members = np.unique(members)[::-1]
        cache = TemporalVertexCache(capacity)
        cache.adopt(
            {"resident": {0: members}, "resident_tag": 0, "resident_key": ()}
        )
        kept = members if capacity is None else members[:capacity]
        np.testing.assert_array_equal(cache.export_state()["resident"][0], kept)
        np.testing.assert_array_equal(cache.lookup(probe, 0), np.isin(probe, kept))


# ----------------------------------------------------------------------
# Voxel bases and temporal deltas
# ----------------------------------------------------------------------
RESOLUTIONS = (1, 2, 16, 37, 128, 1024, 2**15, 2**16)


@st.composite
def frame_traces(draw):
    """A trace of hand-built wavefronts: some empty, points drawn from
    the unit cube plus exactly 0, exactly 1, grid planes and values just
    outside the cube."""
    coordinate = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, -1e-3, 1.0 + 1e-3]),
        st.integers(0, 64).map(lambda k: k / 64.0),
    )
    wavefronts = []
    offset = 0
    for _ in range(draw(st.integers(0, 4))):
        used = np.asarray(
            draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)),
            dtype=np.int64,
        )
        if draw(st.booleans()):
            used[:] = 0  # an empty wavefront
        n = int(used.sum())
        values = draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n))
        ids = np.arange(offset, offset + len(used), dtype=np.int64)
        offset += len(used)
        wavefronts.append(
            TraceWavefront(
                phase=PHASE_MAIN,
                budget=4,
                ray_ids=ids,
                hit=used > 0,
                used=used,
                color_used=used.copy(),
                points=np.asarray(values, dtype=np.float64).reshape(n, 3),
            )
        )
    return FrameTrace(
        num_pixels=max(offset, 1), full_budget=4, wavefronts=wavefronts
    )


def _reference_bases(trace, resolution):
    """The per-wavefront floor/clip concatenation voxel bases replace."""
    chunks = []
    for wf in trace.wavefronts:
        base = np.floor(wf.points * resolution).astype(np.int64)
        np.clip(base, 0, resolution - 1, out=base)
        chunks.append(base)
    dtype = np.int16 if resolution < 2**15 else np.int32
    if not chunks:
        return np.empty((0, 3), dtype=dtype)
    return np.concatenate(chunks).astype(dtype)


class TestVoxelBases:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trace=frame_traces())
    def test_equals_per_wavefront_concatenation(self, trace):
        for resolution in RESOLUTIONS:
            got = trace.voxel_bases(resolution)
            want = _reference_bases(trace, resolution)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            # Per-slice corners come from the same arithmetic.
            start = 0
            for index, wf in enumerate(trace.wavefronts):
                stop = start + wf.num_points
                corners = trace.corners(index, slice(0, wf.num_points), resolution)
                np.testing.assert_array_equal(
                    corners,
                    want[start:stop].astype(np.int64)[:, None, :]
                    + CORNER_OFFSETS[None, :, :],
                )
                start = stop


def _reference_deltas(sequence, resolution):
    """Sort-based overlaps (``np.unique``/``np.intersect1d``/``np.isin``)."""
    stride = resolution + 1
    ids = []
    for trace in sequence.frames:
        base = _reference_bases(trace, resolution).astype(np.int64)
        ids.append((base[:, 2] * stride + base[:, 1]) * stride + base[:, 0])
    out = []
    for k in range(1, len(ids)):
        unique, prev = np.unique(ids[k]), np.unique(ids[k - 1])
        if unique.size == 0:
            out.append((0.0, 0.0))
            continue
        shared = np.intersect1d(unique, prev, assume_unique=True).size
        out.append((shared / unique.size, float(np.mean(np.isin(ids[k], prev)))))
    return out


class TestTemporalDeltasReference:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        arc=st.floats(0.0, 0.5),
        frames=st.integers(1, 4),
        budget=st.integers(1, 6),
        resolution=st.sampled_from((4, 16, 64, 300)),
    )
    def test_overlaps_equal_sort_based_reference(
        self, arc, frames, budget, resolution
    ):
        cameras = camera_path("orbit", frames, 8, 8, arc=arc).cameras()
        sequence = SequenceTrace(
            frames=[
                FrameTrace.from_budgets(
                    cam, np.full(64, budget + (k % 2), dtype=np.int64)
                )
                for k, cam in enumerate(cameras)
            ]
        )
        deltas = sequence.temporal_deltas([resolution])
        want = _reference_deltas(sequence, resolution)
        assert [
            (d.corner_overlap[resolution], d.stream_overlap[resolution])
            for d in deltas
        ] == want
