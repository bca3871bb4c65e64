"""Tests for hybrid address generation (bit reorder, replication, hash)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim.address import (
    HybridAddressGenerator,
    LevelMapping,
    bit_reorder_address,
    dense_slot_size,
    naive_concat_address,
)
from repro.errors import ConfigurationError
from repro.nerf.hashgrid import (
    CORNER_OFFSETS,
    HASH_PRIMES,
    HashGridConfig,
    corner_lanes,
)


def _voxel_corners(base):
    return np.asarray(base)[None, None, :] + CORNER_OFFSETS[None, :, :]


GRID = HashGridConfig(
    num_levels=6, table_size=2**11, base_resolution=4, max_resolution=64
)


class TestBitReorder:
    def test_voxel_vertices_distinct_parity_prefix(self):
        """The 8 vertices of any voxel receive 8 distinct addresses whose
        high (parity) fields differ — the Figure 14b guarantee."""
        res = 16
        corners = _voxel_corners([6, 10, 3])
        addrs = bit_reorder_address(corners, res)[0]
        slots = addrs // (res // 2 + 1) ** 3
        assert len(set(slots.tolist())) == 8

    @given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
    @settings(max_examples=30)
    def test_any_voxel_conflict_free(self, x, y, z):
        res = 16
        addrs = bit_reorder_address(_voxel_corners([x, y, z]), res)[0]
        xbars = addrs // 64
        # Distinct addresses guaranteed; crossbar spread requires the slot
        # size to exceed the crossbar rows, which holds for res 16.
        assert len(set(addrs.tolist())) == 8

    def test_bijective_over_grid(self):
        res = 8
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        addrs = bit_reorder_address(coords, res)
        assert len(np.unique(addrs)) == (res + 1) ** 3

    def test_addresses_within_slot(self):
        res = 8
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        addrs = bit_reorder_address(coords, res)
        assert addrs.max() < dense_slot_size(res)

    def test_copy_offset(self):
        res = 8
        corners = _voxel_corners([1, 2, 3])
        base = bit_reorder_address(corners, res)
        shifted = bit_reorder_address(corners, res, copy_ids=np.array([[2]])[..., 0])
        np.testing.assert_array_equal(shifted - base, 2 * dense_slot_size(res))


class TestNaiveConcat:
    def test_shared_high_bits_conflict(self):
        """Figure 14a: naive concatenation piles voxel vertices onto few
        crossbars."""
        res = 16
        addrs = naive_concat_address(_voxel_corners([6, 10, 3]), res)[0]
        xbars = set((addrs // 64).tolist())
        assert len(xbars) < 8  # conflicts guaranteed

    def test_distinct_addresses(self):
        res = 16
        addrs = naive_concat_address(_voxel_corners([6, 10, 3]), res)[0]
        assert len(set(addrs.tolist())) == 8


class TestHybridGenerator:
    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            HybridAddressGenerator(GRID, mode="bogus")

    def test_level_classification(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        dense_flags = [m.dense for m in gen.levels]
        # Dense (low-res) levels first, hashed (high-res) later.
        assert dense_flags[0] is True
        assert dense_flags[-1] is False

    def test_hash_mode_never_dense(self):
        gen = HybridAddressGenerator(GRID, mode="hash")
        assert all(not m.dense for m in gen.levels)

    def test_copies_only_in_hybrid(self):
        hybrid = HybridAddressGenerator(GRID, mode="hybrid")
        naive = HybridAddressGenerator(GRID, mode="naive")
        assert any(m.copies > 1 for m in hybrid.levels)
        assert all(m.copies == 1 for m in naive.levels)

    def test_addresses_shape(self, rng):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        corners = rng.integers(0, 4, size=(10, 8, 3))
        addrs = gen.addresses(corners, 0, request_ids=np.arange(10))
        assert addrs.shape == (10, 8)

    def test_request_striping_spreads_copies(self):
        """Consecutive requests for the same entry go to different copies."""
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        mapping = gen.levels[0]
        assert mapping.copies > 1
        corners = np.tile(_voxel_corners([1, 1, 1]), (2, 1, 1))
        addrs = gen.addresses(corners, 0, request_ids=np.array([0, 1]))
        assert not np.array_equal(addrs[0], addrs[1])

    def test_no_request_ids_no_striping(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        corners = np.tile(_voxel_corners([1, 1, 1]), (2, 1, 1))
        addrs = gen.addresses(corners, 0, request_ids=None)
        np.testing.assert_array_equal(addrs[0], addrs[1])

    def test_hashed_level_matches_eq2(self, rng):
        from repro.nerf.hashgrid import hash_coords

        gen = HybridAddressGenerator(GRID, mode="hybrid")
        level = GRID.num_levels - 1
        corners = rng.integers(0, 60, size=(5, 8, 3))
        np.testing.assert_array_equal(
            gen.addresses(corners, level),
            hash_coords(corners, GRID.table_size),
        )

    def test_storage_entries_cover_copies(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        for level, mapping in enumerate(gen.levels):
            assert gen.level_storage_entries(level) >= mapping.address_space


class TestLevelMapping:
    def test_address_space_dense(self):
        m = LevelMapping(level=0, resolution=8, table_size=2**11,
                         dense=True, copies=2)
        assert m.address_space == 2 * dense_slot_size(8)

    def test_address_space_hashed(self):
        m = LevelMapping(level=5, resolution=64, table_size=2**11,
                         dense=False, copies=1)
        assert m.address_space == 2**11


# ----------------------------------------------------------------------
# Lane-form addresses == the (N, 8, 3) corner reference, bit for bit
# ----------------------------------------------------------------------
def _reference_addresses(gen, corners, level, request_ids):
    """The corner-array formulation of every mapping, evaluated on the
    full ``(N, 8, 3)`` coordinates."""
    mapping = gen.levels[level]
    c = corners.astype(np.int64)
    if not mapping.dense:
        u = c.astype(np.uint64)
        h = (
            u[..., 0] * np.uint64(HASH_PRIMES[0])
            ^ u[..., 1] * np.uint64(HASH_PRIMES[1])
            ^ u[..., 2] * np.uint64(HASH_PRIMES[2])
        )
        return (h % np.uint64(mapping.table_size)).astype(np.int64)
    res = mapping.resolution
    if gen.mode == "naive":
        bits = max(1, int(np.ceil(np.log2(res + 1))))
        return (c[..., 0] << (2 * bits)) | (c[..., 1] << bits) | c[..., 2]
    parity = (c[..., 0] & 1) | ((c[..., 1] & 1) << 1) | ((c[..., 2] & 1) << 2)
    half = res // 2 + 1
    rest = ((c[..., 2] >> 1) * half + (c[..., 1] >> 1)) * half + (c[..., 0] >> 1)
    addr = parity * half**3 + rest
    if mapping.copies > 1 and request_ids is not None:
        addr = addr + (request_ids % mapping.copies)[:, None] * dense_slot_size(res)
    return addr


_ADDRESS_GRIDS = [
    GRID,
    HashGridConfig(num_levels=6, table_size=3001, base_resolution=4,
                   max_resolution=64),
]


class TestLaneFormAddresses:
    @given(
        st.sampled_from(range(len(_ADDRESS_GRIDS))),
        st.sampled_from(HybridAddressGenerator.MODES),
        st.booleans(),
        st.lists(
            st.tuples(
                st.floats(-0.01, 1.01),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.001, -0.001]),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_lanes_match_corner_reference(
        self, grid, mode, with_ids, rows, first_id
    ):
        """Every level and mapping mode, with and without request ids;
        points at exactly 0/1, on grid planes and slightly outside the
        cube."""
        cfg = _ADDRESS_GRIDS[grid]
        gen = HybridAddressGenerator(cfg, mode=mode)
        points = np.array(rows, dtype=np.float64)
        ids = first_id + np.arange(len(points)) if with_ids else None
        for level, res in enumerate(cfg.level_resolutions):
            res = int(res)
            base = np.clip(np.floor(points * res).astype(np.int64), 0, res - 1)
            corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
            want = _reference_addresses(gen, corners, level, ids)
            lanes = gen.addresses(corner_lanes(base.astype(np.int16)), level, ids)
            assert lanes.shape == want.shape
            assert np.array_equal(lanes, want)
            assert np.array_equal(gen.addresses(corners, level, ids), want)
