"""Tests for the multi-resolution hash-grid encoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.nerf.hashgrid import (
    CORNER_OFFSETS,
    HASH_PRIMES,
    HashGridConfig,
    HashGridEncoder,
    dense_coords_index,
    hash_coords,
)


class TestHashGridConfig:
    def test_level_resolutions_geometric(self):
        cfg = HashGridConfig(num_levels=4, table_size=2**12,
                             base_resolution=16, max_resolution=128)
        res = cfg.level_resolutions
        assert res[0] == 16
        assert res[-1] == 128
        assert np.all(np.diff(res) > 0)

    def test_single_level(self):
        cfg = HashGridConfig(num_levels=1, table_size=2**10,
                             base_resolution=8, max_resolution=8)
        assert list(cfg.level_resolutions) == [8]

    def test_output_dim(self):
        cfg = HashGridConfig(num_levels=5, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=32)
        assert cfg.output_dim == 10

    def test_dense_level_detection(self):
        cfg = HashGridConfig(num_levels=2, table_size=2**12,
                             base_resolution=8, max_resolution=64)
        assert cfg.level_is_dense(0)       # 9^3 = 729 <= 4096
        assert not cfg.level_is_dense(1)   # 65^3 >> 4096

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_levels": 0},
            {"table_size": 4},
            {"feature_dim": 0},
            {"base_resolution": 1},
            {"base_resolution": 64, "max_resolution": 32},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(num_levels=4, table_size=2**10,
                    base_resolution=8, max_resolution=64)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            HashGridConfig(**base)


class TestHashing:
    def test_eq2_formula(self):
        """Check against a direct evaluation of Eq. (2)."""
        coords = np.array([[3, 5, 7]], dtype=np.uint64)
        t = 2**14
        expected = (
            (3 * 1) ^ (5 * 2654435761) ^ (7 * 805459861)
        ) % t
        assert hash_coords(coords, t)[0] == expected

    def test_hash_in_range(self, rng):
        coords = rng.integers(0, 1000, size=(100, 3))
        idx = hash_coords(coords, 513)
        assert np.all((idx >= 0) & (idx < 513))

    def test_hash_deterministic(self, rng):
        coords = rng.integers(0, 100, size=(50, 3))
        np.testing.assert_array_equal(
            hash_coords(coords, 2**10), hash_coords(coords, 2**10)
        )

    @given(
        st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20)
    )
    @settings(max_examples=30)
    def test_hash_property_range(self, x, y, z):
        idx = hash_coords(np.array([[x, y, z]]), 2**15)
        assert 0 <= idx[0] < 2**15

    def test_dense_index_bijective(self):
        res = 7
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        idx = dense_coords_index(coords, res)
        assert len(np.unique(idx)) == (res + 1) ** 3


class TestVoxelVertices:
    def test_corner_offsets_cover_cube(self):
        assert CORNER_OFFSETS.shape == (8, 3)
        assert len({tuple(row) for row in CORNER_OFFSETS}) == 8

    def test_weights_sum_to_one(self, rng):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=3, table_size=2**10, base_resolution=4, max_resolution=16))
        pts = rng.random((50, 3))
        _, weights = enc.voxel_vertices(pts, 1)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(50))

    def test_weights_nonnegative(self, rng):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=3, table_size=2**10, base_resolution=4, max_resolution=16))
        pts = rng.random((50, 3))
        _, weights = enc.voxel_vertices(pts, 2)
        assert np.all(weights >= -1e-12)

    def test_vertex_at_grid_point_gets_full_weight(self):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=1, table_size=2**10, base_resolution=4, max_resolution=4))
        pts = np.array([[0.5, 0.5, 0.5]])  # exactly vertex (2,2,2) at res 4
        corners, weights = enc.voxel_vertices(pts, 0)
        assert weights[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(corners[0, 0], [2, 2, 2])

    def test_corners_within_grid(self, rng):
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg)
        pts = np.clip(rng.random((100, 3)), 0, 1 - 1e-9)
        for level in range(2):
            corners, _ = enc.voxel_vertices(pts, level)
            res = int(cfg.level_resolutions[level])
            assert corners.min() >= 0
            assert corners.max() <= res


class TestEncoding:
    def test_encode_shape(self, rng):
        cfg = HashGridConfig(num_levels=4, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=32)
        enc = HashGridEncoder(cfg)
        out = enc.encode(rng.random((10, 3)))
        assert out.shape == (10, 8)

    def test_encode_continuous(self):
        """Trilinear interpolation must be continuous across voxel faces."""
        cfg = HashGridConfig(num_levels=2, table_size=2**12,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg, seed=5)
        eps = 1e-7
        boundary = 0.25  # a voxel face at res 4
        left = enc.encode(np.array([[boundary - eps, 0.4, 0.6]]))
        right = enc.encode(np.array([[boundary + eps, 0.4, 0.6]]))
        np.testing.assert_allclose(left, right, atol=1e-4)

    def test_encode_with_cache_matches_encode(self, rng):
        cfg = HashGridConfig(num_levels=3, table_size=2**10,
                             base_resolution=4, max_resolution=16)
        enc = HashGridEncoder(cfg)
        pts = rng.random((20, 3))
        a = enc.encode(pts)
        b, idx = enc.encode_with_cache(pts)
        np.testing.assert_allclose(a, b)
        assert len(idx) == 3
        assert idx[0].shape == (20, 8)

    def test_encode_backward_reduces_error(self, rng):
        """A gradient step must move the encoding toward the target."""
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg, seed=0)
        pts = rng.random((32, 3))
        target = rng.normal(size=(32, cfg.output_dim))
        before = enc.encode(pts)
        err_before = np.mean((before - target) ** 2)
        for _ in range(50):
            grad = 2 * (enc.encode(pts) - target) / len(pts)
            enc.encode_backward(pts, grad, learning_rate=0.5)
        err_after = np.mean((enc.encode(pts) - target) ** 2)
        assert err_after < err_before * 0.5

    def test_parameter_count(self):
        cfg = HashGridConfig(num_levels=3, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=16)
        assert HashGridEncoder(cfg).parameter_count() == 3 * 2**10 * 2

    def test_lookup_flops_positive(self):
        cfg = HashGridConfig(num_levels=3, table_size=2**10,
                             base_resolution=4, max_resolution=16)
        assert HashGridEncoder(cfg).lookup_flops_per_point() > 0

    def test_seeded_encoders_identical(self, rng):
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        pts = rng.random((5, 3))
        np.testing.assert_array_equal(
            HashGridEncoder(cfg, seed=9).encode(pts),
            HashGridEncoder(cfg, seed=9).encode(pts),
        )


# ----------------------------------------------------------------------
# Lane-form lookup == the (N, 8, 3) corner reference, bit for bit
# ----------------------------------------------------------------------
def _reference_lookup(enc, points, level):
    """The corner-array formulation: ``(N, 8, 3)`` corners, ``np.prod``
    weights, Eq. (2) / row-major indices, ``np.sum`` blend."""
    cfg = enc.config
    res = int(cfg.level_resolutions[level])
    scaled = points * res
    base = np.clip(np.floor(scaled).astype(np.int64), 0, res - 1)
    frac = scaled - base
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    offs = CORNER_OFFSETS[None, :, :]
    weights = np.prod(
        np.where(offs == 1, frac[:, None, :], 1.0 - frac[:, None, :]), axis=-1
    )
    if cfg.level_is_dense(level):
        stride = res + 1
        idx = (corners[..., 2] * stride + corners[..., 1]) * stride + corners[..., 0]
    else:
        c = corners.astype(np.uint64)
        h = (
            c[..., 0] * np.uint64(HASH_PRIMES[0])
            ^ c[..., 1] * np.uint64(HASH_PRIMES[1])
            ^ c[..., 2] * np.uint64(HASH_PRIMES[2])
        )
        idx = (h % np.uint64(cfg.table_size)).astype(np.int64)
    feats = enc.tables[level][idx]
    return idx, weights, np.sum(weights[..., None] * feats, axis=1)


#: 6 levels at resolutions 4..64: dense levels first, hashed after; the
#: non-power-of-two table exercises the modulo (not the mask) path.
_LANE_GRIDS = [
    HashGridConfig(num_levels=6, table_size=2**11, base_resolution=4,
                   max_resolution=64),
    HashGridConfig(num_levels=6, table_size=3001, base_resolution=4,
                   max_resolution=64),
]
_PLANE_RES = sorted({int(r) for g in _LANE_GRIDS for r in g.level_resolutions})


def _coordinate():
    """One coordinate: interior, exactly 0/1, on a grid plane of some
    level, or slightly outside [0, 1]."""
    plane = st.tuples(
        st.sampled_from(_PLANE_RES), st.integers(0, max(_PLANE_RES))
    ).map(lambda t: min(t[1], t[0]) / t[0])
    return st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12, -1e-3, 1.0 + 1e-3]),
        plane,
        st.floats(-0.01, 1.01),
    )


_POINTS = st.lists(
    st.tuples(_coordinate(), _coordinate(), _coordinate()),
    min_size=1,
    max_size=40,
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestLaneFormEquivalence:
    @given(st.sampled_from(range(len(_LANE_GRIDS))), _POINTS)
    @settings(max_examples=60, deadline=None)
    def test_encode_and_indices_match_corner_reference(self, grid, points):
        enc = HashGridEncoder(_LANE_GRIDS[grid], seed=4)
        expected = [
            _reference_lookup(enc, points, level)
            for level in range(enc.config.num_levels)
        ]
        features, indices = enc.encode_with_cache(points)
        want = np.concatenate([e[2] for e in expected], axis=-1)
        assert np.array_equal(features, want)
        assert np.array_equal(enc.encode(points), want)
        for level, (idx, weights, _) in enumerate(expected):
            assert np.array_equal(indices[level], idx)
            corners, got_weights = enc.voxel_vertices(points, level)
            assert np.array_equal(got_weights, weights)
            assert np.array_equal(
                enc.table_indices(corners, level), idx
            )

    @given(st.sampled_from(range(len(_LANE_GRIDS))), _POINTS,
           st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_encode_backward_matches_corner_reference(self, grid, points, seed):
        cfg = _LANE_GRIDS[grid]
        enc = HashGridEncoder(cfg, seed=4)
        ref_tables = [t.copy() for t in enc.tables]
        grad = np.random.default_rng(seed).normal(
            size=(len(points), cfg.output_dim)
        )
        fdim = cfg.feature_dim
        for level in range(cfg.num_levels):
            idx, weights, _ = _reference_lookup(enc, points, level)
            g = grad[:, level * fdim : (level + 1) * fdim]
            contrib = weights[..., None] * g[:, None, :]
            np.add.at(
                ref_tables[level], idx.reshape(-1),
                -0.3 * contrib.reshape(-1, fdim),
            )
        enc.encode_backward(points, grad, learning_rate=0.3)
        for got, want in zip(enc.tables, ref_tables):
            assert np.array_equal(got, want)
