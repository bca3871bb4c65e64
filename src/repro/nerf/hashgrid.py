"""Multi-resolution hash-grid encoding (Instant-NGP, Eq. 2 of the paper).

Each of ``num_levels`` resolution levels stores per-vertex feature vectors
in an embedding table of ``table_size`` entries.  A sample point is located
in its voxel at every level; the features of the voxel's eight vertices are
fetched (dense indexing when the grid fits, hashed otherwise) and blended
by trilinear interpolation; per-level features are concatenated.

Besides encoding, this module exposes the *addressing* primitives the
architecture simulator replays: vertex coordinates, table indices, and
whether a level is hash-compressed — exactly the information the hybrid
address generator of Section 5.2.1 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import seeded_rng

# The paper's Eq. (2) primes (pi_1 = 1 keeps x-locality in Instant-NGP's
# reference implementation; we follow it).
HASH_PRIMES = (1, 2654435761, 805459861)

# Offsets of a voxel's eight corners, in (x, y, z) minor-to-major order.
CORNER_OFFSETS = np.array(
    [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.int64
)


@dataclass
class HashGridConfig:
    """Configuration of the multi-resolution hash encoding.

    Attributes:
        num_levels: Number of resolution levels (paper: 16).
        table_size: Entries per level's embedding table (paper: 2**19).
        feature_dim: Features per table entry (paper: 2).
        base_resolution: Grid resolution of the coarsest level.
        max_resolution: Grid resolution of the finest level.
    """

    num_levels: int = 16
    table_size: int = 2**19
    feature_dim: int = 2
    base_resolution: int = 16
    max_resolution: int = 512

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        if self.table_size < 8:
            raise ConfigurationError("table_size must be >= 8")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if not (1 < self.base_resolution <= self.max_resolution):
            raise ConfigurationError(
                "need 1 < base_resolution <= max_resolution"
            )

    @property
    def level_resolutions(self) -> np.ndarray:
        """Per-level grid resolutions, geometrically spaced (Instant-NGP)."""
        if self.num_levels == 1:
            return np.array([self.base_resolution], dtype=np.int64)
        growth = np.exp(
            (np.log(self.max_resolution) - np.log(self.base_resolution))
            / (self.num_levels - 1)
        )
        res = np.floor(
            self.base_resolution * growth ** np.arange(self.num_levels)
        ).astype(np.int64)
        return np.maximum(res, 2)

    @property
    def output_dim(self) -> int:
        """Dimensionality of the concatenated encoding."""
        return self.num_levels * self.feature_dim

    def level_is_dense(self, level: int) -> bool:
        """True when the level's full grid fits in the table without hashing.

        These are the paper's "low-resolution" levels: their tables can be
        de-hashed, bit-reorder addressed and replicated (Section 5.2.1).
        """
        res = int(self.level_resolutions[level])
        return (res + 1) ** 3 <= self.table_size


def corner_lanes(
    base: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis vertex lanes of voxels with integer base coordinates.

    A voxel's eight vertices share their per-axis coordinates: each axis
    contributes only ``base`` and ``base + 1``.  The lanes are those two
    values per axis, shaped ``(1, 1, 2, N)`` (x), ``(1, 2, 1, N)`` (y) and
    ``(2, 1, 1, N)`` (z), so any elementwise formula over ``(x, y, z)``
    broadcasts to ``(2, 2, 2, N)`` — the corner-major ``(8, N)`` in
    :data:`CORNER_OFFSETS` order (x minor, z major) after a reshape —
    without ever materialising the ``(N, 8, 3)`` corner array.  Points sit
    on the last axis so NumPy's inner loops run over ``N``, not over the
    2-wide lanes; :func:`point_major` turns a result into ``(N, 8)``.

    Args:
        base: ``(N, 3)`` integer voxel-base coordinates.
    """
    b = np.asarray(base, dtype=np.int64).T
    n = b.shape[1]
    lanes = b[:, None, :] + np.arange(2)[:, None]  # (3, 2, N)
    return (
        lanes[0].reshape(1, 1, 2, n),
        lanes[1].reshape(1, 2, 1, n),
        lanes[2].reshape(2, 1, 1, n),
    )


def point_major(lane_values: np.ndarray) -> np.ndarray:
    """The ``(N, 8)`` point-major corner array of a corner-major lane
    result (``(2, 2, 2, N)`` or ``(8, N)``)."""
    return np.ascontiguousarray(np.reshape(lane_values, (8, -1)).T)


def coord_axes(coords, dtype=np.int64) -> Tuple[np.ndarray, ...]:
    """``(x, y, z)`` of vertex coordinates given as a ``(..., 3)`` array or
    as a tuple of three broadcastable per-axis arrays (such as
    :func:`corner_lanes`), each converted to ``dtype``."""
    if isinstance(coords, tuple):
        return tuple(np.asarray(a, dtype=dtype) for a in coords)
    c = np.asarray(coords, dtype=dtype)
    return c[..., 0], c[..., 1], c[..., 2]


def hash_coords(coords, table_size: int) -> np.ndarray:
    """Spatial hash of integer vertex coordinates, Eq. (2).

    Args:
        coords: ``(..., 3)`` integer vertex coordinates, or an ``(x, y, z)``
            tuple of broadcastable per-axis arrays (see :func:`coord_axes`).
        table_size: Modulus ``T`` (need not be a power of two).

    Returns:
        Indices in ``[0, table_size)``, shaped like the coordinates
        without their axis (the broadcast shape for a tuple).
    """
    x, y, z = coord_axes(coords, np.uint64)
    result = (
        (x * np.uint64(HASH_PRIMES[0]))
        ^ (y * np.uint64(HASH_PRIMES[1]))
        ^ (z * np.uint64(HASH_PRIMES[2]))
    )
    if table_size & (table_size - 1) == 0:  # power of two: mask, not divide
        result &= np.uint64(table_size - 1)
    else:
        result %= np.uint64(table_size)
    return result.view(np.int64)  # every index is below table_size


def dense_coords_index(coords, resolution: int) -> np.ndarray:
    """Row-major dense index of vertex coordinates on a ``(res+1)^3`` grid
    (coordinates as in :func:`hash_coords`)."""
    x, y, z = coord_axes(coords)
    stride = resolution + 1
    return (z * stride + y) * stride + x


class HashGridEncoder:
    """Trainable multi-resolution hash-grid encoder.

    The tables are NumPy arrays updated by the distillation trainer; the
    encoder also provides :meth:`voxel_vertices` and :meth:`table_indices`
    used by the architecture simulator to replay memory accesses.
    """

    def __init__(self, config: HashGridConfig, seed: int = 0) -> None:
        self.config = config
        rng = seeded_rng(seed)
        scale = 1e-2
        self.tables: List[np.ndarray] = [
            rng.uniform(-scale, scale, size=(config.table_size, config.feature_dim))
            for _ in range(config.num_levels)
        ]
        self._resolutions = config.level_resolutions

    # ------------------------------------------------------------------
    # Addressing primitives (shared with the architecture simulator)
    # ------------------------------------------------------------------
    def _locate(
        self, points: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(base, weights)``: each point's ``(N, 3)`` voxel base at
        ``level`` and its corner-major ``(8, N)`` trilinear weights.

        Weights are built from per-axis ``(1 - frac, frac)`` lanes: corner
        ``(ox, oy, oz)`` gets ``(wx[ox] * wy[oy]) * wz[oz]``, the product
        order of a left-to-right reduction over the axes.
        """
        res = int(self._resolutions[level])
        # Axis-major (3, N): every pass below runs over contiguous points.
        scaled = np.multiply(np.asarray(points).T, res, order="C")
        base = np.floor(scaled).astype(np.int64)
        np.clip(base, 0, res - 1, out=base)
        frac = scaled - base
        n = frac.shape[1]
        w = np.empty((3, 2, n))
        w[:, 0] = 1.0 - frac
        w[:, 1] = frac
        weights = (
            w[0].reshape(1, 1, 2, n) * w[1].reshape(1, 2, 1, n)
        ) * w[2].reshape(2, 1, 1, n)
        return base.T, weights.reshape(8, n)

    def voxel_vertices(
        self, points: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Locate points in their voxel at ``level``.

        Args:
            points: ``(N, 3)`` positions in the unit cube.

        Returns:
            ``(corners, weights)``: the ``(N, 8, 3)`` integer coordinates of
            each point's voxel vertices and the ``(N, 8)`` trilinear weights.
        """
        base, weights = self._locate(points, level)
        return base[:, None, :] + CORNER_OFFSETS[None, :, :], point_major(weights)

    def table_indices(self, corners, level: int) -> np.ndarray:
        """Embedding-table indices of vertex coordinates at ``level``.

        Dense (low-resolution) levels index the grid directly; compressed
        (high-resolution) levels hash with Eq. (2).  ``corners`` is a
        ``(..., 3)`` array or per-axis lanes (see :func:`coord_axes`).
        """
        res = int(self._resolutions[level])
        if self.config.level_is_dense(level):
            return dense_coords_index(corners, res)
        return hash_coords(corners, self.config.table_size)

    def _lookup(
        self, points: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, weights)``, both corner-major ``(8, N)``: the table
        entries of each point's voxel vertices at ``level`` and their
        trilinear weights, computed from per-axis corner lanes."""
        base, weights = self._locate(points, level)
        idx = self.table_indices(corner_lanes(base), level)
        return idx.reshape(weights.shape), weights

    def _blend(
        self, level: int, idx: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Trilinear blend of one level's fetched features, ``(N, F)``.

        Per feature, the eight weighted corner values are summed in
        corner order — the left-to-right accumulation of
        ``np.sum(..., axis=1)`` over the point-major ``(N, 8, F)``
        products — with every pass over contiguous ``(N,)`` rows.
        """
        table = self.tables[level]
        out = np.empty((idx.shape[1], table.shape[1]))
        for f in range(table.shape[1]):
            weighted = weights * np.take(table[:, f], idx)
            acc = weighted[0] + weighted[1]
            for corner in range(2, 8):
                acc += weighted[corner]
            out[:, f] = acc
        return out

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_level(self, points: np.ndarray, level: int) -> np.ndarray:
        """Trilinearly interpolated features for one level, ``(N, F)``."""
        return self._blend(level, *self._lookup(points, level))

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Concatenated multi-resolution encoding, ``(N, L*F)``."""
        points = np.atleast_2d(points)
        outs = [
            self.encode_level(points, level)
            for level in range(self.config.num_levels)
        ]
        return np.concatenate(outs, axis=-1)

    def encode_with_cache(
        self, points: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Encode and also return per-level table indices ``(N, 8)``.

        Used by the trainer (for gradient scatter) and the renderer (for
        access tracing) so the expensive voxel location runs once.
        """
        points = np.atleast_2d(points)
        outs = []
        index_lists = []
        for level in range(self.config.num_levels):
            idx, weights = self._lookup(points, level)
            outs.append(self._blend(level, idx, weights))
            index_lists.append(point_major(idx))
        return np.concatenate(outs, axis=-1), index_lists

    def encode_backward(
        self,
        points: np.ndarray,
        grad_output: np.ndarray,
        learning_rate: float,
    ) -> None:
        """SGD update of the tables given d(loss)/d(encoding).

        ``grad_output`` has shape ``(N, L*F)``; gradients are scattered to
        the eight vertices of each point's voxel with trilinear weights.
        """
        points = np.atleast_2d(points)
        fdim = self.config.feature_dim
        for level in range(self.config.num_levels):
            idx, weights = self._lookup(points, level)
            idx, weights = point_major(idx), point_major(weights)
            g = grad_output[:, level * fdim : (level + 1) * fdim]
            contrib = weights[..., None] * g[:, None, :]  # (N, 8, F)
            np.add.at(
                self.tables[level],
                idx.reshape(-1),
                -learning_rate * contrib.reshape(-1, fdim),
            )

    def parameter_count(self) -> int:
        """Total number of trainable table entries times feature dim."""
        return sum(t.size for t in self.tables)

    def lookup_flops_per_point(self) -> int:
        """FLOPs of one point's encoding (trilinear blend, all levels).

        Eight vertices x feature_dim multiply-adds per level plus the
        weight products; matches the accounting behind Figure 5.
        """
        per_level = 8 * self.config.feature_dim * 2 + 8 * 3
        return per_level * self.config.num_levels
