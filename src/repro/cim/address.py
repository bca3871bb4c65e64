"""Hybrid address generation (Section 5.2.1, Figures 12 and 14).

Low-resolution embedding tables fit their full dense grid into the table
capacity, so ASDR de-hashes them: vertex coordinates are turned into
addresses by *bit reorder and concatenation* — the low (parity) bits of
``(x, y, z)`` become the high bits of the address, so the eight vertices of
any voxel land on eight different memory crossbars and can be read in one
parallel cycle.  The leftover capacity stores replicated copies of the
table, letting concurrent sample points read the same entry from different
copies.  High-resolution tables keep the original Eq. (2) hash mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nerf.hashgrid import (
    HashGridConfig,
    coord_axes,
    hash_coords,
    point_major,
)


def naive_concat_address(corners, resolution: int) -> np.ndarray:
    """Figure 14(a)'s strawman: concatenate x|y|z bit fields.

    Vertices of one voxel share their high bits, so they pile onto the same
    crossbar — this mapping exists as the conflict-prone comparison point.
    ``corners`` is a ``(..., 3)`` array or per-axis lanes (see
    :func:`~repro.nerf.hashgrid.coord_axes`).
    """
    bits = max(1, math.ceil(math.log2(resolution + 1)))
    x, y, z = coord_axes(corners)
    return (x << (2 * bits)) | (y << bits) | z


def bit_reorder_address(
    corners,
    resolution: int,
    copy_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Figure 14(b)'s mapping: parity bits become the address high bits.

    Args:
        corners: ``(..., 3)`` integer vertex coordinates in
            ``[0, resolution]``, or per-axis lanes (see
            :func:`~repro.nerf.hashgrid.coord_axes`).
        resolution: Grid resolution of the level.
        copy_ids: Optional replica selector broadcastable against the
            coordinates; copy ``k`` addresses the ``k``-th replicated
            table instance.

    Returns:
        Addresses in the coordinates' (broadcast) shape.  The 8 vertices
        of any voxel always receive 8 distinct parity prefixes, hence
        distinct crossbars.
    """
    x, y, z = coord_axes(corners)
    half = resolution // 2 + 1
    slot = half**3
    # address = parity * slot + row-major index of the halved coordinates,
    # with parity = x&1 | (y&1) << 1 | (z&1) << 2.  Both fields are sums
    # of per-axis terms, so each axis contributes one term and per-axis
    # lanes only meet in the final sum.
    addr = (
        ((x & 1) * slot + (x >> 1))
        + ((y & 1) * (2 * slot) + (y >> 1) * half)
        + ((z & 1) * (4 * slot) + (z >> 1) * (half * half))
    )
    if copy_ids is not None:
        addr = addr + np.asarray(copy_ids, dtype=np.int64) * dense_slot_size(resolution)
    return addr


def dense_slot_size(resolution: int) -> int:
    """Address-space footprint of one de-hashed table copy."""
    half = resolution // 2 + 1
    return 8 * half**3


@dataclass
class LevelMapping:
    """How one resolution level's table is mapped into crossbar storage.

    Attributes:
        level: Level index.
        resolution: Grid resolution.
        table_size: Logical table entries (capacity).
        dense: True when the level is de-hashed (low resolution).
        copies: Replicated table instances (1 for hashed levels).
    """

    level: int
    resolution: int
    table_size: int
    dense: bool
    copies: int

    @property
    def address_space(self) -> int:
        """Entries of physical storage the mapping occupies."""
        if self.dense:
            return dense_slot_size(self.resolution) * self.copies
        return self.table_size


class HybridAddressGenerator:
    """Per-level address generation for the encoding engine.

    Args:
        grid: The hash-grid configuration being accelerated.
        mode: ``"hybrid"`` (the ASDR design), ``"hash"`` (original mapping
            everywhere) or ``"naive"`` (de-hash by plain concatenation —
            the Figure 14a strawman).
    """

    MODES = ("hybrid", "hash", "naive")

    def __init__(self, grid: HashGridConfig, mode: str = "hybrid") -> None:
        if mode not in self.MODES:
            raise ConfigurationError(f"mode must be one of {self.MODES}")
        self.grid = grid
        self.mode = mode
        self.levels: List[LevelMapping] = []
        resolutions = grid.level_resolutions
        for level in range(grid.num_levels):
            res = int(resolutions[level])
            dense = mode != "hash" and grid.level_is_dense(level)
            copies = 1
            if dense and mode == "hybrid":
                copies = max(1, grid.table_size // dense_slot_size(res))
            self.levels.append(
                LevelMapping(
                    level=level,
                    resolution=res,
                    table_size=grid.table_size,
                    dense=dense,
                    copies=copies,
                )
            )

    def addresses(
        self,
        corners,
        level: int,
        request_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Physical addresses of vertex ``corners`` at ``level``, ``(N, 8)``.

        Args:
            corners: ``(N, 8, 3)`` voxel-vertex coordinates, or the
                per-axis lanes of :func:`~repro.nerf.hashgrid.corner_lanes`
                (same addresses, without the corner array).
            request_ids: Optional ``(N,)`` sequence numbers of the issuing
                sample points; replicated levels stripe consecutive
                requests across copies (round-robin), which is what lets
                concurrent points read the same entry conflict-free.
        """
        lanes = isinstance(corners, tuple)
        mapping = self.levels[level]
        if not mapping.dense:
            addr = hash_coords(corners, mapping.table_size)
        elif self.mode == "naive":
            addr = naive_concat_address(corners, mapping.resolution)
        else:
            copy_ids = None
            if mapping.copies > 1 and request_ids is not None:
                copy_ids = np.asarray(request_ids, dtype=np.int64) % mapping.copies
                if not lanes:
                    copy_ids = copy_ids[:, None]
            addr = bit_reorder_address(corners, mapping.resolution, copy_ids)
        return point_major(addr) if lanes else addr

    def striped(self, level: int) -> bool:
        """Whether the level's physical addresses depend on request ids
        (replicated dense levels round-robin across copies; every other
        mapping is request-independent)."""
        mapping = self.levels[level]
        return self.mode == "hybrid" and mapping.dense and mapping.copies > 1

    def level_storage_entries(self, level: int) -> int:
        """Physical entries backing the level (for bank sizing)."""
        return max(self.levels[level].address_space, self.grid.table_size)
