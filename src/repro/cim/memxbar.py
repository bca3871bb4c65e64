"""Memory crossbar banks storing embedding tables.

Each memory crossbar (Mem Xbar) holds ``rows`` table entries and serves one
row read per cycle — the mechanism behind the paper's Figure 3(c): when the
eight vertex lookups of a sample point land on the same crossbar they
serialise, while lookups hitting distinct crossbars proceed in parallel.

:meth:`MemXbarBank.read_cycles` consumes a batch of addresses grouped into
parallel *issue groups* (one group per lookup cycle, e.g. the 8 vertices of
a voxel) and returns the conflict-serialised cycle count, vectorised over
the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cim.reram import RERAM, DeviceParams
from repro.errors import ConfigurationError

#: Issue groups per block of the conflict replay (see
#: :meth:`MemXbarBank._group_stats`): large enough that the per-block
#: NumPy calls amortise, small enough that the temporaries stay in cache.
REPLAY_BLOCK_GROUPS = 1 << 15


@dataclass
class ReadStats:
    """Outcome of replaying a lookup stream on a bank.

    Attributes:
        cycles: Total read cycles after conflict serialisation.
        accesses: Row reads issued (equals the number of addresses).
        conflicts: Extra cycles lost to same-crossbar serialisation
            (``cycles - ideal_cycles``).
        energy_pj: Dynamic read energy.
    """

    cycles: int
    accesses: int
    conflicts: int
    energy_pj: float


class MemXbarBank:
    """A bank of memory crossbars addressed linearly.

    Address ``a`` maps to crossbar ``a // rows``, row ``a % rows``.

    Args:
        total_entries: Table entries the bank stores.
        rows: Entries per crossbar (paper: 64).
        device: Memory technology for energy accounting.
    """

    def __init__(
        self,
        total_entries: int,
        rows: int = 64,
        device: DeviceParams = RERAM,
    ) -> None:
        if total_entries < 1:
            raise ConfigurationError("total_entries must be >= 1")
        if rows < 1:
            raise ConfigurationError("rows must be >= 1")
        self.total_entries = total_entries
        self.rows = rows
        self.device = device

    @property
    def num_xbars(self) -> int:
        return -(-self.total_entries // self.rows)

    def xbar_of(self, addresses: np.ndarray) -> np.ndarray:
        """Crossbar id of each address."""
        return np.asarray(addresses, dtype=np.int64) // self.rows

    def _group_stats(self, grouped_addresses) -> Tuple[np.ndarray, np.ndarray]:
        """Per-group ``(longest, reads)``: the largest number of addresses
        landing on one crossbar, and the number of addresses (negative
        lanes mark nothing to read; both are 0 for all-empty groups).

        Each group is priced independently, so the groups are replayed in
        fixed-size blocks of :data:`REPLAY_BLOCK_GROUPS` — exact, and the
        temporaries stay a few bytes per lane whatever the stream length.
        Crossbar ids keep the addresses' integer width (``int32`` for every
        compact address stream).  Per block, each row is sorted so equal
        crossbar ids sit side by side; the sorted lanes are then scanned
        column by column (transposed, so each column is contiguous),
        counting the run each valid lane extends.  Empty lanes sort
        first and never extend a valid lane's run.
        """
        grouped = np.atleast_2d(np.asarray(grouped_addresses))
        num_groups, lanes = grouped.shape
        dtype = np.min_scalar_type(lanes)
        longest = np.zeros(num_groups, dtype=dtype)
        reads = np.zeros(num_groups, dtype=dtype)
        if lanes == 0:
            return longest, reads
        for start in range(0, num_groups, REPLAY_BLOCK_GROUPS):
            stop = min(start + REPLAY_BLOCK_GROUPS, num_groups)
            cols = np.sort(grouped[start:stop] // self.rows, axis=1).T.copy()
            valid = cols >= 0
            run = np.ones(stop - start, dtype=dtype)
            best = valid[0].astype(dtype)
            for lane in range(1, lanes):
                same = cols[lane] == cols[lane - 1]
                run += 1
                run *= same
                run += ~same  # a new crossbar id restarts the run at 1
                np.maximum(best, run * valid[lane], out=best)
            longest[start:stop] = best
            reads[start:stop] = valid.sum(axis=0, dtype=dtype)
        return longest, reads

    def read_cycles(self, grouped_addresses: np.ndarray) -> ReadStats:
        """Replay reads issued in parallel groups.

        Args:
            grouped_addresses: ``(G, K)`` array; each row is one issue group
                of ``K`` addresses presented in the same cycle (e.g. the 8
                voxel-vertex lookups of one sample point).  Negative
                addresses mark lanes with nothing to read (cache hits).

        Returns:
            :class:`ReadStats` with conflict-serialised cycles.
        """
        longest, reads = self._group_stats(grouped_addresses)
        accesses = int(reads.sum())
        if accesses == 0:
            return ReadStats(cycles=0, accesses=0, conflicts=0, energy_pj=0.0)
        latency = self.device.read_latency_cycles
        cycles = int(longest.sum()) * latency
        ideal = int(np.count_nonzero(reads)) * latency
        energy = accesses * self.device.read_energy_pj
        return ReadStats(
            cycles=cycles,
            accesses=accesses,
            conflicts=cycles - ideal,
            energy_pj=energy,
        )

    def read_cycles_segments(
        self, grouped_addresses: np.ndarray, boundaries: np.ndarray
    ) -> tuple:
        """Vectorised per-segment read statistics.

        The conflict model is additive over groups, so a batch of many
        wavefront slices can be replayed in one vectorised pass and split
        back into per-slice stats — each exactly what :meth:`read_cycles`
        returns for that slice's rows alone (the batched engine's
        bit-identity relies on this): cycle/access/conflict counts match
        integer-for-integer, and energy is the same single
        ``accesses * read_energy_pj`` multiply.

        Args:
            grouped_addresses: ``(G, K)`` issue groups of every segment,
                concatenated in order.
            boundaries: ``(S + 1,)`` strictly increasing row offsets with
                ``boundaries[0] == 0`` and ``boundaries[-1] == G``; segment
                ``s`` owns rows ``boundaries[s]:boundaries[s + 1]``.

        Returns:
            ``(cycles, accesses, conflicts, energy_pj)`` arrays of length
            ``S``.  All-empty segments are all-zero, matching
            :meth:`read_cycles`'s no-access early return.
        """
        longest, reads = self._group_stats(grouped_addresses)
        starts = np.asarray(boundaries, dtype=np.int64)[:-1]
        latency = self.device.read_latency_cycles
        accesses = np.add.reduceat(reads, starts, dtype=np.int64)
        cycles = np.add.reduceat(longest, starts, dtype=np.int64) * latency
        ideal = np.add.reduceat(reads > 0, starts, dtype=np.int64) * latency
        return (
            cycles,
            accesses,
            cycles - ideal,
            accesses * self.device.read_energy_pj,
        )

    def read_cycles_segmented(
        self, grouped_addresses: np.ndarray, boundaries: np.ndarray
    ) -> List[ReadStats]:
        """:meth:`read_cycles_segments` packaged as one
        :class:`ReadStats` per segment."""
        cycles, accesses, conflicts, energy = self.read_cycles_segments(
            grouped_addresses, boundaries
        )
        return [
            ReadStats(
                cycles=int(cycles[s]),
                accesses=int(accesses[s]),
                conflicts=int(conflicts[s]),
                energy_pj=float(energy[s]),
            )
            for s in range(len(cycles))
        ]
