"""Tests for memory-crossbar read conflict modelling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim.memxbar import MemXbarBank
from repro.errors import ConfigurationError


class TestBankGeometry:
    def test_num_xbars(self):
        assert MemXbarBank(1000, rows=64).num_xbars == 16

    def test_xbar_of(self):
        bank = MemXbarBank(1000, rows=64)
        np.testing.assert_array_equal(
            bank.xbar_of(np.array([0, 63, 64, 127])), [0, 0, 1, 1]
        )

    def test_invalid_entries(self):
        with pytest.raises(ConfigurationError):
            MemXbarBank(0)


class TestReadCycles:
    def test_parallel_group_one_cycle(self):
        """8 addresses on 8 different crossbars read in one cycle."""
        bank = MemXbarBank(64 * 8, rows=64)
        group = np.arange(8)[None, :] * 64
        stats = bank.read_cycles(group)
        assert stats.cycles == 1
        assert stats.conflicts == 0
        assert stats.accesses == 8

    def test_full_conflict_serialises(self):
        """8 addresses on one crossbar take 8 cycles (Figure 3c)."""
        bank = MemXbarBank(64 * 8, rows=64)
        group = np.arange(8)[None, :]  # rows 0-7 of crossbar 0
        stats = bank.read_cycles(group)
        assert stats.cycles == 8
        assert stats.conflicts == 7

    def test_partial_conflict(self):
        bank = MemXbarBank(64 * 8, rows=64)
        group = np.array([[0, 1, 64, 128, 192, 256, 320, 384]])
        stats = bank.read_cycles(group)
        assert stats.cycles == 2  # crossbar 0 serves two reads

    def test_cache_hits_skip_reads(self):
        bank = MemXbarBank(64 * 8, rows=64)
        group = np.array([[0, -1, -1, -1, -1, -1, -1, -1]])
        stats = bank.read_cycles(group)
        assert stats.accesses == 1
        assert stats.cycles == 1

    def test_all_hits_zero_cycles(self):
        bank = MemXbarBank(64 * 8)
        stats = bank.read_cycles(np.full((4, 8), -1))
        assert stats.cycles == 0
        assert stats.accesses == 0
        assert stats.energy_pj == 0.0

    def test_multiple_groups_accumulate(self):
        bank = MemXbarBank(64 * 8, rows=64)
        groups = np.stack([np.arange(8) * 64, np.arange(8)])
        stats = bank.read_cycles(groups)
        assert stats.cycles == 1 + 8

    def test_energy_proportional_to_accesses(self):
        bank = MemXbarBank(64 * 8)
        one = bank.read_cycles(np.array([[5]]))
        four = bank.read_cycles(np.array([[5, 69, 133, 197]]))
        assert four.energy_pj == pytest.approx(one.energy_pj * 4)

    def test_groups_with_duplicates(self, rng):
        """Duplicate addresses in one group still serialise on the crossbar."""
        bank = MemXbarBank(64 * 4, rows=64)
        group = np.array([[7, 7, 7, 7]])
        stats = bank.read_cycles(group)
        assert stats.cycles == 4


class TestBlockedReplay:
    """The blocked, column-scan conflict replay against a direct count."""

    @staticmethod
    def _reference(bank, grouped):
        longest = []
        for row in grouped.tolist():
            ids = [a // bank.rows for a in row if a >= 0]
            longest.append(max((ids.count(i) for i in ids), default=0))
        return np.array(longest, dtype=np.int64)

    @given(
        st.integers(1, 9),
        st.lists(st.integers(1, 30), min_size=1, max_size=6),
        st.integers(1, 7),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_and_segment_stats_match_reference(
        self, lanes, segment_sizes, block, seed
    ):
        from unittest import mock

        from repro.cim import memxbar

        rng = np.random.default_rng(seed)
        bank = MemXbarBank(64 * 6, rows=64)
        total = sum(segment_sizes)
        grouped = rng.integers(-1, 64 * 6, size=(total, lanes)).astype(np.int32)
        grouped[rng.random(grouped.shape) < 0.3] = -1
        bounds = np.concatenate([[0], np.cumsum(segment_sizes)])
        with mock.patch.object(memxbar, "REPLAY_BLOCK_GROUPS", block):
            per_group = bank.read_cycles_segments(grouped, np.arange(total + 1))
            segments = bank.read_cycles_segments(grouped, bounds)
        latency = bank.device.read_latency_cycles
        assert np.array_equal(per_group[0], self._reference(bank, grouped) * latency)
        for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            stats = bank.read_cycles(grouped[lo:hi])
            assert segments[0][s] == stats.cycles
            assert segments[1][s] == stats.accesses
            assert segments[2][s] == stats.conflicts
            assert segments[3][s] == stats.energy_pj
