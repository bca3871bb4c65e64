"""Batched wavefront pricing: the vectorised fast path of FrameExecution.

Profiling the serving event loop (``repro serve --profile``) shows the
wall clock living in per-slice, per-level numpy calls: every
:meth:`~repro.exec.execution.FrameExecution.step` rebuilds corner arrays,
re-sums color masks and issues one small temporal-cache lookup, record
and bank-conflict replay per resolution level.  This module collapses
that call-shaped loop into array shape: :func:`build_frame_plans` prices
every wavefront slice of one or more frames with **one numpy pass per
resolution level per frame** (and a crossbar conflict replay fused
across levels and frames, in blocks of whole slices) and stores the
results as a :class:`FramePlan` — a
per-step list of pre-assembled report fragments the execution cursor
merges in plain Python, plus the per-level address sets the temporal
cache records before the frame-boundary commit (sorted unique addresses
read back from a presence bitmap, :func:`~repro.cim.cache.address_set`).

**Bit-identity is the contract.**  A plan entry holds exactly what
``step()`` would have produced for that slice, computed with the same
arithmetic in the same order:

* addresses come from per-axis corner lanes of the frame's memoised
  voxel bases (:func:`~repro.nerf.hashgrid.corner_lanes`) through the
  same elementwise formulas the stepped engine applies to its
  ``(N, 8, 3)`` corners;
* per-slice register-cache hits come from *one* pass of shifted
  comparisons over the frame's concatenated stream, with comparisons
  that would reach back across a slice boundary cleared;
* per-slice crossbar conflicts come from
  :meth:`~repro.cim.memxbar.MemXbarBank.read_cycles_segments` passes (the
  conflict model is additive over issue groups, so segment sums equal
  per-slice replays exactly; bank outputs depend only on the crossbar
  geometry, never on a level's entry count, so levels — and tenants
  sharing an accelerator design — fuse into one call until a block of
  slices is full);
* the non-linear per-slice arithmetic — ``ceil`` address-generation and
  fusion terms, ``max`` stage combining, MLP/render engine pricing,
  buffer stalls — is *not* vectorised across slices: it is replicated
  verbatim per slice (cheap scalar math), because those expressions do
  not distribute over batches;
* float accumulation (crossbar/MLP energy) keeps the stepped engine's
  left-fold order: per level within a slice, then per slice.

Temporal-cache state: lookups are evaluated against the resident set at
plan-build time and the plan carries the cache's
:attr:`~repro.cim.cache.TemporalVertexCache.resident_token`; the
execution cursor revalidates the token on every batched advance (and at
:meth:`~repro.exec.execution.FrameExecution.attach_plan`), so an elastic
re-partition that trims the resident set mid-frame forces a rebuild
against the new content instead of replaying stale hit masks.  Recorded
working sets are deferred: the pending set is invisible to every lookup
until the frame-boundary commit, and the pending set is a presence
bitmap that every recorded chunk scatters into, so one deduplicated
per-level record at the frame's end commits exactly what per-slice
recording would have.

Plan building is *observably* side-effect free: it touches no
``SimReport``, never records into or commits the temporal cache, and
advances no request counter.  (Private diagnostic counters — register/
temporal cache hit statistics — are maintained for parity, and the
derived streams memoise on the trace.)  That is what makes the
cross-tenant seam in :class:`~repro.serving.server.SequenceServer` sound:
when several ready clients have unstarted fresh head frames, their plans
are built in one fused batch and held until each frame is actually
scheduled — every head frame's resident set is already committed by its
predecessor, so the prices cannot depend on how the quanta interleave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.cache import CacheStats, address_set, previous_occurrence_gaps
from repro.cim.memxbar import REPLAY_BLOCK_GROUPS
from repro.errors import SimulationError
from repro.nerf.hashgrid import corner_lanes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.encoding_engine import EncodingReport
    from repro.exec.execution import FrameExecution


@dataclass(frozen=True)
class PlannedStep:
    """One wavefront step's pre-assembled pricing.

    ``encoding``/``mlp`` are ``None`` for the Phase I adaptive-sampling
    tail step (which only exercises the render engine).  The fragments
    are immutable once built — a plan may be replayed by several
    executions (the server's cross-run plan cache), so consumers merge
    *from* them and never into them.
    """

    charge: int
    num_points: int
    encoding: Optional["EncodingReport"]
    mlp: Optional[object]
    render: object
    stall: int
    log_key: Tuple


@dataclass
class FramePlan:
    """Pre-priced wavefront steps of one frame, plus deferred records.

    Attributes:
        steps: One :class:`PlannedStep` per execution step, in step order.
        records: ``(step_threshold, level, unique_addresses)`` triples —
            the frame's per-level temporal working set, recorded into the
            cache's pending set once the cursor passes ``step_threshold``
            (and unconditionally at ``finish()``, always before the
            frame-boundary commit that makes the pending set visible).
        temporal_token: The resident-content token the temporal hit masks
            were computed against (``None`` when priced without a cache).
        total_points: Density-MLP points over all steps (plan/execution
            compatibility check).
    """

    steps: List[PlannedStep]
    records: List[Tuple[int, int, np.ndarray]]
    temporal_token: Optional[tuple]
    total_points: int


def build_frame_plans(
    executions: Sequence["FrameExecution"],
) -> List[FramePlan]:
    """Price every wavefront slice of ``executions`` in fused numpy passes.

    Accepts any number of (non-scanout) executions — one frame resuming
    its own cursor, or the head frames of several serving tenants batched
    together.  Each execution's plan is attached to it and also returned,
    in order.
    """
    replay = _ConflictReplay()
    pricings = [_price_encoding(ex, replay) for ex in executions]
    replay.finish()
    plans = [_assemble_plan(ex, pricing) for ex, pricing in zip(executions, pricings)]
    for ex, plan in zip(executions, plans):
        ex._set_plan(plan)
        if ex._recorder is not None:
            from repro.obs.events import EV_PLAN_BUILD

            ex._recorder.emit(
                EV_PLAN_BUILD,
                ex.report.total_cycles,
                steps=len(plan.steps),
                points=plan.total_points,
                batch_size=len(executions),
            )
    return plans


# ----------------------------------------------------------------------
# Pass 1: encoding streams (addresses, gaps, cache + temporal hits)
# ----------------------------------------------------------------------
@dataclass
class _ExecutionPricing:
    """Scratch state of one execution between the builder's passes."""

    #: Per-slice point counts, in step order.
    sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: Per level: per-slice register-cache / temporal hit counts.
    cache_hits: Dict[int, np.ndarray] = field(default_factory=dict)
    temporal_hits: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Per level: per-slice (cycles, accesses, conflicts, energy) arrays.
    read_segments: Dict[int, Tuple] = field(default_factory=dict)
    records: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    temporal_token: Optional[tuple] = None


def _price_encoding(
    ex: "FrameExecution", replay: "_ConflictReplay"
) -> _ExecutionPricing:
    """Stream pass: one fused call per resolution level over the whole
    frame — logical/striped addresses, register-cache hits (per-slice
    shifted comparisons), temporal hits and per-slice hit counts; each
    level's miss issue groups go straight to the conflict ``replay``.
    Addresses are generated from per-axis corner lanes of the frame's
    memoised voxel bases — the ``(N, 8, 3)`` corner array is never built.
    Frame-level arrays memoise on the trace under keys disjoint from the
    stepped engine's per-slice keys."""
    if ex._scanout:
        raise SimulationError("scan-out executions have no wavefront plan")
    out = _ExecutionPricing()
    engine = ex._encoding_engine
    temporal = ex._temporal
    if temporal is not None:
        out.temporal_token = temporal.resident_token
    gen = engine.generator
    config = ex.accelerator.config
    num_levels = ex.accelerator.grid.num_levels
    sk = engine.stream_key
    uint16_max = int(np.iinfo(np.uint16).max)

    slices = ex._slices
    out.sizes = sizes = np.array([sl.num_points for sl in slices], dtype=np.int64)
    total = int(sizes.sum())
    if total == 0 or num_levels == 0:
        return out
    # Segment starts of each slice in the flat 8-wide address stream.
    starts = np.concatenate([[0], np.cumsum(sizes * 8)[:-1]])
    hook = ex._memo_scope.memo_hook(("fplan", config.wavefront_rays))
    request_ids: Optional[np.ndarray] = None

    for level in range(num_levels):
        # The frame's corner lanes at this level, derived lazily from the
        # execution's compact voxel bases (skipped entirely when the
        # address streams below replay from the trace memo).
        lane_cache: List[tuple] = []

        def lanes() -> tuple:
            if not lane_cache:
                lane_cache.append(corner_lanes(ex._corner_bases[level]))
            return lane_cache[0]

        compact = engine.compact_dtype(level)
        logical = hook(
            ("addr", level) + sk,
            lambda: gen.addresses(lanes(), level, None).astype(compact),
        )
        stream = logical.reshape(-1)
        window = engine.caches[level].window
        if window <= 0:
            hits = np.zeros(stream.size, dtype=bool)
        elif window <= _SHIFT_WINDOW_MAX:
            # Small windows (every swept design point): `window` shifted
            # equality passes beat the sort previous-occurrence gaps
            # need, and yield the hit mask directly.
            hits = hook(
                ("whits", level, window) + sk,
                lambda: _window_hits(stream, starts, window),
            )
        elif window < uint16_max:
            gaps = hook(
                ("gaps", level) + sk,
                lambda: np.minimum(
                    _composite_gaps(stream, sizes), uint16_max
                ).astype(np.uint16),
            )
            hits = gaps <= window
        else:  # pragma: no cover - no swept design reaches this
            hits = _composite_gaps(stream, sizes) <= window
        served = hits
        if temporal is not None:
            t_full = temporal.lookup(stream, level, memo=hook, stream_key=sk)
            t_hits = t_full & ~hits
            served = hits | t_full
            unique_stream = hook(
                ("uniq", level) + sk, lambda: address_set(stream)
            )
            out.records.append((ex._steps_total, level, unique_stream))
            out.temporal_hits[level] = np.add.reduceat(
                t_hits, starts, dtype=np.int64
            )
        else:
            out.temporal_hits[level] = np.zeros(len(sizes), dtype=np.int64)
        if gen.striped(level):
            # Request ids restart per execution and advance one per point,
            # so a request's id equals its global point index in the frame
            # (see `EncodingEngine.skip_requests`).
            if request_ids is None:
                request_ids = np.arange(total, dtype=np.int64)
            physical = hook(
                ("addr_striped", level) + sk,
                lambda: gen.addresses(lanes(), level, request_ids).astype(
                    compact
                ),
            )
        else:
            physical = logical
        misses = np.where(served, -1, physical.reshape(-1)).reshape(total, 8)
        replay.add(ex, out, level, misses)
        hit_sums = np.add.reduceat(hits, starts, dtype=np.int64)
        out.cache_hits[level] = hit_sums
        # Mirror the stepped replay's diagnostic counters (unobservable in
        # any SimReport, but kept equivalent in aggregate).
        st = engine.caches[level].stats.setdefault(level, CacheStats())
        st.accesses += stream.size
        st.hits += int(hit_sums.sum())
    return out


#: Largest register-cache window priced by shifted comparisons instead of
#: sort-based gaps (cost scales with the window, so huge windows fall
#: back to the gap array).
_SHIFT_WINDOW_MAX = 64


def _window_hits(
    stream: np.ndarray, starts: np.ndarray, window: int
) -> np.ndarray:
    """Register-cache hit mask of every slice in one fused pass.

    An access hits iff its address recurs within the previous ``window``
    accesses of its own slice (slice ``i`` starts at ``starts[i]``).  Shift
    ``d`` compares every access with the one ``d`` earlier; the first
    ``d`` accesses of a slice have no such predecessor inside it, so
    their comparisons are cleared.  (Clearing ``start + j`` for every
    ``j < d`` also reaches into the next slice when a slice is shorter
    than ``d``, but those positions sit fewer than ``d`` accesses into
    their own slice too.)  Identical to per-slice
    ``previous_occurrence_gaps(...) <= window``: a previous occurrence at
    distance ``d0 <= window`` matches shift ``d0``; a match at shift ``d``
    means the nearest occurrence is at most ``d`` away.
    """
    n = stream.size
    hits = np.zeros(n, dtype=bool)
    for d in range(1, min(window, n - 1) + 1):
        match = stream[d:] == stream[:-d]
        heads = (starts[:, None] + np.arange(d)).ravel()
        match[heads[(heads >= d) & (heads < n)] - d] = False
        hits[d:] |= match
    return hits


def _composite_gaps(stream: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-slice access-distance gaps from one fused call.

    Offsetting each slice's addresses into a disjoint key range keeps
    within-slice index distances exact (the chunks stay contiguous) while
    making a repeat across a slice boundary look like a first occurrence —
    exactly the stepped engine's per-slice
    :func:`~repro.cim.cache.previous_occurrence_gaps` results,
    concatenated.
    """
    if stream.size == 0:
        return previous_occurrence_gaps(stream)
    slice_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes * 8)
    stride = int(stream.max()) + 1
    return previous_occurrence_gaps(slice_ids * stride + stream.astype(np.int64))


# ----------------------------------------------------------------------
# Pass 2: fused, blocked crossbar conflict replay
# ----------------------------------------------------------------------
class _ConflictReplay:
    """Segmented crossbar conflict replay, fused across levels and
    executions and flushed in blocks of whole slices.

    Bank outputs depend only on the crossbar row count and memory device
    (never on a level's entry count), so every level — and every tenant
    sharing an accelerator design — can share one
    :meth:`~repro.cim.memxbar.MemXbarBank.read_cycles_segments` call.
    Each level's miss issue groups queue per bank geometry as soon as the
    level is priced, and a queue is replayed once it holds
    :data:`~repro.cim.memxbar.REPLAY_BLOCK_GROUPS` groups: many small
    frames still fuse into one call, while a large frame never holds more
    than one level's misses plus one block.  The conflict model is
    additive over issue groups, so where a flush falls changes nothing.
    """

    def __init__(self) -> None:
        #: geometry -> (bank, queued ``(pricing, level, misses)``)
        self._queues: Dict[tuple, Tuple[object, list]] = {}

    def add(
        self,
        ex: "FrameExecution",
        pricing: _ExecutionPricing,
        level: int,
        misses: np.ndarray,
    ) -> None:
        config = ex.accelerator.config
        key = (config.crossbar.rows, id(config.memory_device))
        _, queued = self._queues.setdefault(
            key, (ex._encoding_engine.banks[0], [])
        )
        queued.append((pricing, level, misses))
        if sum(len(m) for _, _, m in queued) >= REPLAY_BLOCK_GROUPS:
            self._flush(key)

    def finish(self) -> None:
        for key in list(self._queues):
            self._flush(key)

    def _flush(self, key: tuple) -> None:
        bank, queued = self._queues.pop(key)
        sizes = np.concatenate([pricing.sizes for pricing, _, _ in queued])
        misses = (
            queued[0][2]
            if len(queued) == 1
            else np.concatenate([m for _, _, m in queued])
        )
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        stats = bank.read_cycles_segments(misses, bounds)
        offset = 0
        for pricing, level, _ in queued:
            n = len(pricing.sizes)
            pricing.read_segments[level] = tuple(
                a[offset : offset + n] for a in stats
            )
            offset += n


# ----------------------------------------------------------------------
# Pass 3: per-slice report assembly (scalar arithmetic, stepped order)
# ----------------------------------------------------------------------
def _assemble_plan(
    ex: "FrameExecution", pricing: _ExecutionPricing
) -> FramePlan:
    """Replicate ``_wavefront_step``'s per-slice arithmetic verbatim over
    the fused pass results, producing the plan's report fragments."""
    from repro.arch.buffers import BufferModel
    from repro.arch.encoding_engine import EncodingReport

    accelerator = ex.accelerator
    config = accelerator.config
    num_levels = accelerator.grid.num_levels
    hybrid = config.mapping_mode == "hybrid"
    # A private buffer model: stall cycles are a pure function of the
    # specs and the wavefront's working set, so pricing here never
    # perturbs the execution's own occupancy diagnostics.
    buffers = BufferModel(ex._buffers.specs)
    levels = range(num_levels)
    steps: List[PlannedStep] = []
    for si, sl in enumerate(ex._slices):
        p = sl.num_points
        enc = EncodingReport()
        level_read: List[int] = []
        for level in levels:
            seg_cycles, seg_accesses, seg_conflicts, seg_energy = (
                pricing.read_segments[level]
            )
            enc.lookups += p * 8
            enc.cache_hits += int(pricing.cache_hits[level][si])
            enc.temporal_hits += int(pricing.temporal_hits[level][si])
            enc.xbar_accesses += int(seg_accesses[si])
            enc.conflict_cycles += int(seg_conflicts[si])
            enc.xbar_energy_pj += float(seg_energy[si])
            level_read.append(int(seg_cycles[si]))
        if level_read:
            read_cycles = max(level_read) if hybrid else sum(level_read)
        else:
            read_cycles = 0
        addr_gen_cycles = math.ceil(p * 8 * num_levels / config.address_units)
        fusion_cycles = math.ceil(p * num_levels / config.fusion_lanes)
        enc.read_cycles = read_cycles
        enc.cycles = max(addr_gen_cycles, read_cycles, fusion_cycles)

        color_points = ex._slice_color_points[si]
        mlp = accelerator.mlp_engine.process(p, color_points)
        ren = accelerator.render_engine.process(
            composited_points=p,
            interpolated_points=p - color_points,
        )
        stall = buffers.observe_wavefront(
            in_flight_points=ex._slice_in_flight[si],
            levels=num_levels,
            ray_working_points=p,
        )
        steps.append(
            PlannedStep(
                charge=max(enc.cycles, mlp.cycles, ren.cycles) + stall,
                num_points=p,
                encoding=enc,
                mlp=mlp,
                render=ren,
                stall=stall,
                log_key=("wavefront", sl.index, sl.rays.start, sl.rays.stop),
            )
        )
    if ex._evals:
        ren = accelerator.render_engine.process(0, 0, ex._evals)
        steps.append(
            PlannedStep(
                charge=ren.cycles,
                num_points=0,
                encoding=None,
                mlp=None,
                render=ren,
                stall=0,
                log_key=("adaptive_tail",),
            )
        )
    return FramePlan(
        steps=steps,
        records=pricing.records,
        temporal_token=pricing.temporal_token,
        total_points=ex._total_points,
    )
