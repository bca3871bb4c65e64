"""Pinned sequence and serving prices: the temporal-cache golden.

``tests/golden/serve_pricing.json`` records what any rewrite of the
temporal vertex cache, the batched plan path or the per-frame pricing
setup must reproduce bit for bit:

* every :class:`~repro.arch.accelerator.SimReport` field — cycles per
  engine, register and temporal hits, conflicts, accesses and ``repr``
  of the energies — of every frame of
  :meth:`~repro.arch.accelerator.ASDRAccelerator.simulate_sequence` on a
  fixed :meth:`FrameTrace.from_budgets` sequence (with pose replays),
  once with an unbounded temporal cache and once with a per-level
  capacity small enough that every commit trims;
* the :meth:`~repro.serving.report.ServeReport.to_dict` rows of a
  two-client :class:`~repro.serving.server.SequenceServer` round under
  ``fifo`` and ``round_robin_preemptive`` with quantum 2, with unbounded
  and with bounded (partitioned) temporal capacity.

No checkpoint is needed: the traces are synthesised from budget maps.
Regenerate (only when a change is *meant* to alter these numbers)::

    PYTHONPATH=src python tests/test_serve_pricing_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.exec.frame_trace import FrameTrace
from repro.exec.sequence import SequenceTrace, pose_key
from repro.experiments.workbench import experiment_accelerator
from repro.scenes.cameras import camera_path
from repro.serving.policies import make_policy
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer
from test_frame_pricing_golden import _fields

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_pricing.json"

SIZE = 16
#: Per-level temporal capacity that trims every committed working set.
TRIM_CAPACITY = 96
#: Combined serving budget: two tenants share it, 48 entries each.
SERVE_CAPACITY = 2 * 48
SERVE_POLICIES = (("fifo", None), ("round_robin_preemptive", 2))


def budget_sequence(path) -> SequenceTrace:
    """A budget-map sequence for ``path``: budgets shift with the frame
    index (several wavefronts per frame, each frame's split differs), and
    bit-identical poses become replays of their first occurrence."""
    frames, replays, seen = [], [], {}
    for k, camera in enumerate(path.cameras()):
        key = pose_key(camera)
        if key in seen:
            frames.append(frames[seen[key]])
            replays.append(seen[key])
            continue
        n = camera.width * camera.height
        budgets = (1 + ((np.arange(n) + 3 * k) % 6) * 2).astype(np.int64)
        seen[key] = len(frames)
        frames.append(FrameTrace.from_budgets(camera, budgets))
        replays.append(None)
    return SequenceTrace(
        frames=frames,
        path_key=path.cache_key(),
        kind="asdr",
        replays=replays,
        planned=[k == 0 for k in range(len(frames))],
    )


def sequence_reports() -> Dict[str, object]:
    # `shake` repeats its poses every `period` frames: frames 5 and 6
    # replay 0 and 1, so scan-out pricing rides along.
    path = camera_path("shake", 7, SIZE, SIZE, amplitude=0.03, period=5)
    sequence = budget_sequence(path)
    accelerator = experiment_accelerator("server")
    out: Dict[str, object] = {}
    for name, capacity in (("unbounded", None), ("trimmed", TRIM_CAPACITY)):
        report = accelerator.simulate_sequence(
            sequence, temporal_capacity=capacity
        )
        frames = []
        for frame in report.frames:
            record = _fields(frame)
            record["energy_joules"] = repr(frame.energy_joules)
            frames.append(record)
        out[name] = {
            "frames": frames,
            "replayed": list(report.replayed),
        }
    return out


def serve_reports() -> Dict[str, object]:
    accelerator = experiment_accelerator("server")
    requests = [
        ClientRequest(
            client_id=f"c{i}",
            scene="synthetic",
            path=camera_path("orbit", 4, SIZE, SIZE, arc=0.05 + 0.1 * i),
        )
        for i in range(2)
    ]
    out: Dict[str, object] = {}
    for capacity in (None, SERVE_CAPACITY):
        server = SequenceServer(accelerator, temporal_capacity=capacity)
        for request in requests:
            server.submit(request, budget_sequence(request.path))
        for name, quantum in SERVE_POLICIES:
            report = server.serve(make_policy(name, quantum=quantum))
            # JSON round trip: tuples become lists, as in the golden file.
            key = f"{name}-cap{capacity}"
            out[key] = json.loads(json.dumps(report.to_dict()))
    return out


def snapshot() -> Dict[str, object]:
    return {"sequence": sequence_reports(), "serve": serve_reports()}


def test_sequence_pricing_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    reports = sequence_reports()
    # The fixture must exercise what it pins: temporal reuse, replays and
    # trimming (a bounded cache hits less than the unbounded one).
    unbounded = [f["encoding"]["temporal_hits"] for f in reports["unbounded"]["frames"]]
    trimmed = [f["encoding"]["temporal_hits"] for f in reports["trimmed"]["frames"]]
    assert sum(unbounded) > sum(trimmed) > 0
    assert any(reports["unbounded"]["replayed"])
    assert reports == golden["sequence"]


def test_serve_rows_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert serve_reports() == golden["serve"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
