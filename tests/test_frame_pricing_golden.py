"""Pinned encode outputs and frame pricing: the hot-path golden.

``tests/golden/frame_pricing.json`` records two things that any
rewrite of the hash-grid encoder or the pricing engines must reproduce
bit for bit:

* the SHA-256 of :meth:`HashGridEncoder.encode` and
  :meth:`HashGridEncoder.encode_with_cache` outputs (features and every
  level's table indices) for one fixed, seeded point set on the committed
  palace and ship checkpoints.  The point set includes the awkward
  inputs: exactly 0, exactly 1, points on grid planes, and points
  slightly outside the unit cube.  The encode path is pure elementwise
  NumPy (no BLAS), so the digests are portable;
* every :class:`~repro.arch.accelerator.SimReport` field — cycles per
  engine, conflicts, hits, accesses and ``repr`` of the energies — of
  :meth:`FrameTrace.from_budgets` frames at 16x16 and 64x64 (94k density
  points) priced by the default :meth:`ASDRAccelerator.simulate_trace`.

Regenerate (only when a change is *meant* to alter these numbers)::

    PYTHONPATH=src python tests/test_frame_pricing_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.exec.frame_trace import FrameTrace
from repro.experiments.workbench import WorkbenchConfig, experiment_accelerator
from repro.nerf.io import load_instant_ngp
from repro.scenes.cameras import camera_path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).parent / "golden" / "frame_pricing.json"

ENCODE_SCENES = ("palace", "ship")
#: ``(size, budget_scale)``: 2944 and 94208 density points.
PRICED_FRAMES = ((16, 1), (64, 2))
PRICED_SCALES = ("server", "edge")


def golden_points() -> np.ndarray:
    """The fixed encode input: seeded uniform points plus edge cases."""
    rng = np.random.default_rng(20261017)
    uniform = rng.uniform(0.0, 1.0, size=(2048, 3))
    planes = rng.integers(0, 17, size=(256, 3)) / 16.0  # level-0 grid planes
    fine_planes = rng.integers(0, 513, size=(256, 3)) / 512.0
    outside = rng.uniform(-1e-3, 1.0 + 1e-3, size=(256, 3))
    corners = np.array(
        [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.float64
    )
    return np.concatenate([uniform, planes, fine_planes, outside, corners])


def model_path(scene: str) -> Path:
    cfg = WorkbenchConfig()
    tag = f"ingp-{scene}-s{cfg.seed}-t{cfg.train_steps}x{cfg.train_batch}"
    return REPO_ROOT / ".cache" / "models" / f"{tag}.npz"


def _sha(arrays: List[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def encode_digests() -> Dict[str, Dict[str, str]]:
    points = golden_points()
    out: Dict[str, Dict[str, str]] = {}
    for scene in ENCODE_SCENES:
        encoder = load_instant_ngp(model_path(scene)).encoder
        features = encoder.encode(points)
        cached, indices = encoder.encode_with_cache(points)
        out[scene] = {
            "encode": _sha([features]),
            "encode_with_cache": _sha([cached]),
            "indices": _sha([np.asarray(i, dtype=np.int64) for i in indices]),
        }
    return out


def frame_trace(size: int, budget_scale: int) -> FrameTrace:
    cam = camera_path("orbit", 1, size, size, arc=0.4).cameras()[0]
    budgets = ((1 + (np.arange(size * size) % 8) * 3) * budget_scale).astype(
        np.int64
    )
    return FrameTrace.from_budgets(cam, budgets)


def _fields(obj) -> Dict[str, object]:
    """Every dataclass field, floats as ``repr`` (exact round trip)."""
    out: Dict[str, object] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = _fields(value)
        elif isinstance(value, dict):
            out[f.name] = {k: repr(v) for k, v in sorted(value.items())}
        elif isinstance(value, float):
            out[f.name] = repr(value)
        else:
            out[f.name] = value
    return out


def priced_frames() -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for size, scale in PRICED_FRAMES:
        trace = frame_trace(size, scale)
        for design in PRICED_SCALES:
            report = experiment_accelerator(design).simulate_trace(trace)
            record = _fields(report)
            record["density_points"] = trace.density_points
            out[f"{design}-{size}x{size}"] = record
    return out


def snapshot() -> Dict[str, object]:
    return {"encode": encode_digests(), "frames": priced_frames()}


def test_encode_digests_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert encode_digests() == golden["encode"]


def test_frame_pricing_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    frames = priced_frames()
    assert frames["server-64x64"]["density_points"] == 94208
    assert frames == golden["frames"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
