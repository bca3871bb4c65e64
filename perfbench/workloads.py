"""The benchmark workloads: ``frame`` and ``serve``.

Each workload is a closed loop over a fixed list of operations drawn from
the seed (one *pass*).  An operation runs alone in the timed region; its
inputs are prepared before it and its outputs are checked after it, both
untimed.  Every operation starts from cold program state: ``frame``
renders afresh, and ``serve`` restores its client traces from
their serialised form, so no memo survives from one operation to the
next.

Every operation reports an ``exact`` record: its simulated cycles,
energy, latencies and work counts.  These are deterministic, so a later
pass must reproduce the first pass's records bit for bit, and so must a
traced run.  The first (warm-up) pass also checks outputs against independent
references (PSNR against the analytic ground truth, wavefront logs that
must sum to the simulated total, conservation of service cycles and of
frames); later passes are checked by equality with the first.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.arch.accelerator import SimReport
from repro.core.config import ASDRConfig
from repro.core.pipeline import ASDRRenderer
from repro.exec.sequence import SequenceTrace, pose_key
from repro.experiments.cluster import twin_heavy_mix
from repro.experiments.serving import DEFAULT_SCENE, default_client_mix
from repro.experiments.slo import (
    DEFAULT_DEGRADE_FRACTION,
    DEFAULT_DEGRADE_MIN_PSNR,
    SLO_POLICY,
    calibrate_deadlines,
    degrade_psnr_map,
    overload_mix,
)
from repro.experiments.workbench import (
    Workbench,
    WorkbenchConfig,
    experiment_accelerator,
)
from repro.metrics.image import psnr
from repro.nerf.io import load_instant_ngp
from repro.scenes.analytic import make_scene
from repro.scenes.cameras import Camera, look_at_pose
from repro.scenes.dataset import render_analytic
from repro.serving.cluster import ClusterServer
from repro.serving.policies import make_policy
from repro.serving.server import SequenceServer
from repro.serving.slo import AUTO_QUANTUM, AdmissionError, SLOConfig

ROOT = Path(__file__).resolve().parents[1]
MODEL_DIR = ROOT / ".cache" / "models"

#: Output check: every delivered ``frame`` frame must reach
#: this PSNR against the analytic ground truth.  Workbench-scale models
#: score 19-29 dB; a NaN image or a broken renderer scores far below.
PSNR_FLOOR_DB = 15.0
#: Samples per ray of the analytic ground-truth reference.  48 reads
#: within 0.15 dB of 192 on the workbench scenes at a quarter of the cost.
REFERENCE_SAMPLES = 48
#: A 90 Hz headset refresh: the interactive frame deadline used for the
#: single-stream workloads, whose frames carry no serving SLO class.
INTERACTIVE_FRAME_MS = 1000.0 / 90.0

_CENTER = np.array([0.5, 0.5, 0.5])


def model_path(scene: str) -> Path:
    """The committed Instant-NGP checkpoint the workbench would load."""
    cfg = WorkbenchConfig()
    tag = f"ingp-{scene}-s{cfg.seed}-t{cfg.train_steps}x{cfg.train_batch}"
    return MODEL_DIR / f"{tag}.npz"


def load_model(scene: str):
    """Load a committed checkpoint read-only; never distil."""
    path = model_path(scene)
    if not path.exists():
        raise FileNotFoundError(f"missing committed checkpoint {path}")
    return load_instant_ngp(path)


def orbit_camera(size: int, angle: float, radius: float, elevation: float) -> Camera:
    """A square camera on the scene orbit at ``angle`` (the geometry of
    the ``orbit`` camera-path preset, with a free start angle)."""
    eye = _CENTER + np.array(
        [radius * math.cos(angle), elevation, radius * math.sin(angle)]
    )
    return Camera(size, size, 1.2 * size, look_at_pose(eye, _CENTER))


def _exact() -> Dict[str, object]:
    """An empty per-operation record of deterministic quantities."""
    return {
        "frames": 0,
        "submitted": 0,
        "cycles": 0,
        "energy_j": 0.0,
        "sim_seconds": 0.0,
        "latencies_ms": [],
        "interactive_attainment": [],
        "psnr_db": [],
        "engine": _engine(),
        "density_points": 0,
        "color_points": 0,
        "interpolated_points": 0,
        "probe_points": 0,
        "serving": {},
    }


def _engine() -> Dict[str, int]:
    return {
        "encoding": 0,
        "mlp_density": 0,
        "mlp_color": 0,
        "render": 0,
        "bus": 0,
        "stall": 0,
        "conflict": 0,
        "lookups": 0,
        "register_hits": 0,
        "temporal_hits": 0,
    }


def add_engine(engine: Dict[str, int], report: SimReport) -> None:
    """Accumulate one simulated frame's engine breakdown."""
    engine["encoding"] += report.encoding.cycles
    engine["mlp_density"] += report.mlp.density_cycles
    engine["mlp_color"] += report.mlp.color_cycles
    engine["render"] += report.render.cycles
    engine["bus"] += report.bus_cycles
    engine["stall"] += report.buffer_stall_cycles
    engine["conflict"] += report.encoding.conflict_cycles
    engine["lookups"] += report.encoding.lookups
    engine["register_hits"] += report.encoding.cache_hits
    engine["temporal_hits"] += report.encoding.temporal_hits


def _add_frame(exact: Dict, report: SimReport) -> None:
    """Book one delivered, independently simulated frame."""
    exact["frames"] += 1
    exact["submitted"] += 1
    exact["cycles"] += report.total_cycles
    exact["energy_j"] += report.energy_joules
    exact["sim_seconds"] += report.time_seconds
    latency_ms = report.time_seconds * 1e3
    exact["latencies_ms"].append(latency_ms)
    exact["interactive_attainment"].append(float(latency_ms <= INTERACTIVE_FRAME_MS))
    add_engine(exact["engine"], report)


def _add_render(exact: Dict, result) -> None:
    exact["density_points"] += result.density_points
    exact["color_points"] += result.color_points
    exact["interpolated_points"] += result.interpolated_points
    exact["probe_points"] += result.probe_points


def _psnr_ok(value: float) -> bool:
    return bool(np.isfinite(value)) and value >= PSNR_FLOOR_DB


class Workload:
    """Interface the runner drives (see ``run.py``)."""

    name = ""
    why = ""
    #: Whether the per-frame engine breakdown comes from the tracer's
    #: report taps (a serving round's reports carry no engine split).
    engine_from_taps = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    #: Per-operation input specs of one pass, drawn from the seed.
    specs: List[object]
    #: Scenes whose committed checkpoints the workload loads.
    SCENES: Tuple[str, ...] = ()

    def setup(self):
        """Timed set-up: build the program state operations run on."""
        raise NotImplementedError

    def prepare_checks(self, state) -> None:
        """Untimed: anything the checks need that is not the program's
        own set-up (serialised traces, reference images)."""

    def prepare(self, state, spec):
        """Untimed per-operation input preparation."""
        return None

    def run(self, state, spec, prepared):
        """One operation — the only timed code."""
        raise NotImplementedError

    def evaluate(self, state, spec, output, first) -> Tuple[Dict, List[str]]:
        """``(exact record, failures)`` of one operation.  ``first`` is
        the first pass's ``(exact, keep(output))`` for this spec, or
        ``None`` on the first pass."""
        raise NotImplementedError

    def keep(self, output):
        """What later passes compare against: the first pass keeps only
        this much of its output alive, so peak memory stays the
        program's."""
        raise NotImplementedError

    def check_taps(self, exact: Dict, taps: List[SimReport]) -> List[str]:
        """Failures of a traced operation's report taps (see
        ``tracing.Tracer``)."""
        return []


# ----------------------------------------------------------------------
# frame
# ----------------------------------------------------------------------
class FrameWorkload(Workload):
    name = "frame"
    why = (
        "fresh 56x56 ASDR frames (Phase I+II) priced by simulate_trace: nerf, "
        "core and arch do the work, no temporal cache or serving; Phase I and "
        "encode changes show here"
    )
    #: Committed scenes; each pass renders every scene from one
    #: seed-drawn orbit pose.
    SCENES = ("palace", "lego", "fox", "ship")
    SIZE = 56

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs = [
            (
                scene,
                float(self.rng.uniform(0.0, 2.0 * math.pi)),
                float(self.rng.uniform(1.35, 1.45)),
                float(self.rng.uniform(0.3, 0.4)),
            )
            for scene in self.SCENES
        ]

    def setup(self):
        """One default-config ASDR renderer per scene at the workbench's
        48-sample budget, and the server design point."""
        renderers = {
            scene: ASDRRenderer(
                load_model(scene),
                config=ASDRConfig(),
                num_samples=WorkbenchConfig().num_samples,
            )
            for scene in self.SCENES
        }
        return {"renderers": renderers, "acc": experiment_accelerator("server")}

    def camera(self, spec) -> Camera:
        _scene, angle, radius, elevation = spec
        return orbit_camera(self.SIZE, angle, radius, elevation)

    def run(self, state, spec, prepared):
        result = state["renderers"][spec[0]].render_image(self.camera(spec))
        report = state["acc"].simulate_trace(result.trace)
        return result, report

    def evaluate(self, state, spec, output, first):
        result, report = output
        exact = _exact()
        _add_frame(exact, report)
        _add_render(exact, result)
        failures: List[str] = []
        if first is None:
            value = float(
                psnr(
                    result.image,
                    render_analytic(
                        make_scene(spec[0]),
                        self.camera(spec),
                        num_samples=REFERENCE_SAMPLES,
                    ),
                )
            )
            if not _psnr_ok(value):
                failures.append(f"{spec[0]}: PSNR {value:.2f} dB below floor")
            log: List = []
            logged = state["acc"].simulate_trace(result.trace, wavefront_log=log)
            if sum(c for _k, c in log) != logged.total_cycles:
                failures.append(f"{spec[0]}: wavefront log does not sum to total")
            if logged.total_cycles != report.total_cycles:
                failures.append(f"{spec[0]}: logged re-simulation differs")
        else:
            first_exact, first_image = first
            value = first_exact["psnr_db"][0]
            if not np.array_equal(result.image, first_image):
                failures.append(f"{spec[0]}: image differs from first pass")
        exact["psnr_db"].append(value)
        return exact, failures

    def keep(self, output):
        return output[0].image


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Best-effort policies of one serving round and their quanta.
BEST_EFFORT_RUNS = (
    ("fifo", None),
    ("round_robin_preemptive", 2),
    ("deadline_preemptive", AUTO_QUANTUM),
)
CLUSTER_SHARDS = 2
CLUSTER_ROUTER = "affinity"
CLUSTER_POLICY = "round_robin_preemptive"
#: Bound of the seed-drawn radius/elevation offset of the serving mixes.
#: The mixes are calibrated presets (an overload that must stay an
#: overload), so the seed only jitters their poses: at 16x16 a 2% radius
#: change already moves simulated cycles per frame by ~15%.
POSE_JITTER = 0.005


def _offset_request(request, dr: float, de: float):
    """Shift a request's orbit radius and elevation.  One common offset
    per seed keeps every twin, shared base pose and distinct radius of
    the library mixes intact."""
    path = replace(
        request.path,
        radius=request.path.radius + dr,
        elevation=request.path.elevation + de,
    )
    return replace(request, path=path)


def _trace_ids(traces: Dict) -> set:
    """Identities of every sequence and frame trace of one round."""
    return {id(t) for t in traces.values()} | {
        id(f) for t in traces.values() for f in t.frames
    }


class ServeWorkload(Workload):
    name = "serve"
    why = (
        "serving rounds over pre-rendered traces (3 policies, SLO overload, "
        "2-shard cluster): serving loop, alone_cycles and exec pricing do the "
        "work; no rendering is timed"
    )

    engine_from_taps = True
    #: The library mixes all watch the serving experiments' default scene.
    SCENES = (DEFAULT_SCENE,)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.dr = float(self.rng.uniform(-POSE_JITTER, POSE_JITTER))
        self.de = float(self.rng.uniform(-POSE_JITTER, POSE_JITTER))
        # One round per operation; every operation serves the same mixes.
        self.specs = [0]

    def _mixes(self):
        best_effort = [
            _offset_request(r, self.dr, self.de)
            for r in default_client_mix(clients=6)
        ]
        admitted, overflow = overload_mix()
        admitted = [_offset_request(r, self.dr, self.de) for r in admitted]
        overflow = _offset_request(overflow, self.dr, self.de)
        twins = [_offset_request(r, self.dr, self.de) for r in twin_heavy_mix()]
        return best_effort, admitted, overflow, twins

    def setup(self):
        wb = Workbench(WorkbenchConfig(cache_dir=str(MODEL_DIR)))
        best_effort, admitted, overflow, twins = self._mixes()
        for request in best_effort + admitted + [overflow] + twins:
            wb.client_sequence(request)
        calibrated = calibrate_deadlines(wb, list(admitted) + [overflow])
        admitted, overflow = calibrated[:-1], calibrated[-1]
        # The cap sits just above the admitted tenants' projected backlog,
        # so the overflow tenant, and only it, trips admission.
        scratch = SequenceServer(experiment_accelerator(), group_size=wb.group_size())
        for request in admitted:
            scratch.submit(request, wb.client_sequence(request))
        slo = SLOConfig(
            admit_cycles=int(math.ceil(scratch.projected_backlog_cycles())) + 1,
            shed=True,
            degrade=True,
            degrade_fraction=DEFAULT_DEGRADE_FRACTION,
            degrade_min_psnr=DEFAULT_DEGRADE_MIN_PSNR,
            degrade_psnr=degrade_psnr_map(
                wb, admitted, fraction=DEFAULT_DEGRADE_FRACTION
            ),
        )
        return {
            "wb": wb,
            "best_effort": best_effort,
            "admitted": admitted,
            "overflow": overflow,
            "twins": twins,
            "slo": slo,
        }

    def _requests(self, state):
        return (
            state["best_effort"]
            + state["admitted"]
            + [state["overflow"]]
            + state["twins"]
        )

    def prepare_checks(self, state) -> None:
        wb = state["wb"]
        state["dicts"] = {
            r.content_key(): wb.client_sequence(r).trace.to_dict()
            for r in self._requests(state)
        }
        state["references"] = {}
        state["degraded_images"] = {}

    def prepare(self, state, spec):
        """Cold restore: one fresh trace per distinct content (twins share
        it, as they share one render in the library)."""
        return {
            key: SequenceTrace.from_dict(data)
            for key, data in state["dicts"].items()
        }

    def run(self, state, spec, traces):
        group = state["wb"].group_size()
        server = SequenceServer(experiment_accelerator(), group_size=group)
        for request in state["best_effort"]:
            server.submit(request, traces[request.content_key()])
        best_effort = [
            server.serve(make_policy(policy, quantum=quantum))
            for policy, quantum in BEST_EFFORT_RUNS
        ]
        slo_server = SequenceServer(
            experiment_accelerator(), group_size=group, slo=state["slo"]
        )
        for request in state["admitted"]:
            slo_server.submit(request, traces[request.content_key()])
        rejected = []
        try:
            slo_server.submit(
                state["overflow"], traces[state["overflow"].content_key()]
            )
        except AdmissionError:
            rejected.append(state["overflow"])
        slo_report = slo_server.serve(make_policy(SLO_POLICY))
        cluster = ClusterServer(
            [experiment_accelerator() for _ in range(CLUSTER_SHARDS)],
            router=CLUSTER_ROUTER,
            group_size=group,
        )
        for request in state["twins"]:
            cluster.submit(request, traces[request.content_key()])
        cluster_report = cluster.serve(CLUSTER_POLICY)
        return {
            "best_effort": best_effort,
            "slo": slo_report,
            "rejected": rejected,
            "cluster": cluster_report,
            "traces": traces,
        }

    # ------------------------------------------------------------------
    def _runs(self, state, output):
        """``(ServeReport, submitted requests, rejected requests)`` of every
        single-box serve in the round (cluster shards included)."""
        runs = [(r, state["best_effort"], []) for r in output["best_effort"]]
        runs.append(
            (output["slo"], state["admitted"] + [state["overflow"]], output["rejected"])
        )
        placements = output["cluster"].placements
        for name, shard in zip(output["cluster"].shard_names, output["cluster"].shards):
            runs.append(
                (shard, [r for r in state["twins"] if placements[r.client_id] == name], [])
            )
        return runs

    def _frame_psnr(self, state, request, frame: int, fraction) -> float:
        """PSNR of one delivered frame against the analytic ground truth:
        the rendered frame, or its re-render at the reduced budget
        ``fraction`` if the frame was served degraded."""
        cameras = request.path.cameras()
        key = (request.scene, pose_key(cameras[frame]))
        refs = state["references"]
        if key not in refs:
            refs[key] = render_analytic(
                make_scene(request.scene), cameras[frame], num_samples=REFERENCE_SAMPLES
            )
        image = state["wb"].client_sequence(request).results[frame].image
        if fraction is not None:
            budget = max(1, int(state["wb"].config.num_samples * fraction))
            dkey = key + (budget,)
            if dkey not in state["degraded_images"]:
                state["degraded_images"][dkey] = ASDRRenderer(
                    state["wb"].model(request.scene), num_samples=budget
                ).render_image(cameras[frame]).image
            image = state["degraded_images"][dkey]
        return float(psnr(image, refs[key]))

    def evaluate(self, state, spec, output, first):
        exact = _exact()
        failures: List[str] = []
        serving = {
            "context_switches": 0,
            "twin_deferrals": 0,
            "cross_replays": 0,
            "shed_frames": 0,
            "degraded_frames": 0,
            "rejected": len(output["rejected"]),
            "shard_utilisation_min": min(
                u.utilisation for u in output["cluster"].utilisations
            ),
            "scanout_cycles": 0,
            "busy_cycles": 0,
        }
        for report, submitted, rejected in self._runs(state, output):
            ms = 1e3 / report.clock_hz
            by_id = {r.client_id: r for r in submitted}
            service = sum(c.service_cycles for c in report.clients)
            if service != report.busy_cycles:
                failures.append(
                    f"{report.policy}: client service {service} != busy "
                    f"{report.busy_cycles}"
                )
            delivered = report.total_frames
            missing = sum(c.shed_frames + c.aborted_frames for c in report.clients)
            rejected_frames = sum(r.path.frames for r in rejected)
            offered = sum(r.path.frames for r in submitted)
            if delivered + missing + rejected_frames != offered:
                failures.append(
                    f"{report.policy}: {delivered} delivered + {missing} dropped "
                    f"+ {rejected_frames} rejected != {offered} submitted"
                )
            exact["frames"] += delivered
            exact["submitted"] += offered
            exact["cycles"] += report.total_cycles
            exact["energy_j"] += report.energy_joules
            exact["sim_seconds"] += report.makespan_cycles / report.clock_hz
            serving["context_switches"] += report.context_switches
            serving["busy_cycles"] += report.busy_cycles
            degraded = {}
            for c in report.clients:
                exact["latencies_ms"].extend(lat * ms for lat in c.latencies_cycles)
                serving["twin_deferrals"] += c.twin_deferrals
                serving["cross_replays"] += c.cross_replays
                serving["shed_frames"] += c.shed_frames
                serving["degraded_frames"] += len(c.degraded)
                for d in c.degraded:
                    degraded[(c.client_id, d["frame"])] = d["fraction"]
            for s in report.schedule:
                if not s.delivered:
                    continue
                if s.cross_replay or s.mode == "replay":
                    serving["scanout_cycles"] += s.cycles
                exact["psnr_db"].append(
                    self._frame_psnr(
                        state, by_id[s.client], s.frame, degraded.get((s.client, s.frame))
                    )
                )
        # A cluster's shards run concurrently: its makespan is the slowest
        # shard's, not their sum.
        shard_seconds = [
            s.makespan_cycles / s.clock_hz for s in output["cluster"].shards
        ]
        exact["sim_seconds"] -= sum(shard_seconds) - max(shard_seconds)
        exact["interactive_attainment"].append(
            output["slo"].slo_attainment["interactive"]
        )
        exact["serving"] = serving
        if first is not None and _trace_ids(first[1]) & _trace_ids(output["traces"]):
            failures.append("operation reused a trace object of another")
        return exact, failures

    def keep(self, output):
        """The first round's traces, kept alive so that object identity
        comparisons with later rounds are meaningful."""
        return output["traces"]


    def check_taps(self, exact, taps):
        """Conservation of the tap: engine-executed frames plus scan-out
        deliveries account for every busy cycle of the round."""
        serving = exact["serving"]
        executed = sum(r.total_cycles for r in taps)
        if executed + serving["scanout_cycles"] != serving["busy_cycles"]:
            return [
                f"tapped {executed} + scan-out {serving['scanout_cycles']} "
                f"cycles != busy {serving['busy_cycles']}"
            ]
        return []


WORKLOADS = {w.name: w for w in (FrameWorkload, ServeWorkload)}
