"""Two-clock benchmark of the ASDR reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload frame --seed 1 --seconds 30 --trace 0

Runs one workload (``frame`` or ``serve``, see ``workloads.py``) in this
single-threaded process: set-up (three times; ``setup_s`` is the import
time plus their median), one warm-up pass over the seed's operation list
(checked against independent references, not timed into the metrics),
then timed passes for ``--seconds``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Host time is reported in *calibration units*: every timed operation is
bracketed by a fixed kernel that shares no code with the program
(:func:`calibration_seconds`, about 20 ms), and its host seconds are
divided by the kernel's.  On a shared host the machine's speed drifts by
a third over minutes, moving program and kernel alike, so the ratio
repeats where plain seconds do not; a change to the program moves it as
it moves seconds.  The plain host figures are printed on the ``host``
line and recorded beside the metrics.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: host
(set-up seconds, frames per 1000 calibration units, median operation
time, resident memory after set-up) and simulated clock (cycles, energy,
latency, goodput of the modelled accelerator, which repeat exactly for a
given seed).  ``--trace 1`` reports the per-layer metrics: after the
warm-up it runs one untraced pass, then traced passes with spans around
each layer's entry points (``tracing.py``), checks that every simulated
quantity of the traced passes equals the untraced pass bit for bit, and
reports self time per layer and delivered frame, exact work counts and
the tracing overhead.

Each run also writes its environment, per-operation records and (traced)
spans to ``.perfbench_out/`` and prints the environment and the plain
host figures on the lines before the result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before NumPy loads: the default threading makes user
# time exceed wall time on a small box and adds run-to-run noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Measure the program's default engine, whatever the caller's shell says.
for _var in ("REPRO_SCALAR_ENGINE", "REPRO_COLD_PLAN_LIMIT"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from tracing import LAYER_ENTRY_POINTS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, read through its C API when the
    library NumPy loaded exposes it."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> Dict[str, object]:
    """The fingerprint every result records."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if in_repo
            else None
        ),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
_CALIBRATION_INPUTS = None


def calibration_seconds() -> float:
    """Host seconds of a fixed kernel that shares no code with the
    program: NumPy sorting, gathering and a small matrix product, and an
    interpreter-bound dict/list loop."""
    global _CALIBRATION_INPUTS
    import numpy as np

    if _CALIBRATION_INPUTS is None:
        rng = np.random.default_rng(0)
        _CALIBRATION_INPUTS = (
            rng.random(200_000),
            rng.integers(0, 200_000, 200_000),
            rng.random((64, 64)),
        )
    values, index, matrix = _CALIBRATION_INPUTS
    start = time.perf_counter()
    for _ in range(3):
        np.cumsum(np.exp(values)[index])
        np.sort(values)
        matrix @ matrix
        counts: Dict[int, int] = {}
        pairs = []
        for i in range(4000):
            key = i % 251
            counts[key] = counts.get(key, 0) + i
            pairs.append((key, i))
        pairs.sort()
    return time.perf_counter() - start


class Outcome:
    """Everything one run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.first: Dict[int, tuple] = {}
        #: Host seconds of every passing operation of the timed passes,
        #: by traced flag and then by spec index (one entry per pass).
        self.op_seconds: Dict[bool, Dict[int, List[float]]] = {False: {}, True: {}}
        #: The same operations' times in calibration units (see
        #: :func:`calibration_seconds`).
        self.op_cals: Dict[bool, Dict[int, List[float]]] = {False: {}, True: {}}
        #: Calibration kernel seconds around every timed operation.
        self.calibrations: List[float] = []
        self.traced_exact: List[Dict] = []
        self.taps: List = []
        self.records: List[Dict] = []


def run_op(
    wl, state, index: int, spec, outcome: Outcome, tracer=None, timed: bool = True
) -> None:
    """One operation: prepare, run (timed), check.  A timed operation is
    bracketed by two runs of the calibration kernel, whose mean converts
    its host seconds to calibration units.  The warm-up pass runs with
    ``timed=False``: it is checked and counted, but its host time, which
    includes first-touch page faults and lazy initialisation, stays out
    of the metrics."""
    traced = tracer is not None
    outcome.attempted += 1
    failures: List[str] = []
    exact = None
    seconds = None
    cal = None
    try:
        prepared = wl.prepare(state, spec)
        gc.collect()
        if traced:
            tracer.begin_op(outcome.attempted)
            taps_before = len(tracer.report_taps)
        if timed:
            cal = calibration_seconds()
        start = time.perf_counter()
        output = wl.run(state, spec, prepared)
        seconds = time.perf_counter() - start
        if timed:
            cal = (cal + calibration_seconds()) / 2
        if traced:
            tracer.end_op()
        first = outcome.first.get(index)
        exact, failures = wl.evaluate(state, spec, output, first)
        if first is not None and exact != first[0]:
            failures.append("simulated record differs from the first pass")
        # Metrics cover passing operations only; failures are counted.
        if first is None and not failures:
            outcome.first[index] = (exact, wl.keep(output))
        if traced:
            taps = tracer.report_taps[taps_before:]
            failures += wl.check_taps(exact, taps)
            outcome.taps.extend(taps)
            outcome.traced_exact.append(exact)
    except Exception:  # the run must go on and report the failure
        if traced:
            tracer.end_op()
        failures.append(traceback.format_exc(limit=4))
    if failures:
        outcome.failed += 1
        outcome.failures.extend(f"op {outcome.attempted}: {f}" for f in failures)
    elif timed:
        outcome.op_seconds[traced].setdefault(index, []).append(seconds)
        outcome.op_cals[traced].setdefault(index, []).append(seconds / cal)
        outcome.calibrations.append(cal)
    outcome.records.append(
        {
            "op": outcome.attempted,
            "spec": list(spec) if isinstance(spec, tuple) else spec,
            "traced": traced,
            "timed": timed,
            "seconds": seconds,
            "cal": cal,
            "frames": None if exact is None else exact["frames"],
            "sim_cycles": None if exact is None else exact["cycles"],
            "failures": failures,
        }
    )


def measure(wl, state, seconds: float, trace: bool):
    """One warm-up pass over ``wl.specs``, then timed passes: at least
    one, and another while it would end within ``seconds`` if it took as
    long as the last.  A traced run's first timed pass is untraced (the
    base of the overhead figure); the passes after it are traced, at
    least one."""
    outcome = Outcome()
    for index, spec in enumerate(wl.specs):
        run_op(wl, state, index, spec, outcome, timed=False)
    tracer = None
    calibration_seconds()  # first call: build its inputs, warm its code
    start = time.perf_counter()
    passes = 0
    last = 0.0
    while passes == 0 or (trace and passes == 1) or (
        time.perf_counter() - start + last <= seconds
    ):
        if trace and passes == 1:
            tracer = Tracer()
            tracer.install()
        began = time.perf_counter()
        for index, spec in enumerate(wl.specs):
            run_op(wl, state, index, spec, outcome, tracer)
        last = time.perf_counter() - began
        passes += 1
    if tracer is not None:
        tracer.uninstall()
    return outcome, tracer


# Empty inputs (every operation failed) read 0 so the result stays strict JSON.
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _sum_exact(records: List[Dict]) -> Dict:
    """Fold operation records: numbers add, lists concatenate, the nested
    ``engine``/``serving`` dicts add key by key."""
    total: Dict = {}
    for record in records:
        for key, value in record.items():
            if isinstance(value, dict):
                inner = total.setdefault(key, {})
                for k, v in value.items():
                    inner.setdefault(k, []).append(v)
            elif isinstance(value, list):
                total.setdefault(key, []).extend(value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def op_medians(timings: Dict[int, List[float]]) -> Dict[int, float]:
    """Each operation's median time over the timed passes, so one
    disturbed pass does not move the figures."""
    return {i: statistics.median(v) for i, v in timings.items()}


def frames_per_unit(outcome: Outcome, timings: Dict[int, List[float]]) -> float:
    """Frames of one pass over the pass's time (per-operation medians),
    in the unit of ``timings``."""
    medians = op_medians(timings)
    elapsed = sum(medians.values())
    frames = sum(outcome.first[i][0]["frames"] for i in medians)
    return frames / elapsed if elapsed else 0.0


def host_figures(outcome: Outcome) -> Dict[str, float]:
    """The untraced timed passes on the plain host clock, which moves
    with the speed of the machine at the time (not end-to-end metrics;
    printed and recorded beside them)."""
    timings = outcome.op_seconds[False]
    return {
        "frames_per_s": frames_per_unit(outcome, timings),
        "op_ms_p50": _median(list(op_medians(timings).values())) * 1e3,
        "calibration_ms_p50": _median(outcome.calibrations) * 1e3,
    }


def resident_mb() -> float:
    """The process's resident memory now, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    outcome: Outcome, setup_seconds: float, resident: float
) -> Dict[str, tuple]:
    exact = _sum_exact([e for e, _o in outcome.first.values()])
    frames = max(exact.get("frames", 0), 1)
    return {
        "setup_s": (setup_seconds, "s"),
        "frames_per_kcal": (frames_per_unit(outcome, outcome.op_cals[False]) * 1e3, "1/kcal"),
        "op_cal_p50": (_median(list(op_medians(outcome.op_cals[False]).values())), "cal"),
        "resident_mb": (resident, "MB"),
        "ok_share": (
            (outcome.attempted - outcome.failed) / max(outcome.attempted, 1),
            "share",
        ),
        "sim_kcycles_per_frame": (exact.get("cycles", 0) / frames / 1e3, "kcycles"),
        "sim_uj_per_frame": (exact.get("energy_j", 0.0) / frames * 1e6, "uJ"),
        "psnr_db": (statistics.fmean(exact["psnr_db"]) if exact.get("psnr_db") else 0.0, "dB"),
        "sim_latency_ms_p50": (_percentile(exact.get("latencies_ms", []), 50), "sim_ms"),
        "sim_latency_ms_p90": (_percentile(exact.get("latencies_ms", []), 90), "sim_ms"),
        "goodput_fps": (
            exact.get("frames", 0) / exact["sim_seconds"]
            if exact.get("sim_seconds")
            else 0.0,
            "1/sim_s",
        ),
        "delivered_share": (
            exact.get("frames", 0) / max(exact.get("submitted", 0), 1), "share"
        ),
        "slo_attainment_interactive": (
            statistics.fmean(exact["interactive_attainment"])
            if exact.get("interactive_attainment")
            else 0.0,
            "share",
        ),
    }


def per_layer(wl, outcome: Outcome, tracer) -> Dict[str, tuple]:
    out: Dict[str, tuple] = {}
    traced_frames = max(sum(e["frames"] for e in outcome.traced_exact), 1)
    self_seconds = tracer.self_seconds()
    for layer in LAYER_ENTRY_POINTS:
        out[f"{layer}.ms"] = (self_seconds[layer] * 1e3 / traced_frames, "ms")
    for key in ("nerf.encode.points", "exec.plan_build.calls", "serving.alone_cycles.calls"):
        out[key] = (tracer.counts.get(key, 0) / traced_frames, "count")

    from workloads import _engine, _exact, add_engine

    exact = _sum_exact([_exact()] + [e for e, _o in outcome.first.values()])
    frames = max(exact["frames"], 1)
    for key in ("density_points", "color_points", "interpolated_points", "probe_points"):
        out[f"core.{key}"] = (exact[key] / frames, "count")

    engine = {k: sum(v) for k, v in exact["engine"].items()}
    engine_frames = frames
    if wl.engine_from_taps:
        engine = _engine()
        for report in outcome.taps:
            add_engine(engine, report)
        engine["bus"] += sum(
            e["serving"]["scanout_cycles"] for e in outcome.traced_exact
        )
        engine_frames = traced_frames
    out["arch.encoding.kcycles"] = (engine["encoding"] / engine_frames / 1e3, "kcycles")
    out["arch.mlp.density_kcycles"] = (engine["mlp_density"] / engine_frames / 1e3, "kcycles")
    out["arch.mlp.color_kcycles"] = (engine["mlp_color"] / engine_frames / 1e3, "kcycles")
    out["arch.render.kcycles"] = (engine["render"] / engine_frames / 1e3, "kcycles")
    out["arch.bus.kcycles"] = (engine["bus"] / engine_frames / 1e3, "kcycles")
    out["arch.buffer_stall.cycles"] = (engine["stall"] / engine_frames, "cycles")
    out["cim.xbar_conflict.cycles"] = (engine["conflict"] / engine_frames, "cycles")
    lookups = max(engine["lookups"], 1)
    out["cim.register_hit_rate"] = (engine["register_hits"] / lookups, "share")
    out["cim.temporal_hit_rate"] = (engine["temporal_hits"] / lookups, "share")

    serving = exact.get("serving", {})
    rounds = max(len(outcome.first), 1)

    def per_round(key: str) -> float:
        return sum(serving.get(key, [0])) / rounds

    out["serving.context_switches"] = (per_round("context_switches"), "count")
    out["serving.twin_deferrals"] = (per_round("twin_deferrals"), "count")
    out["serving.cross_replay_share"] = (
        sum(serving.get("cross_replays", [0])) / frames, "share"
    )
    out["serving.shed_frames"] = (per_round("shed_frames"), "count")
    out["serving.degraded_frames"] = (per_round("degraded_frames"), "count")
    out["serving.rejected"] = (per_round("rejected"), "count")
    out["serving.shard_utilisation_min"] = (
        min(serving.get("shard_utilisation_min", [0.0])), "share"
    )

    untraced = frames_per_unit(outcome, outcome.op_cals[False])
    out["trace.overhead_share"] = (
        1.0 - frames_per_unit(outcome, outcome.op_cals[True]) / untraced
        if untraced
        else 0.0,
        "share",
    )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import workloads

    import_seconds = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    missing = [s for s in wl.SCENES if not workloads.model_path(s).exists()]
    if missing:
        print(f"perfbench: missing committed checkpoints for {missing}", file=sys.stderr)
        return 2

    env = environment(args)
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before building the next
        gc.collect()
        start = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - start)
    setup_seconds = import_seconds + statistics.median(setups)
    gc.collect()
    resident = resident_mb()
    wl.prepare_checks(state)

    outcome, tracer = measure(wl, state, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(wl, outcome, tracer)
    else:
        metrics = end_to_end(outcome, setup_seconds, resident)

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "env": env,
        "why": wl.why,
        "setup_seconds": {"import": import_seconds, "repeats": setups},
        "host": host_figures(outcome),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": outcome.records,
        "failures": outcome.failures,
    }
    if tracer is not None:
        detail["trace"] = tracer.to_json()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(detail, fh)

    for failure in outcome.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(env))
    print("host " + json.dumps(detail["host"]))
    print(
        f"error_rate {outcome.failed / max(outcome.attempted, 1):.6f} "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": detail["metrics"],
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
