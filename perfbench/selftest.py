"""Self-tests of the benchmark's own machinery.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

They show that corrupted outputs count as failed operations, that no two
operations share a trace object, that a seed repeats every simulated
quantity exactly while another seed draws other poses, and that tracing
leaves every simulated quantity bit-identical.  Workloads run at reduced
scale here (fewer scenes, smaller frames); the checks are the same code.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before NumPy loads)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


class SmallFrame(workloads.FrameWorkload):
    SCENES = ("lego", "fox")
    SIZE = 20


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _one_op(wl, index: int = 0):
    state = wl.setup()
    wl.prepare_checks(state)
    spec = wl.specs[index]
    output = wl.run(state, spec, wl.prepare(state, spec))
    return state, spec, output


def _first_pass(wl, trace: bool = False):
    """The warm-up pass and one timed pass (``seconds=0``); a traced run
    adds one traced pass after its untraced one."""
    state = wl.setup()
    wl.prepare_checks(state)
    outcome, tracer = run.measure(wl, state, 0.0, trace)
    return outcome, tracer


# ----------------------------------------------------------------------
def test_corrupted_frame_outputs_fail():
    wl = SmallFrame(3)
    state, spec, (result, report) = _one_op(wl)
    exact, failures = wl.evaluate(state, spec, (result, report), None)
    check(not failures, f"clean frame failed: {failures}")

    result.image = np.full_like(result.image, np.nan)
    _exact, failures = wl.evaluate(state, spec, (result, report), None)
    check(any("PSNR" in f for f in failures), "NaN image passed the PSNR check")

    state, spec, (result, report) = _one_op(wl)
    report.total_cycles += 1
    _exact, failures = wl.evaluate(state, spec, (result, report), None)
    check(failures, "a broken cycle total passed the wavefront-log check")


def test_corrupted_serve_outputs_fail_and_ops_share_no_traces():
    wl = workloads.ServeWorkload(3)
    state, spec, output = _one_op(wl)
    _exact, failures = wl.evaluate(state, spec, output, None)
    check(not failures, f"clean round failed: {failures}")

    second = wl.run(state, spec, wl.prepare(state, spec))
    _exact, failures = wl.evaluate(state, spec, second, (_exact, wl.keep(output)))
    check(not failures, f"second round failed: {failures}")
    check(
        not workloads._trace_ids(output["traces"]) & workloads._trace_ids(second["traces"]),
        "two operations shared a trace object",
    )
    _exact, failures = wl.evaluate(state, spec, output, (_exact, wl.keep(output)))
    check(any("reused a trace" in f for f in failures), "shared traces passed")

    output["slo"].clients[0].service_cycles += 1
    _exact, failures = wl.evaluate(state, spec, output, None)
    check(any("busy" in f for f in failures), "broken service sum passed")
    output["slo"].clients[0].service_cycles -= 1

    output["best_effort"][0].clients[0].latencies_cycles.pop()
    _exact, failures = wl.evaluate(state, spec, output, None)
    check(any("submitted" in f for f in failures), "lost frame passed")


def test_failed_checks_count_in_error_rate():
    class Corrupting(SmallFrame):
        def run(self, state, spec, prepared):
            result, report = super().run(state, spec, prepared)
            if spec[0] == "fox":
                result.image = np.full_like(result.image, np.nan)
            return result, report

    outcome, _tracer = _first_pass(Corrupting(5))
    # Two scenes, warm-up and one timed pass: fox fails in both.
    check(outcome.attempted == 4, f"attempted {outcome.attempted}")
    check(outcome.failed == 2, f"failed {outcome.failed}, want 2")
    metrics = run.end_to_end(outcome, 0.0, 1.0)
    check(metrics["ok_share"][0] == 0.5, "ok_share does not count the failure")


def test_frame_ops_share_no_trace():
    wl = SmallFrame(3)
    state = wl.setup()
    spec = wl.specs[0]
    a, _ = wl.run(state, spec, None)
    b, _ = wl.run(state, spec, None)
    check(a.trace is not b.trace, "two frame operations shared a FrameTrace")
    check(
        not {id(w) for w in a.trace.wavefronts} & {id(w) for w in b.trace.wavefronts},
        "two frame operations shared a wavefront",
    )


def test_seed_repeats_exactly_and_seeds_differ():
    a, _ = _first_pass(SmallFrame(7))
    b, _ = _first_pass(SmallFrame(7))
    check(a.failed == 0 and b.failed == 0, "clean runs failed")
    check(
        [a.first[i][0] for i in sorted(a.first)]
        == [b.first[i][0] for i in sorted(b.first)],
        "one seed did not repeat its simulated records",
    )
    check(
        run.end_to_end(a, 0.0, 1.0)["sim_kcycles_per_frame"]
        == run.end_to_end(b, 0.0, 1.0)["sim_kcycles_per_frame"],
        "simulated metric differs between runs of one seed",
    )
    check(SmallFrame(7).specs != SmallFrame(8).specs, "seeds drew equal specs")
    poses = [
        wl.camera(wl.specs[0]).camera_to_world for wl in (SmallFrame(7), SmallFrame(8))
    ]
    check(not np.array_equal(poses[0], poses[1]), "seeds drew equal poses")
    check(
        workloads.ServeWorkload(7)._mixes()[0][0].path
        != workloads.ServeWorkload(8)._mixes()[0][0].path,
        "serve seeds drew equal paths",
    )


def test_tracing_leaves_simulation_bit_identical():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl_cls in (SmallFrame, workloads.ServeWorkload):
        plain, _ = _first_pass(wl_cls(9))
        traced, tracer = _first_pass(wl_cls(9), trace=True)
        check(traced.failed == 0, f"traced run failed: {traced.failures}")
        check(len(traced.traced_exact) == len(wl_cls(9).specs), "no traced pass")
        check(
            traced.traced_exact == [plain.first[i][0] for i in sorted(plain.first)],
            f"{wl_cls.name}: tracing changed a simulated record",
        )
        check(tracer.spans, "no spans recorded")
        check(
            all(end >= start for _n, start, end, _p, _o in tracer.spans),
            "span ends before it starts",
        )
        selfs = tracer.self_seconds()
        check(all(v >= -1e-9 for v in selfs.values()), f"negative self time {selfs}")
        check(
            list(run.per_layer(wl_cls(9), traced, tracer))
            == [m["name"] for m in spec["per_layer"]],
            "traced metrics differ from BENCHMARK.json per_layer",
        )
        check(
            list(run.end_to_end(plain, 1.0, 1.0))
            == [m["name"] for m in spec["end_to_end"]],
            "untraced metrics differ from BENCHMARK.json end_to_end",
        )


def test_benchmark_json_matches_workloads_and_dependencies():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {name: cls.why for name, cls in workloads.WORKLOADS.items()},
        "workload whys differ from BENCHMARK.json",
    )
    layers = {m["name"] for m in spec["per_layer"]}
    deps = json.loads((ROOT / "perfbench" / "dependencies.json").read_text())
    deps.pop("_comment")
    check(
        set(deps) == {m["name"] for m in spec["end_to_end"]},
        "dependencies.json does not cover exactly the end-to-end metrics",
    )
    for metric, by_workload in deps.items():
        check(set(by_workload) == set(workloads.WORKLOADS), f"{metric}: workloads")
        for names in by_workload.values():
            check(set(names) <= layers, f"{metric}: unknown layer metric")


def test_self_time_subtracts_children():
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans = [
        ["core.render", 0.0, 10.0, -1, 1],
        ["nerf.encode", 1.0, 4.0, 0, 1],
        ["nerf.density_mlp", 5.0, 9.0, 0, 1],
        ["nerf.encode", 6.0, 8.0, 2, 1],
    ]
    selfs = tracer.self_seconds()
    check(selfs["core.render"] == 3.0, f"render self {selfs['core.render']}")
    check(selfs["nerf.encode"] == 5.0, f"encode self {selfs['nerf.encode']}")
    check(selfs["nerf.density_mlp"] == 2.0, "density self time")


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
