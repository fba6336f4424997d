"""Tests of the benchmark itself, on the small variants of the workloads.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from perfolayer import inequalities, micro, plate  # noqa: E402
from tracing import Tracer  # noqa: E402

# per-layer metrics that must be non-zero on the workload that should move them
MOVES_ON = {
    "coupled": [
        "micro.two_scale_errors.s", "micro.moment_errors.s",
        "plate.evaluate_deflection.s", "plate.bending_basis.calls",
        "fem.gradient_decomposition.s", "fem.gradient_decomposition.calls",
        "fem.element_values.s", "micro.run_micro.s", "micro.micro_step.calls",
        "micro.picard_iters", "micro.assemble_micro.s", "loads.eval.s",
        "plate.run_plate.s", "plate.newmark_step.calls", "fem.solve_spd.s",
        "fem.solve_spd.calls", "fem.cg_iters", "fem.assemble.s",
        "fem.assemble.calls", "fem.hex_reference.calls",
        "geometry.build_layer_mesh.s", "geometry.build_cell_mesh.s",
    ],
    "constants": [
        "fem.solve_spd.s", "fem.solve_spd.calls", "fem.cg_iters",
        "fem.cg_iters_per_solve", "fem.max_rayleigh_pair.s", "fem.eigen_sweeps",
        "fem.eigen_residual", "inequalities.korn_constant.s",
        "inequalities.trace_constant.s", "inequalities.extension_problem.s",
        "inequalities.extension_norm.s", "inequalities.korn.rel_err",
        "inequalities.trace.rel_err", "inequalities.extension.rel_err",
        "fem.assemble.s", "geometry.build_layer_mesh.s",
    ],
    "homogenize": [
        "fem.solve_spd.s", "fem.solve_spd.calls", "fem.cg_iters",
        "cell.solve_cell_problems.s", "cell.effective_tensors.s",
        "fem.assemble.s", "fem.assemble.calls", "geometry.build_cell_mesh.s",
    ],
}


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


def _traced_pass(name, refs):
    tracer = Tracer().install()
    try:
        ctx = workloads.setup(name, "small")
        res = workloads.run_pass(name, ctx, refs)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["counts"] = dict(tracer.counts)
    summary["maxima"] = dict(tracer.maxima)
    return res, summary


def test_name_imported_functions_are_wrapped():
    def current():
        return (micro.evaluate_deflection, micro.evaluate_membrane,
                inequalities.build_layer_mesh, plate.evaluate_deflection)

    originals = current()
    tracer = Tracer().install()
    try:
        wrapped = current()
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    # the copy in micro is the same wrapper as the one in plate
    assert wrapped[0] is wrapped[3]
    assert current() == originals


def test_name_imported_calls_are_recorded(refs):
    _, summary = _traced_pass("coupled", refs)
    fns = summary["functions"]
    # micro reaches evaluate_membrane only through its name-imported copy
    assert fns["plate.evaluate_membrane"]["calls"] >= fns["micro.moment_errors"]["calls"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_counts(name, refs):
    ctx = workloads.setup(name, "small")
    plain = workloads.run_pass(name, ctx, refs)
    traced, summary = _traced_pass(name, refs)
    assert plain.failed == 0, [o.problems for o in plain.outcomes]
    assert json.dumps(plain.outputs, sort_keys=True) == \
        json.dumps(traced.outputs, sort_keys=True)
    assert plain.rel_err == traced.rel_err
    metrics = run.layer_metrics(summary, traced.outputs)
    assert set(metrics) <= set(run.per_layer_names())
    zero = [k for k in MOVES_ON[name] if not metrics[k] > 0]
    assert not zero, f"zero on {name}: {zero}"


def test_perturbed_reference_fails_the_operation(refs):
    bad = copy.deepcopy(refs)
    a = bad["homogenize"]["small"]["tensors"]["a_star"]
    a[0][0][0][0] *= 1.0 + 1e-4
    ctx = workloads.setup("homogenize", "small")
    res = workloads.run_pass("homogenize", ctx, bad)
    assert (res.attempted, res.failed) == (1, 1)
    assert "a_star deviates" in res.outcomes[0].problems[0]


def test_perturbed_output_fails_the_operation(refs, monkeypatch):
    real = inequalities.korn_constant

    def inflated(*args, **kwargs):
        est = real(*args, **kwargs)
        est.constant *= 1.01  # above the true maximum of the Rayleigh quotient
        return est

    monkeypatch.setattr(inequalities, "korn_constant", inflated)
    ctx = workloads.setup("constants", "small")
    res = workloads.run_pass("constants", ctx, refs)
    assert [o.ok for o in res.outcomes] == [False, True, True]


def test_exception_counts_as_failure_and_run_goes_on(refs, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(plate, "run_plate", broken)
    ctx = workloads.setup("coupled", "small")
    res = workloads.run_pass("coupled", ctx, refs)
    names = [o.name for o in res.outcomes]
    assert names == ["cell", "plate", "eps2", "eps4"]
    assert [o.ok for o in res.outcomes] == [True, False, False, False]
    assert "RuntimeError: injected" in res.outcomes[1].problems[0]
    assert "DependencyFailed" in res.outcomes[2].problems[0]
    attempted, failed = run._totals([{"attempted": res.attempted,
                                      "failed": res.failed}])
    assert failed / attempted == 0.75


def test_run_refuses_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_names()
    assert run.WORKLOADS == workloads.WORKLOADS


def test_calibration_kernel_runs_without_the_program():
    import calibration

    assert not any(k.startswith("perfolayer") for k in vars(calibration))
    cal = calibration.Calibration(grid=8, cg_iterations=5, loop_iterations=1000)
    assert cal.matrix.shape == (512, 512)
    sample = cal.sample()
    assert sample["wall_s"] > 0 and sample["cpu_s"] >= 0
