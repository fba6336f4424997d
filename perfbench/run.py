"""Benchmark of the perfolayer pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload coupled --seed 1 --seconds 25 --trace 0

Workloads: ``coupled``, ``constants``, ``homogenize`` (see NOTE.md).  Each
measurement runs in a fresh ``worker.py`` process, serially, with the
program's ``workers=1`` and one BLAS thread.

``--trace 0`` measures set-up several times (fresh processes up to the end of
set-up), then runs a warm-up pass and timed passes for ``--seconds``, with a
sample of a fixed calibration kernel (``calibration.py``) before each pass
and after the last.  The pass times are reported in units of the kernel
(the median over passes of the pass time over the mean of the two samples
around it), and the set-up time in seconds at the kernel's reference speed.  ``--trace 1`` runs one untraced and one traced pass
after a warm-up pass, each in its own process, and reports the per-layer
metrics and the tracing overhead in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
summarise the run for a reader.  The full record (every pass and operation,
the trace, the host) is written to ``.perfbench_out/`` in the checkout.
Exits 2 without a result when the program's sources are missing or a worker
process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import REFERENCE_SAMPLE_S  # noqa: E402
from host import host_record  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKLOADS = ("coupled", "constants", "homogenize")
SETUP_PROBES = 10         # extra set-up measurements besides the timed worker
RUN_LIMIT_S = 170.0       # all workers of one run; a run must end within 180 s
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Every worker runs with one BLAS thread, whatever the environment says.  With
# OpenBLAS's default of one thread per core, the vector operations of the CG
# solves hand half their work to a second thread: CPU time doubles for the
# same wall time, and a busy neighbour on the other core stalls every one of
# them.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {            # name -> unit; lower is better for every metric
    "wall_per_cal": "1",
    "setup_s": "s",
    "cpu_per_cal": "1",
    "peak_rss_mb": "MB",
    "rel_err": "1",
}

# per-layer metrics: (name, unit); functions are reported as
# <module>.<function>.s / .self_s / .calls, layers as <module>.s / .self_s
PER_FUNCTION = {
    "micro.two_scale_errors": ("s", "self_s"),
    "micro.moment_errors": ("s",),
    "micro.plate_moments": ("s",),
    "plate.evaluate_deflection": ("s",),
    "plate.bending_basis": ("s", "calls"),
    "fem.gradient_decomposition": ("s", "calls"),
    "fem.element_values": ("s",),
    "micro.run_micro": ("s",),
    "micro.micro_step": ("s", "calls"),
    "micro.assemble_micro": ("s",),
    "loads.eval": ("s",),
    "plate.run_plate": ("s",),
    "plate.newmark_step": ("calls",),
    "fem.solve_spd": ("s", "self_s", "calls"),
    "fem.max_rayleigh_pair": ("s",),
    "inequalities.korn_constant": ("s",),
    "inequalities.trace_constant": ("s",),
    "inequalities.extension_problem": ("s",),
    "inequalities.extension_norm": ("s",),
    "cell.solve_cell_problems": ("s",),
    "cell.effective_tensors": ("s",),
    "fem.hex_reference": ("calls",),
    "geometry.build_layer_mesh": ("s",),
    "geometry.build_cell_mesh": ("s",),
}
ASSEMBLY = ("fem.assemble_elasticity", "fem.assemble_mass",
            "fem.assemble_anisotropic", "fem.assemble_surface_mass")
COUNTERS = {"fem.cg_iters": "count", "fem.cg_iters_per_solve": "count",
            "fem.eigen_sweeps": "count", "fem.eigen_residual": "1",
            "micro.picard_iters": "count"}
ACCURACY = {f"inequalities.{k}.rel_err": "1" for k in ("korn", "trace", "extension")}
OVERHEAD = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s", "trace.coverage": "1"}


def per_layer_names():
    """Every per-layer metric, in report order, with its unit."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.s"] = "s"
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.failed"] = "count"
    for fn, kinds in PER_FUNCTION.items():
        for kind in kinds:
            names[f"{fn}.{kind}"] = "count" if kind == "calls" else "s"
    names["fem.assemble.s"] = "s"
    names["fem.assemble.calls"] = "count"
    names.update(COUNTERS)
    names.update(ACCURACY)
    names.update(OVERHEAD)
    return names


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="input seed (no workload depends on it; see NOTE.md)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode, seconds=0.0, tag=""):
    """Start one worker process, wait for it and return its record.

    The worker is killed when the run's time limit (``args.deadline``, a
    ``time.monotonic`` value) passes.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"worker-{args.workload}-{args.seed}-{mode}{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode, "--out", out,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(args.deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"run exceeded {RUN_LIMIT_S:.0f} s in the {mode} worker")
    if proc.returncode != 0 or not os.path.exists(out):
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(out, "r", encoding="utf-8") as f:
        return json.load(f)


def _median(values):
    return float(statistics.median(values))


def _per_sample(passes, cal, key):
    """Median over passes of the pass's ``key`` time over the mean of the two
    calibration samples around it (``cal[i]`` before pass i, ``cal[i+1]``
    after it)."""
    return _median([p[key] / (0.5 * (cal[i][key] + cal[i + 1][key]))
                    for i, p in enumerate(passes)])


def _totals(passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return attempted, failed


def end_to_end(args):
    # half the set-up probes run before the timed worker and half after, so
    # that the median samples the host over the whole run
    half = SETUP_PROBES // 2
    setups = [run_worker(args, "setup", tag=f"-{k}")["setup_s"] for k in range(half)]
    timed = run_worker(args, "timed", seconds=args.seconds)
    setups.append(timed["setup_s"])
    setups += [run_worker(args, "setup", tag=f"-{k}")["setup_s"]
               for k in range(half, SETUP_PROBES)]
    passes = timed["passes"]
    checked = timed["warmup"] + passes
    cal = timed["calibration"]
    raw = {k: _median([p[k] for p in passes]) for k in ("wall_s", "cpu_s")}
    kernel = {k: _median([c[k] for c in cal]) for k in ("wall_s", "cpu_s")}
    raw["setup_s"] = _median(setups)
    metrics = {
        "wall_per_cal": _per_sample(passes, cal, "wall_s"),
        # set-up runs in processes of its own, at the start and the end of the
        # run, so it is scaled by the run's median sample rather than by a
        # sample next to it
        "setup_s": raw["setup_s"] * REFERENCE_SAMPLE_S / kernel["wall_s"],
        "cpu_per_cal": _per_sample(passes, cal, "cpu_s"),
        "peak_rss_mb": timed["peak_rss_mb"],
        "rel_err": _median([p["rel_err"] for p in passes]),
    }
    detail = {"setup_samples": setups, "warmup": timed["warmup"], "passes": passes,
              "calibration": cal, "median_raw": raw, "median_calibration": kernel}
    return metrics, END_TO_END, checked, detail


def layer_metrics(trace, outputs):
    """Per-layer metrics of one traced pass (all but the overhead ones)."""
    fns, layers, counts = trace["functions"], trace["layers"], trace["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = layers[layer]["s"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        metrics[f"{layer}.failed"] = layers[layer]["failed"]
    for fn, kinds in PER_FUNCTION.items():
        for kind in kinds:
            metrics[f"{fn}.{kind}"] = fns.get(fn, {}).get(kind, 0)
    metrics["fem.assemble.s"] = sum(fns.get(f, {}).get("s", 0.0) for f in ASSEMBLY)
    metrics["fem.assemble.calls"] = sum(fns.get(f, {}).get("calls", 0) for f in ASSEMBLY)
    solves = fns.get("fem.solve_spd", {}).get("calls", 0)
    metrics["fem.cg_iters"] = counts.get("fem.cg_iters", 0)
    metrics["fem.cg_iters_per_solve"] = metrics["fem.cg_iters"] / solves if solves else 0.0
    metrics["fem.eigen_sweeps"] = counts.get("fem.eigen_sweeps", 0)
    metrics["fem.eigen_residual"] = trace["maxima"].get("fem.eigen_residual", 0.0)
    metrics["micro.picard_iters"] = counts.get("micro.picard_iters", 0)
    for key in ACCURACY:
        metrics[key] = outputs.get(key.split(".", 1)[1], 0.0)
    return metrics


def per_layer(args):
    untraced = run_worker(args, "timed", seconds=0.0)
    traced = run_worker(args, "traced")
    trace = traced["trace"]
    metrics = layer_metrics(trace, traced["passes"][0]["outputs"])
    t_wall = traced["passes"][0]["wall_s"]
    u_wall = untraced["passes"][0]["wall_s"]
    metrics["trace.wall_s"] = t_wall
    metrics["trace.untraced_wall_s"] = u_wall
    metrics["trace.overhead_s"] = t_wall - u_wall
    metrics["trace.coverage"] = trace["root_s"] / t_wall
    checked = (untraced["warmup"] + untraced["passes"]
               + traced["warmup"] + traced["passes"])
    return metrics, per_layer_names(), checked, {"trace": trace, "passes": checked}


def main(argv=None):
    args = _parser().parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # the workers inherit it, and the host record reads it back
    os.environ.update(THREAD_ENV)
    if not os.path.isfile(os.path.join(ROOT, "src", "perfolayer", "__init__.py")):
        print(f"error: no perfolayer sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        metrics, units, checked, detail = (per_layer if args.trace else end_to_end)(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every pass that ran is checked and counted, the warm-up passes too
    attempted, failed = _totals(checked)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(ROOT),
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "detail": detail}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for p in checked:
        for op in p["operations"]:
            state = "ok" if op["ok"] else "FAILED"
            print(f"  {op['name']:<14} {op['seconds']:9.3f} s  {state}")
            for problem in op["problems"]:
                print(f"      {problem.splitlines()[0]}")
    if not args.trace:
        print(f"  timed passes {len(detail['passes'])} after {len(detail['warmup'])} "
              f"warm-up, calibration samples {len(detail['calibration'])}, "
              f"set-up samples {len(detail['setup_samples'])}")
        raw, kernel = detail["median_raw"], detail["median_calibration"]
        print(f"  raw medians: pass wall {raw['wall_s']:.4f} s, pass CPU "
              f"{raw['cpu_s']:.4f} s, set-up {raw['setup_s']:.4f} s; calibration "
              f"sample wall {kernel['wall_s']:.4f} s, CPU {kernel['cpu_s']:.4f} s")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    # a metric that could not be computed (its operation failed) is null
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
