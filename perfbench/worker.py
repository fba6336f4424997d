"""One workload process: set-up, then timed or traced passes.

Started by ``run.py``, one process per measurement, so that set-up time and
peak memory belong to the workload alone.  Writes its result as JSON to
``--out``.

    python3 perfbench/worker.py --workload coupled --seed 1 --seconds 25 \
        --mode timed --spawned-at <time.monotonic() of the parent> --out r.json

Modes: ``setup`` stops after set-up; ``timed`` runs one warm-up pass, then
timed passes, each followed by a sample of the calibration kernel, until
the next one would end after ``--seconds`` (at least one); ``traced`` wraps
the layers for set-up and for one pass after an untraced warm-up pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _parser():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    return p


def _pass_record(res):
    return {"wall_s": res.wall_s, "cpu_s": res.cpu_s, "rel_err": res.rel_err,
            "attempted": res.attempted, "failed": res.failed,
            "operations": [{"name": o.name, "seconds": o.seconds, "ok": o.ok,
                            "problems": o.problems} for o in res.outcomes],
            "outputs": res.outputs}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = _parser().parse_args(argv)
    import perfolayer

    src = os.path.join(ROOT, "src", "perfolayer")
    if os.path.dirname(os.path.abspath(perfolayer.__file__)) != src:
        raise SystemExit(f"perfolayer imported from {perfolayer.__file__}, not {src}")
    import workloads
    from calibration import Calibration

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()
    refs = workloads.load_references()
    ctx = workloads.setup(args.workload, "full")
    setup_s = time.monotonic() - args.spawned_at
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_s, "warmup": [], "passes": []}
    if args.mode != "setup":
        # the first pass of a process runs cold (page faults, lazy imports and
        # first-use caches); it is checked but not timed, and never traced
        if tracer is not None:
            tracer.uninstall()
        record["warmup"].append(_pass_record(workloads.run_pass(args.workload, ctx, refs)))
        # the peak of the program alone, before the calibration kernel allocates
        record["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.install()
        # timed passes alternate with samples of the calibration kernel:
        # one before each pass and one after the last
        cal = None
        if tracer is None:
            cal = Calibration()
            cal.sample()  # the first sample runs cold; it is not kept
            record["calibration"] = [cal.sample()]
        start = perf_counter()
        while True:
            res = workloads.run_pass(args.workload, ctx, refs)
            record["passes"].append(_pass_record(res))
            if cal is not None:
                record["calibration"].append(cal.sample())
            elapsed = perf_counter() - start
            if tracer is not None or elapsed + elapsed / len(record["passes"]) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary(window=(start, perf_counter()))
            record["trace"]["counts"] = dict(tracer.counts)
            record["trace"]["maxima"] = dict(tracer.maxima)
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
