"""The benchmark workloads: set-up, timed operations and output checks.

A workload is built in two steps.  ``setup`` makes the configuration and the
geometry (what ``Pipeline.__init__`` does before the first stage);
``run_pass`` then runs the timed operations once and checks each output.
An operation that raises or whose check fails is recorded as failed and the
pass goes on; an operation whose input came from a failed one fails too.

``scale="full"`` is the benchmarked size; ``scale="small"`` runs the same
calls on smaller inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import json
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from perfolayer import cell, geometry, inequalities, micro, plate
from perfolayer.config import SimConfig, validate_tree
from perfolayer.loads import CellQuadrature

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("coupled", "constants", "homogenize")

# relative tolerance of the coupled diagnostics against the stored values:
# the BLAS thread count alone moves them in the 12th digit
COUPLED_RTOL = 1e-6
# tensor entries against the stored values, relative to the tensor's largest
# entry: the cell solves stop at a relative CG residual of 1e-10
TENSOR_RTOL = 1e-7
# an estimated constant may lie below its reference by at most this share;
# a Rayleigh quotient never exceeds the true maximum, so it may not lie above
# by more than the reference's own precision
CONSTANT_BELOW = 0.02
CONSTANT_ABOVE = 1e-6

# start vectors of the eigen iterations (the CLI --seed) in ``constants``
EIGEN_START_SEED = 1

DIAGNOSTICS = ("err_u3", "err_u1_1", "err_u1_2", "err_symgrad",
               "err_mean_inplane", "err_rotation")


def load_references(path=REFERENCES):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    problems: list = field(default_factory=list)


class DependencyFailed(RuntimeError):
    """An operation's input came from an operation that failed."""


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    outcomes: list
    outputs: dict
    rel_err: float

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


class _Pass:
    """Runs operations in order, timing and checking each one."""

    def __init__(self):
        self.outcomes = []
        self.outputs = {}

    def op(self, name, fn, check, *inputs):
        t0 = perf_counter()
        out = None
        try:
            if any(x is None for x in inputs):
                raise DependencyFailed("input operation failed")
            out = fn(*inputs)
        except Exception as exc:  # a failed operation must not end the run
            problems = [_describe(exc)]
        seconds = perf_counter() - t0
        if out is not None:
            try:
                problems = list(check(out))
            except Exception as exc:  # a broken check fails its operation
                problems = [_describe(exc)]
        self.outcomes.append(Outcome(name, seconds, not problems, problems))
        return out

    def fail(self, name, problem):
        for o in self.outcomes:
            if o.name == name:
                o.ok = False
                o.problems.append(problem)


def _describe(exc):
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"


def _close(value, ref, rtol):
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _tensor_problems(eff, ref, label):
    """Stored-value match, symmetry and positivity of a*, b*, c*."""
    problems = []
    scale = float(np.abs(eff.a_star).max())
    for key in ("a_star", "b_star", "c_star"):
        got = np.asarray(getattr(eff, key))
        if not np.isfinite(got).all():
            problems.append(f"{label} {key} not finite")
            continue
        want = np.asarray(ref[key])
        dev = float(np.abs(got - want).max())
        if dev > TENSOR_RTOL * scale:
            problems.append(f"{label} {key} deviates by {dev:.3e} "
                            f"(limit {TENSOR_RTOL * scale:.3e})")
    for key in ("a_star", "c_star"):
        t = np.asarray(getattr(eff, key))
        if np.abs(t - t.transpose(2, 3, 0, 1)).max() > 1e-12 * scale:
            problems.append(f"{label} {key} not symmetric")
        if np.linalg.eigvalsh(eff.voigt(t)).min() <= 0:
            problems.append(f"{label} {key} not positive definite")
    return problems


def _tensor_matrices(eff):
    return {k: np.asarray(getattr(eff, k)).tolist()
            for k in ("a_star", "b_star", "c_star")}


# ---------------------------------------------------------------------------
# coupled: cell problems -> plate run -> micro runs with per-step diagnostics
# ---------------------------------------------------------------------------

def _coupled_tree(scale):
    tree = {"loads": {"preset": "linear"},
            "resolutions": {"m": 4, "n": 4, "n_sigma": 8},
            "time": {"t_end": 0.125}}
    if scale == "small":
        tree["epsilons"] = [0.5, 0.25]
        tree["resolutions"]["n_sigma"] = 4
    return tree


def setup_coupled(scale="full"):
    cfg = SimConfig(validate_tree(_coupled_tree(scale)))
    geom = cfg.build_geometry()
    _, n, _ = cfg.resolutions
    cmesh = geometry.build_cell_mesh(geom, n)
    loads = cfg.build_loads().with_cell_quadrature(
        CellQuadrature.from_cell_mesh(cmesh))
    return {"cfg": cfg, "geom": geom, "tensor": cfg.material_tensor(),
            "cmesh": cmesh, "loads": loads, "n": n}


def run_coupled(ctx, refs):
    cfg = ctx["cfg"]
    tol = cfg.tolerances
    beta, gamma = cfg.newmark
    _, n, n_sigma = cfg.resolutions
    dt_macro = cfg.macro_dt()
    p = _Pass()

    def cell_op():
        sols = cell.solve_cell_problems(ctx["cmesh"], ctx["tensor"],
                                        tol=tol["linear"], workers=1)
        return sols, cell.effective_tensors(ctx["cmesh"], ctx["tensor"], sols)

    res = p.op("cell", cell_op,
               lambda r: _tensor_problems(r[1], refs["cell"], "cell"))
    sols, eff = res if res is not None else (None, None)
    if eff is not None:
        p.outputs["cell"] = _tensor_matrices(eff)

    def plate_op(eff):
        pmesh = geometry.build_plate_mesh(cfg.sigma, n_sigma)
        system = plate.assemble_plate_system(pmesh, eff)
        return plate.run_plate(
            system, ctx["loads"], dt=dt_macro, t_end=cfg.t_end, beta=beta,
            gamma=gamma, picard_tol=tol["picard"], picard_max=tol["picard_max"],
            tol=tol["linear"], probes=cfg.probes, store_states=True)

    def plate_check(traj):
        final = [float(v) for v in traj.rows[-1][1:4]]
        p.outputs["plate"] = final
        ref = refs["plate_final"]
        if all(_close(got, want, COUPLED_RTOL) for got, want in zip(final, ref)):
            return []
        return [f"plate final norms and energy {final}, stored {ref}"]

    ptraj = p.op("plate", plate_op, plate_check, eff)

    def eps_op(eps, ptraj, sols):
        lmesh = geometry.build_layer_mesh(ctx["geom"], eps, cfg.sigma, n)
        ops = micro.assemble_micro(lmesh, ctx["tensor"], eps, ctx["loads"])
        dt = cfg.dt_for(eps)
        mtraj = micro.run_micro(
            ops, ctx["loads"], dt=dt, t_end=cfg.t_end, beta=beta, gamma=gamma,
            picard_tol=tol["picard"], picard_max=tol["picard_max"],
            tol=min(tol["linear"], 1e-11), store_states=True)
        stride = int(round(dt / dt_macro))
        agg = np.zeros(6)
        for k, ms in enumerate(mtraj.states[1:], start=1):
            ps = ptraj.states[k * stride]
            rep = micro.two_scale_errors(ms, ps, sols)
            e_u, e_r = micro.moment_errors(ps, lmesh, ms.nodal(), eps)
            agg += dt * np.array([rep.err_u3, rep.err_u1[0], rep.err_u1[1],
                                  rep.err_symgrad, e_u, e_r]) ** 2
        return [float(v) for v in np.sqrt(agg)]

    series = {}
    for eps in cfg.epsilons:
        key = f"eps{int(round(1 / eps))}"

        def eps_check(vals, key=key):
            series[key] = vals
            p.outputs[key] = vals
            return [f"{key} {name} = {got!r}, stored {want!r}"
                    for name, got, want in zip(DIAGNOSTICS, vals, refs[key])
                    if not _close(got, want, COUPLED_RTOL)]

        p.op(key, lambda pt, so, eps=eps: eps_op(eps, pt, so), eps_check,
             ptraj, sols)

    keys = [f"eps{int(round(1 / e))}" for e in cfg.epsilons]
    for prev, cur in zip(keys, keys[1:]):
        if prev in series and cur in series:
            for name, a, b in zip(DIAGNOSTICS, series[prev], series[cur]):
                if not b < a:
                    p.fail(cur, f"{name} does not decrease: {prev} {a!r}, {cur} {b!r}")
    rel_err = math.nan
    if keys[0] in series and keys[-1] in series:
        rel_err = max(b / a for a, b in zip(series[keys[0]], series[keys[-1]]))
    return p, rel_err


# ---------------------------------------------------------------------------
# constants: Korn, lateral trace and extension norm
# ---------------------------------------------------------------------------

def _constant_cases(scale):
    if scale == "small":
        return {"korn": 0.5, "trace": 0.5, "extension": 0.5}
    return {"korn": 0.25, "trace": 0.25, "extension": 0.5}


def setup_constants(scale="full"):
    # the start vectors are pinned to EIGEN_START_SEED, not taken from the
    # benchmark's --seed: the sweep count of the eigen iteration varies from
    # 20 to 85 with the start vector, far more than the bounds the benchmark
    # holds
    cfg = SimConfig(validate_tree({}))
    channel_cfg = SimConfig(validate_tree({"geometry": {"type": "channel"}}))
    return {"cfg": cfg, "box": cfg.build_geometry(),
            "channel": channel_cfg.build_geometry(), "seed": EIGEN_START_SEED,
            "cases": _constant_cases(scale)}


def run_constants(ctx, refs):
    cfg = ctx["cfg"]
    tol = cfg.tolerances["eigen"]
    _, n, _ = cfg.resolutions
    seed = ctx["seed"]
    p = _Pass()
    errs = []

    def korn(eps):
        lmesh = geometry.build_layer_mesh(ctx["box"], eps, cfg.sigma, n)
        return inequalities.korn_constant(lmesh, eps, tol=tol, seed=seed).constant

    def trace(eps):
        lmesh = geometry.build_layer_mesh(ctx["channel"], eps, cfg.sigma, n,
                                          include_void=True)
        return inequalities.trace_constant(lmesh, eps, tol=tol, seed=seed).constant

    def extension(eps):
        lmesh = geometry.build_layer_mesh(ctx["box"], eps, cfg.sigma, n,
                                          include_void=True)
        prob = inequalities.extension_problem(lmesh)
        return inequalities.extension_norm(prob, tol=tol, seed=seed).constant

    for kind, fn in (("korn", korn), ("trace", trace), ("extension", extension)):
        eps = ctx["cases"][kind]

        def check(value, kind=kind, key=f"{kind}_{int(round(1 / eps))}"):
            p.outputs[kind] = value
            if not math.isfinite(value):
                return [f"{kind} constant not finite: {value!r}"]
            ref = refs[key]["value"]
            problems = []
            if kind == "extension" and value < 1.0:
                problems.append(f"extension norm {value!r} below 1")
            rel = (value - ref) / ref
            if rel > CONSTANT_ABOVE or rel < -CONSTANT_BELOW:
                problems.append(f"{kind} constant {value!r} vs reference {ref!r} "
                                f"(relative {rel:+.3e})")
            errs.append(abs(rel))
            p.outputs[f"{kind}.rel_err"] = abs(rel)
            return problems

        p.op(kind, lambda eps=eps, fn=fn: fn(eps), check)
    return p, (max(errs) if errs else math.nan)


# ---------------------------------------------------------------------------
# homogenize: the in-plane cell problems and the effective tensors at n = 24
# ---------------------------------------------------------------------------

def setup_homogenize(scale="full"):
    n = 8 if scale == "small" else 16
    cfg = SimConfig(validate_tree({"resolutions": {"m": 4, "n": n}}))
    geom = cfg.build_geometry()
    return {"cfg": cfg, "geom": geom, "tensor": cfg.material_tensor(),
            "cmesh": geometry.build_cell_mesh(geom, n), "n": n}


def run_homogenize(ctx, refs):
    tol = ctx["cfg"].tolerances["linear"]
    p = _Pass()

    def op():
        sols = cell.solve_cell_problems(ctx["cmesh"], ctx["tensor"], tol=tol,
                                        workers=1)
        return cell.effective_tensors(ctx["cmesh"], ctx["tensor"], sols)

    label = f"n{ctx['n']}"
    eff = p.op("cell_problems", op,
               lambda e: _tensor_problems(e, refs["tensors"], label))
    rel_err = math.nan
    if eff is not None:
        p.outputs[label] = _tensor_matrices(eff)
    finer = refs.get("finer")
    if eff is not None and finer is not None:
        errs = []
        for key in ("a_star", "c_star"):
            got = eff.voigt(np.asarray(getattr(eff, key)))
            want = eff.voigt(np.asarray(finer[key]))
            errs.append(float(np.abs(got - want).max() / np.abs(want).max()))
        rel_err = max(errs)
    return p, rel_err


SETUP = {"coupled": setup_coupled, "constants": setup_constants,
         "homogenize": setup_homogenize}
RUN = {"coupled": run_coupled, "constants": run_constants,
       "homogenize": run_homogenize}


def setup(name, scale="full"):
    ctx = SETUP[name](scale)
    ctx["scale"] = scale
    return ctx


def run_pass(name, ctx, refs) -> PassResult:
    """One timed pass of a workload: wall and CPU time, outcomes, outputs.

    ``refs`` is the whole reference document; the pass reads the section of
    its workload and scale.
    """
    refs = refs[name][ctx["scale"]]
    cpu0 = process_time()
    t0 = perf_counter()
    p, rel_err = RUN[name](ctx, refs)
    wall = perf_counter() - t0
    cpu = process_time() - cpu0
    if not math.isfinite(rel_err) and p.outcomes:
        p.outcomes[-1].ok = False
        p.outcomes[-1].problems.append("accuracy could not be computed")
    return PassResult(wall_s=wall, cpu_s=cpu, outcomes=p.outcomes,
                      outputs=p.outputs, rel_err=rel_err)
