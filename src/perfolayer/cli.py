"""Command-line orchestration of the simulation pipeline.

Subcommands: cell-solve, homogenize, plate-run, micro-run, converge, korn,
extension-norm, trace, helmholtz-check, report.  Exit codes: 0 success,
2 configuration, validation or I/O error, 3 solver failure.  Failures leave a
machine-readable record in <out>/error.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import cell as cell_mod
from . import fem, geometry, inequalities, micro, plate, reporting
from .config import SimConfig, load_config
from .errors import ParseError, PerfolayerError, SolverFailure, ValidationError
from .loads import CellQuadrature

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="perfolayer",
        description="multiscale pipeline for thin perforated elastic layers")
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--config", default=None, help="configuration document (YAML)")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=0, help="eigen iteration seed")
    p.add_argument("--dump-fields", default="none",
                   help="none, final, or stride=K")
    return p


class Pipeline:
    """Shared state between pipeline stages for one configuration."""

    def __init__(self, cfg: SimConfig, outdir, seed=0, dump="none"):
        self.dump_stride = _dump_stride(dump)
        self.cfg = cfg
        self.outdir = outdir
        self.seed = seed
        self.dump = dump
        os.makedirs(outdir, exist_ok=True)
        self.geom = cfg.build_geometry()
        self.tensor = cfg.material_tensor()
        m, n, n_sigma = cfg.resolutions
        self.n = n
        self.n_sigma = n_sigma
        self.cmesh = geometry.build_cell_mesh(self.geom, n)
        self.loads = cfg.build_loads().with_cell_quadrature(
            CellQuadrature.from_cell_mesh(self.cmesh))
        self.tol = cfg.tolerances
        self._sols = None
        self._eff = None
        cfg.save(os.path.join(outdir, "config_echo.yaml"))

    # --- stages ------------------------------------------------------------
    def cell_solve(self):
        if self._sols is None:
            self._sols = cell_mod.solve_cell_problems(
                self.cmesh, self.tensor, tol=self.tol["linear"])
            rows = [[kind, f"{i}{j}", float(res)] for (kind, (i, j)), res
                    in sorted(zip(cell_mod.PROBLEMS, self._sols.residuals))]
            reporting.write_csv(os.path.join(self.outdir, "cell_residuals.csv"),
                                ["problem", "pair", "residual"], rows)
            if self.dump != "none":
                geometry.dump_mesh(os.path.join(self.outdir, "cell_mesh.txt"),
                                   self.cmesh.coords, self.cmesh.elems)
                for c, (kind, (i, j)) in enumerate(cell_mod.PROBLEMS):
                    geometry.dump_field(
                        os.path.join(self.outdir, f"cell_{kind}_{i}{j}.field"),
                        self._sols.nodal(c))
        return self._sols

    def homogenize(self):
        if self._eff is None:
            sols = self.cell_solve()
            self._eff = cell_mod.effective_tensors(self.cmesh, self.tensor, sols)
            reporting.write_effective_model(
                os.path.join(self.outdir, "effective_tensors.txt"),
                self._eff, self.geom.digest(), self.n)
        return self._eff

    def plate_system(self):
        eff = self.homogenize()
        pmesh = geometry.build_plate_mesh(self.cfg.sigma, self.n_sigma)
        return plate.assemble_plate_system(pmesh, eff)

    def plate_run(self):
        cfg = self.cfg
        system = self.plate_system()
        beta, gamma = cfg.newmark
        traj = plate.run_plate(
            system, self.loads, dt=cfg.macro_dt(), t_end=cfg.t_end, beta=beta,
            gamma=gamma, picard_tol=self.tol["picard"],
            picard_max=self.tol["picard_max"], tol=self.tol["linear"],
            probes=cfg.probes, store_states=True)
        header = plate.TRAJECTORY_HEADER + [f"probe_{k}" for k in range(len(cfg.probes))]
        reporting.write_csv(os.path.join(self.outdir, "plate_trajectory.csv"),
                            header, traj.rows)
        self._dump_states("plate", traj.states,
                          lambda s: system.bend_dofs.expand(s.w)[:, 0])
        _report_unconverged("plate", traj.states)
        return traj

    def micro_run(self, eps):
        cfg = self.cfg
        lmesh = geometry.build_layer_mesh(self.geom, eps, cfg.sigma, self.n)
        ops = micro.assemble_micro(lmesh, self.tensor, eps, self.loads)
        beta, gamma = cfg.newmark
        traj = micro.run_micro(
            ops, self.loads, dt=cfg.dt_for(eps), t_end=cfg.t_end, beta=beta,
            gamma=gamma, picard_tol=self.tol["picard"],
            picard_max=self.tol["picard_max"],
            tol=min(self.tol["linear"], 1e-11), store_states=True)
        k = int(round(1.0 / eps))
        reporting.write_csv(
            os.path.join(self.outdir, f"micro_trajectory_eps{k}.csv"),
            micro.TRAJECTORY_HEADER, traj.rows)
        self._dump_states(f"micro_eps{k}", traj.states, lambda s: s.nodal())
        _report_unconverged(f"micro eps 1/{k}", traj.states)
        return traj

    def converge(self):
        cfg = self.cfg
        sols = self.cell_solve()
        dt_macro = cfg.macro_dt()
        ptraj = self.plate_run()

        def compare(eps):
            """The two-scale rows of one micro run and its time-integrated
            errors; the run's states go when it returns, before the next."""
            mtraj = self.micro_run(eps)
            dt = cfg.dt_for(eps)
            stride = int(round(dt / dt_macro))
            rows = []
            agg = np.zeros(6)
            for k, ms in enumerate(mtraj.states[1:], start=1):
                ps = ptraj.states[k * stride]
                rep = micro.two_scale_errors(ms, ps, sols)
                rows.append(rep.row())
                e_u, e_r = micro.moment_errors(ps, ms.ops.lmesh, ms.nodal(), eps)
                agg += dt * np.array([rep.err_u3, *rep.err_u1, rep.err_symgrad,
                                      e_u, e_r]) ** 2
            return rows, np.sqrt(agg)

        ts_rows = []
        trend_rows = []
        moment_rows = []
        for eps in cfg.epsilons:
            rows, agg = compare(eps)
            ts_rows.extend(rows)
            trend_rows.append([eps, *agg[:4]])
            moment_rows.append([eps, *agg[4:]])

        reporting.write_csv(os.path.join(self.outdir, "twoscale.csv"),
                            micro.TwoScaleReport.HEADER, ts_rows)
        reporting.write_csv(os.path.join(self.outdir, "twoscale_trend.csv"),
                            ["eps", "err_u3", "err_u1_1", "err_u1_2", "err_symgrad"],
                            trend_rows)
        reporting.write_csv(os.path.join(self.outdir, "moments.csv"),
                            ["eps", "err_mean_inplane", "err_rotation"],
                            moment_rows)
        sweep_rows = []
        for kind in ("korn", "extension", "trace"):
            sweep = self.constants(kind, write=False)
            sweep_rows.extend(sweep.table())
        reporting.write_csv(os.path.join(self.outdir, "constants.csv"),
                            inequalities.ConstantSweep.HEADER, sweep_rows)
        return trend_rows

    def constants(self, kind, write=True):
        cfg = self.cfg
        sweep = inequalities.constant_sweep(
            kind, self.geom, cfg.sigma, cfg.epsilons, self.n,
            tol=self.tol["eigen"], seed=self.seed)
        if write:
            reporting.write_csv(
                os.path.join(self.outdir, f"constants_{kind}.csv"),
                inequalities.ConstantSweep.HEADER, sweep.table())
        return sweep

    def helmholtz_check(self):
        full_geom = geometry.build_cell_geometry("full", m=self.geom.resolution)
        mesh = geometry.build_cell_mesh(full_geom, self.n)
        nq = fem.hex_reference(mesh.spacing)[0].shape[0]
        rng = np.random.default_rng(self.seed + 7)
        dm = fem.DofMap(mesh, 3, periodic=True)
        w = fem.quadrature_weights(mesh)
        rows = []
        for k in range(10):  # random symmetric fields
            raw = rng.standard_normal((mesh.n_elems, nq, 3, 3))
            xi = 0.5 * (raw + np.swapaxes(raw, -1, -2))
            solenoidal = cell_mod.helmholtz_decompose(mesh, xi)
            sol_norm = np.sqrt(np.einsum("eq,eqi->", w, solenoidal**2))
            worst = 0.0
            for _ in range(20):  # periodic test fields per field
                phi = rng.standard_normal((mesh.n_nodes, 3))
                phi = dm.expand(dm.restrict(phi))  # periodic test field
                dphi = fem.gradient_decomposition(mesh, phi)
                dnorm = np.sqrt(np.einsum("eq,eqi->", w, dphi**2))
                pairing = cell_mod.gradient_pairing(mesh, solenoidal, dphi)
                worst = max(worst, abs(pairing) / max(sol_norm * dnorm, 1e-300))
            rows.append([k, worst])
        reporting.write_csv(os.path.join(self.outdir, "helmholtz.csv"),
                            ["field", "orthogonality"], rows)
        return rows

    def report(self):
        summary = {
            "config": self.cfg.echo(),
            "geometry_hash": self.geom.digest(),
        }
        series = {}
        for name in sorted(os.listdir(self.outdir)):
            if not name.endswith(".csv"):
                continue
            path = os.path.join(self.outdir, name)
            with open(path, "r", encoding="utf-8") as f:
                header = f.readline().strip().split(",")
                rows = [line.strip().split(",") for line in f if line.strip()]
            summary.setdefault("tables", {})[name] = len(rows)
            try:
                data = np.array(rows, dtype=float)
            except ValueError:
                continue
            if data.ndim != 2 or data.shape[0] < 2:
                continue
            for col in range(1, data.shape[1]):
                series[f"{name[:-4]}_{header[col]}"] = (data[:, 0], data[:, col])
        eff_path = os.path.join(self.outdir, "effective_tensors.txt")
        if os.path.exists(eff_path):
            with open(eff_path, "r", encoding="utf-8") as f:
                tensor_lines = [ln.strip() for ln in f if "=" in ln]
            summary["effective"] = {
                k.strip(): v.strip()
                for k, v in (ln.split("=", 1) for ln in tensor_lines)}
        reporting.write_report(summary, series, self.outdir)

    # --- helpers -----------------------------------------------------------
    def _dump_states(self, prefix, states, nodal):
        """Write ``nodal(state)`` for the states that --dump-fields picks;
        no other state is expanded to a nodal array."""
        if self.dump == "none":
            return
        if self.dump == "final":
            picks = [len(states) - 1]
        else:
            picks = range(0, len(states), self.dump_stride)
        for idx in picks:
            geometry.dump_field(
                os.path.join(self.outdir, f"{prefix}_t{idx:05d}.field"),
                nodal(states[idx]))


# the stage each subcommand runs
_COMMANDS = {
    "cell-solve": lambda pipe: pipe.cell_solve(),
    "homogenize": lambda pipe: pipe.homogenize(),
    "plate-run": lambda pipe: pipe.plate_run(),
    "micro-run": lambda pipe: [pipe.micro_run(eps) for eps in pipe.cfg.epsilons],
    "converge": lambda pipe: pipe.converge(),
    "korn": lambda pipe: pipe.constants("korn"),
    "extension-norm": lambda pipe: pipe.constants("extension"),
    "trace": lambda pipe: pipe.constants("trace"),
    "helmholtz-check": lambda pipe: pipe.helmholtz_check(),
    "report": lambda pipe: pipe.report(),
}


def _report_unconverged(model: str, states):
    """A stderr line for steps that stopped at picard_max short of the Picard test."""
    missed = [s.t for s in states if not s.picard_converged]
    if missed:
        print(f"warning: {model}: {len(missed)} of {len(states) - 1} steps stopped at "
              f"picard_max without converging, the first at t = {missed[0]:g}",
              file=sys.stderr)


def _dump_stride(dump: str):
    """Validate a --dump-fields value; returns K for ``stride=K``, else None."""
    if dump in ("none", "final"):
        return None
    try:
        k = int(dump[len("stride="):]) if dump.startswith("stride=") else 0
    except ValueError:
        k = 0
    if k < 1:
        raise ValidationError(
            f"bad --dump-fields value {dump!r}: expected none, final or "
            "stride=K with an integer K >= 1")
    return k


def run_command(argv) -> int:
    """Execute one pipeline stage; returns the process exit status."""
    args = _parser().parse_args(argv)
    outdir = args.out or "out"
    try:
        cfg = load_config(args.config) if args.config else SimConfig()
        if args.out == "":
            raise ValidationError("must be a non-empty path", key="--out")
        if args.out:
            cfg.tree["output_dir"] = args.out
        outdir = cfg.output_dir
        if args.seed < 0:
            raise ValidationError("must be a non-negative integer", key="--seed")
        pipe = Pipeline(cfg, outdir, seed=args.seed, dump=args.dump_fields)
        _COMMANDS[args.command](pipe)
        return EXIT_OK
    except (ParseError, ValidationError, OSError) as exc:
        _error_record(outdir, exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverFailure, PerfolayerError) as exc:
        _error_record(outdir, exc)
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:
        _error_record(outdir, exc)
        raise


def _error_record(outdir, exc):
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "error.json"), "w", encoding="utf-8") as f:
            json.dump({"error": type(exc).__name__, "message": str(exc)}, f)
    except OSError:
        pass


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
