"""The shared Newmark-Picard step of the plate and the micro model."""

import numpy as np
import pytest

from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import micro as pm
from perfolayer import plate as pp
from perfolayer.loads import CellQuadrature, preset_load_model

from conftest import SIGMA


def _micro_step_loop(state, dt, loads, k_eff, precond, beta=0.25, gamma=0.5,
                     picard_tol=1e-10, picard_max=30, tol=1e-11):
    """The former ``micro.micro_step``, with its own predictor, Picard loop
    and velocity update."""
    ops = state.ops
    t_new = state.t + dt
    u_pred = state.u + dt * state.v + dt * dt * (0.5 - beta) * state.a
    ku_pred = ops.stiffness.matvec(u_pred)

    u_iter = u_pred.copy()
    a_new = state.a.copy()
    converged = False
    iters = 0
    for iters in range(1, picard_max + 1):
        rhs = pm.micro_rhs(ops, loads, t_new, ops.dofmap.expand(u_iter)) - ku_pred
        a_new = fem.solve_spd(k_eff, rhs, tol=tol, x0=a_new, precond=precond)
        u_new = u_pred + beta * dt * dt * a_new
        delta = np.linalg.norm(u_new - u_iter) / max(np.linalg.norm(u_new), 1e-30)
        u_iter = u_new
        if not loads.f_depends_z or delta <= picard_tol:
            converged = True
            break
    v_new = state.v + dt * ((1.0 - gamma) * state.a + gamma * a_new)
    return pm.MicroState(ops=ops, t=t_new, u=u_iter, v=v_new, a=a_new,
                         picard_iters=iters, picard_converged=converged)


def _newmark_step_loop(state, dt, loads, k_eff, beta=0.25, gamma=0.5,
                       picard_tol=1e-10, picard_max=30, tol=1e-12):
    """The former ``plate.newmark_step`` with its block solve, forming
    M_b w_pred / (beta dt^2) on every sweep."""
    system = state.system
    t_new = state.t + dt
    factor = 1.0 / (beta * dt * dt)
    w_pred = state.w + dt * state.v + dt * dt * (0.5 - beta) * state.a
    nb = system.bend_dofs.n_dofs

    w_iter = state.w
    m_iter = state.m
    guess = np.concatenate([state.w, state.m])
    converged = False
    iters = 0
    for iters in range(1, picard_max + 1):
        r_m, r_b = pp.compute_loads(system, loads, w_iter, t_new)
        rhs = np.concatenate([r_b + factor * (system.m_b @ w_pred), r_m])
        guess = fem.solve_spd(k_eff, rhs, tol=tol, x0=guess,
                              max_iter=max(2000, 60 * rhs.shape[0]))
        w_new, m_new = guess[:nb], guess[nb:]
        delta = np.linalg.norm(w_new - w_iter) / max(np.linalg.norm(w_new), 1e-30)
        w_iter, m_iter = w_new, m_new
        if not loads.f_depends_z or delta <= picard_tol:
            converged = True
            break
    a_new = factor * (w_iter - w_pred)
    v_new = state.v + dt * ((1.0 - gamma) * state.a + gamma * a_new)
    return pp.PlateState(system=system, t=t_new, w=w_iter, v=v_new, a=a_new,
                         m=m_iter, picard_iters=iters, picard_converged=converged)


@pytest.fixture(scope="module")
def linear_z(full_geom):
    cq = CellQuadrature.from_cell_mesh(pg.build_cell_mesh(full_geom, 4))
    return preset_load_model("linear_z").with_cell_quadrature(cq)


@pytest.fixture(scope="module")
def models(full_cell_n8, iso_tensor, linear_z):
    """Per model: its step, the former step, a zero state and the step
    operators of a dt (the micro step's with its preconditioner)."""
    system = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), full_cell_n8[2])
    lmesh = pg.build_layer_mesh(pg.build_cell_geometry("full", m=2), 0.5, SIGMA, 2)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, linear_z)
    return {
        "plate": (pp.newmark_step, _newmark_step_loop, pp.zero_state(system),
                  lambda dt: (pp.effective_operator(system, dt),)),
        "micro": (pm.micro_step, _micro_step_loop, pm.zero_micro_state(ops),
                  lambda dt: (pm.effective_operator(ops, dt), pm.newmark_preconditioner(ops, dt))),
    }


@pytest.mark.parametrize("model", ["plate", "micro"])
def test_picard_stops_at_picard_max_unconverged(models, linear_z, model):
    step, _, state, k_eff = models[model]
    assert linear_z.f_depends_z
    new = step(state, 0.05, linear_z, *k_eff(0.05), picard_max=1)
    assert new.picard_converged is False
    assert new.picard_iters == 1


@pytest.mark.parametrize("model", ["plate", "micro"])
def test_step_matches_former_loop(models, linear_z, model):
    # five steps of the z-dependent load, each taking several sweeps: the
    # shared scheme must repeat the former arithmetic bit for bit
    step, former, state, k_eff = models[model]
    dt = 0.05
    op = k_eff(dt)
    ours = theirs = state
    for _ in range(5):
        ours = step(ours, dt, linear_z, *op)
        theirs = former(theirs, dt, linear_z, *op)
        assert theirs.picard_converged and theirs.picard_iters >= 3
        assert ours.picard_iters == theirs.picard_iters
        assert ours.picard_converged is theirs.picard_converged
        assert ours.t == theirs.t
        for name in ("u", "w", "m", "v", "a"):
            if hasattr(theirs, name):
                assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name


@pytest.mark.parametrize("model", ["plate", "micro"])
@pytest.mark.parametrize("dt", [0.0, -0.05])
def test_step_rejects_nonpositive_dt(models, linear_z, model, dt):
    step, _, state, k_eff = models[model]
    with pytest.raises(ValueError, match="dt must be positive"):
        step(state, dt, linear_z, *k_eff(0.05))


@pytest.mark.parametrize("model", ["plate", "micro"])
@pytest.mark.parametrize("dt, t_end", [(-0.05, 0.2), (0.0, 0.2), (0.3, 1.0), (0.05, 0.12),
                                       (0.05, -0.2)])
def test_run_rejects_a_time_grid_that_does_not_fit(models, linear_z, model, dt, t_end):
    # without the check: one row at t = 0, a ZeroDivisionError, runs that
    # stop short of t_end at t = 0.9 and t = 0.1, and one row at t = 0
    state = models[model][2]
    run = {"plate": lambda: pp.run_plate(state.system, linear_z, dt=dt, t_end=t_end),
           "micro": lambda: pm.run_micro(state.ops, linear_z, dt=dt, t_end=t_end)}
    with pytest.raises(ValueError, match="whole number of steps"):
        run[model]()
