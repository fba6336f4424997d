"""Implicit Newmark-beta time stepping with Picard sweeps (N. M. Newmark,
J. Eng. Mech. Div. ASCE 85, 1959), written once for ``plate.newmark_step``
and ``micro.micro_step``, which keep their own solves (README, "How a run
steps in time")."""

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class Trajectory:
    rows: list    # one per recorded state
    states: list  # the states, when the run keeps them


def predictor(x, state, dt, beta):
    if dt <= 0:
        raise ValueError("dt must be positive")
    return x + dt * state.v + dt * dt * (0.5 - beta) * state.a


def picard(sweep, x, warm, depends_z, picard_tol, picard_max):
    """Sweeps ``x, warm = sweep(x, warm)`` until the relative update of x is
    at most ``picard_tol`` (once when the force does not read z) or for
    ``picard_max`` sweeps; returns x, warm, the sweeps and whether the update
    test was met."""
    for iters in range(1, picard_max + 1):
        x_new, warm = sweep(x, warm)
        delta = np.linalg.norm(x_new - x) / max(np.linalg.norm(x_new), 1e-30)
        x = x_new
        if not depends_z or delta <= picard_tol:
            return x, warm, iters, True
    return x, warm, picard_max, False


def advance(state, dt, gamma, a_new, iters, converged, **fields):
    """The state after the step, with the model's solved ``fields``."""
    v_new = state.v + dt * ((1.0 - gamma) * state.a + gamma * a_new)
    return replace(state, t=state.t + dt, v=v_new, a=a_new, picard_iters=iters,
                   picard_converged=converged, **fields)


def is_whole(ratio) -> bool:
    """Whether ``ratio`` is a whole number, to 1e-9 relative."""
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


def steps(dt, t_end) -> int:
    """Steps dt to t_end; ValueError unless dt > 0, t_end >= 0 and t_end / dt
    is whole."""
    if not (dt > 0 and t_end >= 0 and is_whole(t_end / dt)):
        raise ValueError(f"dt = {dt:g} must be positive and divide t_end = {t_end:g} >= 0 "
                         "into a whole number of steps")
    return int(round(t_end / dt))


def run(state, step, n_steps, row, store_states):
    """``n_steps`` steps ``state = step(state)``, with ``row(state)`` recorded
    for the initial state and each step."""
    traj = Trajectory(rows=[row(state)], states=[state] if store_states else [])
    for _ in range(n_steps):
        state = step(state)
        traj.rows.append(row(state))
        if store_states:
            traj.states.append(state)
    return traj
