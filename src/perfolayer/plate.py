"""Homogenized macroscopic plate model.

Quasi-static membrane equation coupled to a time-dependent bending equation
with semi-linear loads.  Bending uses C1 Hermite rectangles (value, both
first derivatives and the mixed derivative per node); the membrane uses
bilinear quadrilaterals.  Time integration is the Newmark-Picard scheme of
``newmark``, with the membrane block solved monolithically at the new time
level in ``newmark_step``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import fem, newmark
from .cell import EffectiveModel
from .geometry import PlateMesh, _locate
from .loads import LoadModel

_GAUSS_N = 4


def _gauss_1d():
    x, w = np.polynomial.legendre.leggauss(_GAUSS_N)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


def _hermite_1d(xi: np.ndarray, h: float):
    """Cubic Hermite values/derivatives on [0, h] at xi in [0, 1].

    Returns arrays (len(xi), 4) for the DOFs (value0, slope0, value1, slope1)
    and their first and second derivatives with respect to x.
    """
    xi = np.asarray(xi)
    v = np.stack([
        1 - 3 * xi**2 + 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        3 * xi**2 - 2 * xi**3,
        h * (xi**3 - xi**2),
    ], axis=-1)
    d1 = np.stack([
        (-6 * xi + 6 * xi**2) / h,
        1 - 4 * xi + 3 * xi**2,
        (6 * xi - 6 * xi**2) / h,
        3 * xi**2 - 2 * xi,
    ], axis=-1)
    d2 = np.stack([
        (-6 + 12 * xi) / h**2,
        (-4 + 6 * xi) / h,
        (6 - 12 * xi) / h**2,
        (6 * xi - 2) / h,
    ], axis=-1)
    return v, d1, d2


def _linear_1d(xi: np.ndarray, h: float):
    xi = np.asarray(xi)
    v = np.stack([1 - xi, xi], axis=-1)
    d1 = np.stack([-np.ones_like(xi) / h, np.ones_like(xi) / h], axis=-1)
    return v, d1


# Corner order matches the quad connectivity: (0,0), (1,0), (1,1), (0,1).
_CORNERS = np.array(((0, 0), (1, 0), (1, 1), (0, 1)))
# Hermite DOF types per node: (x-type, y-type); 0 = value, 1 = slope.
_DOF_TYPES = np.array(((0, 0), (1, 0), (0, 1), (1, 1)))
# the x and the y Hermite factor of each column, node-major, _DOF_TYPES per node
_HERMITE_FACTORS = (2 * _CORNERS[:, None, :] + _DOF_TYPES[None, :, :]).reshape(16, 2).T


def _tensor_tables(xs, ys, factors, orders):
    """Tables of the basis whose column k is the 1-D x factor factors[0][k] times
    the y factor factors[1][k]: one per (x, y) derivative order in ``orders``,
    from the 1-D tables ``xs``, ``ys`` by derivative order."""
    ix, iy = factors
    return [np.take(xs[p], ix, axis=1) * np.take(ys[q], iy, axis=1) for p, q in orders]


@dataclass
class BendingBasis:
    """Hermite basis tables at points of the reference rectangle.

    All arrays have shape (n_pts, 16); DOF order is node-major with the four
    Hermite types (w, w_x, w_y, w_xy) per node.
    """

    val: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dxx: np.ndarray
    dyy: np.ndarray
    dxy: np.ndarray


def bending_basis(xi: np.ndarray, eta: np.ndarray, spacing) -> BendingBasis:
    h1, h2 = spacing
    return BendingBasis(*_tensor_tables(
        _hermite_1d(xi, h1), _hermite_1d(eta, h2), _HERMITE_FACTORS,
        ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))))


def membrane_basis(xi: np.ndarray, eta: np.ndarray, spacing):
    """Bilinear basis tables; arrays (n_pts, 4) in quad corner order."""
    h1, h2 = spacing
    return tuple(_tensor_tables(_linear_1d(xi, h1), _linear_1d(eta, h2),
                                _CORNERS.T, ((0, 0), (1, 0), (0, 1))))


def _mandel2(e11, e22, e12):
    return np.stack([e11, e22, np.sqrt(2.0) * e12], axis=-2)


@dataclass
class PlateSystem:
    """Assembled block operators of the macroscopic model."""

    pmesh: PlateMesh
    bend_dofs: fem.DofMap      # four Hermite dofs per node, clamped boundary
    memb_dofs: fem.DofMap      # two membrane components per node
    k_bb: sp.csr_matrix
    k_aa: sp.csr_matrix
    k_ab: sp.csr_matrix        # membrane rows, bending columns
    m_b: sp.csr_matrix
    m_memb: sp.csr_matrix
    quad_xy: np.ndarray        # quadrature points (E, Q, 2)
    quad_w: np.ndarray         # physical weights (Q,)
    basis: BendingBasis
    mb_val: np.ndarray
    # PlatePoints of the last points evaluated through evaluate_deflection
    # or evaluate_membrane
    memo: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class PlateState:
    """Snapshot of the macroscopic unknowns.

    ``w/v/a`` are the reduced Hermite coefficients of the vertical deflection
    and its time derivatives; ``m`` the reduced in-plane membrane
    coefficients (the third membrane component is identically zero and not
    stored).
    """

    system: PlateSystem
    t: float
    w: np.ndarray
    v: np.ndarray
    a: np.ndarray
    m: np.ndarray
    picard_iters: int = 0
    picard_converged: bool = True


def assemble_plate_system(pmesh: PlateMesh, eff: EffectiveModel) -> PlateSystem:
    """Block operators K_aa, K_ab, K_bb, M_b with clamping applied."""
    g, gw = _gauss_1d()
    XI, ETA = np.meshgrid(g, g, indexing="ij")
    WQ = np.outer(gw, gw).ravel()
    xi, eta = XI.ravel(), ETA.ravel()
    h1, h2 = pmesh.spacing
    w_phys = WQ * h1 * h2

    basis = bending_basis(xi, eta, pmesh.spacing)
    mb_val, mb_dx, mb_dy = membrane_basis(xi, eta, pmesh.spacing)

    hess = _mandel2(basis.dxx, basis.dyy, basis.dxy)      # (Q, 3, 16)
    n_m = mb_val.shape[1]
    zeros = np.zeros_like(mb_dx)
    strain = np.empty((xi.shape[0], 3, 2 * n_m))
    strain[:, :, 0::2] = _mandel2(mb_dx, zeros, 0.5 * mb_dy)
    strain[:, :, 1::2] = _mandel2(zeros, mb_dy, 0.5 * mb_dx)

    va, vb, vc = (eff.voigt(t) for t in (eff.a_star, eff.b_star, eff.c_star))

    k_bb_loc = np.einsum("q,qri,rs,qsj->ij", w_phys, hess, vc, hess)
    k_aa_loc = np.einsum("q,qri,rs,qsj->ij", w_phys, strain, va, strain)
    # coupling: the Hessian contracts the first index pair of b*
    k_ab_loc = np.einsum("q,qrj,rs,qsi->ij", w_phys, hess, vb, strain)
    m_b_loc = np.einsum("q,qi,qj->ij", w_phys, basis.val, basis.val)
    # the scalar mass on each of the two interleaved components
    m_m_loc = np.kron(np.einsum("q,qi,qj->ij", w_phys, mb_val, mb_val), np.eye(2))

    bend_dofs = fem.DofMap(pmesh, 4, dirichlet_nodes=pmesh.clamped_nodes)
    memb_dofs = fem.DofMap(pmesh, 2, dirichlet_nodes=pmesh.clamped_nodes)
    eb = bend_dofs.element_dofs(pmesh.elems)
    em = memb_dofs.element_dofs(pmesh.elems)

    nb, nm = bend_dofs.n_dofs, memb_dofs.n_dofs
    bb = fem.AssemblyPlan(eb, eb, (nb, nb))
    mm = fem.AssemblyPlan(em, em, (nm, nm))
    k_bb = bb.fill(k_bb_loc[:, :, None, None])
    k_aa = mm.fill(k_aa_loc[:, :, None, None])
    k_ab = fem.AssemblyPlan(em, eb, (nm, nb)).fill(k_ab_loc[:, :, None, None])
    m_b = bb.fill(m_b_loc[:, :, None, None])
    m_memb = mm.fill(m_m_loc[:, :, None, None])

    origin = pmesh.coords[pmesh.elems[:, 0]]
    qp = origin[:, None, :] + np.stack([xi * h1, eta * h2], axis=-1)[None, :, :]

    return PlateSystem(
        pmesh=pmesh, bend_dofs=bend_dofs, memb_dofs=memb_dofs,
        k_bb=k_bb, k_aa=k_aa, k_ab=k_ab, m_b=m_b, m_memb=m_memb,
        quad_xy=qp, quad_w=w_phys, basis=basis, mb_val=mb_val,
    )


def zero_state(system: PlateSystem) -> PlateState:
    nb, nm = system.bend_dofs.n_dofs, system.memb_dofs.n_dofs
    return PlateState(system=system, t=0.0, w=np.zeros(nb), v=np.zeros(nb),
                      a=np.zeros(nb), m=np.zeros(nm))


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------

def compute_loads(system: PlateSystem, loads: LoadModel, w_red: np.ndarray,
                  t: float):
    """Right-hand sides (r_membrane, r_bending) at time t.

    The effective loads are cell averages of the volume force (evaluated at
    z = current deflection) minus surface averages of the interior traction;
    the bending side carries the first vertical moments through the
    -int Hbar . grad V term.
    """
    sysm = system
    E, Q = sysm.quad_xy.shape[:2]
    x1 = sysm.quad_xy[..., 0].ravel()
    x2 = sysm.quad_xy[..., 1].ravel()
    z = deflection_at_quad(sysm, w_red).ravel()
    h, hbar = loads.effective_loads(t, x1, x2, z)

    wq = sysm.quad_w
    eb = sysm.bend_dofs.element_dofs(sysm.pmesh.elems)
    em = sysm.memb_dofs.element_dofs(sysm.pmesh.elems)

    def integral(values, table):  # per element, of the values times each column
        return np.einsum("q,eq,qi->ei", wq, values.reshape(E, Q), table)

    local_b = integral(h[2], sysm.basis.val)
    local_b -= integral(hbar[0], sysm.basis.dx)
    local_b -= integral(hbar[1], sysm.basis.dy)
    r_b = fem.scatter_vector(local_b, eb, sysm.bend_dofs.n_dofs)

    local_m = np.empty((E, 2 * sysm.mb_val.shape[1]))
    local_m[:, 0::2] = integral(h[0], sysm.mb_val)
    local_m[:, 1::2] = integral(h[1], sysm.mb_val)
    r_m = fem.scatter_vector(local_m, em, sysm.memb_dofs.n_dofs)
    return r_m, r_b


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class PlatePoints:
    """Plate element, local coordinates and basis tables of fixed points.

    Evaluating changing coefficients at the same points reuses the tables,
    which are built on first use; ``evaluate_deflection`` and
    ``evaluate_membrane`` keep the one of the last points asked for.
    """

    def __init__(self, system: PlateSystem, pts: np.ndarray):
        self.system = system
        self.pts = np.array(np.atleast_2d(pts), dtype=float)
        pmesh = system.pmesh
        cell, local = _locate(self.pts, pmesh.sigma, pmesh.spacing, pmesh.shape)
        self.elem = cell[:, 0] * pmesh.shape[1] + cell[:, 1]
        self.xi, self.eta = local.T

    @functools.cached_property
    def _bending(self):
        pmesh = self.system.pmesh
        basis = bending_basis(self.xi, self.eta, pmesh.spacing)
        dofs = self.system.bend_dofs.element_dofs(pmesh.elems)[self.elem]
        return basis, dofs

    @functools.cached_property
    def _membrane(self):
        pmesh = self.system.pmesh
        tables = membrane_basis(self.xi, self.eta, pmesh.spacing)
        dofs = self.system.memb_dofs.element_dofs(pmesh.elems)[self.elem]
        return tables, dofs

    def deflection(self, w_red: np.ndarray, derivatives: bool = False):
        """Deflection (and optionally gradient and Hessian) at the points."""
        basis, dofs = self._bending
        coeff = np.append(w_red, 0.0)[dofs]
        w = np.einsum("pi,pi->p", basis.val, coeff)
        if not derivatives:
            return w
        grad = np.stack([
            np.einsum("pi,pi->p", basis.dx, coeff),
            np.einsum("pi,pi->p", basis.dy, coeff),
        ], axis=-1)
        hess = np.empty((len(w), 2, 2))
        hess[:, 0, 0] = np.einsum("pi,pi->p", basis.dxx, coeff)
        hess[:, 1, 1] = np.einsum("pi,pi->p", basis.dyy, coeff)
        hess[:, 0, 1] = hess[:, 1, 0] = np.einsum("pi,pi->p", basis.dxy, coeff)
        return w, grad, hess

    def membrane(self, m_red: np.ndarray, derivatives: bool = False):
        """In-plane displacement (and optionally its symmetric gradient)."""
        (val, dx, dy), dofs = self._membrane
        coeff = np.append(m_red, 0.0)[dofs]
        c1 = coeff[:, 0::2]
        c2 = coeff[:, 1::2]
        u = np.stack([np.einsum("pi,pi->p", val, c1),
                      np.einsum("pi,pi->p", val, c2)], axis=-1)
        if not derivatives:
            return u
        d11 = np.einsum("pi,pi->p", dx, c1)
        d22 = np.einsum("pi,pi->p", dy, c2)
        d12 = 0.5 * (np.einsum("pi,pi->p", dy, c1) + np.einsum("pi,pi->p", dx, c2))
        strain = np.empty((len(d11), 2, 2))
        strain[:, 0, 0] = d11
        strain[:, 1, 1] = d22
        strain[:, 0, 1] = strain[:, 1, 0] = d12
        return u, strain


def _plate_points(system: PlateSystem, pts: np.ndarray) -> PlatePoints:
    """PlatePoints of the points, memoized on the system for the last points."""
    at = system.memo.get("points")
    if at is None or not np.array_equal(at.pts, np.atleast_2d(pts)):
        at = system.memo["points"] = PlatePoints(system, pts)
    return at


def evaluate_deflection(system: PlateSystem, w_red: np.ndarray, pts: np.ndarray,
                        derivatives: bool = False):
    """Deflection (and optionally gradient and Hessian) at arbitrary points."""
    return _plate_points(system, pts).deflection(w_red, derivatives)


def evaluate_membrane(system: PlateSystem, m_red: np.ndarray, pts: np.ndarray):
    """In-plane displacement at arbitrary points."""
    return _plate_points(system, pts).membrane(m_red)


def deflection_at_quad(system: PlateSystem, w_red: np.ndarray) -> np.ndarray:
    dofs = system.bend_dofs.element_dofs(system.pmesh.elems)
    coeff = np.append(w_red, 0.0)[dofs]
    return coeff @ system.basis.val.T  # (E, Q)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def effective_operator(system: PlateSystem, dt: float,
                       beta: float = 0.25) -> fem.SymmetricOperator:
    """Block operator of one Newmark step: K_bb + (1 / (beta dt^2)) M_b in
    the bending block, coupled to the membrane by K_ab."""
    top = system.k_bb + (1.0 / (beta * dt * dt)) * system.m_b
    mat = sp.bmat([[top, system.k_ab.T], [system.k_ab, system.k_aa]], format="csr")
    return fem.SymmetricOperator(mat)


def newmark_step(state: PlateState, dt: float, loads: LoadModel,
                 k_eff: fem.SymmetricOperator, beta: float = 0.25, gamma: float = 0.5,
                 picard_tol: float = 1e-10, picard_max: int = 30,
                 tol: float = 1e-12) -> PlateState:
    """One implicit Newmark step (``newmark``): each Picard sweep solves the
    block system of ``k_eff = effective_operator(state.system, dt, beta)``
    for (w, m), with the loads at the last deflection, from w = ``state.w``.
    The membrane is carried at the new time level (no inertia)."""
    system, nb = state.system, state.system.bend_dofs.n_dofs
    w_pred = newmark.predictor(state.w, state, dt, beta)
    factor = 1.0 / (beta * dt * dt)
    mw_pred = factor * (system.m_b @ w_pred)

    def sweep(w, guess):
        r_m, r_b = compute_loads(system, loads, w, state.t + dt)
        sol = fem.solve_spd(k_eff, np.concatenate([r_b + mw_pred, r_m]), tol=tol,
                            x0=guess, max_iter=max(2000, 60 * guess.size))
        return sol[:nb], sol

    guess = np.concatenate([state.w, state.m])
    w, sol, iters, converged = newmark.picard(sweep, state.w, guess, loads.f_depends_z,
                                              picard_tol, picard_max)
    return newmark.advance(state, dt, gamma, factor * (w - w_pred), iters, converged,
                           w=w, m=sol[nb:])


def energy(state: PlateState) -> float:
    """Discrete total energy: kinetic plus the full block elastic form."""
    s = state.system
    kin = 0.5 * float(state.v @ (s.m_b @ state.v))
    ela = 0.5 * float(state.w @ (s.k_bb @ state.w))
    ela += float(state.m @ (s.k_ab @ state.w))
    ela += 0.5 * float(state.m @ (s.k_aa @ state.m))
    return kin + ela


# the columns of the rows of ``run_plate``, then one per probe
TRAJECTORY_HEADER = ["t", "norm_u03", "norm_u1", "energy", "picard_iters"]


def run_plate(system: PlateSystem, loads: LoadModel, dt: float, t_end: float,
              beta: float = 0.25, gamma: float = 0.5,
              picard_tol: float = 1e-10, picard_max: int = 30,
              tol: float = 1e-12, probes=(),
              store_states: bool = False) -> newmark.Trajectory:
    """Integrate the plate from zero initial data and record norms,
    energies and probe values per step.

    The membrane starts from its stationary equation at t = 0; the initial
    bending acceleration is consistent with the loads at t = 0.
    """
    n_steps = newmark.steps(dt, t_end)
    state = zero_state(system)
    r_m, r_b = compute_loads(system, loads, state.w, 0.0)
    m0 = fem.solve_spd(fem.SymmetricOperator(system.k_aa), r_m, tol=tol,
                       max_iter=max(2000, 60 * max(1, system.memb_dofs.n_dofs)))
    a0 = fem.solve_spd(fem.SymmetricOperator(system.m_b), r_b - system.k_ab.T @ m0, tol=tol)
    state = replace(state, m=m0, a=a0)

    probes = np.atleast_2d(np.asarray(probes, dtype=float)) if len(probes) else None

    def row(st):
        norm_w = np.sqrt(max(st.w @ (system.m_b @ st.w), 0.0))
        norm_m = np.sqrt(max(st.m @ (system.m_memb @ st.m), 0.0))
        out = [st.t, norm_w, norm_m, energy(st), st.picard_iters]
        if probes is not None:
            out.extend(evaluate_deflection(system, st.w, probes))
        return out

    k_eff = effective_operator(system, dt, beta)
    return newmark.run(
        state, lambda st: newmark_step(st, dt, loads, k_eff, beta=beta, gamma=gamma,
                                       picard_tol=picard_tol, picard_max=picard_max,
                                       tol=tol), n_steps, row, store_states)
