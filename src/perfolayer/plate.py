"""Homogenized macroscopic plate model.

Quasi-static membrane equation coupled to a time-dependent bending equation
with semi-linear loads.  Bending uses C1 Hermite rectangles (value, both
first derivatives and the mixed derivative per node); the membrane uses
bilinear quadrilaterals.  Time integration is Newmark-beta with the membrane
block solved monolithically at the new time level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import fem
from .cell import EffectiveModel
from .geometry import PlateMesh
from .loads import LoadModel

_GAUSS_N = 4


def _gauss_1d(n=_GAUSS_N):
    x, w = np.polynomial.legendre.leggauss(n)
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
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# Hermite DOF types per node: (x-type, y-type); 0 = value, 1 = slope.
_DOF_TYPES = ((0, 0), (1, 0), (0, 1), (1, 1))


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
    xv, xd1, xd2 = _hermite_1d(xi, h1)
    yv, yd1, yd2 = _hermite_1d(eta, h2)
    npts = xv.shape[0]
    out = {k: np.empty((npts, 16)) for k in ("val", "dx", "dy", "dxx", "dyy", "dxy")}
    for a, (ca, cb) in enumerate(_CORNERS):
        for d, (tx, ty) in enumerate(_DOF_TYPES):
            ix = 2 * ca + tx
            iy = 2 * cb + ty
            col = 4 * a + d
            out["val"][:, col] = xv[:, ix] * yv[:, iy]
            out["dx"][:, col] = xd1[:, ix] * yv[:, iy]
            out["dy"][:, col] = xv[:, ix] * yd1[:, iy]
            out["dxx"][:, col] = xd2[:, ix] * yv[:, iy]
            out["dyy"][:, col] = xv[:, ix] * yd2[:, iy]
            out["dxy"][:, col] = xd1[:, ix] * yd1[:, iy]
    return BendingBasis(**out)


def membrane_basis(xi: np.ndarray, eta: np.ndarray, spacing):
    """Bilinear basis tables; arrays (n_pts, 4) in quad corner order."""
    h1, h2 = spacing
    xv, xd1 = _linear_1d(xi, h1)
    yv, yd1 = _linear_1d(eta, h2)
    idx = [(0, 0), (1, 0), (1, 1), (0, 1)]
    val = np.stack([xv[:, a] * yv[:, b] for a, b in idx], axis=-1)
    dx = np.stack([xd1[:, a] * yv[:, b] for a, b in idx], axis=-1)
    dy = np.stack([xv[:, a] * yd1[:, b] for a, b in idx], axis=-1)
    return val, dx, dy


def _mandel2(e11, e22, e12):
    return np.stack([e11, e22, np.sqrt(2.0) * e12], axis=-2)


@dataclass
class PlateSystem:
    """Assembled block operators of the macroscopic model."""

    pmesh: PlateMesh
    eff: EffectiveModel
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
    # or evaluate_membrane, and the Newmark block operator of the last
    # mass factor
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
    gx, gwx = _gauss_1d()
    gy, gwy = _gauss_1d()
    XI, ETA = np.meshgrid(gx, gy, indexing="ij")
    WQ = np.outer(gwx, gwy).ravel()
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
    m_m_loc = np.zeros((2 * n_m, 2 * n_m))
    nn = np.einsum("q,qi,qj->ij", w_phys, mb_val, mb_val)
    m_m_loc[0::2, 0::2] = nn
    m_m_loc[1::2, 1::2] = nn

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
        pmesh=pmesh, eff=eff, bend_dofs=bend_dofs, memb_dofs=memb_dofs,
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

    h3 = h[2].reshape(E, Q)
    local_b = np.einsum("q,eq,qi->ei", wq, h3, sysm.basis.val)
    local_b -= np.einsum("q,eq,qi->ei", wq, hbar[0].reshape(E, Q), sysm.basis.dx)
    local_b -= np.einsum("q,eq,qi->ei", wq, hbar[1].reshape(E, Q), sysm.basis.dy)
    r_b = fem.scatter_vector(local_b, eb, sysm.bend_dofs.n_dofs)

    local_m = np.empty((E, 2 * sysm.mb_val.shape[1]))
    local_m[:, 0::2] = np.einsum("q,eq,qi->ei", wq, h[0].reshape(E, Q), sysm.mb_val)
    local_m[:, 1::2] = np.einsum("q,eq,qi->ei", wq, h[1].reshape(E, Q), sysm.mb_val)
    r_m = fem.scatter_vector(local_m, em, sysm.memb_dofs.n_dofs)
    return r_m, r_b


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _locate(pmesh: PlateMesh, pts: np.ndarray):
    a1, b1, a2, b2 = pmesh.sigma
    h1, h2 = pmesh.spacing
    n1, n2 = pmesh.shape
    i = np.clip(((pts[:, 0] - a1) / h1).astype(np.int64), 0, n1 - 1)
    j = np.clip(((pts[:, 1] - a2) / h2).astype(np.int64), 0, n2 - 1)
    xi = (pts[:, 0] - a1) / h1 - i
    eta = (pts[:, 1] - a2) / h2 - j
    elem = i * n2 + j
    return elem, xi, eta


class PlatePoints:
    """Plate element, local coordinates and basis tables of fixed points.

    Evaluating changing coefficients at the same points reuses the tables,
    which are built on first use; ``evaluate_deflection`` and
    ``evaluate_membrane`` keep the one of the last points asked for.
    """

    def __init__(self, system: PlateSystem, pts: np.ndarray):
        self.system = system
        self.pts = np.array(np.atleast_2d(pts), dtype=float)
        self.elem, self.xi, self.eta = _locate(system.pmesh, self.pts)

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
        coeff = np.where(dofs >= 0, np.concatenate([w_red, [0.0]])[dofs], 0.0)
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
        coeff = np.where(dofs >= 0, np.concatenate([m_red, [0.0]])[dofs], 0.0)
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


def evaluate_membrane(system: PlateSystem, m_red: np.ndarray, pts: np.ndarray,
                      derivatives: bool = False):
    """In-plane displacement (and optionally its symmetric gradient)."""
    return _plate_points(system, pts).membrane(m_red, derivatives)


def deflection_at_quad(system: PlateSystem, w_red: np.ndarray) -> np.ndarray:
    dofs = system.bend_dofs.element_dofs(system.pmesh.elems)
    coeff = np.where(dofs >= 0, np.concatenate([w_red, [0.0]])[dofs], 0.0)
    return coeff @ system.basis.val.T  # (E, Q)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _block_operator(system: PlateSystem, mass_factor: float) -> fem.SymmetricOperator:
    top = system.k_bb + mass_factor * system.m_b
    mat = sp.bmat([[top, system.k_ab.T], [system.k_ab, system.k_aa]], format="csr")
    return fem.SymmetricOperator(mat)


def _newmark_operator(system: PlateSystem, mass_factor: float) -> fem.SymmetricOperator:
    """Block operator of the mass factor, memoized on the system for the last factor."""
    held = system.memo.get("newmark")
    if held is None or held[0] != mass_factor:
        held = system.memo["newmark"] = (mass_factor, _block_operator(system, mass_factor))
    return held[1]


def _solve_block(system: PlateSystem, op, r_b, r_m, tol, x0=None):
    rhs = np.concatenate([r_b, r_m])
    nb = system.bend_dofs.n_dofs
    sol = fem.solve_spd(op, rhs, tol=tol, x0=x0,
                        max_iter=max(2000, 60 * rhs.shape[0]))
    return sol[:nb], sol[nb:], sol


def newmark_step(state: PlateState, dt: float, loads: LoadModel,
                 beta: float = 0.25, gamma: float = 0.5,
                 picard_tol: float = 1e-10, picard_max: int = 30,
                 tol: float = 1e-12) -> PlateState:
    """One implicit Newmark step with Picard resolution of the z-dependence.

    The membrane block is carried at the new time level (no inertia); loads
    that do not depend on the deflection converge in a single sweep.  The
    block operator of (dt, beta) is kept on the system, so steps of one dt
    build it once.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    system = state.system
    t_new = state.t + dt
    factor = 1.0 / (beta * dt * dt)
    op = _newmark_operator(system, factor)
    w_pred = state.w + dt * state.v + dt * dt * (0.5 - beta) * state.a

    w_iter = state.w
    m_iter = state.m
    guess = np.concatenate([state.w, state.m])
    converged = False
    iters = 0
    for iters in range(1, picard_max + 1):
        r_m, r_b = compute_loads(system, loads, w_iter, t_new)
        rhs_b = r_b + factor * (system.m_b @ w_pred)
        w_new, m_new, guess = _solve_block(system, op, rhs_b, r_m, tol, x0=guess)
        delta = np.linalg.norm(w_new - w_iter) / max(np.linalg.norm(w_new), 1e-30)
        w_iter, m_iter = w_new, m_new
        if not loads.f_depends_z or delta <= picard_tol:
            converged = True
            break
    a_new = factor * (w_iter - w_pred)
    v_new = state.v + dt * ((1.0 - gamma) * state.a + gamma * a_new)
    return PlateState(system=system, t=t_new, w=w_iter, v=v_new, a=a_new,
                      m=m_iter, picard_iters=iters, picard_converged=converged)


def energy(state: PlateState) -> float:
    """Discrete total energy: kinetic plus the full block elastic form."""
    s = state.system
    kin = 0.5 * float(state.v @ (s.m_b @ state.v))
    ela = 0.5 * float(state.w @ (s.k_bb @ state.w))
    ela += float(state.m @ (s.k_ab @ state.w))
    ela += 0.5 * float(state.m @ (s.k_aa @ state.m))
    return kin + ela


@dataclass
class PlateTrajectory:
    system: PlateSystem
    rows: list = field(default_factory=list)
    states: list = field(default_factory=list)

    def header(self, n_probes: int):
        probes = [f"probe_{k}" for k in range(n_probes)]
        return ["t", "norm_u03", "norm_u1", "energy", "picard_iters"] + probes


def run_plate(system: PlateSystem, loads: LoadModel, dt: float, t_end: float,
              beta: float = 0.25, gamma: float = 0.5,
              picard_tol: float = 1e-10, picard_max: int = 30,
              tol: float = 1e-12, probes=(), store_states: bool = False,
              on_state=None, initial=None) -> PlateTrajectory:
    """Integrate the plate from zero initial data and record norms,
    energies and probe values per step.

    The membrane starts from its stationary equation at t = 0; the initial
    bending acceleration is consistent with the loads at t = 0.  Nonzero
    initial data (w0, v0) can be supplied through ``initial`` (extension
    beyond the zero initial conditions of the model).
    """
    traj = PlateTrajectory(system=system)
    state = zero_state(system)
    if initial is not None:
        w0, v0 = initial
        state = replace(state, w=np.asarray(w0, dtype=float),
                        v=np.asarray(v0, dtype=float))
    r_m, r_b = compute_loads(system, loads, state.w, 0.0)
    m0 = fem.solve_spd(fem.SymmetricOperator(system.k_aa),
                       r_m - system.k_ab @ state.w, tol=tol,
                       max_iter=max(2000, 60 * max(1, system.memb_dofs.n_dofs)))
    a0 = fem.solve_spd(fem.SymmetricOperator(system.m_b),
                       r_b - system.k_ab.T @ m0 - system.k_bb @ state.w, tol=tol)
    state = replace(state, m=m0, a=a0)

    probes = np.atleast_2d(np.asarray(probes, dtype=float)) if len(probes) else None

    def record(st):
        norm_w = np.sqrt(max(st.w @ (system.m_b @ st.w), 0.0))
        norm_m = np.sqrt(max(st.m @ (system.m_memb @ st.m), 0.0))
        row = [st.t, norm_w, norm_m, energy(st), st.picard_iters]
        if probes is not None:
            row.extend(evaluate_deflection(system, st.w, probes))
        traj.rows.append(row)
        if store_states:
            traj.states.append(st)
        if on_state is not None:
            on_state(st)

    record(state)
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        state = newmark_step(state, dt, loads, beta=beta, gamma=gamma,
                             picard_tol=picard_tol, picard_max=picard_max, tol=tol)
        record(state)
    return traj
