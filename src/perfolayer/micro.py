"""Reference solver on the perforated thin layer and two-scale diagnostics.

The semi-linear elastic wave equation is integrated in its eps-scaled weak
form (mass unweighted, stiffness carrying 1/eps^2, loads with the explicit
eps factors on the vertical components).  Diagnostics compare the micro
solution against the homogenized plate fields: vertical averages, scaled
displacement errors and the scaled symmetric-gradient error including the
cell corrector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import fem
from .cell import CellSolutionSet, INDEX_PAIRS
from .errors import EmptyColumn, InconsistentMesh, TimeMismatch
from .fem import DofMap, ElasticityTensor4, SymmetricOperator
from .geometry import HEX_CORNERS, LayerMesh
from .loads import LoadModel
from .plate import (PlatePoints, PlateState, PlateSystem, evaluate_deflection,
                    evaluate_membrane)


@dataclass
class MicroOperators:
    """Assembled operators and cached quadrature data for one eps."""

    lmesh: LayerMesh
    dofmap: DofMap
    eps: float
    mass: SymmetricOperator
    stiffness: SymmetricOperator      # eps^-2 int A_eps D(u):D(phi)
    strain_energy: SymmetricOperator  # plain int |D(u)|^2, for norms
    quad_x: np.ndarray                # (E, Q, 3) physical points
    quad_y: np.ndarray                # (E, Q, 3) cell coordinates x/eps mod 1
    elem_dofs: np.ndarray             # (E, 24) reduced dofs, -1 = eliminated
    surface_rhs: np.ndarray           # fixed traction contribution
    # distinct in-plane coordinates of the quadrature points and, per point
    # (element-major, as quad_x), the index of its distinct one
    inplane: tuple
    # memo of two_scale_errors, rebuilt for another plate system or cell set
    transfer: PlateTransfer | None = field(default=None, repr=False)


@dataclass
class MicroState:
    """Displacement, velocity and acceleration on the layer mesh at time t.

    The quadratic forms behind the energies and the scaled a priori norms
    are computed once per state."""

    ops: MicroOperators
    t: float
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    picard_iters: int = 0
    picard_converged: bool = True

    @property
    def eps(self) -> float:
        return self.ops.eps

    def nodal(self) -> np.ndarray:
        return self.ops.dofmap.expand(self.u)

    @functools.cached_property
    def _v_mass_v(self) -> float:
        return float(self.v @ self.ops.mass.matvec(self.v))

    @functools.cached_property
    def _u_stiffness_u(self) -> float:
        return float(self.u @ self.ops.stiffness.matvec(self.u))

    @functools.cached_property
    def _u_strain_u(self) -> float:
        return float(self.u @ self.ops.strain_energy.matvec(self.u))

    def scaled_velocity_norm(self) -> float:
        return float(np.sqrt(max(self._v_mass_v, 0.0)) / np.sqrt(self.eps))

    def scaled_strain_norm(self) -> float:
        return float(np.sqrt(max(self._u_strain_u, 0.0)) / self.eps**1.5)

    def energies(self):
        return 0.5 * self._v_mass_v, 0.5 * self._u_stiffness_u


def assemble_micro(lmesh: LayerMesh, tensor: ElasticityTensor4, eps: float,
                   loads: LoadModel | None = None) -> MicroOperators:
    """Mass and eps^-2-scaled stiffness with Dirichlet on the lateral
    boundary, plus the fixed interior-surface traction vector."""
    if abs(eps - lmesh.eps) > 1e-12:
        raise InconsistentMesh("eps does not match the layer mesh")
    # before the assembly: its temporaries would otherwise add to the peak
    # memory of the first load vector
    inplane = _inplane_points(lmesh, np.arange(lmesh.n_elems))
    dofmap = DofMap(lmesh, ncomp=3, dirichlet_nodes=lmesh.dirichlet_nodes)
    mass = fem.assemble_mass(lmesh, dofmap)
    k = fem.assemble_elasticity(lmesh, tensor, dofmap)
    stiffness = SymmetricOperator(k.matrix * (1.0 / eps**2))
    k_d = fem.assemble_elasticity(lmesh, ElasticityTensor4.identity(), dofmap)

    quad_x = fem.quadrature_points(lmesh)
    quad_y = quad_x / eps
    quad_y[..., 0] %= 1.0
    quad_y[..., 1] %= 1.0

    surface_rhs = np.zeros(dofmap.n_dofs)
    if loads is not None and lmesh.gamma_faces.shape[0]:
        spts, sw = fem.surface_quadrature(lmesh, lmesh.gamma_faces)
        sy = spts / eps
        sy[:, 0] %= 1.0
        sy[:, 1] %= 1.0
        tract = np.stack([
            loads.eval_g(0, spts[:, 0], spts[:, 1], sy[:, 0], sy[:, 1], sy[:, 2]),
            loads.eval_g(1, spts[:, 0], spts[:, 1], sy[:, 0], sy[:, 1], sy[:, 2]),
            eps * loads.eval_g(2, spts[:, 0], spts[:, 1], sy[:, 0], sy[:, 1], sy[:, 2]),
        ], axis=-1)
        surface_rhs = -fem.surface_load_vector(lmesh, dofmap, lmesh.gamma_faces, tract)

    return MicroOperators(lmesh=lmesh, dofmap=dofmap, eps=eps, mass=mass,
                          stiffness=stiffness, strain_energy=k_d,
                          quad_x=quad_x, quad_y=quad_y,
                          elem_dofs=dofmap.element_dofs(lmesh.elems),
                          surface_rhs=surface_rhs, inplane=inplane)


def zero_micro_state(ops: MicroOperators) -> MicroState:
    n = ops.dofmap.n_dofs
    return MicroState(ops=ops, t=0.0, u=np.zeros(n), v=np.zeros(n), a=np.zeros(n))


def _volume_rhs(ops: MicroOperators, loads: LoadModel, t: float,
                u3_quad: np.ndarray) -> np.ndarray:
    """Load vector of the scaled volume force (f1/eps, f2/eps, f3).

    A force that depends on neither y nor z is a function of (t, x1, x2):
    it is evaluated once per distinct in-plane point and gathered down the
    columns."""
    eps = ops.eps
    x = ops.quad_x
    y = ops.quad_y
    E, Q = x.shape[:2]
    fvals = np.empty((E, Q, 3))
    if loads.f_depends_y or loads.f_depends_z:
        for i in range(3):
            fvals[..., i] = loads.eval_f(i, t, x[..., 0], x[..., 1],
                                         y[..., 0], y[..., 1], y[..., 2], u3_quad)
    else:
        pts, index = ops.inplane
        for i in range(3):
            vals = loads.eval_f(i, t, pts[:, 0], pts[:, 1], 0.0, 0.0, 0.0, 0.0)
            fvals[..., i] = vals[index].reshape(E, Q)
    fvals[..., 0] /= eps
    fvals[..., 1] /= eps
    N, _, w, _ = fem.hex_reference(ops.lmesh.spacing)
    local = ((w[:, None] * N).T @ fvals).reshape(E, -1)  # sum_q w_q N_a(q) f_c(q)
    return fem.scatter_vector(local, ops.elem_dofs, ops.dofmap.n_dofs)


def micro_rhs(ops: MicroOperators, loads: LoadModel, t: float,
              u_nodal: np.ndarray) -> np.ndarray:
    u3_quad = fem.element_values(ops.lmesh, u_nodal[:, 2:])[..., 0]
    return _volume_rhs(ops, loads, t, u3_quad) + ops.surface_rhs


def micro_step(state: MicroState, dt: float, loads: LoadModel,
               beta: float = 0.25, gamma: float = 0.5,
               picard_tol: float = 1e-10, picard_max: int = 30,
               tol: float = 1e-11, k_eff: SymmetricOperator | None = None) -> MicroState:
    """One Newmark step of the scaled micro model with Picard resolution of
    the semi-linear volume force."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ops = state.ops
    t_new = state.t + dt
    if k_eff is None:
        k_eff = effective_operator(ops, dt, beta)
    u_pred = state.u + dt * state.v + dt * dt * (0.5 - beta) * state.a
    ku_pred = ops.stiffness.matvec(u_pred)

    u_iter = u_pred.copy()
    a_new = state.a.copy()
    converged = False
    iters = 0
    for iters in range(1, picard_max + 1):
        rhs = micro_rhs(ops, loads, t_new, ops.dofmap.expand(u_iter)) - ku_pred
        a_new = fem.solve_spd(k_eff, rhs, tol=tol, x0=a_new,
                              max_iter=max(4000, 40 * int(np.sqrt(rhs.shape[0])) + 200))
        u_new = u_pred + beta * dt * dt * a_new
        delta = np.linalg.norm(u_new - u_iter) / max(np.linalg.norm(u_new), 1e-30)
        u_iter = u_new
        if not loads.f_depends_z or delta <= picard_tol:
            converged = True
            break
    v_new = state.v + dt * ((1.0 - gamma) * state.a + gamma * a_new)
    return MicroState(ops=ops, t=t_new, u=u_iter, v=v_new, a=a_new,
                      picard_iters=iters, picard_converged=converged)


def effective_operator(ops: MicroOperators, dt: float, beta: float = 0.25):
    return SymmetricOperator(ops.mass.matrix + (beta * dt * dt) * ops.stiffness.matrix)


@dataclass
class MicroTrajectory:
    ops: MicroOperators
    rows: list = field(default_factory=list)
    states: list = field(default_factory=list)

    HEADER = ["t", "apriori_v", "apriori_D", "kinetic", "elastic", "picard_iters"]


def run_micro(ops: MicroOperators, loads: LoadModel, dt: float, t_end: float,
              beta: float = 0.25, gamma: float = 0.5, picard_tol: float = 1e-10,
              picard_max: int = 30, tol: float = 1e-11,
              store_states: bool = False, on_state=None) -> MicroTrajectory:
    """Integrate from zero initial data; records the scaled a priori
    quantities and the discrete energies per step."""
    traj = MicroTrajectory(ops=ops)
    state = zero_micro_state(ops)
    rhs0 = micro_rhs(ops, loads, 0.0, ops.dofmap.expand(state.u))
    a0 = fem.solve_spd(ops.mass, rhs0, tol=tol)
    state = replace(state, a=a0)
    k_eff = effective_operator(ops, dt, beta)

    def record(st: MicroState):
        kin, ela = st.energies()
        traj.rows.append([st.t, st.scaled_velocity_norm(), st.scaled_strain_norm(),
                          kin, ela, st.picard_iters])
        if store_states:
            traj.states.append(st)
        if on_state is not None:
            on_state(st)

    record(state)
    for _ in range(int(round(t_end / dt))):
        state = micro_step(state, dt, loads, beta=beta, gamma=gamma,
                           picard_tol=picard_tol, picard_max=picard_max,
                           tol=tol, k_eff=k_eff)
        record(state)
    traj.final = state
    return traj


def apriori_check(traj: MicroTrajectory) -> dict:
    """Per-step scaled quantities of the energy estimate and their maxima."""
    rows = np.asarray(traj.rows, dtype=float)
    return {
        "t": rows[:, 0],
        "apriori_v": rows[:, 1],
        "apriori_D": rows[:, 2],
        "max_apriori_v": float(rows[:, 1].max()),
        "max_apriori_D": float(rows[:, 2].max()),
    }


# ---------------------------------------------------------------------------
# vertical moments
# ---------------------------------------------------------------------------

@dataclass
class MomentColumns:
    """Vertical moment operator at fixed in-plane points.

    ``operator`` (2P, n_nodes) maps a nodal field to, per point, its
    integral along the solid part of the vertical line through the point
    (rows 0..P-1) and the integral of x3 times it (rows P..2P-1): the
    trilinear shape values at the two Gauss depths of every voxel layer the
    line meets in the solid, times the quadrature weight.
    """

    pts: np.ndarray
    operator: sp.csr_matrix

    @classmethod
    def build(cls, lmesh: LayerMesh, pts: np.ndarray) -> "MomentColumns":
        vox = lmesh.voxel_elems
        (a1, b1, a2, b2) = lmesh.sigma
        h = lmesh.spacing[0]
        i1 = np.clip(((pts[:, 0] - a1) / h).astype(np.int64), 0, vox.shape[0] - 1)
        i2 = np.clip(((pts[:, 1] - a2) / h).astype(np.int64), 0, vox.shape[1] - 1)
        xi1 = (pts[:, 0] - a1) / h - i1
        xi2 = (pts[:, 1] - a2) / h - i2
        elem = vox[i1, i2]  # (P, layers)
        point, l3 = np.nonzero(elem >= 0)
        hits = np.bincount(point, minlength=pts.shape[0])
        if (hits == 0).any():
            raise EmptyColumn(f"{int((hits == 0).sum())} vertical lines meet no solid")
        g = 0.5 / np.sqrt(3.0)
        xg = np.array([0.5 - g, 0.5 + g])
        corners = HEX_CORNERS.astype(bool)
        # in-plane shape factors (hits, 8) and vertical ones (2 depths, 8)
        sxy = (np.where(corners[:, 0], xi1[point, None], 1.0 - xi1[point, None])
               * np.where(corners[:, 1], xi2[point, None], 1.0 - xi2[point, None]))
        sz = np.where(corners[:, 2], xg[:, None], 1.0 - xg[:, None])
        wq = 0.5 * h
        shp = wq * sxy[:, None, :] * sz[None, :, :]  # (hits, 2, 8)
        x3 = -lmesh.eps + (l3[:, None] + xg[None, :]) * h  # (hits, 2)
        nodes = np.broadcast_to(lmesh.elems[elem[point, l3]][:, None, :], shp.shape)
        rows = np.broadcast_to(point[:, None, None], shp.shape)
        P = pts.shape[0]
        operator = sp.csr_matrix(
            (np.concatenate([shp.ravel(), (x3[:, :, None] * shp).ravel()]),
             (np.concatenate([rows.ravel(), P + rows.ravel()]),
              np.concatenate([nodes.ravel(), nodes.ravel()]))),
            shape=(2 * P, lmesh.n_nodes))
        return cls(pts=pts.copy(), operator=operator)


def _moment_columns(lmesh: LayerMesh, pts: np.ndarray) -> MomentColumns:
    """Column data of the points, memoized on the mesh for the last points."""
    cols = lmesh.memo.get("moment_columns")
    if cols is None or not np.array_equal(cols.pts, pts):
        cols = lmesh.memo["moment_columns"] = MomentColumns.build(lmesh, pts)
    return cols


def plate_moments(lmesh: LayerMesh, u_nodal: np.ndarray, eps: float,
                  pts: np.ndarray):
    """Vertical zeroth and first moments of the in-plane displacement.

    Returns (U, R) with U = 1/(2 eps^2) int u^alpha dx3 and
    R = 3/(2 eps^3) int x3 u^alpha dx3, integrated over the solid part of
    each vertical line and normalized by the full thickness.
    """
    pts = np.atleast_2d(pts)
    integrals = _moment_columns(lmesh, pts).operator @ u_nodal[:, :2]
    P = pts.shape[0]
    U = integrals[:P] / (2.0 * eps**2)
    R = 3.0 * integrals[P:] / (2.0 * eps**3)
    return U, R


def moment_errors(plate_state: PlateState, lmesh: LayerMesh, u_nodal: np.ndarray,
                  eps: float):
    """L2(Sigma) distances of the vertical averages to the macro fields:
    |U_eps - u1| and |R_eps + grad u03|."""
    system = plate_state.system
    pts = system.quad_xy.reshape(-1, 2)
    wq = np.broadcast_to(system.quad_w, system.quad_xy.shape[:2]).ravel()
    U, R = plate_moments(lmesh, u_nodal, eps, pts)
    u1 = evaluate_membrane(system, plate_state.m, pts)
    _, grad, _ = evaluate_deflection(system, plate_state.w, pts, derivatives=True)
    errU = float(np.sqrt(np.sum(wq[:, None] * (U - u1) ** 2)))
    errR = float(np.sqrt(np.sum(wq[:, None] * (R + grad) ** 2)))
    return errU, errR


# ---------------------------------------------------------------------------
# two-scale error report
# ---------------------------------------------------------------------------

@dataclass
class TwoScaleReport:
    """Scaled distances between the micro solution and the homogenized
    Kirchhoff-Love reconstruction at one (eps, t)."""

    eps: float
    t: float
    err_u3: float
    err_u1: tuple
    err_symgrad: float
    apriori_v: float
    apriori_D: float

    HEADER = ["eps", "t", "err_u3", "err_u1_1", "err_u1_2", "err_symgrad",
              "apriori_v", "apriori_D"]

    def row(self):
        return [self.eps, self.t, self.err_u3, self.err_u1[0], self.err_u1[1],
                self.err_symgrad, self.apriori_v, self.apriori_D]


def _cell_element_lookup(lmesh: LayerMesh, cmesh):
    """Map each layer element to its element in the reference cell mesh."""
    if cmesh.resolution != lmesh.resolution:
        raise InconsistentMesh("cell mesh resolution differs from the layer")
    if cmesh.geometry.digest() != lmesh.geometry.digest():
        raise InconsistentMesh("cell mesh geometry differs from the layer")
    local = lmesh.voxels % cmesh.voxel_elems.shape
    return cmesh.voxel_elems[tuple(local.T)]


def _inplane_points(lmesh: LayerMesh, order: np.ndarray):
    """Distinct in-plane coordinates of the quadrature points of the
    elements ``order`` (indices into the mesh elements) and, per point
    (element-major), the index of its distinct point.

    The points of one vertical column of elements repeat their in-plane
    coordinates, so each point is keyed by integers: its voxel column
    (``lmesh.voxels``) and its in-plane Gauss index.  The keys sort like the
    coordinates, so the result equals ``np.unique(axis=0)`` on the
    coordinate pairs.
    """
    ref = fem.hex_reference(lmesh.spacing)[3]
    keys = []
    for axis in range(2):
        gauss, index = np.unique(ref[:, axis], return_inverse=True)
        keys.append(lmesh.voxels[order, axis, None] * gauss.size + index)
    _, first, inverse = np.unique(keys[0] * (keys[1].max() + 1) + keys[1],
                                  return_index=True, return_inverse=True)
    pts = fem.quadrature_points(lmesh, lmesh.elems[order])[..., :2].reshape(-1, 2)
    return pts[first], inverse.reshape(-1)


@dataclass
class PlateTransfer:
    """Data of the layer-to-plate comparison that no time step changes.

    ``elems`` holds the layer elements ordered by their cell element, so a
    per-point array reshapes to (cell element, cell, quadrature point) and
    meets the cell-size tables without a gather.  The layer quadrature
    points repeat their in-plane coordinates down each column, so the plate
    fields are evaluated once per distinct point (``plate_at``) and gathered
    back through ``inverse``.

    ``limit_strain`` (Ec, Q, 6, 6) maps, per cell element and quadrature
    point, the six plate coefficients (membrane strain, then Hessian, each
    as 11, 22, 12 + 21) to the Mandel limit strain: the Kirchhoff-Love part
    e - y3 H in the plane plus the symmetric gradients of the six cell
    correctors (stretch, then bending, in ``INDEX_PAIRS`` order).
    """

    system: PlateSystem
    sols: CellSolutionSet
    plate_at: PlatePoints
    elems: np.ndarray           # (E, 8) layer elements by cell element
    inverse: np.ndarray         # layer quadrature point -> distinct point
    y3: np.ndarray              # x3 / eps per layer quadrature point
    flat_w: np.ndarray
    limit_strain: np.ndarray

    @classmethod
    def build(cls, ops: MicroOperators, system: PlateSystem,
              sols: CellSolutionSet) -> "PlateTransfer":
        lmesh, cmesh = ops.lmesh, sols.mesh
        cell_elem = _cell_element_lookup(lmesh, cmesh)
        counts = np.bincount(cell_elem[cell_elem >= 0], minlength=cmesh.n_elems)
        if (cell_elem < 0).any() or (counts != lmesh.n_cells).any():
            raise InconsistentMesh("layer elements do not tile whole solid cells")
        order = np.argsort(cell_elem, kind="stable")
        elems = lmesh.elems[order]
        distinct, inverse = _inplane_points(lmesh, order)
        chis = [sols.stretch[ij] for ij in INDEX_PAIRS]
        chis += [sols.bending[ij] for ij in INDEX_PAIRS]
        limit = np.stack([fem.element_fields(cmesh, chi.nodal())[..., 3:]
                          for chi in chis], axis=2)
        y3 = fem.quadrature_points(cmesh)[..., 2]
        limit[..., 0, 0] += 1.0
        limit[..., 1, 1] += 1.0
        limit[..., 2, 5] += np.sqrt(0.5)  # Mandel 12 entry: sqrt(2) (12 + 21) / 2
        limit[..., 3, 0] -= y3
        limit[..., 4, 1] -= y3
        limit[..., 5, 5] -= np.sqrt(0.5) * y3
        return cls(
            system=system, sols=sols,
            plate_at=PlatePoints(system, distinct),
            elems=elems, inverse=inverse,
            y3=(fem.quadrature_points(lmesh, elems)[..., 2] / ops.eps).reshape(-1),
            flat_w=fem.quadrature_weights(lmesh, len(elems)).reshape(-1),
            limit_strain=limit,
        )


def _plate_transfer(ops: MicroOperators, system: PlateSystem,
                    sols: CellSolutionSet) -> PlateTransfer:
    tr = ops.transfer
    if tr is None or tr.system is not system or tr.sols is not sols:
        tr = ops.transfer = PlateTransfer.build(ops, system, sols)
    return tr


def two_scale_errors(micro_state: MicroState, plate_state: PlateState,
                     sols: CellSolutionSet) -> TwoScaleReport:
    """Quadrature evaluation of the scaled two-scale errors over the solid
    layer, with the corrector contribution inside the symmetric-gradient
    term (taken in Mandel form, which keeps the norm)."""
    ops = micro_state.ops
    if abs(micro_state.t - plate_state.t) > 1e-10 * max(1.0, abs(micro_state.t)):
        raise TimeMismatch(
            f"micro t = {micro_state.t} but plate t = {plate_state.t}")
    eps = ops.eps
    tr = _plate_transfer(ops, plate_state.system, sols)
    n_ce, nq = tr.limit_strain.shape[:2]

    # u and the Mandel D(u) at the layer points: (E Q, 9)
    fields = fem.element_fields(ops.lmesh, micro_state.nodal(), tr.elems).reshape(-1, 9)
    wvals, grad, hess = tr.plate_at.deflection(plate_state.w, derivatives=True)
    u1, strain = tr.plate_at.membrane(plate_state.m, derivatives=True)
    plate = np.column_stack([
        wvals, grad, u1,
        strain[:, 0, 0], strain[:, 1, 1], strain[:, 0, 1] + strain[:, 1, 0],
        hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1] + hess[:, 1, 0],
    ])[tr.inverse]
    y3 = tr.y3
    flat_w = tr.flat_w

    du3 = fields[:, 2] - plate[:, 0]
    err_u3 = float(np.sqrt(flat_w @ du3**2 / eps))
    err_u1 = []
    for al in range(2):
        dua = fields[:, al] / eps - (plate[:, 3 + al] - y3 * plate[:, 1 + al])
        err_u1.append(float(np.sqrt(flat_w @ dua**2 / eps)))

    coeff = plate[:, 5:].reshape(n_ce, -1, nq, 6)
    limit = np.einsum("cnqk,cqkm->cnqm", coeff, tr.limit_strain, optimize=True)
    diff = fields[:, 3:] / eps - limit.reshape(-1, 6)
    err_sym = float(np.sqrt(flat_w @ np.einsum("pm,pm->p", diff, diff) / eps))

    return TwoScaleReport(
        eps=eps, t=micro_state.t, err_u3=err_u3,
        err_u1=(err_u1[0], err_u1[1]), err_symgrad=err_sym,
        apriori_v=micro_state.scaled_velocity_norm(),
        apriori_D=micro_state.scaled_strain_norm(),
    )


def kirchhoff_love_field(lmesh: LayerMesh, plate_state: PlateState,
                         eps: float) -> np.ndarray:
    """Nodal micro field of the exact Kirchhoff-Love ansatz
    u3 = w(xbar), u_alpha = eps u1_alpha - x3 d_alpha w."""
    system = plate_state.system
    pts = lmesh.coords[:, :2]
    x3 = lmesh.coords[:, 2]
    wvals, grad, _ = evaluate_deflection(system, plate_state.w, pts,
                                         derivatives=True)
    u1 = evaluate_membrane(system, plate_state.m, pts)
    out = np.empty((lmesh.n_nodes, 3))
    out[:, 0] = eps * u1[:, 0] - x3 * grad[:, 0]
    out[:, 1] = eps * u1[:, 1] - x3 * grad[:, 1]
    out[:, 2] = wvals
    return out
