"""Reference solver on the perforated thin layer and two-scale diagnostics.

The semi-linear elastic wave equation is integrated in its eps-scaled weak
form (mass unweighted, stiffness carrying 1/eps^2, loads with the explicit
eps factors on the vertical components), by the Newmark-Picard scheme of
``newmark`` with the acceleration solve of ``micro_step``.  Diagnostics
compare the micro solution against the homogenized plate fields: vertical
averages, scaled displacement errors and the scaled symmetric-gradient error
including the cell corrector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import fem, newmark
from .cell import PROBLEMS, CellSolutionSet
from .errors import EmptyColumn, InconsistentMesh, TimeMismatch
from .fem import DofMap, ElasticityTensor4, SymmetricOperator
from .geometry import HEX_CORNERS, LayerMesh, _locate
from .loads import LoadModel
from .plate import (PlatePoints, PlateState, PlateSystem, evaluate_deflection,
                    evaluate_membrane)


@dataclass
class MicroOperators:
    """Operators and cached quadrature data for one eps.  The operators are
    element matrices (``fem.ElementMatrix``) over the one dof table and
    scatter pattern of ``mass``."""

    lmesh: LayerMesh
    dofmap: DofMap
    eps: float
    tensor: ElasticityTensor4
    mass: SymmetricOperator
    stiffness: SymmetricOperator      # eps^-2 int A_eps D(u):D(phi)
    strain: SymmetricOperator         # plain int D(u):D(phi), for norms
    quad_x: np.ndarray                # (E, Q, 3) physical points
    quad_y: np.ndarray                # (E, Q, 3) cell coordinates x/eps mod 1
    surface_rhs: np.ndarray           # fixed traction contribution
    # distinct in-plane coordinates of the quadrature points and, per point
    # (element-major, as quad_x), the index of its distinct one
    inplane: tuple


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
        return float(self.u @ self.ops.strain.matvec(self.u))

    def scaled_velocity_norm(self) -> float:
        return float(np.sqrt(max(self._v_mass_v, 0.0)) / np.sqrt(self.eps))

    def scaled_strain_norm(self) -> float:
        return float(np.sqrt(max(self._u_strain_u, 0.0)) / self.eps**1.5)

    def energies(self):
        return 0.5 * self._v_mass_v, 0.5 * self._u_stiffness_u


def assemble_micro(lmesh: LayerMesh, tensor: ElasticityTensor4, eps: float,
                   loads: LoadModel) -> MicroOperators:
    """Mass and eps^-2-scaled stiffness with Dirichlet on the lateral
    boundary, as element matrices, plus the fixed interior-surface traction
    vector."""
    if abs(eps - lmesh.eps) > 1e-12:
        raise InconsistentMesh("eps does not match the layer mesh")
    dofmap = DofMap(lmesh, ncomp=3, dirichlet_nodes=lmesh.dirichlet_nodes)
    h = lmesh.spacing
    mass = fem.ElementMatrix(fem.mass_element(h, 3), dofmap.element_dofs(lmesh.elems),
                             dofmap.n_dofs)

    quad_x = fem.quadrature_points(lmesh)
    quad_y = quad_x / eps
    quad_y[..., :2] %= 1.0

    surface_rhs = np.zeros(dofmap.n_dofs)
    if lmesh.gamma_faces.shape[0]:
        spts, sw = fem.surface_quadrature(lmesh, lmesh.gamma_faces)
        sy = spts / eps
        sy[:, :2] %= 1.0
        tract = np.stack([loads.eval_g(i, spts[:, 0], spts[:, 1], *sy.T)
                          for i in range(3)], axis=-1)
        tract[:, 2] *= eps
        surface_rhs = -fem.surface_load_vector(lmesh, dofmap, lmesh.gamma_faces, tract)

    return MicroOperators(
        lmesh=lmesh, dofmap=dofmap, eps=eps, tensor=tensor, mass=SymmetricOperator(mass),
        stiffness=SymmetricOperator(
            mass.with_local(fem.elasticity_element(h, tensor) * (1.0 / eps**2))),
        strain=SymmetricOperator(
            mass.with_local(fem.elasticity_element(h, ElasticityTensor4.identity()))),
        quad_x=quad_x, quad_y=quad_y, surface_rhs=surface_rhs,
        inplane=_inplane_points(lmesh, quad_x))


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
    fvals[..., :2] /= eps
    N, _, w, _ = fem.hex_reference(ops.lmesh.spacing)
    local = ((w[:, None] * N).T @ fvals).reshape(E, -1)  # sum_q w_q N_a(q) f_c(q)
    return ops.mass.matrix.scatter(local)  # through the operators' element table


def micro_rhs(ops: MicroOperators, loads: LoadModel, t: float,
              u_nodal: np.ndarray) -> np.ndarray:
    u3_quad = fem.element_values(ops.lmesh, u_nodal[:, 2:])[..., 0]
    return _volume_rhs(ops, loads, t, u3_quad) + ops.surface_rhs


def micro_step(state: MicroState, dt: float, loads: LoadModel,
               k_eff: SymmetricOperator, precond: fem.FilledLayer, beta: float = 0.25,
               gamma: float = 0.5, picard_tol: float = 1e-10, picard_max: int = 30,
               tol: float = 1e-11) -> MicroState:
    """One Newmark step (``newmark``) of the scaled micro model: each Picard
    sweep solves (M + beta dt^2 K) a = F(u) - K u_pred on the caller's
    ``effective_operator``, preconditioned by its ``newmark_preconditioner``,
    from u = u_pred."""
    ops = state.ops
    u_pred = newmark.predictor(state.u, state, dt, beta)
    ku_pred = ops.stiffness.matvec(u_pred)

    def sweep(u, a):
        rhs = micro_rhs(ops, loads, state.t + dt, ops.dofmap.expand(u)) - ku_pred
        a = fem.solve_spd(k_eff, rhs, tol=tol, x0=a, precond=precond)
        return u_pred + beta * dt * dt * a, a

    u, a, iters, converged = newmark.picard(sweep, u_pred, state.a, loads.f_depends_z,
                                            picard_tol, picard_max)
    return newmark.advance(state, dt, gamma, a, iters, converged, u=u)


def effective_operator(ops: MicroOperators, dt: float,
                       beta: float = 0.25) -> SymmetricOperator:
    """M + beta dt^2 K: the element matrix M_e + beta dt^2 K_e on the same
    dof table and scatter pattern."""
    m, k = ops.mass.matrix, ops.stiffness.matrix
    return SymmetricOperator(m.with_local(m.local + (beta * dt * dt) * k.local))


def newmark_preconditioner(ops: MicroOperators, dt: float,
                           beta: float = 0.25) -> fem.FilledLayer:
    """The pore-filled clamped layer of M + beta dt^2 K: unit mass and the
    stiffness weight beta dt^2 / eps^2 (``fem.FilledLayer``)."""
    return fem.FilledLayer(ops.lmesh, ops.dofmap, ops.tensor, 1.0,
                           beta * dt * dt / ops.eps**2)


# the columns of the rows of ``run_micro``
TRAJECTORY_HEADER = ["t", "apriori_v", "apriori_D", "kinetic", "elastic", "picard_iters"]


def run_micro(ops: MicroOperators, loads: LoadModel, dt: float, t_end: float,
              beta: float = 0.25, gamma: float = 0.5, picard_tol: float = 1e-10,
              picard_max: int = 30, tol: float = 1e-11,
              store_states: bool = False) -> newmark.Trajectory:
    """Integrate from zero initial data; records the scaled a priori
    quantities and the discrete energies per step."""
    n_steps = newmark.steps(dt, t_end)
    state = zero_micro_state(ops)
    rhs0 = micro_rhs(ops, loads, 0.0, ops.dofmap.expand(state.u))
    state = replace(state, a=fem.solve_spd(ops.mass, rhs0, tol=tol))
    k_eff = effective_operator(ops, dt, beta)
    precond = newmark_preconditioner(ops, dt, beta)
    return newmark.run(
        state, lambda st: micro_step(st, dt, loads, k_eff, precond, beta=beta, gamma=gamma,
                                     picard_tol=picard_tol, picard_max=picard_max,
                                     tol=tol), n_steps,
        lambda st: [st.t, st.scaled_velocity_norm(), st.scaled_strain_norm(),
                    *st.energies(), st.picard_iters], store_states)


# ---------------------------------------------------------------------------
# vertical moments
# ---------------------------------------------------------------------------

@dataclass
class MomentColumns:
    """Vertical moment operator at fixed in-plane points.

    ``operator`` (2P, n_nodes) maps a nodal field to, per point, its
    integral along the solid part of the vertical line through the point
    (rows 0..P-1) and the integral of x3 times it (rows P..2P-1): per voxel
    layer the line meets in the solid, the trilinear shape values times the
    quadrature weight summed over the layer's two Gauss depths, which share
    its eight nodes.
    """

    pts: np.ndarray
    operator: sp.csr_matrix

    @classmethod
    def build(cls, lmesh: LayerMesh, pts: np.ndarray) -> "MomentColumns":
        vox = lmesh.voxel_elems
        h = lmesh.spacing[0]
        i, local = _locate(pts, lmesh.sigma, lmesh.spacing, vox.shape)
        (i1, i2), (xi1, xi2) = i.T, local.T
        elem = vox[i1, i2]  # (P, layers)
        point, l3 = np.nonzero(elem >= 0)
        hits = np.bincount(point, minlength=pts.shape[0])
        if (hits == 0).any():
            raise EmptyColumn(f"{int((hits == 0).sum())} vertical lines meet no solid")
        xg = (np.array(fem._GAUSS) + 1.0) / 2.0  # on [0, 1]
        corners = HEX_CORNERS.astype(bool)
        # in-plane shape factors (hits, 8) and vertical ones (2 depths, 8)
        sxy = (np.where(corners[:, 0], xi1[point, None], 1.0 - xi1[point, None])
               * np.where(corners[:, 1], xi2[point, None], 1.0 - xi2[point, None]))
        sz = np.where(corners[:, 2], xg[:, None], 1.0 - xg[:, None])
        wq = 0.5 * h
        x3 = -lmesh.eps + (l3[:, None] + xg[None, :]) * h  # (hits, 2)
        # the depth sums: of the shape values, and of x3 times them
        values = np.concatenate([wq * sxy * sz.sum(axis=0), wq * sxy * (x3 @ sz)])
        # the hits come point by point, so each row is a run of 8 hits
        # entries, and a node shared by two voxel layers occurs twice in it
        nodes = lmesh.elems[elem[point, l3]].ravel()
        indptr = np.concatenate([[0], np.cumsum(np.tile(8 * hits, 2))])
        P = pts.shape[0]
        operator = sp.csr_matrix((values.ravel(), np.concatenate([nodes, nodes]), indptr),
                                 shape=(2 * P, lmesh.n_nodes))
        operator.sum_duplicates()
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


def _inplane_points(lmesh: LayerMesh, quad_x: np.ndarray):
    """Distinct in-plane coordinates of the layer quadrature points
    ``quad_x`` (E, Q, 3) and, per point (element-major), the index of its
    distinct point.

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
        keys.append(lmesh.voxels[:, axis, None] * gauss.size + index)
    _, first, inverse = np.unique(keys[0] * (keys[1].max() + 1) + keys[1],
                                  return_index=True, return_inverse=True)
    return quad_x[..., :2].reshape(-1, 2)[first], inverse.reshape(-1)


@dataclass
class PlateTransfer:
    """Data of the layer-to-plate comparison that no time step changes.

    ``order`` lists the layer elements by their cell element, so a
    per-point array taken in that order reshapes to (cell element, cell,
    quadrature point) and meets the cell-size tables without a gather.  The
    layer quadrature points repeat their in-plane coordinates down each
    column, so the plate fields are evaluated once per distinct point of
    ``MicroOperators.inplane`` (``plate_at``) and gathered back through that
    table's point map, taken in ``order``.  The layer points of a cell element
    sit at the depths y3 = x3 / eps of the cell's own points (``y3``,
    (Ec, Q)), and every layer point has the one hex weight ``weight``.

    ``limit_strain`` (Ec, Q, 6, 6) maps, per cell element and quadrature
    point, the six plate coefficients (membrane strain, then Hessian, each
    as 11, 22, 12 + 21) to the Mandel limit strain: the Kirchhoff-Love part
    e - y3 H in the plane plus the symmetric gradients of the six cell
    correctors, coefficient c taking the corrector in row c of
    ``sols.values`` (``cell.PROBLEMS`` order: stretch, then bending, each
    over 11, 22, 12).
    """

    system: PlateSystem
    sols: CellSolutionSet
    plate_at: PlatePoints
    order: np.ndarray           # (E,) layer elements by cell element
    y3: np.ndarray              # (Ec, Q) depths of the cell quadrature points
    weight: float
    limit_strain: np.ndarray

    @classmethod
    def build(cls, ops: MicroOperators, system: PlateSystem,
              sols: CellSolutionSet) -> "PlateTransfer":
        lmesh, cmesh = ops.lmesh, sols.mesh
        cell_elem = _cell_element_lookup(lmesh, cmesh)
        counts = np.bincount(cell_elem[cell_elem >= 0], minlength=cmesh.n_elems)
        if (cell_elem < 0).any() or (counts != lmesh.n_cells).any():
            raise InconsistentMesh("layer elements do not tile whole solid cells")
        limit = np.stack([fem.gradient_decomposition(cmesh, sols.nodal(c))
                          for c in range(len(PROBLEMS))], axis=2)
        y3 = fem.quadrature_points(cmesh)[..., 2]
        limit[..., [0, 1], [0, 1]] += 1.0
        limit[..., 2, 5] += np.sqrt(0.5)  # Mandel 12 entry: sqrt(2) (12 + 21) / 2
        limit[..., [3, 4], [0, 1]] -= y3[..., None]
        limit[..., 5, 5] -= np.sqrt(0.5) * y3
        return cls(
            system=system, sols=sols,
            plate_at=PlatePoints(system, ops.inplane[0]),
            order=np.argsort(cell_elem, kind="stable"), y3=y3,
            weight=float(fem.hex_reference(lmesh.spacing)[2][0]),  # all are equal
            limit_strain=limit,
        )


def _plate_transfer(ops: MicroOperators, system: PlateSystem,
                    sols: CellSolutionSet) -> PlateTransfer:
    """Transfer data memoized on the layer mesh for the last system and cells."""
    memo = ops.lmesh.memo
    tr = memo.get("plate_transfer")
    if tr is None or tr.system is not system or tr.sols is not sols:
        tr = memo["plate_transfer"] = PlateTransfer.build(ops, system, sols)
    return tr


# Layer quadrature points per block of ``two_scale_errors``.  Its
# temporaries take about 40 floats per point, so a block holds them near
# 2.6 MB at every eps, where the whole layer at once took 19 MB at eps 1/8
# and 75 MB at eps 1/16; blocks this long keep the loop's own cost out of
# the timings.
_BLOCK_POINTS = 8192


def two_scale_errors(micro_state: MicroState, plate_state: PlateState,
                     sols: CellSolutionSet) -> TwoScaleReport:
    """Quadrature evaluation of the scaled two-scale errors over the solid
    layer, with the corrector contribution inside the symmetric-gradient
    term (taken in Mandel form, which keeps the norm).  The plate is
    evaluated once at the distinct in-plane points; the comparison runs
    over blocks of consecutive cell elements of ``PlateTransfer.order``."""
    ops = micro_state.ops
    if abs(micro_state.t - plate_state.t) > 1e-10 * max(1.0, abs(micro_state.t)):
        raise TimeMismatch(
            f"micro t = {micro_state.t} but plate t = {plate_state.t}")
    eps = ops.eps
    tr = _plate_transfer(ops, plate_state.system, sols)
    n_ce, nq = tr.limit_strain.shape[:2]
    lmesh = ops.lmesh
    n_cells = lmesh.n_cells
    step = max(1, _BLOCK_POINTS // (n_cells * nq))  # cell elements per block
    point_of = ops.inplane[1].reshape(-1, nq)  # (E, Q) distinct-point indices

    nodal = micro_state.nodal()
    wvals, grad, hess = tr.plate_at.deflection(plate_state.w, derivatives=True)
    u1, strain = tr.plate_at.membrane(plate_state.m, derivatives=True)
    plate = np.column_stack([
        wvals, grad, u1,
        strain[:, 0, 0], strain[:, 1, 1], strain[:, 0, 1] + strain[:, 1, 0],
        hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1] + hess[:, 1, 0],
    ])

    sums = np.zeros(4)  # of du3^2, du1^2, du2^2 and |diff|^2
    for c0 in range(0, n_ce, step):
        c1 = min(c0 + step, n_ce)
        block = tr.order[c0 * n_cells:c1 * n_cells]  # the block's layer elements
        shape = (c1 - c0, n_cells, nq)
        # u and the Mandel D(u), and the plate columns at the same points
        fields = fem.element_fields(lmesh, nodal, lmesh.elems[block]).reshape(*shape, 9)
        at = plate[point_of[block]].reshape(*shape, 11)
        y3 = tr.y3[c0:c1, None, :]

        du3 = fields[..., 2] - at[..., 0]
        sums[0] += np.vdot(du3, du3)
        for al in range(2):
            dua = fields[..., al] / eps - (at[..., 3 + al] - y3 * at[..., 1 + al])
            sums[1 + al] += np.vdot(dua, dua)
        limit = np.einsum("cnqk,cqkm->cnqm", at[..., 5:], tr.limit_strain[c0:c1],
                          optimize=True)
        diff = fields[..., 3:] / eps - limit
        sums[3] += np.vdot(diff, diff)
    err = np.sqrt(tr.weight * sums / eps)

    return TwoScaleReport(
        eps=eps, t=micro_state.t, err_u3=float(err[0]),
        err_u1=(float(err[1]), float(err[2])), err_symgrad=float(err[3]),
        apriori_v=micro_state.scaled_velocity_norm(),
        apriori_D=micro_state.scaled_strain_norm(),
    )
