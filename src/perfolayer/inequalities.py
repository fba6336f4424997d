"""Best-constant estimates for the eps-uniform inequalities of the layer.

Each constant is the extremal value of a Rayleigh quotient between two
assembled quadratic forms and is computed by the block LOBPCG eigensolver of
the fem module.  Korn's clamped strain energy is preconditioned by the
pore-filled clamped layer (``fem.FilledLayer``); the trace and extension
problems keep Jacobi, since the trace space has free lateral void nodes
outside that layer.  Estimates are always reported together with the mesh
resolution; no continuum extrapolation is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import SolverFailure
from .fem import DofMap, ElasticityTensor4, SymmetricOperator
from .geometry import LayerMesh, build_layer_mesh


@dataclass
class ConstantEstimate:
    inequality: str
    eps: float
    resolution: int
    constant: float
    residual: float


@dataclass
class ConstantSweep:
    rows: list

    HEADER = ["inequality", "eps", "n", "constant", "residual"]

    def table(self):
        return [[r.inequality, r.eps, r.resolution, r.constant, r.residual]
                for r in self.rows]


def korn_constant(lmesh: LayerMesh, eps: float, tol: float = 1e-8,
                  seed: int = 0) -> ConstantEstimate:
    """Best constant of the clamped Korn inequality on the perforated layer.

    The weighted norm carries eps^-2 on the in-plane components and in-plane
    derivatives and weight one on the vertical component and the remaining
    gradient entries; the returned constant is eps / sqrt(lambda_min), so the
    inequality reads (weighted norm) <= (C / eps) |D(u)|.  The eigensolver
    is preconditioned by the stiffness of the pore-filled clamped layer
    with the identity tensor (``fem.FilledLayer``).
    """
    iw = 1.0 / eps**2
    grad_w = [[iw, iw, 1.0], [iw, iw, 1.0], [1.0, 1.0, 1.0]]
    h = lmesh.spacing
    ident = ElasticityTensor4.identity()
    dofmap = DofMap(lmesh, ncomp=3, dirichlet_nodes=lmesh.dirichlet_nodes)
    a, b = fem.assemble_forms(lmesh, dofmap, [
        fem.elasticity_element(h, ident),
        fem.component_element(h, (iw, iw, 1.0), grad_w)])
    return _clamped_constant("korn", lmesh, eps, lambda value: eps * float(np.sqrt(value)),
                             tol, seed, SymmetricOperator(a), SymmetricOperator(b),
                             fem.FilledLayer(lmesh, dofmap, ident, 0.0, 1.0))


def trace_constant(lmesh: LayerMesh, eps: float, tol: float = 1e-8,
                   seed: int = 0) -> ConstantEstimate:
    """Constant of the lateral trace estimate on the complete layer.

    Requires a mesh built with the void elements included: the field lives
    on the whole layer, vanishes on the solid part of the lateral boundary
    and is measured on the entire lateral surface.  The reported constant is
    the norm ratio scaled by eps^-1/2.
    """
    if (lmesh.voxel_elems < 0).any():
        raise SolverFailure("trace estimate needs the mesh with voids included")
    dofmap = DofMap(lmesh, ncomp=3, dirichlet_nodes=lmesh.dirichlet_nodes)
    return _clamped_constant("trace", lmesh, eps,
                             lambda value: float(np.sqrt(max(value, 0.0))) / np.sqrt(eps),
                             tol, seed,
                             fem.assemble_elasticity(lmesh, ElasticityTensor4.identity(), dofmap),
                             fem.assemble_surface_mass(lmesh, dofmap, lmesh.lateral_faces),
                             None)


def _clamped_constant(inequality: str, lmesh: LayerMesh, eps: float, scale, tol: float,
                      seed: int, a_op: SymmetricOperator, b_op: SymmetricOperator,
                      precond) -> ConstantEstimate:
    """``scale`` of the largest quotient of the form ``b_op`` over the
    strain energy ``a_op`` = |D(u)|^2, u clamped on the solid lateral
    boundary, by LOBPCG with ``precond`` (None: Jacobi)."""
    res = fem.max_rayleigh_pair(b_op.matvec, a_op.matvec, a_op.diagonal(),
                                tol=tol, seed=seed, precond=precond)
    return ConstantEstimate(inequality, eps, lmesh.resolution, scale(res.value),
                            res.residual)


# ---------------------------------------------------------------------------
# energy-minimizing extension
# ---------------------------------------------------------------------------

@dataclass
class ExtensionProblem:
    """Forms of the void extension on a full-layer mesh: the full energy on
    ``dofmap``, the solid energy and mass on ``solid_dofs`` (the dofs of
    nodes touching a solid element), and the void rows of the full energy
    on the void and the solid columns."""

    lmesh: LayerMesh
    dofmap: DofMap
    solid_dofs: np.ndarray
    void_dofs: np.ndarray
    full_energy: sp.csr_matrix
    solid_energy: sp.csr_matrix
    solid_mass: sp.csr_matrix
    void_vv: sp.csr_matrix
    void_vs: sp.csr_matrix


def extension_problem(lmesh: LayerMesh) -> ExtensionProblem:
    """Two assemblies, each on the numbering that reads it: the solid forms
    over the solid elements with the void-only nodes eliminated, so they
    come out on ``solid_dofs`` in order, and the energy over every element,
    whose void rows hold the void energy alone (a void dof touches only
    void elements)."""
    dofmap = DofMap(lmesh, ncomp=3)
    solid_elems = lmesh.elems[lmesh.solid]
    void_nodes = np.ones(lmesh.n_nodes, dtype=bool)
    void_nodes[solid_elems] = False
    solid_dofs = np.nonzero(np.repeat(~void_nodes, 3))[0]
    void_dofs = np.nonzero(np.repeat(void_nodes, 3))[0]
    ident = ElasticityTensor4.identity()
    solid_energy, solid_mass = fem.assemble_forms(
        lmesh, DofMap(lmesh, ncomp=3, dirichlet_nodes=np.nonzero(void_nodes)[0]),
        [fem.elasticity_element(lmesh.spacing, ident), fem.mass_element(lmesh.spacing, 3)],
        elems=solid_elems)
    full_energy = fem.assemble_elasticity(lmesh, ident, dofmap).matrix
    void_rows = full_energy[void_dofs]
    return ExtensionProblem(
        lmesh=lmesh, dofmap=dofmap, solid_dofs=solid_dofs, void_dofs=void_dofs,
        full_energy=full_energy, solid_energy=solid_energy, solid_mass=solid_mass,
        void_vv=void_rows[:, void_dofs], void_vs=void_rows[:, solid_dofs])


def extend_field(prob: ExtensionProblem, solid: np.ndarray) -> np.ndarray:
    """Energy-minimizing extension of solid values into the void.

    ``solid`` holds values on the solid dofs, (n_solid,) or a (k, n_solid)
    block of k rows; the result holds the full-layer dofs, (n_dofs,) or
    (k, n_dofs), with the solid values unchanged and the void values
    minimizing the void strain energy with the solid values as Dirichlet
    data (one block solve, to a relative residual of 1e-12, within
    ``fem.solve_spd``'s default iteration cap)."""
    full = np.zeros(solid.shape[:-1] + (prob.dofmap.n_dofs,))
    full[..., prob.solid_dofs] = solid
    if prob.void_dofs.size:
        full[..., prob.void_dofs] = fem.solve_spd(
            SymmetricOperator(prob.void_vv), -fem._rows_product(prob.void_vs, solid), tol=1e-12)
    return full


def _orthonormal_rigid(prob: ExtensionProblem) -> np.ndarray:
    """Rigid modes on the solid dofs, orthonormalized against the solid mass
    by the Cholesky factor of their Gram matrix (which raises on a
    dependent set)."""
    modes = fem.rigid_modes(prob.lmesh.coords).reshape(6, -1)[:, prob.solid_dofs]
    low = np.linalg.cholesky(modes @ (prob.solid_mass @ modes.T))
    return np.linalg.solve(low, modes)


def extension_norm(prob: ExtensionProblem, tol: float = 1e-8,
                   seed: int = 0) -> ConstantEstimate:
    """Operator norm of the energy-minimizing extension on the quotient
    modulo rigid displacements: sup |D(Ev)| / |D(v)|.

    Exactly one on an unperforated layer (the extension is the identity).
    """
    lmesh = prob.lmesh
    if prob.void_dofs.size == 0:
        return ConstantEstimate("extension", lmesh.eps, lmesh.resolution, 1.0, 0.0)
    rigid = _orthonormal_rigid(prob)
    m = prob.solid_mass
    s = prob.solid_energy
    f = prob.full_energy

    def project(V):  # the rows of V, M-orthogonally off the rigid modes
        return V - (fem._rows_product(m, V) @ rigid.T) @ rigid

    def apply_n(V):
        # the extension zeroes the void dofs of f E v, so its solid dofs are
        # the Schur complement of the void block applied to each row v of V
        return fem._rows_product(f, extend_field(prob, V))[:, prob.solid_dofs]

    # rank-6 augmentation keeps the Gram matrices definite across the rigid
    # kernel; on the projected iterates it equals the solid energy
    s_aug = SymmetricOperator(s, m @ rigid.T, np.full(rigid.shape[0], s.diagonal().mean()))
    res = fem.max_rayleigh_pair(apply_n, s_aug.matvec, s_aug.diagonal(),
                                tol=tol, seed=seed, project=project)
    ratio = float(np.sqrt(max(res.value, 1.0)))
    return ConstantEstimate("extension", lmesh.eps, lmesh.resolution, ratio,
                            res.residual)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def constant_sweep(kind: str, geom, sigma, eps_list, n: int, tol: float = 1e-8,
                   seed: int = 0) -> ConstantSweep:
    """Estimate one inequality constant for every eps in the list."""

    def job(eps):
        if kind == "korn":
            lmesh = build_layer_mesh(geom, eps, sigma, n)
            return korn_constant(lmesh, eps, tol=tol, seed=seed)
        if kind == "trace":
            lmesh = build_layer_mesh(geom, eps, sigma, n, include_void=True)
            return trace_constant(lmesh, eps, tol=tol, seed=seed)
        if kind == "extension":
            lmesh = build_layer_mesh(geom, eps, sigma, n, include_void=True)
            return extension_norm(extension_problem(lmesh), tol=tol, seed=seed)
        raise ValueError(f"unknown inequality {kind!r}")

    return ConstantSweep([job(e) for e in eps_list])
