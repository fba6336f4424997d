"""Periodic cell problems and homogenized plate tensors.

Solves the in-plane stretching and bending cell problems on the solid
reference cell, averages them into the effective tensors of the homogenized
plate model, and provides the symmetric periodic Helmholtz decomposition on
the unperforated cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import AsymmetricInput, InconsistentMesh, MissingSolutions, SolverFailure
from .fem import DofMap, ElasticityTensor4, FieldVector, SymmetricOperator
from .geometry import CellMesh

INDEX_PAIRS = ((1, 1), (2, 2), (1, 2))

# Operator size from which the cell problems are preconditioned by the grid
# multigrid V-cycle instead of Jacobi (one block solve of the six problems
# with set-up, one BLAS thread: Jacobi wins or ties on every cell up to
# n = 12, 10,800 dofs; multigrid on the channel cell at n = 16, 20,304 dofs,
# and on the box cell at n = 16; README, "How the cell problems are solved").
MULTIGRID_MIN_DOFS = 15_000

# Elements per block over which ``effective_tensors`` accumulates its Gram
# matrix, so that no strain array spans the whole cell.
_GRAM_BLOCK_ELEMS = 512


def basis_matrix(i: int, j: int) -> np.ndarray:
    """Symmetric rank-one basis matrix (e_i (x) e_j + e_j (x) e_i) / 2."""
    m = np.zeros((3, 3))
    m[i - 1, j - 1] += 0.5
    m[j - 1, i - 1] += 0.5
    return m


@dataclass
class CellSolutionSet:
    """Periodic solutions of the six cell problems with solver residuals.

    ``stretch[(i, j)]`` relaxes the in-plane unit strain, ``bending[(i, j)]``
    the unit-curvature strain -y3 M_ij; both have zero mean per component.
    """

    mesh: CellMesh
    dofmap: DofMap
    tensor: ElasticityTensor4
    stretch: dict = field(default_factory=dict)
    bending: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    def require_complete(self):
        for ij in INDEX_PAIRS:
            if ij not in self.stretch or ij not in self.bending:
                raise MissingSolutions(f"cell solution for pair {ij} missing")


@dataclass
class EffectiveModel:
    """Homogenized plate tensors (2x2x2x2; the coupling block carries the
    bending strain on its first index pair) plus the solid cell volume."""

    a_star: np.ndarray
    b_star: np.ndarray
    c_star: np.ndarray
    solid_volume: float

    def voigt(self, t: np.ndarray) -> np.ndarray:
        """3x3 Mandel matrix of a 2x2x2x2 block on symmetric inputs; rows
        carry the first index pair (no symmetrization, so the coupling block
        b* keeps its orientation)."""
        pairs = ((0, 0), (1, 1), (0, 1))
        s = np.sqrt(2.0)
        out = np.empty((3, 3))
        for r, (i, j) in enumerate(pairs):
            for c, (k, l) in enumerate(pairs):
                f = (1.0 if i == j else s) * (1.0 if k == l else s)
                out[r, c] = f * t[i, j, k, l]
        return out


def _periodic_dofmap(mesh: CellMesh) -> DofMap:
    return DofMap(mesh, ncomp=3, periodic=True)


def _cell_operator(mesh, tensor, dofmap) -> SymmetricOperator:
    k = fem.assemble_elasticity(mesh, tensor, dofmap)
    return SymmetricOperator(k.matrix, *fem.mean_zero_augmentations(mesh, dofmap, k))


def _cell_multigrid(op: SymmetricOperator, dofmap: DofMap):
    """Grid multigrid preconditioner of the periodic cell operator, or None
    (Jacobi) below ``MULTIGRID_MIN_DOFS``."""
    if op.shape[0] < MULTIGRID_MIN_DOFS:
        return None
    return fem.GridMultigrid(op, dofmap)


def _profile(mesh: CellMesh, kind: str, elems=None):
    """Factor of the forcing strain M_ij at the quadrature points of
    ``elems`` (default all): 1 for stretching, -y3 of shape (E, n_q, 1) for
    bending."""
    if kind == "stretch":
        return 1.0
    return -fem.quadrature_points(mesh, elems)[:, :, 2:]


def _field_rhs(mesh, dofmap, xi: np.ndarray) -> np.ndarray:
    """Load vector of phi -> int xi : D(phi) for a Mandel quadrature-point
    field ``xi``, (E, n_q, 6) or broadcastable to it."""
    w = fem.hex_reference(mesh.spacing)[2]
    wb = (w[:, None, None] * fem.strain_matrices(mesh.spacing)).reshape(-1, 24)
    nq = w.shape[0]
    xi = np.broadcast_to(xi, (mesh.n_elems, nq, 6)).reshape(mesh.n_elems, -1)
    edofs = dofmap.element_dofs(mesh.elems)
    return fem.scatter_vector(xi @ wb, edofs, dofmap.n_dofs)


def solve_cell_problems(mesh: CellMesh, tensor: ElasticityTensor4,
                        tol: float = 1e-10, workers: int = 1,
                        full_index: bool = False) -> CellSolutionSet:
    """The periodic, traction-free, zero-mean cell problems (three
    stretching, three bending).

    The macroscopic model uses only (i, j) in {1, 2}^2; ``full_index`` also
    solves the out-of-plane pairs.  The stretch problem is forced by M_ij,
    the bending one by -y3 M_ij.  The problems share one operator and are
    solved as the columns of one block by ``fem.solve_spd``, preconditioned
    by the grid multigrid V-cycle from ``MULTIGRID_MIN_DOFS`` on.  A column
    whose relative residual exceeds max(100 tol, 1e-8) raises
    SolverFailure.  ``workers`` is accepted and ignored.
    """
    dofmap = _periodic_dofmap(mesh)
    op = _cell_operator(mesh, tensor, dofmap)
    precond = _cell_multigrid(op, dofmap)
    pairs = list(INDEX_PAIRS)
    if full_index:
        pairs += [(1, 3), (2, 3), (3, 3)]
    problems = [(kind, ij) for kind in ("stretch", "bending") for ij in pairs]
    rhs = np.empty((dofmap.n_dofs, len(problems)))
    for c, (kind, ij) in enumerate(problems):
        stress = fem.sym_to_mandel(tensor.apply(basis_matrix(*ij)))
        rhs[:, c] = _field_rhs(mesh, dofmap, -_profile(mesh, kind) * stress)
    sol = fem.solve_spd(op, rhs, tol=tol, precond=precond)
    bnorm = np.linalg.norm(rhs, axis=0)
    rnorm = np.linalg.norm(op.matvec(sol) - rhs, axis=0)
    res = np.divide(rnorm, bnorm, out=np.zeros_like(rnorm), where=bnorm > 0)
    columns = np.ascontiguousarray(sol.T)
    sols = CellSolutionSet(mesh=mesh, dofmap=dofmap, tensor=tensor)
    for (kind, ij), values, r in zip(problems, columns, res):
        if r > max(100 * tol, 1e-8):
            raise SolverFailure(f"{kind} cell problem {ij} residual {r:.3e}")
        getattr(sols, kind)[ij] = FieldVector(mesh, dofmap, values)
        sols.residuals[(kind, ij)] = float(r)
    return sols


def _block(g: np.ndarray) -> np.ndarray:
    """2x2x2x2 tensor whose (ab, cd) entry is g[slot(ab), slot(cd)], with
    slot the position of the pair in ``INDEX_PAIRS`` (either order)."""
    slot = np.empty((2, 2), dtype=np.int64)
    for r, (i, j) in enumerate(INDEX_PAIRS):
        slot[i - 1, j - 1] = slot[j - 1, i - 1] = r
    return g[slot[:, :, None, None], slot[None, None, :, :]]


def effective_tensors(mesh: CellMesh, tensor: ElasticityTensor4,
                      sols: CellSolutionSet) -> EffectiveModel:
    """Energy averages of the cell strains over the solid cell.

    The six total strains (three stretch, three bending) give one 6x6 Gram
    matrix G_rs = (1/|Y*|) int A e_r : e_s; a* is its stretch block, c* its
    bending block, and b* the block with bending rows and stretch columns,
    so b* carries the bending strain on its first index pair.  G is summed
    over blocks of ``_GRAM_BLOCK_ELEMS`` elements, one product per block.
    """
    if sols.mesh is not mesh:
        raise InconsistentMesh("solutions were computed on a different mesh")
    sols.require_complete()
    fields = [(kind, getattr(sols, kind)[ij].nodal(), fem.sym_to_mandel(basis_matrix(*ij)))
              for kind in ("stretch", "bending") for ij in INDEX_PAIRS]
    w = fem.hex_reference(mesh.spacing)[2]
    c = tensor.mandel()
    g = np.zeros((6, 6))
    for start in range(0, mesh.n_elems, _GRAM_BLOCK_ELEMS):
        block = mesh.elems[start:start + _GRAM_BLOCK_ELEMS]
        s = np.empty((6, block.shape[0], w.shape[0], 6))
        for r, (kind, nodal, m) in enumerate(fields):
            s[r] = fem.gradient_decomposition(mesh, nodal, block)
            s[r] += _profile(mesh, kind, block) * m
        cs = (s.reshape(-1, 6) @ c.T).reshape(s.shape)
        cs *= w[:, None]
        g += s.reshape(6, -1) @ cs.reshape(6, -1).T
    vol = mesh.geometry.solid_volume
    g /= vol
    g = 0.5 * (g + g.T)
    return EffectiveModel(a_star=_block(g[:3, :3]), b_star=_block(g[3:, :3]),
                          c_star=_block(g[3:, 3:]), solid_volume=vol)


def voigt_bound(tensor: ElasticityTensor4, mesh: CellMesh) -> np.ndarray:
    """Stretch tensor obtained with zero cell correction (upper bound in the
    Loewner order on symmetric 2x2 inputs)."""
    w = fem.quadrature_weights(mesh)
    vol = mesh.geometry.solid_volume
    m = fem.sym_to_mandel(np.stack([basis_matrix(*ij) for ij in INDEX_PAIRS]))
    g = w.sum() / vol * (m @ tensor.mandel() @ m.T)
    return _block(0.5 * (g + g.T))


# ---------------------------------------------------------------------------
# Helmholtz decomposition on the unperforated cell
# ---------------------------------------------------------------------------

@dataclass
class HelmholtzSplit:
    """Orthogonal split of a symmetric field into a potential part D(p+q)
    and a remainder orthogonal to every periodic symmetric gradient, both
    Mandel quadrature-point fields (E, n_q, 6)."""

    potential: np.ndarray
    solenoidal: np.ndarray
    p: FieldVector
    q: FieldVector


def _cell_boundary_nodes(mesh: CellMesh) -> np.ndarray:
    g = mesh.node_grid
    return np.nonzero(((g == 0) | (g == mesh.voxel_elems.shape)).any(axis=1))[0]


def helmholtz_decompose(mesh: CellMesh, xi: np.ndarray,
                        tol: float = 1e-12) -> HelmholtzSplit:
    """Split a symmetric quadrature-point field (E, n_q, 3, 3) on the full
    cell into Mandel fields.

    ``p`` solves the zero-Dirichlet problem driven by the divergence of the
    input; ``q`` the periodic zero-mean problem absorbing the remaining
    top/bottom flux.  The remainder is orthogonal to all discrete periodic
    symmetric gradients.
    """
    if not mesh.geometry.is_full:
        raise InconsistentMesh("decomposition requires the unperforated cell")
    xi = np.asarray(xi, dtype=float)
    nq = fem.hex_reference(mesh.spacing)[0].shape[0]
    if xi.shape != (mesh.n_elems, nq, 3, 3):
        raise ValueError(f"field must have shape (E, {nq}, 3, 3)")
    if not np.allclose(xi, np.swapaxes(xi, -1, -2), atol=1e-12 * max(1.0, np.abs(xi).max())):
        raise AsymmetricInput("input field is not symmetric")

    xi = fem.sym_to_mandel(xi)
    ident = ElasticityTensor4.identity()

    dm_dir = DofMap(mesh, ncomp=3, dirichlet_nodes=_cell_boundary_nodes(mesh))
    k_dir = fem.assemble_elasticity(mesh, ident, dm_dir)
    p = FieldVector(mesh, dm_dir, fem.solve_spd(k_dir, _field_rhs(mesh, dm_dir, xi), tol=tol))
    dp = fem.gradient_decomposition(mesh, p.nodal())

    dm_per = _periodic_dofmap(mesh)
    op_per = _cell_operator(mesh, ident, dm_per)
    rhs_q = _field_rhs(mesh, dm_per, xi - dp)
    q = FieldVector(mesh, dm_per, fem.solve_spd(op_per, rhs_q, tol=tol))
    dq = fem.gradient_decomposition(mesh, q.nodal())

    potential = dp + dq
    return HelmholtzSplit(potential=potential, solenoidal=xi - potential, p=p, q=q)


def gradient_pairing(mesh: CellMesh, xi: np.ndarray, dphi: np.ndarray) -> float:
    """Discrete pairing <xi, D(phi)> of two Mandel quadrature-point fields,
    ``dphi`` the symmetric gradient of a test field."""
    w = fem.quadrature_weights(mesh)
    return float(np.einsum("eq,eqi,eqi->", w, xi, dphi))
