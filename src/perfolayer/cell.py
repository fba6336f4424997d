"""Periodic cell problems and homogenized plate tensors.

Solves the in-plane stretching and bending cell problems on the solid
reference cell, averages them into the effective tensors of the homogenized
plate model, and provides the symmetric periodic Helmholtz decomposition on
the unperforated cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import AsymmetricInput, InconsistentMesh, SolverFailure
from .fem import DofMap, ElasticityTensor4, SymmetricOperator
from .geometry import HEX_CORNERS, LayerMesh

INDEX_PAIRS = ((1, 1), (2, 2), (1, 2))

# The six cell problems in row order: stretch, then bending, each over
# ``INDEX_PAIRS``.
PROBLEMS = tuple((kind, ij) for kind in ("stretch", "bending") for ij in INDEX_PAIRS)


def basis_matrix(i: int, j: int) -> np.ndarray:
    """Symmetric rank-one basis matrix (e_i (x) e_j + e_j (x) e_i) / 2."""
    m = np.zeros((3, 3))
    m[i - 1, j - 1] += 0.5
    m[j - 1, i - 1] += 0.5
    return m


@dataclass
class CellSolutionSet:
    """Periodic solutions of the six cell problems with solver residuals.

    Row c of ``values`` (6, n_dofs), a block of rows as in ``fem``, holds
    the reduced solution of ``PROBLEMS[c]``, and ``residuals[c]`` its
    relative residual.  A stretch problem (i, j) relaxes the in-plane unit
    strain M_ij, a bending problem the unit-curvature strain -y3 M_ij; every
    solution has zero mean per component.  ``energy`` (6, 6) is the corrector part of the cell energy,
    X K X^T - R X^T - X R^T for the solution rows X, the load rows R and
    the cell stiffness K.
    """

    mesh: LayerMesh
    dofmap: DofMap
    values: np.ndarray
    residuals: np.ndarray
    energy: np.ndarray

    def nodal(self, c: int) -> np.ndarray:
        """Nodal array (n_nodes, 3) of the solution in row c."""
        return self.dofmap.expand(self.values[c])


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
        return fem._mandel_matrix(t, ((0, 0), (1, 1), (0, 1)))


def _periodic_dofmap(mesh: LayerMesh) -> DofMap:
    return DofMap(mesh, ncomp=3, periodic=True)


def _cell_operator(mesh, tensor, dofmap) -> SymmetricOperator:
    k = fem.assemble_elasticity(mesh, tensor, dofmap)
    return SymmetricOperator(k.matrix, *fem.mean_zero_augmentations(mesh, dofmap, k))


class _FilledCell:
    """Preconditioner r -> R A_f^-1 R^T r of the periodic cell operator.

    A_f is the pore-filled cell: the element matrix of ``tensor`` on every
    voxel of the periodic n1 x n2 x n3 grid, plus the mean-zero term
    sigma V V^T of the full-cell mean functional with the cell operator's
    weights ``sig``.  R restricts the grid nodes to the node blocks of
    ``dofmap``, the solid ones.  So R A_f^-1 R^T inverts the Schur
    complement of A_f on the solid, whose energy is the filled-cell energy
    of the best extension into the pores.  That lies between the solid
    energy and C_ext^2 times it, C_ext the norm of the extension, so the
    preconditioned condition number is at most about C_ext^2, whatever n
    (Boergers and Widlund, SIAM J. Numer. Anal. 27, 1990).

    A_f is block-circulant in (y1, y2), so ``np.fft.rfft2`` splits it into
    one Hermitian system per in-plane mode (as in Moulinec and Suquet,
    CMAME 157, 1998), block-tridiagonal over the n3 + 1 node layers: the
    element matrix's bottom, top and bottom-to-top 3 x 3 parts times the
    in-plane phases.  The modes k != 0 are factored once by a block Thomas
    sweep, kept with the modes on the last axis; the mode k = 0 holds the
    translations and the mean term and is inverted densely.
    """

    def __init__(self, mesh: LayerMesh, tensor: ElasticityTensor4, dofmap: DofMap,
                 sig: np.ndarray):
        n1, n2, n3 = self.shape = mesh.voxel_elems.shape
        grid = np.empty((dofmap.n_dofs // 3, 3), dtype=np.int64)
        grid[dofmap.node_blocks] = mesh.node_grid[dofmap.master]  # no node eliminated
        self.grid = tuple(grid.T)
        local = fem.elasticity_element(mesh.spacing, tensor).reshape(8, 3, 8, 3)
        is_top = HEX_CORNERS[:, 2] == 1
        # the phase exp(i theta . (o_b - o_a)) of each corner pair per mode
        theta = 2 * np.pi * np.stack(np.meshgrid(np.fft.fftfreq(n1), np.fft.rfftfreq(n2),
                                                 indexing="ij"), axis=-1).reshape(-1, 2)
        offsets = HEX_CORNERS[None, :, :2] - HEX_CORNERS[:, None, :2]
        phase = np.exp(1j * (offsets @ theta.T))

        def part(a, b):  # (3, 3, modes) coupling of the corners a to b
            return np.einsum("aibj,abm->ijm", local[a][:, :, b], phase[a][:, b])

        bottom, up, top = part(~is_top, ~is_top), part(~is_top, is_top), part(is_top, is_top)
        diag = [bottom] + [bottom + top] * (n3 - 1) + [top]  # per node layer
        layers = np.arange(n3 + 1)
        dense = np.zeros((n3 + 1, 3, n3 + 1, 3))
        dense[layers, :, layers, :] = [d[..., 0].real for d in diag]
        dense[layers[:-1], :, layers[1:], :] = up[..., 0].real
        dense[layers[1:], :, layers[:-1], :] = up[..., 0].real.T
        # the mean functional per node layer: h^3, h^3 / 2 on the faces y3 = -1, 1
        mean = np.full(n3 + 1, np.prod(mesh.spacing))
        mean[[0, -1]] /= 2
        dense += n1 * n2 * np.einsum("j,l,cd->jcld", mean, mean, np.diag(sig))
        zero = np.linalg.inv(dense.reshape(3 * n3 + 3, -1))
        self.zero = 0.5 * (zero + zero.T)
        # complex blocks are multiplied and inverted elementwise, not by
        # BLAS or LAPACK: their complex kernels would add 0.8 MB of RSS
        up = up[..., 1:]
        self.up_h = up_h = np.ascontiguousarray(np.conj(up.transpose(1, 0, 2)))
        pivots, gains = [], []
        for j, d in enumerate(diag):
            pivots.append(_inverse(d[..., 1:] - _times(up_h, gains[-1]) if j else d[..., 1:]))
            gains.append(_times(pivots[-1], up))
        self.pivots = np.array(pivots)
        self.gains = np.array(gains[:-1])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """B r for a vector r or for each row of a (k, n) block."""
        n1, n2, n3 = self.shape
        i1, i2, i3 = self.grid
        nodal = r.reshape(-1, i1.size, 3).transpose(1, 2, 0)  # (nodes, 3, k)
        full = np.zeros((n3 + 1, 3, nodal.shape[2], n1, n2))
        full[i3, :, :, i1, i2] = nodal
        f = np.fft.rfft2(full)
        modes = f.reshape(f.shape[:3] + (-1,))
        zero = self.zero @ modes[..., 0].real.reshape(3 * n3 + 3, -1)
        rest = modes[..., 1:]
        for j in range(n3 + 1):
            b = rest[j] - _times(self.up_h, rest[j - 1]) if j else rest[j]
            rest[j] = _times(self.pivots[j], b)
        for j in range(n3 - 1, -1, -1):
            rest[j] -= _times(self.gains[j], rest[j + 1])
        modes[..., 0] = zero.reshape(modes.shape[:3])
        u = np.fft.irfft2(f, s=(n1, n2))
        return u[i3, :, :, i1, i2].transpose(2, 0, 1).reshape(r.shape)


def _inverse(a: np.ndarray) -> np.ndarray:
    """Per-mode inverse of a (3, 3, modes) stack by cofactors: column j is
    the cross product of rows j + 1 and j + 2 over the determinant."""
    roll, back = [1, 2, 0], [2, 0, 1]
    b, c = a[roll], a[back]
    cols = b[:, roll] * c[:, back] - b[:, back] * c[:, roll]  # (column, row, modes)
    return cols.transpose(1, 0, 2) / np.sum(a[0] * cols[0], axis=0)


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-mode 3 x 3 products a x for a (3, 3, modes) and x (3, k, modes)."""
    return a[:, 0, None] * x[0] + a[:, 1, None] * x[1] + a[:, 2, None] * x[2]


def _field_rhs(mesh, dofmap, xi: np.ndarray) -> np.ndarray:
    """Load vector of phi -> int xi : D(phi) for a Mandel quadrature-point
    field ``xi``, (E, n_q, 6) or broadcastable to it."""
    w = fem.hex_reference(mesh.spacing)[2]
    wb = (w[:, None, None] * fem.strain_matrices(mesh.spacing)).reshape(-1, 24)
    nq = w.shape[0]
    xi = np.broadcast_to(xi, (mesh.n_elems, nq, 6)).reshape(mesh.n_elems, -1)
    edofs = dofmap.element_dofs(mesh.elems)
    return fem.scatter_vector(xi @ wb, edofs, dofmap.n_dofs)


def solve_cell_problems(mesh: LayerMesh, tensor: ElasticityTensor4,
                        tol: float = 1e-10, workers: int = 1) -> CellSolutionSet:
    """The periodic, traction-free, zero-mean cell problems (three
    stretching, three bending) for the in-plane pairs (i, j) in {1, 2}^2.

    The stretch problem is forced by M_ij, the bending one by -y3 M_ij.  The
    problems share one operator and are solved as the rows of one (6, n)
    block, in ``PROBLEMS`` order, by ``fem.solve_spd``, preconditioned by the
    pore-filled cell (``_FilledCell``).  A row whose relative residual
    exceeds max(100 tol, 1e-8) raises SolverFailure.  ``workers`` is accepted and
    ignored.  The product of the residual check also gives ``energy``, with
    the mean-zero augmentation taken out.
    """
    dofmap = _periodic_dofmap(mesh)
    op = _cell_operator(mesh, tensor, dofmap)
    precond = _FilledCell(mesh, tensor, dofmap, op.sig)
    rhs = np.empty((len(PROBLEMS), dofmap.n_dofs))
    y3 = fem.quadrature_points(mesh)[:, :, 2:]
    for c, (kind, ij) in enumerate(PROBLEMS):
        stress = fem.sym_to_mandel(tensor.apply(basis_matrix(*ij)))
        rhs[c] = _field_rhs(mesh, dofmap, -stress if kind == "stretch" else y3 * stress)
    sol = fem.solve_spd(op, rhs, tol=tol, precond=precond)
    prod = op.matvec(sol)
    bnorm = np.linalg.norm(rhs, axis=1)
    rnorm = np.linalg.norm(prod - rhs, axis=1)
    res = np.divide(rnorm, bnorm, out=np.zeros_like(rnorm), where=bnorm > 0)
    for (kind, ij), r in zip(PROBLEMS, res):
        if r > max(100 * tol, 1e-8):
            raise SolverFailure(f"{kind} cell problem {ij} residual {r:.3e}")
    means = sol @ op.vs
    xr = sol @ rhs.T
    energy = sol @ prod.T - (means * op.sig) @ means.T - xr - xr.T
    return CellSolutionSet(mesh=mesh, dofmap=dofmap, values=sol, residuals=res,
                           energy=energy)


def _block(g: np.ndarray) -> np.ndarray:
    """2x2x2x2 tensor whose (ab, cd) entry is g[slot(ab), slot(cd)], with
    slot the position of the pair in ``INDEX_PAIRS`` (either order)."""
    slot = np.empty((2, 2), dtype=np.int64)
    for r, (i, j) in enumerate(INDEX_PAIRS):
        slot[i - 1, j - 1] = slot[j - 1, i - 1] = r
    return g[slot[:, :, None, None], slot[None, None, :, :]]


def effective_tensors(mesh: LayerMesh, tensor: ElasticityTensor4,
                      sols: CellSolutionSet) -> EffectiveModel:
    """Energy averages of the cell strains over the solid cell.

    The six total strains e_r = D(chi_r) + p_r M_r (``PROBLEMS`` order, p = 1
    for stretch and -y3 for bending) give one 6x6 Gram matrix
    G_rs = (1/|Y*|) int A e_r : e_s; a* is its stretch block, c* its bending
    block, and b* the block with bending rows and stretch columns, so b*
    carries the bending strain on its first index pair.  Since the load of
    problem r is R_r = -int A p_r M_r : D(.), |Y*| G is ``sols.energy`` plus
    the energy int p_r p_s A M_r : M_s of the imposed strains (Caillerie,
    Math. Methods Appl. Sci. 6, 1984).
    """
    if sols.mesh is not mesh:
        raise InconsistentMesh("solutions were computed on a different mesh")
    h = mesh.spacing[2]
    zc = mesh.coords[mesh.elems[:, 0], 2] + 0.5 * h
    # int 1, int y3 and int y3^2 over the solid elements, exact per element
    m0, m1, m2 = np.prod(mesh.spacing) * np.array(
        [zc.size, zc.sum(), np.sum(zc * zc + h * h / 12)])
    m = fem.sym_to_mandel(np.stack([basis_matrix(*ij) for ij in INDEX_PAIRS]))
    imposed = np.kron([[m0, -m1], [-m1, m2]], m @ tensor.mandel() @ m.T)
    vol = mesh.geometry.solid_volume
    g = (sols.energy + imposed) / vol
    g = 0.5 * (g + g.T)
    return EffectiveModel(a_star=_block(g[:3, :3]), b_star=_block(g[3:, :3]),
                          c_star=_block(g[3:, 3:]), solid_volume=vol)


# ---------------------------------------------------------------------------
# Helmholtz decomposition on the unperforated cell
# ---------------------------------------------------------------------------

def helmholtz_decompose(mesh: LayerMesh, xi: np.ndarray) -> np.ndarray:
    """Split a symmetric quadrature-point field (E, n_q, 3, 3) on the full
    cell into a potential part D(u) and a solenoidal remainder orthogonal to
    every periodic symmetric gradient; returns the remainder as a Mandel
    field (E, n_q, 6).  The two parts sum to the field by construction.

    The potential part is D(u) for the periodic zero-mean u with
    int D(u) : D(phi) = int xi : D(phi) for every periodic phi: the cell
    problem of the identity tensor loaded by xi.  So D(u) is the orthogonal
    projection of xi onto the discrete periodic symmetric gradients, and the
    remainder is orthogonal to all of them.  One solve is exact: a split
    into a part vanishing on the cell boundary and a periodic correction
    gives the same D(u), since a field vanishing on the boundary is periodic
    too.  The solve's preconditioner ``_FilledCell`` is here the operator's
    exact inverse, so one CG step leaves a relative residual below 1e-15.
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
    dofmap = _periodic_dofmap(mesh)
    op = _cell_operator(mesh, ElasticityTensor4.identity(), dofmap)
    precond = _FilledCell(mesh, ElasticityTensor4.identity(), dofmap, op.sig)
    u = fem.solve_spd(op, _field_rhs(mesh, dofmap, xi), tol=1e-13, precond=precond)
    return xi - fem.gradient_decomposition(mesh, dofmap.expand(u))


def gradient_pairing(mesh: LayerMesh, xi: np.ndarray, dphi: np.ndarray) -> float:
    """Discrete pairing <xi, D(phi)> of two Mandel quadrature-point fields,
    ``dphi`` the symmetric gradient of a test field."""
    w = fem.quadrature_weights(mesh)
    return float(np.einsum("eq,eqi,eqi->", w, xi, dphi))
