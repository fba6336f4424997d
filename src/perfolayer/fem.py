"""Finite-element kernels on structured hexahedral meshes.

Trilinear hexahedra with 2x2x2 Gauss quadrature (reference tables cached per
spacing), periodic master/slave identification, Dirichlet elimination,
mean-zero constraints via symmetric rank-one augmentation, preconditioned
conjugate gradients on one right-hand side or on a block of them in lockstep
and a block LOBPCG for extremal generalized eigenvalues (both Jacobi by
default, or any symmetric positive definite preconditioner, such as the
fast-diagonalization inverse of the pore-filled clamped layer,
``FilledLayer``).

Large sparse products are split by rows across the cores the process may
run on (``RowSplitProduct``); each row is summed by the same kernel in the
same order, so the results do not depend on the core count.

Sparse operators are assembled through an ``AssemblyPlan``: the sparsity
pattern of an element set on node blocks (the dofs of a node are
consecutive), built by the assembling call and filled per operator from
sparse-dense products of local blocks, written run of block rows by run
into CSR arrays of the final size.  ``assemble_forms`` fills one plan with
several forms; no plan outlives the call that built it.  An operator of one
local matrix over the elements of a voxel mesh can instead stay unassembled
and be applied element by element, to a vector or to an (n, k) block
(``ElementMatrix``).
"""

from __future__ import annotations

import copy
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # the CSR kernels behind ``A @ x``

from .errors import (
    ConvergenceFailure,
    InconsistentMesh,
    IndefiniteDetected,
    MaxIterationsExceeded,
    SingularWithoutConstraints,
)
from .geometry import HEX_CORNERS, HEX_FACE_NODES, HEX_FACES

# Mandel index pairs: (11, 22, 33, 23, 13, 12); off-diagonal entries carry
# sqrt(2) so that A B : B equals the plain 6-vector quadratic form.
_MANDEL_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_SQRT2 = np.sqrt(2.0)


class ElasticityTensor4:
    """Fourth-order elasticity tensor with full symmetry and coercivity.

    Symmetries enforced: A_ijkl = A_jikl = A_ijlk = A_klij (the form
    A D(u):D(v) is then symmetric and acts on symmetric matrices only).
    """

    def __init__(self, components: np.ndarray):
        a = np.asarray(components, dtype=float)
        if a.shape != (3, 3, 3, 3):
            raise ValueError("elasticity tensor must be 3x3x3x3")
        for perm, name in (((1, 0, 2, 3), "A_ijkl = A_jikl"),
                           ((0, 1, 3, 2), "A_ijkl = A_ijlk"),
                           ((2, 3, 0, 1), "A_ijkl = A_klij")):
            if not np.allclose(a, a.transpose(perm), rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
                raise ValueError(f"symmetry {name} violated")
        self.components = a
        self.c0 = self._coercivity_constant()
        if self.c0 <= 0:
            raise ValueError(f"tensor is not coercive (c0 = {self.c0:.3e})")

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "ElasticityTensor4":
        eye = np.eye(3)
        a = (lam * np.einsum("ij,kl->ijkl", eye, eye)
             + mu * (np.einsum("ik,jl->ijkl", eye, eye)
                     + np.einsum("il,jk->ijkl", eye, eye)))
        return cls(a)

    @classmethod
    def identity(cls) -> "ElasticityTensor4":
        """Tensor with A B : B = |B|^2 for symmetric B (lam=0, mu=1/2)."""
        return cls.isotropic(0.0, 0.5)

    def _coercivity_constant(self) -> float:
        """Smallest Rayleigh quotient A B:B / |B|^2 over symmetric B: the
        least eigenvalue of the Mandel matrix, an isometric representation."""
        return float(np.linalg.eigvalsh(self.mandel()).min())

    def mandel(self) -> np.ndarray:
        """Symmetric 6x6 matrix representing the tensor on symmetric
        matrices in the Mandel (sqrt(2)-scaled) basis."""
        m = _mandel_matrix(self.components, _MANDEL_PAIRS)
        return 0.5 * (m + m.T)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """Contract with a (...,3,3) symmetric strain field."""
        return np.einsum("ijkl,...kl->...ij", self.components, b)


def _mandel_matrix(t: np.ndarray, pairs) -> np.ndarray:
    """Mandel matrix of a four-index block on the index ``pairs``: t[pairs[r],
    pairs[c]] times sqrt(2) per off-diagonal pair; rows carry the first pair."""
    i, j = np.array(pairs).T
    f = np.where(i == j, 1.0, _SQRT2)
    return np.outer(f, f) * t[i[:, None], j[:, None], i, j]


def sym_to_mandel(b: np.ndarray) -> np.ndarray:
    """Map (...,3,3) symmetric tensors to (...,6) Mandel vectors."""
    out = np.empty(b.shape[:-2] + (6,))
    for r, (i, j) in enumerate(_MANDEL_PAIRS):
        out[..., r] = b[..., i, j] * (1.0 if i == j else _SQRT2)
    return out


def rigid_modes(coords: np.ndarray) -> np.ndarray:
    """Nodal samples of the six-dimensional rigid-displacement space, shape (6, N, 3)."""
    n = coords.shape[0]
    modes = np.zeros((6, n, 3))
    for c in range(3):
        modes[c, :, c] = 1.0
    spins = [np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], float),
             np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], float),
             np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], float)]
    for c, a in enumerate(spins):
        modes[3 + c] = coords @ a.T
    return modes


# ---------------------------------------------------------------------------
# reference-element tables
# ---------------------------------------------------------------------------

# 2-point Gauss abscissae on [-1, 1]; the weights are one
_GAUSS = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


def trilinear(xi):
    """Trilinear shape values (P, 8) and reference derivatives (P, 8, 3) at
    points ``xi`` (P, 3) of [-1, 1]^3, corners in ``HEX_CORNERS`` order."""
    s = 2.0 * HEX_CORNERS - 1.0  # corners in {-1, +1}
    f = 1 + s * np.asarray(xi, dtype=float)[:, None, :]
    N = 0.125 * f[..., 0] * f[..., 1] * f[..., 2]
    dN = np.empty(f.shape)
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        dN[..., i] = 0.125 * s[:, i] * f[..., j] * f[..., k]
    return N, dN


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def hex_reference(spacing):
    """Shape values, physical gradients and quadrature weights for the
    2x2x2 Gauss rule on an axis-aligned box element.

    Returns (N, G, w, pts) with N (8 pts, 8 nodes), G (8 pts, 8 nodes, 3),
    w the physical weights (include |J|), pts the reference coordinates in
    [0,1]^3 ordered lexicographically (third axis fastest).  The tables are
    computed once per spacing and shared, so they are read-only.
    """
    return _hex_reference(tuple(float(h) for h in spacing))


@functools.lru_cache(maxsize=16)
def _hex_reference(spacing: tuple):
    xi = np.array(list(itertools.product(_GAUSS, repeat=3)))
    N, dN = trilinear(xi)
    G = dN * (2.0 / np.array(spacing))
    w = np.full(xi.shape[0], spacing[0] * spacing[1] * spacing[2] / 8.0)
    return _read_only(N, G, w, (xi + 1.0) / 2.0)


@functools.lru_cache(maxsize=16)
def _face_reference(spacing: tuple):
    """Weights (6, 4), trilinear shape values (6, 4, 8) and [0,1]^3
    reference points (6, 4, 3) of the 2x2 Gauss rule on each element face,
    in ``HEX_FACES`` order (in-face axes ascending, the later one fastest).
    Cached per spacing and read-only, like ``hex_reference``."""
    xi = np.empty((len(HEX_FACES), 4, 3))
    w = np.empty((len(HEX_FACES), 4))
    for k, (axis, side) in enumerate(HEX_FACES):
        inface = [d for d in range(3) if d != axis]
        xi[k][:, inface] = list(itertools.product(_GAUSS, repeat=2))
        xi[k, :, axis] = side
        w[k] = spacing[inface[0]] * spacing[inface[1]] / 4.0
    N = trilinear(xi.reshape(-1, 3))[0].reshape(len(HEX_FACES), 4, 8)
    return _read_only(w, N, (xi + 1.0) / 2.0)


def strain_matrices(spacing) -> np.ndarray:
    """Mandel strain-displacement matrices B (n_q, 6, 24) of the 2x2x2 rule;
    DOF order is node-major (node a, component c) -> 3*a + c.  Cached per
    spacing and read-only, like ``hex_reference``."""
    return _strain_matrices(tuple(float(h) for h in spacing))


@functools.lru_cache(maxsize=16)
def _strain_matrices(spacing: tuple):
    G = _hex_reference(spacing)[1]
    B = np.zeros((G.shape[0], 6, 8, 3))
    for r, (i, j) in enumerate(_MANDEL_PAIRS):
        if i == j:
            B[:, r, :, i] = G[:, :, i]
        else:  # D_ij = (d_j u_i + d_i u_j) / 2, times sqrt(2)
            B[:, r, :, i] = 0.5 * G[:, :, j] * _SQRT2
            B[:, r, :, j] = 0.5 * G[:, :, i] * _SQRT2
    B = B.reshape(G.shape[0], 6, 24)
    B.flags.writeable = False
    return B


@functools.lru_cache(maxsize=16)
def _value_strain_table(spacing: tuple):
    """(24, n_q * 9) map from the node-major dofs of a three-component element
    to, per quadrature point, its three values and six Mandel strains."""
    N = _hex_reference(spacing)[0]
    nq = N.shape[0]
    table = np.zeros((8, 3, nq, 9))
    for c in range(3):
        table[:, c, :, c] = N.T
    table = table.reshape(24, nq, 9)
    table[:, :, 3:] = _strain_matrices(spacing).transpose(2, 0, 1)
    table = table.reshape(24, nq * 9)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

class DofMap:
    """Reduced numbering after periodic identification and Dirichlet elimination.

    The dofs come in node blocks: dof = ncomp * block + comp, the blocks
    numbered over the free representative nodes in node order.  Slave nodes
    share the block of their periodic master.  An eliminated (Dirichlet)
    node has the dummy block n_dofs / ncomp in ``node_blocks`` and the dummy
    dof n_dofs in ``node_dofs``, one past the last, so a table of them
    gathers from a vector with a zero appended and scatters into one spare
    slot.  With ``periodic`` the two lateral axes of a voxel mesh wrap: the
    master of a node is the node at its grid index ``mesh.node_grid`` taken
    modulo the lateral interval counts ``mesh.voxel_elems.shape[:2]``.
    ``master`` keeps the master of every node (each node its own without
    ``periodic``).
    """

    def __init__(self, mesh, ncomp: int = 3, dirichlet_nodes=None, periodic: bool = False):
        self.mesh = mesh
        self.ncomp = ncomp
        self.periodic = periodic  # the two lateral axes wrap
        n_nodes = mesh.coords.shape[0]
        self.master = master = (_periodic_masters(mesh) if periodic
                                else np.arange(n_nodes, dtype=np.int64))
        # a representative (its own master) keeps a block of ncomp dofs
        # unless it is the master of a Dirichlet node; blocks in node order
        free = master == np.arange(n_nodes)
        if dirichlet_nodes is not None:
            free[master[np.asarray(dirichlet_nodes, dtype=np.int64)]] = False
        n_blocks = int(free.sum())
        block = np.full(n_nodes, n_blocks, dtype=np.int64)
        block[free] = np.arange(n_blocks)
        self.node_blocks = block[master]
        self.n_dofs = ncomp * n_blocks
        # per-node dof table (n_nodes, ncomp): ncomp * block + comp, or n_dofs
        self.node_dofs = np.minimum(ncomp * self.node_blocks[:, None] + np.arange(ncomp),
                                    self.n_dofs)

    def element_dofs(self, elems: np.ndarray) -> np.ndarray:
        """(E, nodes_per_elem * ncomp) reduced dof ids, n_dofs = eliminated."""
        return self.node_dofs[elems].reshape(elems.shape[0], elems.shape[1] * self.ncomp)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Reduced coefficients -> nodal array (n_nodes, ncomp): the
        eliminated dofs read the zero appended to ``reduced``, and slaves
        read their master's dofs."""
        return np.append(reduced, 0.0)[self.node_dofs]

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        """Nodal array -> reduced coefficients; the eliminated dofs are
        written to a spare slot past the end, which is cut off.

        When master and slave values differ (input not periodic), the slave
        value wins deterministically (higher node index written last)."""
        reduced = np.zeros(self.n_dofs + 1)
        reduced[self.node_dofs] = nodal
        return reduced[:-1]


def _periodic_masters(mesh) -> np.ndarray:
    """Node of each node's grid index with i1 = n1 and i2 = n2 wrapped to 0
    (the grid nodes are in lexicographic order, so one search finds them)."""
    intervals = np.array(mesh.voxel_elems.shape, dtype=np.int64)
    strides = np.array([(intervals[1] + 1) * (intervals[2] + 1), intervals[2] + 1, 1])
    wrapped = mesh.node_grid.copy()
    wrapped[:, :2] %= intervals[:2]
    return np.searchsorted(mesh.node_grid @ strides, wrapped @ strides)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class SymmetricOperator:
    """Symmetric operator A + V diag(sigma) V^T: a matrix A plus optional
    constraint columns ``vs`` V (n, k) with weights ``sig`` sigma (k,), the
    symmetric augmentations that realize mean-zero constraints or fix a rigid
    kernel.  A is a sparse matrix, applied as CSR (``RowSplitProduct``), or
    an ``ElementMatrix``, applied element by element.  The product and the
    diagonal read the same arrays, for a vector or for each column of an
    (n, k) block."""

    def __init__(self, matrix, vs: np.ndarray | None = None,
                 sig: np.ndarray | None = None):
        if isinstance(matrix, ElementMatrix):
            self.matrix = self._product = matrix
        else:
            self.matrix = matrix.tocsr()
            self._product = RowSplitProduct(self.matrix)
        self.vs = vs
        self.sig = None if vs is None else np.asarray(sig, dtype=float)
        self._diagonal = None

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x + V (sigma * (V^T x)) for a vector or an (n, k) block."""
        y = self._product(x)
        if self.vs is not None:
            y += self.vs @ (self.sig * (x.T @ self.vs)).T
        return y

    # the name ``solve_spd`` calls: the benchmark's tracer counts these calls
    # inside a solve as CG iterations
    matvec = apply

    def diagonal(self) -> np.ndarray:
        """Diagonal with the augmentations, computed once and read-only."""
        if self._diagonal is None:
            d = self.matrix.diagonal()
            if self.vs is not None:
                d = d + (self.vs * self.vs) @ self.sig
            d.flags.writeable = False
            self._diagonal = d
        return self._diagonal


# Elements per chunk of an (n, k) block product.  A chunk's gathered
# element vectors take 192 k bytes per element: 0.3 MB at k = 6, where the
# whole gather of the n = 32 cell would take 66 MB.  On the box cell at
# n = 8, 16 and 24, six columns, 256 was the fastest or within 20 % of the
# fastest of 128 to 4096, and about twice as fast as one chunk of all
# elements (README, "How sparse products are applied").
_BLOCK_ELEMS = 256


class ElementMatrix:
    """The matrix sum_e P_e^T L P_e of one local matrix L (nd, nd) over the
    elements of a dof table, kept unassembled: every element of a voxel mesh
    has the same spacing, so one L serves them all.  Entry (a, b) of L
    couples row a to column b, as in ``AssemblyPlan.fill``.

    ``dofs`` (E, 8 ncomp) is a ``DofMap.element_dofs`` table (eliminated
    dofs at the dummy slot n).  A product gathers x through it (the dummy
    slot reads a zero row appended to x), multiplies the element vectors by
    L and sums them back through the scatter pattern (``scatter``).  A
    vector takes one (E, nd) @ (nd, nd) product; an (n, k) block is
    gathered and multiplied ``_BLOCK_ELEMS`` elements at a time into one
    (E, nd, k) array, which is scattered once.  The diagonal is the scatter
    of L's diagonal.

    The pattern (n / ncomp, 8 E) is a CSR matrix of ones with one row per
    node block and one column per element node e * 8 + a: row b holds the
    element nodes of block b in ascending order, and an eliminated node has
    no entry.  The scatter is scipy's CSR kernel on the element vectors
    taken as (8 E, ncomp k) rows, so each dof sums its contributions in
    element order, from zero, as ``np.add.at`` does.  ``with_local`` makes
    the matrix of another L on the same table and pattern.
    """

    def __init__(self, local: np.ndarray, dofs: np.ndarray, n: int):
        self.local = local
        self._local_t = np.ascontiguousarray(local.T)  # row-major: the faster GEMM
        self.dofs = dofs
        self.shape = (n, n)
        nc = dofs.shape[1] // 8
        blocks = dofs[:, ::nc].ravel() // nc  # the dummy slot n gives n / nc
        nodes = np.flatnonzero(blocks < n // nc)
        # each node once: the CSR rows come out with ascending nodes
        self.pattern = sp.csr_matrix((np.ones(nodes.size), (blocks[nodes], nodes)),
                                     shape=(n // nc, blocks.size))

    def with_local(self, local: np.ndarray) -> "ElementMatrix":
        """The element matrix of ``local`` over the same table and pattern."""
        other = copy.copy(self)
        other.local = local
        other._local_t = np.ascontiguousarray(local.T)
        return other

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x or an (n, k) block."""
        if x.ndim == 1:
            return self.scatter(np.take(np.append(x, 0.0), self.dofs) @ self._local_t)
        xa = np.concatenate((x, np.zeros((1, x.shape[1]))))
        dofs = self.dofs
        v = np.empty(dofs.shape + x.shape[1:])
        for s in range(0, dofs.shape[0], _BLOCK_ELEMS):
            g = np.take(xa, dofs[s:s + _BLOCK_ELEMS], axis=0)
            np.matmul(self.local, g, out=v[s:s + _BLOCK_ELEMS])
        return self.scatter(v)

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """sum_e P_e^T v_e of per-element vectors v, (E, nd) or (E, nd, k)."""
        p = self.pattern
        y = np.zeros(self.shape[:1] + v.shape[2:])
        rows = y.reshape(p.shape[0], -1)
        # the kernel reads (8 E, ncomp k) values: the reshape checks the size
        _add_rows_product(p, 0, p.shape[0], np.reshape(v, (p.shape[1], rows.shape[1])), rows)
        return y

    def diagonal(self) -> np.ndarray:
        return self.scatter(np.broadcast_to(np.diagonal(self.local), self.dofs.shape))


# fewest nonzeros per row block: on small operators the hand-off to a pool
# thread costs more than the second core gains, and a floor of 100,000 gained
# nothing end to end (measured; README, "How sparse products are applied")
SPLIT_MIN_NNZ = 200_000
_pool = None  # threads of the row blocks after the first, made on first use


def _cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _row_pool() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max(1, _cores() - 1),
                                   thread_name_prefix="perfolayer-rows")
    return _pool


def _drop_row_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_drop_row_pool)


def _row_runs(indptr: np.ndarray, n_runs: int) -> list:
    """Cut the rows of a compressed pattern into at most ``n_runs``
    contiguous runs ``(r0, r1)`` of about equal entry counts."""
    cuts = np.searchsorted(indptr, indptr[-1] * np.arange(1, n_runs) // n_runs)
    bounds = np.unique(np.concatenate(([0], cuts, [indptr.size - 1])))
    return [(int(r0), int(r1)) for r0, r1 in zip(bounds[:-1], bounds[1:])]


def _add_rows_product(a: sp.csr_matrix, r0: int, r1: int, x: np.ndarray, y: np.ndarray):
    """y += A[r0:r1] x through the kernel of ``A @ x``, reading A's own
    arrays; x and y are C-contiguous and of A's dtype."""
    indptr = a.indptr[r0:r1 + 1]
    if x.ndim == 1:
        _sparsetools.csr_matvec(r1 - r0, a.shape[1], indptr, a.indices, a.data, x, y)
    else:
        _sparsetools.csr_matvecs(r1 - r0, a.shape[1], x.shape[1], indptr, a.indices,
                                 a.data, x.ravel(), y.ravel())


class RowSplitProduct:
    """x -> A x for a CSR matrix A, split by rows across the available cores.

    The rows are cut once into contiguous blocks ``(r0, r1)`` of roughly
    equal nnz: one per core, but no more than leave ``SPLIT_MIN_NNZ``
    nonzeros to each.  A product applies scipy's CSR kernel to each block,
    reading A's own arrays (no copy) and writing into its rows of one
    zero-initialized output, as ``A @ x`` does for the whole matrix.  The
    first block runs on the calling thread, the others on a shared thread
    pool; the kernel releases the GIL.  Every row is summed by the same
    kernel in the same order as in ``A @ x``, so the result is bit-identical
    to it, for a vector or an (n, k) block.  With one block, or another
    dtype than A's, the product is ``A @ x``.
    """

    def __init__(self, matrix: sp.csr_matrix):
        self.matrix = matrix
        self.blocks = _row_runs(matrix.indptr,
                                max(1, min(_cores(), matrix.nnz // SPLIT_MIN_NNZ)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        a = self.matrix
        if len(self.blocks) < 2 or x.dtype != a.dtype:
            return a @ x
        x = np.ascontiguousarray(x)
        y = np.zeros((a.shape[0],) + x.shape[1:], dtype=a.dtype)
        pool = _row_pool()
        futures = [pool.submit(self._apply, block, x, y) for block in self.blocks[1:]]
        self._apply(self.blocks[0], x, y)
        for f in futures:
            f.result()
        return y

    def _apply(self, block, x: np.ndarray, y: np.ndarray):
        r0, r1 = block
        _add_rows_product(self.matrix, r0, r1, x, y[r0:r1])


class AssemblyPlan:
    """Sparsity pattern of one element set, built once and filled per operator.

    ``rows`` (E, a) and ``cols`` (E, b) give the block row and block column
    of each element's local nodes in a matrix of ``shape`` blocks, a row or
    column at the count (the dummy block of ``DofMap``) being eliminated;
    ``kinds`` (E,) picks one of ``n_kinds`` local matrices per element.
    Only the E*a*b node pairs are keyed: the pattern is the sorted set of
    distinct pairs, and ``count`` maps the n_kinds*a*b local block positions
    to its slots, so each operator is one sparse-dense product.
    """

    def __init__(self, rows, cols, shape, kinds=None, n_kinds: int = 1):
        a, b = rows.shape[1], cols.shape[1]
        nr, nc = shape
        keep = (rows[:, :, None] < nr) & (cols[:, None, :] < nc)
        keys = (rows[:, :, None] * nc + cols[:, None, :])[keep]
        pos = np.arange(a * b).reshape(a, b)
        if kinds is not None:
            pos = pos + (a * b) * kinds[:, None, None]
        pos = np.broadcast_to(pos, keep.shape)[keep]
        pairs, slot = np.unique(keys, return_inverse=True)
        self.shape = (nr, nc)
        self.indices = pairs % nc
        self.indptr = np.searchsorted(pairs // nc, np.arange(nr + 1))
        self.count = sp.csr_matrix((np.ones(slot.size), (slot, pos)),
                                   shape=(pairs.size, n_kinds * a * b))

    def fill(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum the local blocks, shaped ([n_kinds,] a, b, br, bc), into a CSR
        matrix without stored zeros.

        The CSR arrays are allocated once, at their final size, and filled
        run by run: the block rows are cut into br*bc runs of about equal
        slot counts, so the (slots, br*bc) sums of a run hold about as many
        entries as one block entry has over the whole operator.  A first
        pass counts the nonzero sums of each run; the second sums each run
        again, converts it from block-sparse to CSR rows with its exact
        zeros dropped and copies them into place.  The result equals the
        conversion of the whole block matrix with ``eliminate_zeros``."""
        br, bc = local.shape[-2:]
        local = np.ascontiguousarray(local.reshape(-1, br * bc), dtype=self.count.dtype)
        nr, nc = self.shape
        runs = _row_runs(self.indptr, br * bc)
        nnz = sum(np.count_nonzero(self._sums(local, *run)) for run in runs)
        itype = np.int32 if max(nnz, nc * bc) <= np.iinfo(np.int32).max else np.int64
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=itype)
        indptr = np.zeros(nr * br + 1, dtype=itype)
        for r0, r1 in runs:
            s0, s1 = self.indptr[r0], self.indptr[r1]
            part = sp.bsr_matrix((self._sums(local, r0, r1).reshape(-1, br, bc),
                                  self.indices[s0:s1], self.indptr[r0:r1 + 1] - s0),
                                 shape=((r1 - r0) * br, nc * bc)).tocsr()
            part.eliminate_zeros()
            at = indptr[r0 * br]
            data[at:at + part.nnz] = part.data
            indices[at:at + part.nnz] = part.indices
            indptr[r0 * br + 1:r1 * br + 1] = at + part.indptr[1:]
        return sp.csr_matrix((data, indices, indptr), shape=(nr * br, nc * bc))

    def _sums(self, local: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Summed local entries (slots, br*bc) of the block rows r0..r1-1:
        those rows of ``count @ local``."""
        s0, s1 = self.indptr[r0], self.indptr[r1]
        sums = np.zeros((s1 - s0, local.shape[1]))
        _add_rows_product(self.count, s0, s1, local, sums)
        return sums


def assemble_forms(mesh, dofmap: DofMap, local_matrices, elems=None) -> list:
    """CSR matrices of dof-level local matrices (node-major, 8 ncomp square),
    each summed over the elements (all mesh elements when ``elems`` is
    None).  The forms share one ``AssemblyPlan``, dropped on return."""
    nc = dofmap.ncomp
    blocks = dofmap.node_blocks[mesh.elems if elems is None else elems]
    n = dofmap.n_dofs // nc
    plan = AssemblyPlan(blocks, blocks, (n, n))
    del blocks  # the fills run without the element table
    return [plan.fill(local.reshape(8, nc, 8, nc).transpose(0, 2, 1, 3))
            for local in local_matrices]


def scatter_vector(local: np.ndarray, edofs: np.ndarray, n: int) -> np.ndarray:
    """Accumulate per-element local vectors (E, nd) into a global vector;
    the dummy slot n of the eliminated dofs is cut off."""
    return np.bincount(np.ravel(edofs), weights=np.ravel(local), minlength=n + 1)[:n]


def elasticity_element(spacing, tensor: ElasticityTensor4) -> np.ndarray:
    """(24, 24) matrix of (u, v) -> int A D(u) : D(v) on one element."""
    B = strain_matrices(spacing)
    return np.einsum("q,qia,ij,qjb->ab", hex_reference(spacing)[2], B, tensor.mandel(), B)


def assemble_elasticity(mesh, tensor: ElasticityTensor4, dofmap: DofMap,
                        elems=None) -> SymmetricOperator:
    """Operator of (u, v) -> int A D(u) : D(v) over the mesh elements."""
    local = elasticity_element(mesh.spacing, tensor)
    return SymmetricOperator(assemble_forms(mesh, dofmap, [local], elems)[0])


def mass_element(spacing, ncomp: int) -> np.ndarray:
    """(8 ncomp, 8 ncomp) matrix of (u, v) -> int u . v on one element."""
    return component_element(spacing, [1.0] * ncomp, [[0.0] * ncomp] * 3)


def component_element(spacing, mass_weights, grad_weights) -> np.ndarray:
    """Local matrix of the quadratic form sum_c m_c |u_c|^2 + sum_{i,c}
    g[i,c] |d_i u_c|^2, one component per mass weight m_c; ``grad_weights[i][c]``
    weighs the derivative of component c along axis i, and zero weights add 0.
    Used for the weighted norms in the inequality estimates."""
    N, G, w, _ = hex_reference(spacing)
    nn = np.einsum("q,qa,qb->ab", w, N, N)
    gg = np.einsum("q,qai,qbi->iab", w, G, G)
    nc = len(mass_weights)
    local = np.zeros((8 * nc, 8 * nc))
    for c in range(nc):
        block = mass_weights[c] * nn
        for i in range(3):
            block = block + grad_weights[i][c] * gg[i]
        local[c::nc, c::nc] = block
    return local


def assemble_anisotropic(mesh, dofmap: DofMap, mass_weights,
                         grad_weights) -> SymmetricOperator:
    """Operator of the ``component_element`` form over all mesh elements
    (the benchmark's reference script assembles the Korn form through it)."""
    local = component_element(mesh.spacing, mass_weights, grad_weights)
    return SymmetricOperator(assemble_forms(mesh, dofmap, [local])[0])


def assemble_surface_mass(mesh, dofmap: DofMap, faces: np.ndarray) -> SymmetricOperator:
    """Operator of (u, v) -> int_S u . v over the given element faces."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    nc = dofmap.ncomp
    # one local matrix per (axis, side) on the four nodes of the face
    w, nf, _ = _face_reference(tuple(mesh.spacing))
    nf = np.take_along_axis(nf, HEX_FACE_NODES[:, None, :], axis=2)
    local = np.einsum("kq,kqa,kqb->kab", w, nf, nf)
    kinds = _face_kinds(faces)
    nodes = mesh.elems[faces[:, :1], HEX_FACE_NODES[kinds]]
    blocks = dofmap.node_blocks[nodes]
    n = dofmap.n_dofs // nc
    plan = AssemblyPlan(blocks, blocks, (n, n), kinds=kinds, n_kinds=len(HEX_FACES))
    return SymmetricOperator(plan.fill(local[..., None, None] * np.eye(nc)))


def _face_kinds(faces: np.ndarray) -> np.ndarray:
    """Position of each face's (axis, side) in HEX_FACES."""
    return 2 * faces[:, 1] + (faces[:, 2] > 0)


def surface_quadrature(mesh, faces: np.ndarray):
    """Physical quadrature points and weights over a face list.

    Returns (pts, w) of shapes (F*4, 3) and (F*4,); ordering follows the
    face list."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    w, _, ref = _face_reference(tuple(mesh.spacing))
    kinds = _face_kinds(faces)
    origin = mesh.coords[mesh.elems[faces[:, 0], 0]]
    pts = origin[:, None, :] + ref[kinds] * np.asarray(mesh.spacing)
    return pts.reshape(-1, 3), w[kinds].reshape(-1)


def surface_load_vector(mesh, dofmap, faces: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Load vector of phi -> int_S q . phi for per-face-quad-point values.

    ``values`` has shape (F*4, ncomp) matching the ordering of
    ``surface_quadrature``."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    vals = np.asarray(values).reshape(faces.shape[0], 4, dofmap.ncomp)
    w, nf, _ = _face_reference(tuple(mesh.spacing))
    kinds = _face_kinds(faces)
    local = np.einsum("fq,fqa,fqc->fac", w[kinds], nf[kinds], vals)
    edofs = dofmap.element_dofs(mesh.elems[faces[:, 0]])
    return scatter_vector(local.reshape(edofs.shape), edofs, dofmap.n_dofs)


def mean_zero_augmentations(mesh, dofmap: DofMap, scale_from: SymmetricOperator):
    """Constraint columns V (n, ncomp) and weights sigma (ncomp,) enforcing a
    zero mean per component.

    Column m_c holds the integrals of the shape functions of component c
    (the mean functional u -> int u_c), scattered from one element vector.
    Without eliminated dofs it equals M e_c, the vector mass matrix applied
    to the unit field of component c, with no mass assembly.  For a consistent
    right-hand side, CG on K + sum sigma_c m_c m_c^T returns the unique
    mean-zero solution of K u = r (the symmetric elimination of one scalar
    multiplier per component).
    """
    N, G, w, _ = hex_reference(mesh.spacing)
    nc = dofmap.ncomp
    edofs = dofmap.element_dofs(mesh.elems)
    local = np.broadcast_to(w @ N, (edofs.shape[0], N.shape[1]))
    ms = [scatter_vector(local, edofs[:, c::nc], dofmap.n_dofs) for c in range(nc)]
    s0 = scale_from.matrix.diagonal().mean()
    return np.stack(ms, axis=1), np.array([s0 / np.dot(m, m) for m in ms])


# ---------------------------------------------------------------------------
# fields and the symmetric gradient
# ---------------------------------------------------------------------------

def element_values(mesh, nodal: np.ndarray) -> np.ndarray:
    """Field values at quadrature points, shape (E, n_q, ncomp)."""
    N, G, w, _ = hex_reference(mesh.spacing)
    return np.einsum("eac,qa->eqc", nodal[mesh.elems], N, optimize=True)


def element_fields(mesh, nodal: np.ndarray, elems=None) -> np.ndarray:
    """Values and Mandel symmetric gradient of a three-component field at
    the quadrature points, shape (E, n_q, 9): the three values, then the
    six Mandel strains.  One gather and one product with a table cached per
    spacing."""
    el = mesh.elems if elems is None else elems
    table = _value_strain_table(tuple(float(h) for h in mesh.spacing))
    return (nodal[el].reshape(el.shape[0], -1) @ table).reshape(el.shape[0], -1, 9)


def gradient_decomposition(mesh, nodal: np.ndarray) -> np.ndarray:
    """Symmetric gradient D(u) of a three-component nodal field at the
    quadrature points in Mandel form, shape (E, n_q, 6), read from the
    strain columns of ``element_fields``.  (The name is kept because the
    benchmark traces it.)"""
    return element_fields(mesh, nodal)[..., 3:]


def quadrature_weights(mesh) -> np.ndarray:
    N, G, w, _ = hex_reference(mesh.spacing)
    return np.broadcast_to(w, (mesh.elems.shape[0], w.shape[0]))


def quadrature_points(mesh) -> np.ndarray:
    """Physical coordinates of the quadrature points, shape (E, n_q, 3)."""
    N, G, w, ref = hex_reference(mesh.spacing)
    origin = mesh.coords[mesh.elems[:, 0]]  # corner (0,0,0) of each box element
    h = np.asarray(mesh.spacing)
    return origin[:, None, :] + ref[None, :, :] * h[None, None, :]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def jacobi(diagonal: np.ndarray):
    """Jacobi preconditioner r -> r / diagonal, for a vector or for each
    column of an (n, k) block.  Raises SingularWithoutConstraints on a zero
    and IndefiniteDetected on a negative diagonal entry."""
    if np.any(diagonal == 0):
        raise SingularWithoutConstraints(
            "operator has empty rows; constraints were probably not applied")
    if np.any(diagonal < 0):
        raise IndefiniteDetected("operator has negative diagonal entries")
    inv_d = 1.0 / diagonal
    inv_col = inv_d[:, None]
    return lambda r: (inv_d if r.ndim == 1 else inv_col) * r


def _q1_eigenbasis(intervals: int, h: float, clamped: bool):
    """Eigenpairs (lam, V) of K v = lam M v, V^T M V = I, for the 1D Q1
    stiffness K and mass M on ``intervals`` intervals of length h: on the
    interior nodes when both ends are clamped, on all nodes when they are
    free.  M^-1/2 comes from the eigendecomposition of M."""
    n = intervals + 1
    off = np.eye(n, k=1) + np.eye(n, k=-1)
    mass = (h / 6.0) * (4.0 * np.eye(n) + off)
    stiff = (1.0 / h) * (2.0 * np.eye(n) - off)
    mass[[0, -1], [0, -1]] /= 2.0
    stiff[[0, -1], [0, -1]] /= 2.0
    if clamped:
        mass, stiff = mass[1:-1, 1:-1], stiff[1:-1, 1:-1]
    mu, q = np.linalg.eigh(mass)
    root = (q / np.sqrt(mu)) @ q.T
    lam, w = np.linalg.eigh(root @ stiff @ root)
    return lam, root @ w


class FilledLayer:
    """Preconditioner r -> R B^-1 R^T r of an operator on the clamped layer.

    B is the pore-filled layer with every lateral node clamped: on the voxel
    grid of ``mesh``, block-diagonal over the displacement components
    (Blaheta, Numer. Linear Algebra Appl. 1, 1994), component c taking the
    form m |u_c|^2 + s sum_i C_cici |d_i u_c|^2 of the entries C_cici of
    ``tensor``.  R restricts the grid to the node blocks of ``dofmap``.
    Each block is a sum of Kronecker products of 1D Q1 matrices, so the
    generalized eigenbases of the axes (``_q1_eigenbasis``: clamped in x1
    and x2, free ends in x3) diagonalize it (fast diagonalization: Lynch,
    Rice and Thomas, Numer. Math. 6, 1964).  The layer's free dofs must lie
    inside the clamped grid, which keeps R B^-1 R^T positive definite; a
    free dof on a lateral grid face raises InconsistentMesh.

    A product scatters r through one flat dof index into a kept zero grid
    (k, 3, x3, x1, x2) for k columns, applies V^T along x3, x1 and x2 by
    matmuls, divides by the eigenvalues of B and applies V back, into two
    kept work grids, and gathers.
    """

    def __init__(self, mesh, dofmap: DofMap, tensor: ElasticityTensor4, m: float, s: float):
        nb = dofmap.n_dofs // 3
        grid = np.empty((nb + 1, 3), dtype=np.int64)
        grid[dofmap.node_blocks] = mesh.node_grid[dofmap.master]
        i1, i2, i3 = grid[:nb].T
        n1, n2, n3 = mesh.voxel_elems.shape
        if np.any((i1 == 0) | (i1 == n1) | (i2 == 0) | (i2 == n2)):
            raise InconsistentMesh("a free dof lies on the lateral boundary, "
                                   "outside the clamped filled layer")
        h = mesh.spacing
        (l1, self.v1), (l2, self.v2), (l3, self.v3) = (
            _q1_eigenbasis(n1, h[0], True), _q1_eigenbasis(n2, h[1], True),
            _q1_eigenbasis(n3, h[2], False))
        self.v1t, self.v2t, self.v3t = (np.ascontiguousarray(v.T)
                                        for v in (self.v1, self.v2, self.v3))
        self.grid_shape = shape = (n3 + 1, n1 - 1, n2 - 1)
        c = s * np.einsum("cici->ci", tensor.components)
        self.inv_d = 1.0 / (m + c[:, 0, None, None, None] * l1[:, None]
                            + c[:, 1, None, None, None] * l2
                            + c[:, 2, None, None, None] * l3[:, None, None])
        node = np.ravel_multi_index((i3, i1 - 1, i2 - 1), shape)
        self.index = (node[:, None] + np.prod(shape) * np.arange(3)).ravel()
        self._grids = ()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """R B^-1 R^T r for a vector r or for each column of an (n, k) block."""
        k = 1 if r.ndim == 1 else r.shape[1]
        if not self._grids or self._grids[0].shape[0] != k:
            # the first grid stays zero off the dofs; the other two are work
            shape = (k, 3) + self.grid_shape
            self._grids = (np.zeros(shape), np.empty(shape), np.empty(shape))
        grid, w1, w2 = self._grids
        n3, n1, n2 = self.grid_shape
        grid.reshape(k, -1)[:, self.index] = r.T
        np.matmul(self.v3t, grid.reshape(-1, n3, n1 * n2), out=w1.reshape(-1, n3, n1 * n2))
        np.matmul(self.v1t, w1.reshape(-1, n1, n2), out=w2.reshape(-1, n1, n2))
        np.matmul(w2.reshape(-1, n2), self.v2, out=w1.reshape(-1, n2))
        w1 *= self.inv_d
        np.matmul(w1.reshape(-1, n2), self.v2t, out=w2.reshape(-1, n2))
        np.matmul(self.v1, w2.reshape(-1, n1, n2), out=w1.reshape(-1, n1, n2))
        np.matmul(self.v3, w1.reshape(-1, n3, n1 * n2), out=w2.reshape(-1, n3, n1 * n2))
        z = w2.reshape(k, -1)[:, self.index]
        return z[0] if r.ndim == 1 else z.T


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching columns of two (n, k) blocks."""
    return np.einsum("ij,ij->j", a, b)


def _column_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_dot(a, a))


def solve_spd(op: SymmetricOperator, rhs: np.ndarray, tol: float = 1e-10,
              x0: np.ndarray | None = None, max_iter: int | None = None,
              precond=None) -> np.ndarray:
    """Preconditioned conjugate gradients with a fixed iteration order, for a
    right-hand side b of shape (n,) or (n, k) and ``x0`` of the same shape.

    A block runs k independent recurrences in lockstep: column j has its own
    step lengths and r . z and stops at |r_j| <= tol |b_j|; each iteration
    makes one ``op.matvec`` and one ``precond`` call on the columns still
    active.  A converged column is frozen, and a zero column returns zeros.
    A vector b is reduced by ``np.dot`` and ``np.linalg.norm``, a block by
    column sums.

    ``precond`` maps a residual r (a vector or a block) to z = B r for a
    symmetric positive definite B; the default is ``jacobi(op.diagonal())``.
    Raises MaxIterationsExceeded beyond the cap 20 sqrt(n) + 200, naming
    the columns of a block that stalled, and IndefiniteDetected on a
    nonpositive curvature direction or a nonpositive r . z (an indefinite
    preconditioner) in an active column.
    """
    n = rhs.shape[0]
    if n == 0:
        return rhs.copy()
    if max_iter is None:
        max_iter = int(20 * np.sqrt(n) + 200)
    if precond is None:
        precond = jacobi(op.diagonal())
    block = rhs.ndim == 2
    # a vector's tests are on scalars, where bool() is much cheaper than np.any
    if block:
        dot, norm, anyof = _column_dot, _column_norm, np.any
    else:
        dot, norm, anyof = np.dot, np.linalg.norm, bool
    bnorm = norm(rhs)
    if not block:
        if not bnorm:
            return np.zeros(n)
    else:  # the active columns; the zero ones are solved already
        out = np.zeros(rhs.shape)
        cols = np.flatnonzero(bnorm)
        if not cols.size:
            return out
        if cols.size < bnorm.size:
            rhs, bnorm = rhs[:, cols], bnorm[cols]
            x0 = None if x0 is None else x0[:, cols]
    x = np.zeros(rhs.shape) if x0 is None else x0.copy()
    r = rhs - op.matvec(x) if x0 is not None else rhs.copy()
    z = precond(r)
    p = z.copy()
    rz = dot(r, z)
    for it in range(max_iter + 1):
        done = norm(r) <= tol * bnorm
        if anyof(done):
            if not block:
                return x
            out[:, cols[done]] = x[:, done]
            if np.all(done):
                return out
            live = ~done
            cols, bnorm, rz = cols[live], bnorm[live], rz[live]
            x, r, p = x[:, live], r[:, live], p[:, live]
        if it == max_iter:
            break
        if anyof(rz <= 0):
            raise IndefiniteDetected(
                f"nonpositive r.z = {np.min(rz):.3e}: the preconditioner is not positive definite")
        ap = op.matvec(p)
        pap = dot(p, ap)
        if anyof(pap <= 0):
            raise IndefiniteDetected(
                f"nonpositive curvature p.Ap = {np.min(pap):.3e} in conjugate gradients")
        alpha = rz / pap
        ap *= alpha
        r -= ap
        np.multiply(p, alpha, out=ap)
        x += ap
        del ap, z  # free large block arrays before the preconditioner runs
        z = precond(r)
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    stalled = f" in columns {cols.tolist()}" if block else ""
    raise MaxIterationsExceeded(
        f"CG stalled{stalled} at relative residual {np.max(norm(r) / bnorm):.3e} "
        f"after {max_iter} iterations")


EIGEN_BLOCK = 3  # columns of the LOBPCG block
EIGEN_MAX_SWEEPS = 400  # sweeps before max_rayleigh_pair gives up


@dataclass
class EigenResult:
    value: float
    residual: float
    iterations: int


def max_rayleigh_pair(apply_b, apply_a, a_diag: np.ndarray, tol: float = 1e-8,
                      seed: int = 0, project=None, precond=None) -> EigenResult:
    """Largest mu with B x = mu A x by block LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23(2), 2001).

    ``apply_a`` and ``apply_b`` map an (n, k) block to its image; A must be
    positive definite on the iteration subspace, of diagonal ``a_diag``.
    ``precond`` maps the residual block to the search directions through a
    symmetric positive definite approximation of A^-1, as in ``solve_spd``;
    the default is ``jacobi(a_diag)``.  Each sweep is
    a Rayleigh-Ritz step over [X, W, P]: the Ritz block, the preconditioned
    residuals and the previous update.  Only W meets the operators; A and B
    on X and P are carried by recombination.  ``project`` removes a known
    common kernel from the start block and from W.  Stops once the top
    pair's relative residual |Bx - mu Ax| / |Bx| is at most sqrt(tol), which
    puts mu within about tol of the eigenvalue, and raises
    ConvergenceFailure after ``EIGEN_MAX_SWEEPS`` sweeps.
    """
    if precond is None:
        precond = jacobi(a_diag)
    rng = np.random.default_rng(seed)
    n = a_diag.size
    X = rng.standard_normal((n, max(1, min(EIGEN_BLOCK, n))))
    if project is not None:
        X = project(X)
    S, AS, BS = X, apply_a(X), apply_b(X)
    nx = X.shape[1]  # leading columns of S that hold the previous Ritz block
    residual = np.inf
    for it in range(1, EIGEN_MAX_SWEEPS + 1):
        C, mu = _rayleigh_ritz(S, AS, BS, X.shape[1])
        X, AX, BX = S @ C, AS @ C, BS @ C
        R = BX - AX * mu
        bnorm = np.linalg.norm(BX[:, 0])
        residual = float(np.linalg.norm(R[:, 0]) / bnorm) if bnorm > 0 else 0.0
        if residual <= np.sqrt(tol):
            return EigenResult(float(mu[0]), residual, it)
        # the update without its part along the previous block (zero on the
        # first sweep: the Ritz step drops zero columns)
        P, AP, BP = (M[:, nx:] @ C[nx:] for M in (S, AS, BS))
        W = precond(R)
        if project is not None:
            W = project(W)
        S = np.hstack([X, W, P])
        AS = np.hstack([AX, apply_a(W), AP])
        BS = np.hstack([BX, apply_b(W), BP])
        nx = X.shape[1]
    raise ConvergenceFailure(
        f"eigen iteration did not converge in {EIGEN_MAX_SWEEPS} sweeps "
        f"(last residual {residual:.3e})")


def _rayleigh_ritz(S, AS, BS, k: int):
    """Top k Ritz pairs of (B, A) on span(S), as coefficients C with
    (S C)^T A (S C) = I and descending values.  The span is A-orthonormalized
    through the eigendecomposition of the column-scaled Gram matrix, and
    directions below 1e-13 of its largest eigenvalue are discarded."""
    ga = S.T @ AS
    d = np.diag(ga)
    scale = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0)
    ga = scale[:, None] * (0.5 * (ga + ga.T)) * scale
    lam, U = np.linalg.eigh(ga)
    keep = lam > 1e-13 * lam[-1]
    Q = scale[:, None] * U[:, keep] / np.sqrt(lam[keep])
    gb = S.T @ BS
    H = Q.T @ (0.5 * (gb + gb.T)) @ Q
    mu, V = np.linalg.eigh(H)
    top = np.argsort(mu)[::-1][:k]
    return Q @ V[:, top], mu[top]
