"""Shared fixtures; heavyweight objects are session-scoped so the acceptance
suite and unit tests reuse the same solves."""

import tracemalloc

import numpy as np
import pytest

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import plate as pp

BOX_HOLE = ("box", ((0.25, 0.75), (0.25, 0.75), (-0.5, 0.5)))
SIGMA = ((0, 1), (0, 1))


@pytest.fixture(scope="session")
def iso_tensor():
    return fem.ElasticityTensor4.isotropic(1.0, 1.0)


@pytest.fixture(scope="session")
def full_geom():
    return pg.build_cell_geometry("full", m=4)


@pytest.fixture(scope="session")
def box_geom():
    return pg.build_cell_geometry(BOX_HOLE, m=4)


@pytest.fixture(scope="session")
def full_cell_n8(full_geom, iso_tensor):
    mesh = pg.build_cell_mesh(full_geom, 8)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-12)
    eff = pc.effective_tensors(mesh, iso_tensor, sols)
    return mesh, sols, eff


@pytest.fixture(scope="session")
def box_cell_n8(box_geom, iso_tensor):
    mesh = pg.build_cell_mesh(box_geom, 8)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-12)
    eff = pc.effective_tensors(mesh, iso_tensor, sols)
    return mesh, sols, eff


@pytest.fixture(scope="session")
def box_cell_n16(box_geom, iso_tensor):
    mesh = pg.build_cell_mesh(box_geom, 16)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-11)
    eff = pc.effective_tensors(mesh, iso_tensor, sols)
    return mesh, sols, eff


@pytest.fixture(scope="session")
def box_cell_n4(box_geom, iso_tensor):
    mesh = pg.build_cell_mesh(box_geom, 4)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-11)
    eff = pc.effective_tensors(mesh, iso_tensor, sols)
    return mesh, sols, eff


def rng(seed=0):
    return np.random.default_rng(seed)


def mass_operator(mesh, dofmap, elems=None):
    """The mass operator of (u, v) -> int u . v, one form of
    ``fem.assemble_forms``."""
    local = fem.mass_element(mesh.spacing, dofmap.ncomp)
    return fem.SymmetricOperator(fem.assemble_forms(mesh, dofmap, [local], elems)[0])


def dense(op):
    """Dense matrix of an operator (CSR or element matrix, with its
    augmentations), one product per unit column."""
    n = op.shape[0]
    out = np.empty((n, n))
    unit = np.zeros(n)
    for j in range(n):
        unit[j] = 1.0
        out[:, j] = op.matvec(unit)
        unit[j] = 0.0
    return out


def traced_peak(fn, *args, **kwargs):
    """(result, peak) of ``fn(*args, **kwargs)``: peak is the most memory,
    in bytes, that tracemalloc saw allocated during the call (numpy arrays
    included) and not freed."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def column(kind, ij):
    """Column of the cell problem (kind, ij) in a solution block and its
    residuals (``cell.PROBLEMS`` order)."""
    return pc.PROBLEMS.index((kind, ij))


def sym_gradient(mesh, u, elems=None):
    """Reference symmetric gradient (E, n_q, 3, 3) of a nodal field, built
    from the shape-function gradients of ``hex_reference`` and independent
    of the Mandel strain table behind ``fem.gradient_decomposition``."""
    G = fem.hex_reference(mesh.spacing)[1]
    el = mesh.elems if elems is None else elems
    grad = np.einsum("eai,qaj->eqij", u[el], G)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def rigid_field(coords, coeffs):
    """Nodal rigid displacement: the combination of ``fem.rigid_modes``
    (three translations, then rotations about e1, e2, e3) with ``coeffs``."""
    return np.tensordot(coeffs, fem.rigid_modes(coords), axes=1)


def voigt_bound(tensor, mesh):
    """Stretch tensor obtained with zero cell correction (upper bound in the
    Loewner order on symmetric 2x2 inputs)."""
    w = fem.quadrature_weights(mesh)
    vol = mesh.geometry.solid_volume
    m = fem.sym_to_mandel(np.stack([pc.basis_matrix(*ij) for ij in pc.INDEX_PAIRS]))
    g = w.sum() / vol * (m @ tensor.mandel() @ m.T)
    return pc._block(0.5 * (g + g.T))


def kirchhoff_love_field(lmesh, plate_state, eps):
    """Nodal micro field of the exact Kirchhoff-Love ansatz
    u3 = w(xbar), u_alpha = eps u1_alpha - x3 d_alpha w."""
    system = plate_state.system
    pts = lmesh.coords[:, :2]
    x3 = lmesh.coords[:, 2]
    wvals, grad, _ = pp.evaluate_deflection(system, plate_state.w, pts,
                                            derivatives=True)
    u1 = pp.evaluate_membrane(system, plate_state.m, pts)
    out = np.empty((lmesh.n_nodes, 3))
    out[:, 0] = eps * u1[:, 0] - x3 * grad[:, 0]
    out[:, 1] = eps * u1[:, 1] - x3 * grad[:, 1]
    out[:, 2] = wvals
    return out
