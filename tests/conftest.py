"""Shared fixtures; heavyweight objects are session-scoped so the acceptance
suite and unit tests reuse the same solves."""

import numpy as np
import pytest

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg

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
