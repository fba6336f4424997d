import os
import signal

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import inequalities as inq
from perfolayer import micro as pm
from perfolayer.errors import (IndefiniteDetected, MaxIterationsExceeded,
                               SingularWithoutConstraints)

from conftest import SIGMA, rigid_field, rng, sym_gradient


def shear_tensor():
    # A B : B = |B|^2 on symmetric matrices
    return fem.ElasticityTensor4.identity()


def test_tensor_symmetry_enforced():
    a = fem.ElasticityTensor4.isotropic(1.0, 1.0).components.copy()
    a[0, 0, 1, 1] += 1e-3  # breaks the major symmetry
    with pytest.raises(ValueError):
        fem.ElasticityTensor4(a)


def test_tensor_coercivity():
    t = fem.ElasticityTensor4.isotropic(1.0, 1.0)
    assert t.c0 == pytest.approx(2.0, rel=1e-12)  # min(2 mu, 3 lam + 2 mu)
    r = rng(3)
    for _ in range(50):
        b = r.standard_normal((3, 3))
        b = 0.5 * (b + b.T)
        quad = np.einsum("ijkl,ij,kl->", t.components, b, b)
        assert quad >= t.c0 * np.sum(b * b) - 1e-12
    with pytest.raises(ValueError):
        fem.ElasticityTensor4(np.zeros((3, 3, 3, 3)))


def _cell_mesh(n=2, m=2, descriptor="full"):
    geom = pg.build_cell_geometry(descriptor, m=m)
    return pg.build_cell_mesh(geom, n)


def test_elasticity_energy_uniform_strain():
    mesh = _cell_mesh(n=1, m=1)
    dm = fem.DofMap(mesh, 3)
    op = fem.assemble_elasticity(mesh, shear_tensor(), dm)
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 0] = mesh.coords[:, 0]  # u = x1 e1
    red = dm.restrict(u)
    assert op.quad(red) == pytest.approx(2.0, rel=1e-12)


def test_elasticity_energy_rigid_is_zero():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3)
    op = fem.assemble_elasticity(mesh, fem.ElasticityTensor4.isotropic(1.3, 0.7), dm)
    red = dm.restrict(rigid_field(mesh.coords, [0.1, -0.2, 0.3, -0.2, -0.1, -0.4]))
    bound = 1e-10 * dm.n_dofs * np.abs(op.matrix).max()
    assert op.quad(red) <= bound


def test_elasticity_energy_matches_dense_quadrature():
    # oracle: independent per-element evaluation with a 4x4x4 Gauss rule
    mesh = _cell_mesh(n=2)
    tensor = fem.ElasticityTensor4.isotropic(0.8, 1.7)
    dm = fem.DofMap(mesh, 3)
    op = fem.assemble_elasticity(mesh, tensor, dm)
    r = rng(7)
    u = r.standard_normal((mesh.n_nodes, 3))

    x1, w1 = np.polynomial.legendre.leggauss(4)
    total = 0.0
    h = mesh.spacing
    signs = 2.0 * pg.HEX_CORNERS - 1.0
    for e in range(mesh.n_elems):
        ue = u[mesh.elems[e]]
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    xi = np.array([x1[a], x1[b], x1[c]])
                    G = np.empty((8, 3))
                    G[:, 0] = 0.125 * signs[:, 0] * (1 + signs[:, 1] * xi[1]) * (1 + signs[:, 2] * xi[2]) * 2 / h[0]
                    G[:, 1] = 0.125 * signs[:, 1] * (1 + signs[:, 0] * xi[0]) * (1 + signs[:, 2] * xi[2]) * 2 / h[1]
                    G[:, 2] = 0.125 * signs[:, 2] * (1 + signs[:, 0] * xi[0]) * (1 + signs[:, 1] * xi[1]) * 2 / h[2]
                    grad = ue.T @ G
                    d = 0.5 * (grad + grad.T)
                    quad = np.einsum("ijkl,ij,kl->", tensor.components, d, d)
                    total += w1[a] * w1[b] * w1[c] * (h[0] * h[1] * h[2] / 8.0) * quad
    assert op.quad(dm.restrict(u)) == pytest.approx(total, rel=1e-12)


def test_assembly_linearity():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3)
    t1 = fem.ElasticityTensor4.isotropic(1.0, 1.0)
    t2 = fem.ElasticityTensor4.isotropic(0.5, 2.0)
    t12 = fem.ElasticityTensor4(t1.components + t2.components)
    k1 = fem.assemble_elasticity(mesh, t1, dm).matrix
    k2 = fem.assemble_elasticity(mesh, t2, dm).matrix
    k12 = fem.assemble_elasticity(mesh, t12, dm).matrix
    diff = (k12 - (k1 + k2)).toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(k12.toarray()).max()


def test_mass_values():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3)
    m = fem.assemble_mass(mesh, dm)
    ones = np.zeros((mesh.n_nodes, 3))
    ones[:, 0] = 1.0
    assert m.quad(dm.restrict(ones)) == pytest.approx(2.0, rel=1e-13)
    m4 = fem.assemble_mass(mesh, dm, weight=4.0)  # weight 1/eps, eps = 1/4
    assert m4.quad(dm.restrict(ones)) == pytest.approx(8.0, rel=1e-13)
    lin = np.zeros((mesh.n_nodes, 3))
    lin[:, 0] = mesh.coords[:, 2]
    assert m.quad(dm.restrict(lin)) == pytest.approx(2.0 / 3.0, rel=1e-13)
    with pytest.raises(ValueError):
        fem.assemble_mass(mesh, dm, weight=0.0)


def test_mean_zero_vectors_equal_mass_products():
    # m_c is scattered from the shape-function integrals; without eliminated
    # dofs it must equal the assembled vector mass matrix applied to the unit
    # field of component c
    geom = pg.build_cell_geometry(("box", ((0.25, 0.75), (0.25, 0.75), (-0.5, 0.5))), m=4)
    mesh = pg.build_cell_mesh(geom, 4)
    lm = pg.build_layer_mesh(pg.build_cell_geometry("full", m=2), 0.5, SIGMA, 2)
    cases = [(mesh, fem.DofMap(mesh, 3, periodic=True)),
             (lm, fem.DofMap(lm, 3))]
    for m, dm in cases:
        k = fem.assemble_elasticity(m, shear_tensor(), dm)
        mass = fem.assemble_mass(m, dm)
        s0 = k.matrix.diagonal().mean()
        vs, sig = fem.mean_zero_augmentations(m, dm, k)
        assert vs.shape == (dm.n_dofs, 3) and sig.shape == (3,)
        for c, (sigma, m_c) in enumerate(zip(sig, vs.T)):
            ones = np.zeros((m.n_nodes, 3))
            ones[:, c] = 1.0
            want = mass.matvec(dm.restrict(ones))
            assert np.abs(m_c - want).max() <= 1e-13 * np.abs(want).max()
            assert sigma == pytest.approx(s0 / np.dot(want, want), rel=1e-13)


def test_scatter_vector_matches_add_at():
    # the sums run in the order of np.add.at, so the result is bit-identical;
    # eliminated (-1) dofs are dropped
    lm = pg.build_layer_mesh(pg.build_cell_geometry("full", m=2), 1.0, SIGMA, 2)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    edofs = dm.element_dofs(lm.elems)
    assert (edofs < 0).any() and (edofs >= 0).any()
    local = rng(4).standard_normal(edofs.shape)
    want = np.zeros(dm.n_dofs)
    keep = edofs >= 0
    np.add.at(want, edofs[keep], local[keep])
    assert np.array_equal(fem.scatter_vector(local, edofs, dm.n_dofs), want)


def test_quadrature_contractions_match_plain_einsum():
    mesh = _cell_mesh(n=4, m=2)
    N, G, _, _ = fem.hex_reference(mesh.spacing)
    u = rng(5).standard_normal((mesh.n_nodes, 3))
    d = fem.gradient_decomposition(mesh, u)
    want = fem.sym_to_mandel(sym_gradient(mesh, u))
    assert d.shape == want.shape
    assert np.abs(d - want).max() <= 1e-13 * np.abs(want).max()
    vals = fem.element_values(mesh, u)
    want = np.einsum("eac,qa->eqc", u[mesh.elems], N)
    assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()


def test_gradient_decomposition_cases():
    mesh = _cell_mesh(n=2)
    a = np.array([[0, 0.3, -0.2], [-0.3, 0, 0.1], [0.2, -0.1, 0]])
    u = mesh.coords @ a.T
    assert np.abs(fem.gradient_decomposition(mesh, u)).max() < 1e-13

    d2 = fem.gradient_decomposition(mesh, mesh.coords.copy())
    assert np.allclose(d2, [1, 1, 1, 0, 0, 0], atol=1e-13)

    u3 = np.zeros((mesh.n_nodes, 3))
    u3[:, 0] = mesh.coords[:, 2]  # D_13 = 1/2, Mandel 13 entry sqrt(2)/2
    d3 = fem.gradient_decomposition(mesh, u3)
    assert np.allclose(d3, [0, 0, 0, 0, np.sqrt(2.0) / 2.0, 0], atol=1e-13)


def test_solve_spd_trivial():
    import scipy.sparse as sp

    eye = fem.SymmetricOperator(sp.identity(5, format="csr"))
    r = np.arange(1.0, 6.0)
    assert np.allclose(fem.solve_spd(eye, r, tol=1e-14), r)
    d = fem.SymmetricOperator(sp.diags([1.0, 4.0]).tocsr())
    x = fem.solve_spd(d, np.array([1.0, 4.0]), tol=1e-14)
    assert np.allclose(x, [1.0, 1.0])


def _layer_operator():
    lm = pg.build_layer_mesh(_cell_mesh(n=2).geometry, 1.0, SIGMA, 2)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    return fem.assemble_elasticity(lm, shear_tensor(), dm)


def test_solve_spd_vs_dense():
    op = _layer_operator()
    r = rng(5).standard_normal(op.shape[0])
    tol = 1e-11
    x = fem.solve_spd(op, r, tol=tol)
    x_dense = np.linalg.solve(op.dense(), r)
    assert np.linalg.norm(x - x_dense) <= 10 * tol * np.linalg.norm(x_dense)


def test_solve_spd_indefinite_detected():
    import scipy.sparse as sp

    bad = fem.SymmetricOperator(sp.diags([1.0, -1.0]).tocsr())
    with pytest.raises(IndefiniteDetected):
        fem.solve_spd(bad, np.array([1.0, 1.0]), tol=1e-12)


def _widths(op, rhs, **kw):
    """Block solve recording the width of every preconditioner call."""
    jac = fem.jacobi(op.diagonal())
    widths = []

    def record(r):
        widths.append(r.shape[1])
        return jac(r)

    return fem.solve_spd(op, rhs, precond=record, **kw), widths


def test_augmented_matvec_applies_to_blocks(box_geom):
    mesh = pg.build_cell_mesh(box_geom, 4)
    dm = fem.DofMap(mesh, 3, periodic=True)
    op = pc._cell_operator(mesh, fem.ElasticityTensor4.isotropic(1.0, 1.0), dm)
    assert op.vs.shape == (op.shape[0], 3)
    x = rng(10).standard_normal((op.shape[0], 5))
    got = op.matvec(x)
    want = np.column_stack([op.matvec(c) for c in x.T])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(got - op.dense() @ x).max() <= 1e-13 * np.abs(want).max()


def test_block_solve_spd_columns_against_dense():
    # a column b = D v, v an eigenvector of D^-1 A, converges in one Jacobi
    # step and a mix of three in three; the scales are far apart, a zero
    # column returns zeros, and the other columns run on without them
    op = _layer_operator()
    a, d = op.dense(), op.diagonal()
    vecs = sla.eigh(a, np.diag(d))[1]
    r = rng(11)
    rhs = np.column_stack([1e6 * d * vecs[:, 3], np.zeros(op.shape[0]),
                           1e-6 * d * (vecs[:, [0, 5, 9]] @ [1.0, -2.0, 0.5]),
                           r.standard_normal(op.shape[0])])
    tol = 1e-11
    x, widths = _widths(op, rhs, tol=tol)
    assert widths[:2] == [3, 3] and widths[2:4] == [2, 2] and widths[-1] == 1
    want = np.linalg.solve(a, rhs)
    for j in (0, 2, 3):
        assert np.linalg.norm(x[:, j] - want[:, j]) <= 10 * tol * np.linalg.norm(want[:, j])
    assert not np.any(x[:, 1]) and not np.signbit(x[:, 1]).any()
    zeros = np.zeros((op.shape[0], 2))
    assert np.array_equal(fem.solve_spd(op, zeros), zeros)


def test_block_solve_spd_starts_from_block_x0():
    op = _layer_operator()
    r = rng(12)
    rhs = r.standard_normal((op.shape[0], 3))
    want = np.linalg.solve(op.dense(), rhs)
    x0 = r.standard_normal(rhs.shape)
    x0[:, 1] = want[:, 1]  # converged on entry: returned as given
    x0[:, 2] = want[:, 2] + 1e-3 * r.standard_normal(op.shape[0])
    tol = 1e-11
    x, widths = _widths(op, rhs, tol=tol, x0=x0)
    assert widths[0] == 3 and set(widths[1:]) == {2}
    assert np.array_equal(x[:, 1], x0[:, 1])
    for j in (0, 2):
        assert np.linalg.norm(x[:, j] - want[:, j]) <= 10 * tol * np.linalg.norm(want[:, j])
    assert np.array_equal(x0[:, 1], want[:, 1])  # x0 itself is not written


def test_block_solve_spd_guards_each_column():
    op = fem.SymmetricOperator(sp.diags([1.0, 2.0, -1.0, 3.0]).tocsr())
    eye = np.eye(4)
    x = fem.solve_spd(op, eye[:, [0, 1, 3]], precond=lambda r: r.copy())
    assert np.allclose(x, eye[:, [0, 1, 3]] / [1.0, 2.0, 3.0])
    with pytest.raises(IndefiniteDetected):
        fem.solve_spd(op, eye[:, [0, 2]], precond=lambda r: r.copy())


def test_block_solve_spd_names_stalled_columns():
    op = _layer_operator()
    d = op.diagonal()
    v = sla.eigh(op.dense(), np.diag(d))[1][:, 2]
    rhs = np.column_stack([rng(13).standard_normal(op.shape[0]), d * v,
                           rng(14).standard_normal(op.shape[0])])
    with pytest.raises(MaxIterationsExceeded, match=r"in columns \[0, 2\] .* after 2 iter"):
        fem.solve_spd(op, rhs, tol=1e-11, max_iter=2)
    with pytest.raises(MaxIterationsExceeded, match=r"^CG stalled at relative residual"):
        fem.solve_spd(op, rhs[:, 0], tol=1e-11, max_iter=2)


def test_max_rayleigh_pair_vs_dense():
    # small clamped Korn-type pencil against the dense eigensolver oracle:
    # the largest mu of B x = mu A x is the reciprocal of the smallest
    # lambda of A v = lambda B v
    geom = pg.build_cell_geometry("full", m=2)
    lm = pg.build_layer_mesh(geom, 1.0, SIGMA, 2)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    a = fem.assemble_elasticity(lm, shear_tensor(), dm)
    b = fem.assemble_mass(lm, dm)
    res = fem.max_rayleigh_pair(b.matvec, a.matvec, a.diagonal(), tol=1e-10, seed=2)
    lam_dense = sla.eigh(a.dense(), b.dense(), eigvals_only=True)[0]
    assert 1.0 / res.value == pytest.approx(lam_dense, rel=1e-6)


def test_periodic_roundtrip_constant_in_plane():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3, periodic=True)
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 1] = np.sin(mesh.coords[:, 2])  # constant in y1, y2
    back = dm.expand(dm.restrict(u))
    assert np.allclose(back, u, atol=1e-15)


def test_quadrature_gradient_first_order_convergence():
    errs = []
    for n in (4, 8, 16):
        mesh = _cell_mesh(n=n, m=2)
        u = np.zeros((mesh.n_nodes, 3))
        u[:, 0] = np.sin(np.pi * mesh.coords[:, 0]) * np.cos(mesh.coords[:, 2])
        d = fem.gradient_decomposition(mesh, u)
        pts = fem.quadrature_points(mesh)
        exact = np.pi * np.cos(np.pi * pts[..., 0]) * np.cos(pts[..., 2])
        errs.append(np.abs(d[..., 0] - exact).max())
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def _face_rule_loop(spacing, axis, side):
    """The former per-face construction of the 2x2 Gauss rule: in-face axes,
    reference points in [-1, 1]^2, physical weights and the trilinear shape
    values (4, 8) on the face (axis, side)."""
    g = 1.0 / np.sqrt(3.0)
    x1, w1 = np.array([-g, g]), np.array([1.0, 1.0])
    axes = [d for d in range(3) if d != axis]
    jac = spacing[axes[0]] * spacing[axes[1]] / 4.0
    pts, wts = [], []
    for a in range(2):
        for b in range(2):
            pts.append((x1[a], x1[b]))
            wts.append(w1[a] * w1[b] * jac)
    pts = np.array(pts)
    signs = 2.0 * pg.HEX_CORNERS - 1.0
    vals = np.empty((4, 8))
    for q in range(4):
        xi = np.empty(3)
        xi[axes[0]] = pts[q, 0]
        xi[axes[1]] = pts[q, 1]
        xi[axis] = float(side)
        vals[q] = 0.125 * ((1 + signs[:, 0] * xi[0])
                           * (1 + signs[:, 1] * xi[1])
                           * (1 + signs[:, 2] * xi[2]))
    return axes, pts, np.array(wts), vals


def _per_face_surface(mesh, dofmap, faces, values):
    """Surface points, weights and load vector assembled face by face."""
    h = np.asarray(mesh.spacing)
    pts, wts = [np.zeros((0, 3))], [np.zeros(0)]
    load = np.zeros(dofmap.n_dofs)
    for f, (e, axis, side) in enumerate(faces):
        axes, ref, w, Nf = _face_rule_loop(mesh.spacing, int(axis), int(side))
        origin = mesh.coords[mesh.elems[e, 0]]
        phys = np.empty((4, 3))
        phys[:, axes[0]] = origin[axes[0]] + (ref[:, 0] + 1.0) / 2.0 * h[axes[0]]
        phys[:, axes[1]] = origin[axes[1]] + (ref[:, 1] + 1.0) / 2.0 * h[axes[1]]
        phys[:, axis] = origin[axis] + (h[axis] if side > 0 else 0.0)
        pts.append(phys)
        wts.append(w)
        local = np.einsum("q,qa,qc->ac", w, Nf, values[4 * f:4 * f + 4]).reshape(-1)
        edofs = dofmap.element_dofs(mesh.elems[int(e)][None, :])[0]
        keep = edofs >= 0
        np.add.at(load, edofs[keep], local[keep])
    return np.concatenate(pts), np.concatenate(wts), load


@pytest.fixture(scope="module")
def face_lists(box_geom):
    """(mesh, dof map, faces) for the gamma faces of the solid layer at eps
    1/2 and 1/4, the lateral faces of the complete channel layer and an
    empty list."""
    cases = {}
    for eps in (0.5, 0.25):
        lm = pg.build_layer_mesh(box_geom, eps, SIGMA, 4)
        dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
        cases[f"gamma{eps}"] = (lm, dm, lm.gamma_faces)
    geom = pg.build_cell_geometry(pg.channel_mask(4), m=4)
    lm = pg.build_layer_mesh(geom, 0.5, SIGMA, 4, include_void=True)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    cases["lateral"] = (lm, dm, lm.lateral_faces)
    cases["empty"] = (lm, dm, np.zeros((0, 3), dtype=np.int64))
    return cases


@pytest.mark.parametrize("case", ["gamma0.5", "gamma0.25", "lateral", "empty"])
def test_surface_quadrature_and_load_match_per_face_loop(face_lists, case):
    lmesh, dm, faces = face_lists[case]
    kinds = {(int(a), int(s)) for _, a, s in faces}
    if case.startswith("gamma"):
        assert kinds == {(a, s) for a in range(3) for s in (-1, 1)}
    elif case == "lateral":
        assert kinds == {(a, s) for a in (0, 1) for s in (-1, 1)}
    values = rng(4).standard_normal((4 * faces.shape[0], 3))
    pts, w = fem.surface_quadrature(lmesh, faces)
    load = fem.surface_load_vector(lmesh, dm, faces, values)
    want_pts, want_w, want_load = _per_face_surface(lmesh, dm, faces, values)
    assert pts.shape == (4 * faces.shape[0], 3) and w.shape == (4 * faces.shape[0],)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(w, want_w)
    assert np.array_equal(load, want_load)
    assert load.any() == (faces.shape[0] > 0)


def _element_loop(local, rows, cols, shape):
    """Dense reference: add each element's local matrix (one shared, or one
    per element) into the global array, skipping eliminated (-1) dofs."""
    out = np.zeros(shape)
    for e in range(rows.shape[0]):
        loc = local if local.ndim == 2 else local[e]
        r, c = rows[e], cols[e]
        kr, kc = r >= 0, c >= 0
        np.add.at(out, (r[kr][:, None], c[kc][None, :]), loc[np.ix_(kr, kc)])
    return out


def _assert_matches_loop(mat, want):
    assert mat.shape == want.shape
    assert mat.nnz == np.count_nonzero(mat.data)  # no stored zeros
    assert np.abs(mat.toarray() - want).max() <= 1e-14 * np.abs(want).max()


def _volume_locals(mesh, tensor):
    """Dof-level local elasticity and unit mass matrices (node-major)."""
    N, G, w, _ = fem.hex_reference(mesh.spacing)
    B = fem.strain_matrices(mesh.spacing)
    k = np.einsum("q,qia,ij,qjb->ab", w, B, tensor.mandel(), B)
    m = np.kron(np.einsum("q,qa,qb->ab", w, N, N), np.eye(3))
    return k, m


def test_volume_assembly_matches_element_loop(box_geom):
    tensor = fem.ElasticityTensor4.isotropic(0.8, 1.7)
    cell = pg.build_cell_mesh(box_geom, 4)
    layer = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4)
    full = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4, include_void=True)
    cases = [  # periodic cell, clamped layer, solid and void subsets
        (cell, fem.DofMap(cell, 3, periodic=True), cell.elems),
        (layer, fem.DofMap(layer, 3, dirichlet_nodes=layer.dirichlet_nodes), None),
        (full, fem.DofMap(full, 3), full.elems[full.solid]),
        (full, fem.DofMap(full, 3), full.elems[~full.solid]),
    ]
    for mesh, dm, elems in cases:
        k_loc, m_loc = _volume_locals(mesh, tensor)
        edofs = dm.element_dofs(mesh.elems if elems is None else elems)
        shape = (dm.n_dofs, dm.n_dofs)
        k = fem.assemble_elasticity(mesh, tensor, dm, elems=elems).matrix
        _assert_matches_loop(k, _element_loop(k_loc, edofs, edofs, shape))
        m = fem.assemble_mass(mesh, dm, weight=2.0, elems=elems).matrix
        _assert_matches_loop(m, _element_loop(2.0 * m_loc, edofs, edofs, shape))
    # mass couples equal components only: two thirds of each 3x3 block is zero
    assert m.nnz == 3 * dm.plan(elems).count.shape[0]
    mesh, dm, _ = cases[1]
    N, G, w, _ = fem.hex_reference(mesh.spacing)
    gg = np.einsum("q,qai,qbi->iab", w, G, G)
    nn = np.einsum("q,qa,qb->ab", w, N, N)
    local = np.zeros((24, 24))
    for c in range(3):
        local[c::3, c::3] = (c + 1.0) * nn + gg[0] + 2.0 * gg[1] + 0.5 * c * gg[2]
    grad_w = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [0.0, 0.5, 1.0]]
    b = fem.assemble_anisotropic(mesh, dm, (1.0, 2.0, 3.0), grad_w).matrix
    edofs = dm.element_dofs(mesh.elems)
    _assert_matches_loop(b, _element_loop(local, edofs, edofs, (dm.n_dofs,) * 2))


def _face_mass_loop(mesh, dofmap, faces):
    """Sparse surface mass summed face by face from ``_face_rule_loop``."""
    rows, cols, vals = [], [], []
    for e, axis, side in faces:
        _, _, w, Nf = _face_rule_loop(mesh.spacing, int(axis), int(side))
        local = np.kron(np.einsum("q,qa,qb->ab", w, Nf, Nf), np.eye(3))
        edofs = dofmap.element_dofs(mesh.elems[int(e)][None, :])[0]
        r, c = np.meshgrid(edofs, edofs, indexing="ij")
        keep = (r >= 0) & (c >= 0) & (local != 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(local[keep])
    n = dofmap.n_dofs
    if not rows:
        return sp.csr_matrix((n, n))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))), shape=(n, n))


@pytest.mark.parametrize("case", ["gamma0.5", "gamma0.25", "lateral", "empty"])
def test_surface_mass_matches_face_loop(face_lists, case):
    lm, dm, faces = face_lists[case]
    got = fem.assemble_surface_mass(lm, dm, faces).matrix
    want = _face_mass_loop(lm, dm, faces)
    assert got.nnz == np.count_nonzero(got.data)  # no stored zeros
    assert got.nnz == want.nnz
    # one face of each (axis, side): every entry has one term, bit for bit
    for kind in np.unique(2 * faces[:, 1] + (faces[:, 2] > 0)):
        one = faces[np.argmax(2 * faces[:, 1] + (faces[:, 2] > 0) == kind)][None, :]
        diff = fem.assemble_surface_mass(lm, dm, one).matrix - _face_mass_loop(lm, dm, one)
        assert diff.count_nonzero() == 0
    # the whole list sums up to four terms per entry in another order
    if want.nnz:
        assert abs(got - want).max() <= 1e-14 * abs(want).max()


def test_operators_over_one_element_array_share_one_plan(box_geom, monkeypatch):
    built = []

    class CountingPlan(fem.AssemblyPlan):
        def __init__(self, *args, **kwargs):
            built.append(args[0].shape)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fem, "AssemblyPlan", CountingPlan)
    lm = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4)
    ops = pm.assemble_micro(lm, fem.ElasticityTensor4.isotropic(1.0, 1.0), 0.5)
    assert built == [lm.elems.shape]  # mass and stiffness
    assert ops.mass.matrix.nnz < ops.stiffness.matrix.nnz
    # a new DofMap builds its own plan, and so does another element array
    full = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4, include_void=True)
    built.clear()
    inq.extension_problem(full)
    assert len(built) == 2  # solid elements (energy and mass), void elements


def test_hex_reference_cached_read_only():
    a = fem.hex_reference((0.25, 0.25, 0.25))
    b = fem.hex_reference([0.25, 0.25, 0.25])
    assert all(x is y for x, y in zip(a, b))
    for arr in a:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert fem.hex_reference((0.5, 0.5, 0.5))[2][0] == pytest.approx(8.0 * a[2][0], rel=1e-15)


def _hex_reference_loop(spacing):
    """The former per-point construction of the 2x2x2 Gauss tables."""
    hx, hy, hz = spacing
    g = 1.0 / np.sqrt(3.0)
    x1, w1 = np.array([-g, g]), np.array([1.0, 1.0])
    pts, wts = [], []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pts.append((x1[a], x1[b], x1[c]))
                wts.append(w1[a] * w1[b] * w1[c])
    pts, wts = np.array(pts), np.array(wts)
    signs = 2.0 * pg.HEX_CORNERS - 1.0
    N = np.empty((8, 8))
    G = np.empty((8, 8, 3))
    scale = np.array([2.0 / hx, 2.0 / hy, 2.0 / hz])
    for q in range(8):
        xi = pts[q]
        N[q] = 0.125 * (1 + signs[:, 0] * xi[0]) * (1 + signs[:, 1] * xi[1]) * (1 + signs[:, 2] * xi[2])
        G[q, :, 0] = 0.125 * signs[:, 0] * (1 + signs[:, 1] * xi[1]) * (1 + signs[:, 2] * xi[2]) * scale[0]
        G[q, :, 1] = 0.125 * signs[:, 1] * (1 + signs[:, 0] * xi[0]) * (1 + signs[:, 2] * xi[2]) * scale[1]
        G[q, :, 2] = 0.125 * signs[:, 2] * (1 + signs[:, 0] * xi[0]) * (1 + signs[:, 1] * xi[1]) * scale[2]
    return N, G, wts * (hx * hy * hz / 8.0), (pts + 1.0) / 2.0


@pytest.mark.parametrize("spacing", [(0.25,) * 3, (1.0 / 32,) * 3, (0.1, 0.2, 0.3)])
def test_hex_reference_equals_former_loop(spacing):
    for got, want in zip(fem.hex_reference(spacing), _hex_reference_loop(spacing)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_trilinear_basis():
    xi = rng(11).uniform(-1.0, 1.0, (50, 3))
    N, dN = fem.trilinear(xi)
    assert N.shape == (50, 8) and dN.shape == (50, 8, 3)
    assert np.abs(N.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.abs(dN.sum(axis=1)).max() <= 1e-15
    # nodal interpolation reproduces affine fields and their gradients
    a = rng(12).standard_normal((4, 2))
    corners = 2.0 * pg.HEX_CORNERS - 1.0
    nodal = a[0] + corners @ a[1:]
    assert np.abs(N @ nodal - (a[0] + xi @ a[1:])).max() <= 1e-14
    assert np.abs(np.einsum("pac,ak->pck", dN, nodal) - a[1:]).max() <= 1e-14
    # the corners themselves: N is the identity there
    assert np.array_equal(fem.trilinear(corners)[0], np.eye(8))


def _strain_matrices_loop(G):
    """The per-entry construction of the Mandel strain-displacement tables."""
    B = np.zeros((G.shape[0], 6, 24))
    for q in range(G.shape[0]):
        for a in range(8):
            for c in range(3):
                s = np.zeros((3, 3))
                s[c, :] += 0.5 * G[q, a, :]
                s[:, c] += 0.5 * G[q, a, :]
                B[q, :, 3 * a + c] = fem.sym_to_mandel(s)
    return B


@pytest.mark.parametrize("spacing", [(0.25, 0.25, 0.25), (0.5, 0.125, 1.0 / 3.0)])
def test_strain_matrices_equal_loop_cached_read_only(spacing):
    B = fem.strain_matrices(spacing)
    assert np.array_equal(B, _strain_matrices_loop(fem.hex_reference(spacing)[1]))
    assert fem.strain_matrices(list(spacing)) is B
    with pytest.raises(ValueError):
        B[...] = 0.0


def test_symmetric_operator_diagonal_computed_once():
    r = rng(4)
    a = r.standard_normal((6, 6))
    v = r.standard_normal(6)
    op = fem.SymmetricOperator(sp.csr_matrix(a @ a.T), v[:, None], [2.0])
    d = op.diagonal()
    assert np.array_equal(d, np.diag(a @ a.T) + 2.0 * v * v)
    assert op.diagonal() is d
    with pytest.raises(ValueError):
        d[0] = 1.0


# ---------------------------------------------------------------------------
# row-split products
# ---------------------------------------------------------------------------

def _matrix_with_empty_rows():
    a = sp.random(60, 45, density=0.2, random_state=5, format="lil")
    a[5:9] = 0.0   # a run of empty rows
    a[-3:] = 0.0   # empty rows at the end
    a = a.tocsr()
    a.eliminate_zeros()
    assert np.diff(a.indptr)[[5, 8, 59]].max() == 0
    return a


def _split(a, n_blocks, monkeypatch):
    """The row-split product of ``a`` on ``n_blocks`` cores, without a floor."""
    monkeypatch.setattr(fem, "_cores", lambda: n_blocks)
    monkeypatch.setattr(fem, "SPLIT_MIN_NNZ", 1)
    return fem.RowSplitProduct(a)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_row_split_product_equals_matrix_product(n_blocks, monkeypatch):
    a = _matrix_with_empty_rows()
    prod = _split(a, n_blocks, monkeypatch)
    bounds = np.ravel(prod.blocks)
    assert len(prod.blocks) == n_blocks
    assert bounds[0] == 0 and bounds[-1] == a.shape[0]
    assert np.all(bounds[1:-1:2] == bounds[2:-1:2])  # contiguous blocks
    r = rng(6)
    for shape in (45, (45, 1), (45, 2), (45, 4)):
        x = r.standard_normal(shape)
        assert np.array_equal(prod(x), a @ x)


@pytest.mark.parametrize("n_blocks", [2, 3])
def test_row_split_product_bits_on_layer_operator(box_geom, n_blocks, monkeypatch):
    lm = pg.build_layer_mesh(box_geom, 0.25, SIGMA, 4)
    ops = pm.assemble_micro(lm, fem.ElasticityTensor4.isotropic(1.0, 1.0), 0.25)
    a = pm.effective_operator(ops, 0.25 / 8).matrix
    prod = _split(a, n_blocks, monkeypatch)
    assert len(prod.blocks) == n_blocks
    nnz = np.array([a.indptr[r1] - a.indptr[r0] for r0, r1 in prod.blocks])
    assert nnz.sum() == a.nnz and nnz.max() - nnz.min() <= 2 * np.diff(a.indptr).max()
    r = rng(8)
    for width in (None, 1, 2, 3):
        x = r.standard_normal(a.shape[0] if width is None else (a.shape[0], width))
        assert np.array_equal(prod(x), a @ x)
    # the blocks read the matrix's own arrays, not copies made at the cut
    a.data *= 1.5
    x = r.standard_normal(a.shape[0])
    assert np.array_equal(prod(x), a @ x)


def test_row_split_block_count_follows_cores_and_floor(monkeypatch):
    a = _matrix_with_empty_rows()
    monkeypatch.setattr(fem, "_cores", lambda: 3)
    for floor, want in ((a.nnz + 1, 1), (a.nnz // 2, 2), (1, 3)):
        monkeypatch.setattr(fem, "SPLIT_MIN_NNZ", floor)
        assert len(fem.RowSplitProduct(a).blocks) == want
    monkeypatch.setattr(fem, "SPLIT_MIN_NNZ", a.nnz + 1)
    assert fem.RowSplitProduct(a).blocks == [(0, a.shape[0])]


def test_operator_below_floor_never_creates_pool(monkeypatch):
    monkeypatch.setattr(fem, "_pool", None)
    a = _matrix_with_empty_rows()
    x = rng(2).standard_normal(45)
    assert a.nnz < fem.SPLIT_MIN_NNZ
    fem.RowSplitProduct(a)(x)
    fem.SymmetricOperator(a @ a.T).matvec(rng(2).standard_normal(60))
    assert fem._pool is None
    _split(a, 2, monkeypatch)(x)
    assert fem._pool is not None
    fem._pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_row_pool(monkeypatch):
    # the pool's threads do not survive a fork; a child that reused the
    # parent's pool would wait forever for its row blocks
    monkeypatch.setattr(fem, "_pool", None)
    a = _matrix_with_empty_rows()
    x = rng(2).standard_normal(45)
    prod = _split(a, 2, monkeypatch)
    prod(x)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        signal.alarm(10)
        os._exit(0 if np.array_equal(prod(x), a @ x) else 1)
    _, status = os.waitpid(pid, 0)
    fem._pool.shutdown()
    assert os.waitstatus_to_exitcode(status) == 0


def _recorded_solve(op, rhs, precond):
    seen = []

    def record(r):
        seen.append(r.copy())
        return precond(r)

    return fem.solve_spd(op, rhs, tol=1e-10, precond=record), seen


@pytest.mark.parametrize("multigrid, width", [(False, None), (True, None), (False, 3), (True, 3)],
                         ids=["False", "True", "False-block", "True-block"])
def test_split_products_keep_cg_iterates(box_geom, multigrid, width, monkeypatch):
    monkeypatch.setattr(pc, "MULTIGRID_MIN_DOFS", 0)
    monkeypatch.setattr(fem, "_pool", None)
    mesh = pg.build_cell_mesh(box_geom, 8)
    dm = fem.DofMap(mesh, 3, periodic=True)
    rhs = rng(4).standard_normal(dm.n_dofs if width is None else (dm.n_dofs, width))
    runs = []
    for floor, cores in ((10**12, 1), (1, 3)):
        monkeypatch.setattr(fem, "SPLIT_MIN_NNZ", floor)
        monkeypatch.setattr(fem, "_cores", lambda cores=cores: cores)
        op = pc._cell_operator(mesh, fem.ElasticityTensor4.isotropic(1.0, 1.0), dm)
        assert len(op._product.blocks) == cores and op._product.matrix is op.matrix
        precond = pc._cell_multigrid(op, dm) if multigrid else fem.jacobi(op.diagonal())
        if multigrid:
            assert precond.levels[0].op is op
            assert all(len(lv.op._product.blocks) == cores
                       and lv.op._product.matrix is lv.op.matrix for lv in precond.levels)
        runs.append(_recorded_solve(op, rhs, precond))
    (x_off, seen_off), (x_on, seen_on) = runs
    assert len(seen_off) == len(seen_on) > 5
    assert all(np.array_equal(a, b) for a, b in zip(seen_off, seen_on))
    assert np.array_equal(x_off, x_on)
    fem._pool.shutdown()


# ---------------------------------------------------------------------------
# preconditioners
# ---------------------------------------------------------------------------

def test_jacobi_checks_diagonal_and_applies_to_blocks():
    with pytest.raises(SingularWithoutConstraints):
        fem.jacobi(np.array([1.0, 0.0]))
    with pytest.raises(IndefiniteDetected):
        fem.jacobi(np.array([1.0, -2.0]))
    jac = fem.jacobi(np.array([2.0, 4.0]))
    assert np.array_equal(jac(np.array([1.0, 1.0])), [0.5, 0.25])
    assert np.array_equal(jac(np.ones((2, 3))), np.tile([[0.5], [0.25]], 3))


def test_solve_spd_rejects_indefinite_preconditioner():
    op = fem.SymmetricOperator(sp.diags([1.0, 2.0]).tocsr())
    with pytest.raises(IndefiniteDetected):
        fem.solve_spd(op, np.array([1.0, 1.0]), precond=lambda r: -r)


def _cell_multigrid(geom, n, coarsest, monkeypatch):
    monkeypatch.setattr(fem.GridMultigrid, "coarsest", coarsest)
    monkeypatch.setattr(pc, "MULTIGRID_MIN_DOFS", 0)
    mesh = pg.build_cell_mesh(geom, n)
    dm = fem.DofMap(mesh, 3, periodic=True)
    op = pc._cell_operator(mesh, fem.ElasticityTensor4.isotropic(1.0, 1.0), dm)
    return op, pc._cell_multigrid(op, dm)


def test_grid_multigrid_on_clamped_korn_layer(box_geom):
    # the Korn operator: clamped (eliminated node blocks), not periodic, and
    # perforated (nodes missing from the background grid)
    lm = pg.build_layer_mesh(box_geom, 0.25, SIGMA, 4)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    op = fem.assemble_elasticity(lm, fem.ElasticityTensor4.identity(), dm)
    assert not dm.periodic and (dm.node_blocks < 0).any()
    assert (lm.voxel_elems < 0).any()
    mg = fem.GridMultigrid(op, dm)
    assert len(mg.levels) >= 2 and mg.levels[0].op is op
    b = rng(5).standard_normal(op.shape[0])
    iters = []
    for precond in (fem.jacobi(op.diagonal()), mg):
        calls = []
        x = fem.solve_spd(op, b, tol=1e-10,
                          precond=lambda r, f=precond: calls.append(1) or f(r))
        assert np.linalg.norm(op.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)
        iters.append(len(calls) - 1)  # one call before the first iteration
    jac, vcycle = iters
    assert vcycle < jac / 2


def _interpolate_periodic(values, t):
    """Piecewise-linear periodic interpolation of ``values`` at positions t."""
    lo = np.floor(t).astype(np.int64)
    frac = t - lo
    return (1 - frac) * values[lo % values.size] + frac * values[(lo + 1) % values.size]


@pytest.mark.parametrize("n", [4, 8])
def test_grid_prolongation_reproduces_trilinear_fields(box_geom, n, monkeypatch):
    # a product field: random and periodic in y1 and y2, linear in y3; its
    # trilinear interpolant is the product of the 1D interpolants, and the
    # coarse grid indices must already be wrapped (no index n/2 on y1, y2)
    _, mg = _cell_multigrid(box_geom, n, 30, monkeypatch)
    assert np.array_equal(mg.levels[-1].grid.max(axis=0), [1, 1, 2])  # 2 x 2 x 2
    r = rng(3)
    intervals = np.array([n, n, 2 * n])
    for fine, coarse in zip(mg.levels[:-1], mg.levels[1:]):
        halve = (intervals % 2 == 0) & (intervals > 2)
        intervals = np.where(halve, intervals // 2, intervals)
        g1, g2 = r.standard_normal(intervals[0]), r.standard_normal(intervals[1])
        c = coarse.grid
        field = g1[c[:, 0]] * g2[c[:, 1]] * (0.5 + c[:, 2])
        t = fine.grid / np.where(halve, 2.0, 1.0)
        want = (_interpolate_periodic(g1, t[:, 0]) * _interpolate_periodic(g2, t[:, 1])
                * (0.5 + t[:, 2]))
        for comp in range(3):
            coarse_dofs = np.zeros(3 * c.shape[0])
            coarse_dofs[comp::3] = field
            got = (fine.prolong @ coarse_dofs).reshape(-1, 3)
            assert np.abs(got[:, comp] - want).max() <= 1e-14 * np.abs(want).max()
            assert not np.any(np.delete(got, comp, axis=1))
        assert np.all(abs(fine.prolong).sum(axis=0) > 0)  # no zero column


def test_grid_coarse_operators_are_galerkin_and_spd(box_geom, monkeypatch):
    op, mg = _cell_multigrid(box_geom, 4, 30, monkeypatch)
    assert mg.levels[0].op is op
    for fine, coarse in zip(mg.levels[:-1], mg.levels[1:]):
        p = fine.prolong.toarray()
        a = coarse.op.dense()
        galerkin = p.T @ fine.op.dense() @ p
        assert np.abs(a - galerkin).max() <= 1e-13 * np.abs(galerkin).max()
        assert np.abs(a - a.T).max() <= 1e-13 * np.abs(a).max()
        assert np.linalg.eigvalsh(a).min() > 0


@pytest.mark.parametrize("n, coarsest", [(4, 50), (4, 10), (8, 1500)])
def test_grid_vcycle_symmetric_positive(box_geom, n, coarsest, monkeypatch):
    # coarsest 10 cannot be reached at n = 4: the cycle ends on smoothing
    op, mg = _cell_multigrid(box_geom, n, coarsest, monkeypatch)
    assert (mg._coarse_inverse is None) == (coarsest == 10)
    r = rng(7)
    for _ in range(3):
        x, y = r.standard_normal((2, op.shape[0]))
        bx, by = mg(x), mg(y)
        assert abs(bx @ y - x @ by) <= 1e-12 * np.linalg.norm(bx) * np.linalg.norm(y)
        assert bx @ x > 0
    if n == 4:
        b = np.stack([mg(e) for e in np.eye(op.shape[0])], axis=1)
        assert np.abs(b - b.T).max() <= 1e-12 * np.abs(b).max()
        assert np.linalg.eigvalsh(0.5 * (b + b.T)).min() > 0


def test_grid_vcycle_applies_to_blocks(box_geom, monkeypatch):
    # the periodic cell operator with its three mean-zero augmentations, on
    # three levels and a dense coarsest one
    op, mg = _cell_multigrid(box_geom, 8, 50, monkeypatch)
    assert op.vs.shape[1] == 3 and len(mg.levels) == 4
    assert mg._coarse_inverse is not None
    b = rng(9).standard_normal((op.shape[0], 4))
    got = mg(b)
    want = np.column_stack([mg(c) for c in b.T])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
