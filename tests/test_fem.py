import gc
import os
import signal
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import inequalities as inq
from perfolayer import micro as pm
from perfolayer import plate as pp
from perfolayer.errors import (IndefiniteDetected, MaxIterationsExceeded,
                               SingularWithoutConstraints)
from perfolayer.loads import preset_load_model

from conftest import (BOX_HOLE, SIGMA, dense, mass_operator, rigid_field, rng, sym_gradient,
                      traced_peak)


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
    assert red @ op.matvec(red) == pytest.approx(2.0, rel=1e-12)


def test_elasticity_energy_rigid_is_zero():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3)
    op = fem.assemble_elasticity(mesh, fem.ElasticityTensor4.isotropic(1.3, 0.7), dm)
    red = dm.restrict(rigid_field(mesh.coords, [0.1, -0.2, 0.3, -0.2, -0.1, -0.4]))
    bound = 1e-10 * dm.n_dofs * np.abs(op.matrix).max()
    assert red @ op.matvec(red) <= bound


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
    red = dm.restrict(u)
    assert red @ op.matvec(red) == pytest.approx(total, rel=1e-12)


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
    m = mass_operator(mesh, dm)
    ones = np.zeros((mesh.n_nodes, 3))
    ones[:, 0] = 1.0
    red = dm.restrict(ones)
    assert red @ m.matvec(red) == pytest.approx(2.0, rel=1e-13)
    lin = np.zeros((mesh.n_nodes, 3))
    lin[:, 0] = mesh.coords[:, 2]
    red = dm.restrict(lin)
    assert red @ m.matvec(red) == pytest.approx(2.0 / 3.0, rel=1e-13)


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
        mass = mass_operator(m, dm)
        s0 = k.matrix.diagonal().mean()
        vs, sig = fem.mean_zero_augmentations(m, dm, k)
        assert vs.shape == (dm.n_dofs, 3) and sig.shape == (3,)
        for c, (sigma, m_c) in enumerate(zip(sig, vs.T)):
            ones = np.zeros((m.n_nodes, 3))
            ones[:, c] = 1.0
            want = mass.matvec(dm.restrict(ones))
            assert np.abs(m_c - want).max() <= 1e-13 * np.abs(want).max()
            assert sigma == pytest.approx(s0 / np.dot(want, want), rel=1e-13)


def _add_at_dropping_dummy(edofs, local, n):
    """np.add.at of the element vectors into n dofs, the slots >= n dropped."""
    out = np.zeros(n)
    keep = edofs < n
    np.add.at(out, edofs[keep], local[keep])
    return out


def test_scatter_vector_matches_add_at():
    # the sums run in the order of np.add.at, so the result is bit-identical;
    # the eliminated dofs (the dummy slot n_dofs) are dropped, by the vector
    # scatter and by the element-matrix scatter alike
    lm = pg.build_layer_mesh(pg.build_cell_geometry("full", m=2), 1.0, SIGMA, 2)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    edofs = dm.element_dofs(lm.elems)
    assert (edofs == dm.n_dofs).any() and (edofs < dm.n_dofs).any()
    assert edofs.max() == dm.n_dofs
    local = rng(4).standard_normal(edofs.shape)
    want = _add_at_dropping_dummy(edofs, local, dm.n_dofs)
    assert np.array_equal(fem.scatter_vector(local, edofs, dm.n_dofs), want)
    assert np.array_equal(fem.ElementMatrix(np.eye(24), edofs, dm.n_dofs).scatter(local), want)


@pytest.mark.parametrize("case", ["periodic_cell", "clamped_layer"])
def test_dummy_slot_marks_eliminated_dofs(box_geom, case):
    # an eliminated node has the block and the dof one past the last, in
    # every table; the gathers read a zero there and the scatters drop it
    if case == "clamped_layer":
        mesh = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4)
        dm = fem.DofMap(mesh, 3, dirichlet_nodes=mesh.dirichlet_nodes)
        eliminated = np.isin(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
    else:  # clamped at the bottom: masters and slaves are eliminated
        mesh = pg.build_cell_mesh(box_geom, 4)
        bottom = np.flatnonzero(mesh.node_grid[:, 2] == 0)
        dm = fem.DofMap(mesh, 3, dirichlet_nodes=bottom, periodic=True)
        eliminated = np.isin(dm.master, dm.master[bottom])
    n, n_blocks = dm.n_dofs, dm.n_dofs // 3
    assert eliminated.any() and not eliminated.all()
    assert np.array_equal(dm.node_blocks == n_blocks, eliminated)
    assert np.all(dm.node_blocks <= n_blocks)
    assert np.all(dm.node_dofs[eliminated] == n)
    free = dm.node_blocks[~eliminated, None]
    assert np.array_equal(dm.node_dofs[~eliminated], 3 * free + np.arange(3))
    # a periodic field that vanishes on the eliminated nodes survives the
    # round trip, and the eliminated dofs expand to zero
    grid = mesh.node_grid.copy()
    if dm.periodic:
        grid[:, :2] %= mesh.voxel_elems.shape[:2]
    x = rng(21).standard_normal(tuple(grid.max(axis=0) + 1) + (3,))[tuple(grid.T)]
    x[eliminated] = 0.0
    assert np.array_equal(dm.expand(dm.restrict(x)), x)
    assert dm.restrict(x).shape == (n,)
    # the vector scatter against np.add.at without the dummy slot
    edofs = dm.element_dofs(mesh.elems)
    local = rng(22).standard_normal(edofs.shape)
    want = _add_at_dropping_dummy(edofs, local, n)
    assert np.array_equal(fem.scatter_vector(local, edofs, n), want)
    assert np.array_equal(fem.ElementMatrix(np.eye(24), edofs, n).scatter(local), want)
    # the plan keys no eliminated row or column: the dense sum of the local
    # blocks over the free entries only
    blocks = dm.node_blocks[mesh.elems]
    plan = fem.AssemblyPlan(blocks, blocks, (n_blocks, n_blocks))
    ones = np.ones((8, 8, 1, 1))
    got = plan.fill(ones).toarray()
    assert np.array_equal(got, _element_loop(np.ones((8, 8)), blocks, blocks, got.shape))


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
    # a zero vector right-hand side returns zeros, whatever the start
    x = fem.solve_spd(eye, np.zeros(5), x0=r)
    assert x.shape == (5,) and not x.any()


def _layer_operator():
    lm = pg.build_layer_mesh(_cell_mesh(n=2).geometry, 1.0, SIGMA, 2)
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    return fem.assemble_elasticity(lm, shear_tensor(), dm)


def test_solve_spd_vs_dense():
    op = _layer_operator()
    r = rng(5).standard_normal(op.shape[0])
    tol = 1e-11
    x = fem.solve_spd(op, r, tol=tol)
    x_dense = np.linalg.solve(dense(op), r)
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
    assert np.abs(got - dense(op) @ x).max() <= 1e-13 * np.abs(want).max()


def test_block_solve_spd_columns_against_dense():
    # a column b = D v, v an eigenvector of D^-1 A, converges in one Jacobi
    # step and a mix of three in three; the scales are far apart, a zero
    # column returns zeros, and the other columns run on without them
    op = _layer_operator()
    a, d = dense(op), op.diagonal()
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
    want = np.linalg.solve(dense(op), rhs)
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
    v = sla.eigh(dense(op), np.diag(d))[1][:, 2]
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
    b = mass_operator(lm, dm)
    res = fem.max_rayleigh_pair(b.matvec, a.matvec, a.diagonal(), tol=1e-10, seed=2)
    lam_dense = sla.eigh(dense(a), dense(b), eigvals_only=True)[0]
    assert 1.0 / res.value == pytest.approx(lam_dense, rel=1e-6)


def test_periodic_roundtrip_constant_in_plane():
    mesh = _cell_mesh(n=2)
    dm = fem.DofMap(mesh, 3, periodic=True)
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 1] = np.sin(mesh.coords[:, 2])  # constant in y1, y2
    back = dm.expand(dm.restrict(u))
    assert np.allclose(back, u, atol=1e-15)


def _node_master_reference(nodes, n_lateral, n_vertical):
    """The periodic masters as the cell mesh builder formed them before the
    dof map took them over: wrap i1 = n -> 0 and i2 = n -> 0 and look the
    wrapped grid index up among the (lexicographic) nodes."""
    strides = np.array([(n_lateral + 1) * (n_vertical + 1), n_vertical + 1, 1])
    master = nodes.copy()
    master[:, :2] %= n_lateral
    return np.searchsorted(nodes @ strides, master @ strides)


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("kind", ["box", "channel"])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_periodic_dofmap_wraps_the_lateral_grid(cells, kind, n):
    # the one-cell layer (the reference cell) and the 2 x 2-cell layer
    geom = pg.build_cell_geometry(BOX_HOLE if kind == "box" else pg.channel_mask(4), m=4)
    mesh = pg.build_layer_mesh(geom, 1.0 / cells, SIGMA, n)
    grid = mesh.node_grid
    n_lat = cells * n
    dm = fem.DofMap(mesh, 3, periodic=True)
    reps = np.count_nonzero((grid[:, 0] < n_lat) & (grid[:, 1] < n_lat))
    assert dm.n_dofs == 3 * reps
    ref = _node_master_reference(grid, n_lat, 2 * n)
    assert np.array_equal(fem._periodic_masters(mesh), ref)
    assert np.array_equal(dm.master, ref)
    assert np.array_equal(dm.node_blocks, dm.node_blocks[ref])
    # a field of the wrapped grid index is periodic: it survives the round trip
    table = rng(n).standard_normal((n_lat, n_lat, 2 * n + 1, 3))
    x = table[grid[:, 0] % n_lat, grid[:, 1] % n_lat, grid[:, 2]]
    assert np.array_equal(dm.expand(dm.restrict(x)), x)


@pytest.mark.parametrize("case", ["plain", "clamped", "periodic", "periodic_lateral"])
def test_dofmap_matches_a_per_node_enumeration(box_geom, case):
    # walk the nodes in order: a node is its own master unless the lateral
    # wrap sends its grid index to another node; a master takes the next
    # three dofs unless a Dirichlet node has it as its master
    mesh = pg.build_cell_mesh(box_geom, 4)
    grid = [tuple(g) for g in mesh.node_grid.tolist()]
    n1, n2, n3 = mesh.voxel_elems.shape
    periodic = case.startswith("periodic")
    if case == "clamped":
        dirichlet = [i for i, (a, b, c) in enumerate(grid)
                     if a in (0, n1) or b in (0, n2) or c in (0, n3)]
    elif case == "periodic_lateral":  # the slave nodes
        dirichlet = [i for i, (a, b, c) in enumerate(grid) if a == n1 or b == n2]
    else:
        dirichlet = []
    node_of = {g: i for i, g in enumerate(grid)}
    master = [node_of[(a % n1, b % n2, c)] if periodic else i
              for i, (a, b, c) in enumerate(grid)]
    eliminated = {master[i] for i in dirichlet}
    block = {}
    for i in range(len(grid)):
        if master[i] == i and i not in eliminated:
            block[i] = len(block)
    # an eliminated node has the dummy block and dof, one past the last
    n_blocks = len(block)
    want = [[3 * block[master[i]] + c for c in range(3)] if master[i] in block
            else [3 * n_blocks] * 3 for i in range(len(grid))]
    dm = fem.DofMap(mesh, 3, dirichlet_nodes=dirichlet or None, periodic=periodic)
    assert dm.n_dofs == 3 * n_blocks > 0
    assert dm.node_dofs.tolist() == want
    assert dm.node_blocks.tolist() == [block.get(m, n_blocks) for m in master]
    assert dm.master.tolist() == master


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
        keep = edofs < dofmap.n_dofs
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
    per element) into the global array, skipping eliminated dofs (the dummy
    slot at the row or column count)."""
    out = np.zeros(shape)
    for e in range(rows.shape[0]):
        loc = local if local.ndim == 2 else local[e]
        r, c = rows[e], cols[e]
        kr, kc = r < shape[0], c < shape[1]
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
        m = mass_operator(mesh, dm, elems=elems).matrix
        _assert_matches_loop(m, _element_loop(m_loc, edofs, edofs, shape))
    # mass couples equal components only: two thirds of each 3x3 block is zero
    blocks = dm.node_blocks[elems]
    n_blocks = dm.n_dofs // 3
    assert m.nnz == 3 * fem.AssemblyPlan(blocks, blocks, (n_blocks, n_blocks)).count.shape[0]
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
        keep = (r < dofmap.n_dofs) & (c < dofmap.n_dofs) & (local != 0)
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


def test_plan_counts_per_assembly(box_geom, monkeypatch):
    # the forms over one element array share the one plan of their
    # assemble_forms call; the micro operators are element matrices
    built = []

    class CountingPlan(fem.AssemblyPlan):
        def __init__(self, *args, **kwargs):
            built.append(args[0].shape)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fem, "AssemblyPlan", CountingPlan)
    # the eigen iterations build no plan: only the assembly is run
    monkeypatch.setattr(fem, "max_rayleigh_pair", lambda *a, **k: fem.EigenResult(1.0, 0.0, 1))
    iso = fem.ElasticityTensor4.isotropic(1.0, 1.0)
    lm = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4)
    full = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4, include_void=True)
    cell = pg.build_cell_mesh(box_geom, 4)
    runs = {
        "korn_constant": lambda: inq.korn_constant(lm, 0.5),
        "trace_constant": lambda: inq.trace_constant(full, 0.5),
        "extension_problem": lambda: inq.extension_problem(full),
        "solve_cell_problems": lambda: pc.solve_cell_problems(cell, iso),
        "assemble_micro": lambda: pm.assemble_micro(lm, iso, 0.5, preset_load_model("zero")),
    }
    built_by = {}
    for name, run in runs.items():
        built.clear()
        run()
        built_by[name] = [shape[0] for shape in built]  # elements per plan
    assert {name: len(plans) for name, plans in built_by.items()} == {
        "korn_constant": 1, "trace_constant": 2, "extension_problem": 2,
        "solve_cell_problems": 1, "assemble_micro": 0}
    # Korn's two forms over the layer; the extension's solid forms (energy
    # and mass), then its void energy
    n_solid = int(np.count_nonzero(full.solid))
    assert built_by["korn_constant"] == [lm.n_elems]
    assert built_by["extension_problem"] == [n_solid, full.n_elems - n_solid]


def _block_to_csr(plan, local):
    """The former fill: the whole (slots, br*bc) block array of
    ``count @ local``, converted from block-sparse to CSR with the exact
    zeros dropped."""
    br, bc = local.shape[-2:]
    data = plan.count @ local.reshape(-1, br * bc)
    nr, nc = plan.shape
    mat = sp.bsr_matrix((data.reshape(-1, br, bc), plan.indices, plan.indptr),
                        shape=(nr * br, nc * bc)).tocsr()
    mat.eliminate_zeros()
    return mat


def _recorded_fills(monkeypatch, build):
    """(plan, local blocks, result, copy of the result as filled) of every
    fill that ``build()`` makes (a caller may scale the result in place)."""
    fills = []
    fill = fem.AssemblyPlan.fill

    def recording(plan, local):
        out = fill(plan, local)
        fills.append((plan, local, out, out.copy()))
        return out

    monkeypatch.setattr(fem.AssemblyPlan, "fill", recording)
    build()
    return fills


def _fill_cases(case, geom):
    """Assemblies of the fill test, by name."""
    iso = fem.ElasticityTensor4.isotropic(0.8, 1.7)
    if case == "cell_elasticity":
        mesh = pg.build_cell_mesh(geom, 4)
        return lambda: pc._cell_operator(mesh, iso, fem.DofMap(mesh, 3, periodic=True))
    lm = pg.build_layer_mesh(geom, 0.5, SIGMA, 4)
    if case == "micro_mass":  # the layer's mass and stiffness on one plan
        dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
        return lambda: fem.assemble_forms(lm, dm, [fem.mass_element(lm.spacing, 3),
                                                   fem.elasticity_element(lm.spacing, iso)])
    if case == "korn_anisotropic":
        dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
        grad_w = [[4.0, 4.0, 1.0], [4.0, 4.0, 1.0], [1.0, 1.0, 1.0]]
        return lambda: fem.assemble_forms(
            lm, dm, [fem.component_element(lm.spacing, (4.0, 4.0, 1.0), grad_w)])
    if case == "lateral_surface_mass":  # one local matrix per face kind
        channel = pg.build_cell_geometry(pg.channel_mask(4), m=4)
        full = pg.build_layer_mesh(channel, 0.5, SIGMA, 4, include_void=True)
        dm = fem.DofMap(full, 3, dirichlet_nodes=full.dirichlet_nodes)
        return lambda: fem.assemble_surface_mass(full, dm, full.lateral_faces)
    # plate blocks: scalar blocks, a non-square coupling block with a random
    # b*, and a membrane mass with zeros between its two components
    mesh = pg.build_cell_mesh(geom, 4)
    eff = pc.effective_tensors(mesh, iso, pc.solve_cell_problems(mesh, iso))
    eff.b_star = rng(11).standard_normal((2, 2, 2, 2))
    return lambda: pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), eff)


@pytest.mark.parametrize("case", ["cell_elasticity", "micro_mass", "korn_anisotropic",
                                  "lateral_surface_mass", "plate"])
def test_fill_equals_block_to_csr_route(box_geom, case, monkeypatch):
    fills = _recorded_fills(monkeypatch, _fill_cases(case, box_geom))
    assert len(fills) == {"micro_mass": 2, "plate": 5}.get(case, 1)
    for plan, local, result, got in fills:
        want = _block_to_csr(plan, local)
        assert got.shape == want.shape and got.nnz > 0
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
        # the arrays hold the nonzeros and nothing more
        for part in (result.data, result.indices):
            assert (part if part.base is None else part.base).size == got.nnz
    if case == "micro_mass":  # equal components only: 3 of the 9 block entries
        plan, _, _, mass = fills[0]
        assert mass.nnz == 3 * plan.count.shape[0]
    if case == "plate":
        k_ab = fills[2][3]
        assert k_ab.shape[0] != k_ab.shape[1]


def test_fill_peak_memory(box_geom):
    # the fill holds its result and one run of block rows at a time (1.34
    # times the result at n = 8): the former route held the block array and
    # its CSR conversion together (1.89 times)
    mesh = pg.build_cell_mesh(box_geom, 8)
    dm = fem.DofMap(mesh, 3, periodic=True)
    blocks = dm.node_blocks[mesh.elems]
    plan = fem.AssemblyPlan(blocks, blocks, (dm.n_dofs // 3,) * 2)
    local = fem.elasticity_element(mesh.spacing, fem.ElasticityTensor4.isotropic(1.0, 1.0))
    mat, peak = traced_peak(plan.fill, local.reshape(8, 3, 8, 3).transpose(0, 2, 1, 3))
    result = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.5 * result, (peak, result)


def test_no_plan_outlives_its_last_fill(box_geom, full_geom, monkeypatch):
    # every plan is gone when the solves and eigen iterations that follow
    # the assembly start
    plans = []

    class TrackedPlan(fem.AssemblyPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            plans.append(weakref.ref(self))

    live = []

    def checked(fn):
        def call(*args, **kwargs):
            gc.collect()
            live.append(sum(p() is not None for p in plans))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(fem, "AssemblyPlan", TrackedPlan)
    monkeypatch.setattr(fem, "solve_spd", checked(fem.solve_spd))
    monkeypatch.setattr(fem, "max_rayleigh_pair", checked(fem.max_rayleigh_pair))
    iso = fem.ElasticityTensor4.isotropic(1.0, 1.0)
    pc.solve_cell_problems(pg.build_cell_mesh(box_geom, 4), iso)
    lm = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4)
    inq.korn_constant(lm, 0.5, tol=1e-4)
    full = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4, include_void=True)
    inq.extension_norm(inq.extension_problem(full), tol=1e-4)
    mesh = pg.build_cell_mesh(full_geom, 4)
    xi = rng(2).standard_normal((mesh.n_elems, 8, 3, 3))
    pc.helmholtz_decompose(mesh, xi + np.swapaxes(xi, -1, -2))
    assert len(plans) == 5 and len(live) >= 5
    assert not any(live), live


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
    dm = fem.DofMap(lm, 3, dirichlet_nodes=lm.dirichlet_nodes)
    # the Newmark matrix M + beta dt^2 eps^-2 K of the layer at dt = eps / 8
    k = fem.assemble_elasticity(lm, fem.ElasticityTensor4.isotropic(1.0, 1.0), dm).matrix
    a = (mass_operator(lm, dm).matrix + (0.25 / 8**2) * k).tocsr()
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


@pytest.mark.parametrize("filled, width", [(False, None), (True, None), (False, 3), (True, 3)],
                         ids=["False", "True", "False-block", "True-block"])
def test_split_products_keep_cg_iterates(box_geom, filled, width, monkeypatch):
    # with Jacobi or with the cell's filled-cell preconditioner
    monkeypatch.setattr(fem, "_pool", None)
    mesh = pg.build_cell_mesh(box_geom, 8)
    dm = fem.DofMap(mesh, 3, periodic=True)
    tensor = fem.ElasticityTensor4.isotropic(1.0, 1.0)
    rhs = rng(4).standard_normal(dm.n_dofs if width is None else (dm.n_dofs, width))
    runs = []
    for floor, cores in ((10**12, 1), (1, 3)):
        monkeypatch.setattr(fem, "SPLIT_MIN_NNZ", floor)
        monkeypatch.setattr(fem, "_cores", lambda cores=cores: cores)
        op = pc._cell_operator(mesh, tensor, dm)
        assert len(op._product.blocks) == cores and op._product.matrix is op.matrix
        precond = (pc._FilledCell(mesh, tensor, dm, op.sig) if filled
                   else fem.jacobi(op.diagonal()))
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
