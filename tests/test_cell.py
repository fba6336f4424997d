import numpy as np
import pytest

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer.errors import AsymmetricInput, InconsistentMesh

from conftest import (BOX_HOLE, column, dense, mass_operator, rng, sym_gradient, traced_peak,
                      voigt_bound)


def test_basis_matrices():
    m11 = pc.basis_matrix(1, 1)
    m12 = pc.basis_matrix(1, 2)
    assert np.sum(m11 * m11) == pytest.approx(1.0)
    assert np.sum(m12 * m12) == pytest.approx(0.5)
    assert np.allclose(m12, m12.T)


def test_cell_standard_analytic_plane_stress(full_cell_n8, iso_tensor):
    # analytic relaxation: chi_11 = (0, 0, c y3), c = -lam/(lam+2mu) = -1/3,
    # derived from sigma_33 = 2 mu c + lam (1 + c) = 0
    lam = mu = 1.0
    c = -lam / (lam + 2 * mu)
    assert 2 * mu * c + lam * (1 + c) == pytest.approx(0.0, abs=1e-15)

    mesh, sols, _ = full_cell_n8
    nod = sols.nodal(column("stretch", (1, 1)))
    exact = c * mesh.coords[:, 2]
    assert np.abs(nod[:, 2] - exact).max() <= 1e-8  # solution is in the space
    assert np.abs(nod[:, :2]).max() <= 1e-8


def test_cell_standard_shear_is_zero(full_cell_n8, iso_tensor):
    # A M_12 has zero out-of-plane traction, so no relaxation is needed
    stress = iso_tensor.apply(pc.basis_matrix(1, 2))
    assert np.abs(stress @ np.array([0.0, 0.0, 1.0])).max() == 0.0
    _, sols, _ = full_cell_n8
    assert np.abs(sols.nodal(column("stretch", (1, 2)))).max() <= 1e-9


def test_cell_standard_gauge_invariance(full_cell_n8, iso_tensor):
    mesh, sols, _ = full_cell_n8
    dm = sols.dofmap
    k = fem.assemble_elasticity(mesh, iso_tensor, dm)
    chi = sols.values[column("stretch", (1, 1))]
    shifted = chi + dm.restrict(np.full((mesh.n_nodes, 3), 0.37))
    r1 = k.matvec(chi)
    r2 = k.matvec(shifted)
    assert np.allclose(r1, r2, atol=1e-10 * max(1.0, np.abs(r1).max()))
    # the mean-zero constraint pins the representative
    mass = mass_operator(mesh, dm)
    for c in range(3):
        ones = np.zeros((mesh.n_nodes, 3))
        ones[:, c] = 1.0
        mean = np.dot(mass.matvec(dm.restrict(ones)), chi)
        assert abs(mean) <= 1e-9


def test_cell_bending_analytic(full_cell_n8, iso_tensor):
    # 1D reduction: sigma_33 = 2 mu phi' + lam (phi' - y3) = 0 gives
    # phi'(y3) = lam y3 / (lam + 2 mu); the discrete minimizer takes this
    # value at element midheights
    lam = mu = 1.0
    mesh, sols, _ = full_cell_n8
    chib = sols.nodal(column("bending", (1, 1)))
    assert np.abs(chib[:, :2]).max() <= 1e-9
    grads = fem.gradient_decomposition(mesh, chib)
    z_mid = fem.quadrature_points(mesh)[:, :, 2].mean(axis=1)
    expected = lam * z_mid / (lam + 2 * mu)
    got = grads[..., 2].mean(axis=1)
    assert np.abs(got - expected).max() <= 1e-8
    assert sols.residuals[column("bending", (1, 1))] <= 1e-8


def test_cell_bending_parity_in_y3(box_cell_n4, iso_tensor):
    # forcing -y3 M flips sign under the vertical reflection: the in-plane
    # components come out odd and the vertical component even (consistent
    # with the analytic quadratic profile on the full cell)
    mesh, sols, _ = box_cell_n4
    chib = sols.nodal(column("bending", (1, 1)))
    coords = mesh.coords
    key = {(round(c[0] * 16), round(c[1] * 16), round(c[2] * 16)): i
           for i, c in enumerate(coords)}
    for i, c in enumerate(coords):
        j = key[(round(c[0] * 16), round(c[1] * 16), round(-c[2] * 16))]
        assert abs(chib[i, 2] - chib[j, 2]) <= 1e-8   # even vertical component
        assert np.abs(chib[i, :2] + chib[j, :2]).max() <= 1e-8  # odd in-plane


def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        fem.ElasticityTensor4(np.zeros((3, 3, 3, 3)))


def test_effective_tensors_full_cell_goldens(full_cell_n8):
    # plane-stress closed forms for lam = mu = 1
    _, _, eff = full_cell_n8
    lam = mu = 1.0
    a1111 = 2 * mu + 2 * lam * mu / (lam + 2 * mu)
    a1122 = 2 * lam * mu / (lam + 2 * mu)
    assert eff.a_star[0, 0, 0, 0] == pytest.approx(a1111, rel=1e-10)
    assert eff.a_star[0, 0, 1, 1] == pytest.approx(a1122, rel=1e-10)
    assert eff.a_star[0, 1, 0, 1] == pytest.approx(mu, rel=1e-10)
    assert np.abs(eff.b_star).max() <= 1e-10
    assert np.allclose(eff.c_star, eff.a_star / 3.0, rtol=1e-2)


def _pairing_reference(mesh, tensor, sols):
    """a*, b*, c* entry by entry: one weighted Mandel pairing of two total
    strain fields per entry."""
    y3 = fem.quadrature_points(mesh)[:, :, 2]
    stretch, bending = {}, {}
    for ij in pc.INDEX_PAIRS:
        m = pc.basis_matrix(*ij)
        d_s = sym_gradient(mesh, sols.nodal(column("stretch", ij)))
        d_b = sym_gradient(mesh, sols.nodal(column("bending", ij)))
        stretch[ij] = d_s + m[None, None, :, :]
        bending[ij] = d_b - y3[:, :, None, None] * m[None, None, :, :]
    w = fem.quadrature_weights(mesh)
    vol = mesh.geometry.solid_volume
    am = tensor.mandel()

    def pairing(x, y):
        xm, ym = fem.sym_to_mandel(x), fem.sym_to_mandel(y)
        return float(np.einsum("eq,eqi,ij,eqj->", w, xm, am, ym)) / vol

    key = lambda i, j: (min(i, j), max(i, j))
    out = {k: np.empty((2, 2, 2, 2)) for k in ("a_star", "b_star", "c_star")}
    for idx in np.ndindex(2, 2, 2, 2):
        al, be, ga, de = (v + 1 for v in idx)
        xs, ys = stretch[key(al, be)], stretch[key(ga, de)]
        xb, yb = bending[key(al, be)], bending[key(ga, de)]
        out["a_star"][idx] = pairing(xs, ys)
        out["b_star"][idx] = pairing(xb, ys)
        out["c_star"][idx] = pairing(xb, yb)
    return out


@pytest.mark.parametrize("cell", ["full_cell_n8", "box_cell_n8"])
def test_effective_tensors_match_pairing_reference(cell, iso_tensor, request):
    mesh, sols, eff = request.getfixturevalue(cell)
    ref = _pairing_reference(mesh, iso_tensor, sols)
    scale = np.abs(ref["a_star"]).max()
    for key, want in ref.items():
        got = getattr(eff, key)
        assert np.abs(got - want).max() <= 1e-12 * scale, key
    # a* and c* are blocks of one symmetric Gram matrix: exact major symmetry
    for t in (eff.a_star, eff.c_star):
        assert np.array_equal(t, t.transpose(2, 3, 0, 1))


@pytest.fixture(scope="module")
def channel_cell_n8(iso_tensor):
    mesh = pg.build_cell_mesh(pg.build_cell_geometry(pg.channel_mask(4)), 8)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-12)
    return mesh, sols, pc.effective_tensors(mesh, iso_tensor, sols)


def _einsum_reference(mesh, tensor, sols):
    """a*, b*, c* from the six total Mandel strains stacked as one
    (6, E * n_q, 6) array and contracted over every quadrature point."""
    fields = [(kind, sols.nodal(column(kind, ij)), ij)
              for kind in ("stretch", "bending") for ij in pc.INDEX_PAIRS]
    y3 = fem.quadrature_points(mesh)[:, :, 2:]
    strains = np.empty((6, fem.quadrature_weights(mesh).size, 6))
    for r, (kind, chi, ij) in enumerate(fields):
        profile = 1.0 if kind == "stretch" else -y3
        m = fem.sym_to_mandel(pc.basis_matrix(*ij))
        strains[r] = (fem.gradient_decomposition(mesh, chi) + profile * m).reshape(-1, 6)
    w = fem.quadrature_weights(mesh).reshape(-1)
    g = np.einsum("p,rpi,ij,spj->rs", w, strains, tensor.mandel(), strains,
                  optimize=True) / mesh.geometry.solid_volume
    g = 0.5 * (g + g.T)
    return {"a_star": pc._block(g[:3, :3]), "b_star": pc._block(g[3:, :3]),
            "c_star": pc._block(g[3:, 3:])}


@pytest.mark.parametrize("cell", ["box_cell_n8", "channel_cell_n8", "full_cell_n8"])
@pytest.mark.parametrize("tol", [None, 1e-4])
def test_gram_from_solve_matches_einsum(cell, tol, iso_tensor, request):
    # the energy identity holds for any solution block, so a loose solve
    # (tol=1e-4) matches the oracle on its own solutions as well; there the
    # first-order shortcut E0 - R^T X misses by about 1e-6
    mesh, sols, eff = request.getfixturevalue(cell)
    if tol is not None:
        sols = pc.solve_cell_problems(mesh, iso_tensor, tol=tol)
        eff = pc.effective_tensors(mesh, iso_tensor, sols)
    ref = _einsum_reference(mesh, iso_tensor, sols)
    scale = np.abs(ref["a_star"]).max()
    for key, want in ref.items():
        assert np.abs(getattr(eff, key) - want).max() <= 1e-13 * scale, key


def test_gram_peak_memory(box_cell_n8, iso_tensor):
    # the traced peak stays below half of the (6, E * n_q, 6) strain stack
    mesh, sols, _ = box_cell_n8
    stack_bytes = 6 * fem.quadrature_weights(mesh).size * 6 * 8
    _, peak = traced_peak(pc.effective_tensors, mesh, iso_tensor, sols)
    assert peak < stack_bytes / 2, (peak, stack_bytes)


def test_cell_solve_peak_memory(box_geom, iso_tensor):
    # the plan goes after the fill, and the fill forms no whole block
    # array: the peak is the operator plus the size of 13 (n, 6) blocks (in
    # the fill, beside the plan; the filled-cell factors and the grid arrays
    # of one preconditioner call stay below it); a plan kept through the
    # solve and the former fill made 22
    mesh = pg.build_cell_mesh(box_geom, 8)
    k = pc._cell_operator(mesh, iso_tensor, fem.DofMap(mesh, 3, periodic=True)).matrix
    op_bytes = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
    sols, peak = traced_peak(pc.solve_cell_problems, mesh, iso_tensor, tol=1e-12)
    assert peak <= op_bytes + 15 * sols.values.nbytes, (peak, op_bytes, sols.values.nbytes)



def _element_stiffness(mesh, tensor, dm):
    """The cell stiffness as one element matrix over the solid voxels."""
    return fem.ElementMatrix(fem.elasticity_element(mesh.spacing, tensor),
                             dm.element_dofs(mesh.elems), dm.n_dofs)


@pytest.mark.parametrize("kind", ["box", "channel"])
@pytest.mark.parametrize("n", [4, 8])
def test_element_cell_operator_matches_assembled(kind, n, iso_tensor):
    # the element stiffness with its own mean-zero augmentation against the
    # assembled cell operator, on a vector, on a (6, n) block and on the
    # diagonal
    mesh = pg.build_cell_mesh(_cell_geometry(kind), n)
    dm = fem.DofMap(mesh, 3, periodic=True)
    want_op = pc._cell_operator(mesh, iso_tensor, dm)
    k = fem.SymmetricOperator(_element_stiffness(mesh, iso_tensor, dm))
    op = fem.SymmetricOperator(k.matrix, *fem.mean_zero_augmentations(mesh, dm, k))
    block = rng(21).standard_normal((6, dm.n_dofs))
    for x in (block[0], block):
        want = want_op.matvec(x)
        got = op.matvec(x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    d = want_op.diagonal()
    assert np.abs(op.diagonal() - d).max() <= 1e-14 * np.abs(d).max()


def test_voigt_keeps_asymmetric_coupling_block(iso_tensor):
    # an off-centre channel breaks the vertical reflection, and b* is then
    # not symmetric under ijkl <-> klij; voigt must not symmetrize it
    geom = pg.build_cell_geometry(pg.channel_mask(4, height=(-0.75, 0.25)), m=4)
    mesh = pg.build_cell_mesh(geom, 4)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-11)
    eff = pc.effective_tensors(mesh, iso_tensor, sols)
    b = eff.b_star
    assert np.abs(b - b.transpose(2, 3, 0, 1)).max() > 1e-6
    s = np.sqrt(2.0)
    want = np.array([[b[0, 0, 0, 0], b[0, 0, 1, 1], s * b[0, 0, 0, 1]],
                     [b[1, 1, 0, 0], b[1, 1, 1, 1], s * b[1, 1, 0, 1]],
                     [s * b[0, 1, 0, 0], s * b[0, 1, 1, 1], s * s * b[0, 1, 0, 1]]])
    assert np.array_equal(eff.voigt(b), want)


def test_effective_tensor_mesh_consistency_guard(full_cell_n8, box_cell_n4, iso_tensor):
    mesh_full, sols_full, _ = full_cell_n8
    mesh_box, _, _ = box_cell_n4
    with pytest.raises(InconsistentMesh):
        pc.effective_tensors(mesh_box, iso_tensor, sols_full)


def test_gram_symmetry_and_positivity(box_cell_n8):
    _, _, eff = box_cell_n8
    scale = np.abs(eff.a_star).max()
    assert np.abs(eff.a_star - eff.a_star.transpose(2, 3, 0, 1)).max() <= 1e-12 * scale
    assert np.abs(eff.c_star - eff.c_star.transpose(2, 3, 0, 1)).max() <= 1e-12 * scale
    assert np.abs(eff.a_star - eff.a_star.transpose(1, 0, 2, 3)).max() <= 1e-12 * scale
    assert np.abs(eff.b_star - eff.b_star.transpose(1, 0, 2, 3)).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(eff.voigt(eff.a_star)).min() > 0
    assert np.linalg.eigvalsh(eff.voigt(eff.c_star)).min() > 0
    # the 2-block Gram structure is positive semidefinite
    g = np.block([[eff.voigt(eff.a_star), eff.voigt(eff.b_star).T],
                  [eff.voigt(eff.b_star), eff.voigt(eff.c_star)]])
    assert np.linalg.eigvalsh(0.5 * (g + g.T)).min() >= -1e-10 * scale


def test_voigt_bound_dominates(box_cell_n8, box_geom, iso_tensor):
    mesh, _, eff = box_cell_n8
    bound = voigt_bound(iso_tensor, mesh)
    gap = eff.voigt(bound) - eff.voigt(eff.a_star)
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-10


def test_mesh_refinement_contraction(box_cell_n4, box_cell_n8, box_cell_n16):
    _, _, e4 = box_cell_n4
    _, _, e8 = box_cell_n8
    _, _, e16 = box_cell_n16
    d1 = np.abs(e4.a_star - e8.a_star)
    d2 = np.abs(e8.a_star - e16.a_star)
    assert (d2 <= d1 + 1e-12).all()


def test_galerkin_orthogonality(box_cell_n4, iso_tensor):
    mesh, sols, _ = box_cell_n4
    dm = sols.dofmap
    op = pc._cell_operator(mesh, iso_tensor, dm)
    r = rng(17)
    stress = iso_tensor.apply(pc.basis_matrix(1, 1))
    rhs = pc._field_rhs(mesh, dm, -fem.sym_to_mandel(stress))
    chi = sols.values[column("stretch", (1, 1))]
    resid = op.matvec(chi) - rhs
    for _ in range(20):
        phi = dm.restrict(r.standard_normal((mesh.n_nodes, 3)))
        pairing = abs(np.dot(resid, phi))
        assert pairing <= 1e-8 * max(np.linalg.norm(rhs), 1.0) * np.linalg.norm(phi)


# ---------------------------------------------------------------------------
# Helmholtz decomposition
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_mesh_n4(full_geom):
    return pg.build_cell_mesh(full_geom, 4)


def _vol_norm(mesh, field):
    w = fem.quadrature_weights(mesh)
    return float(np.sqrt(np.einsum("eq,eqi->", w, (field**2).reshape(*w.shape, -1))))


def test_helmholtz_reproduces_gradients(full_mesh_n4):
    mesh = full_mesh_n4
    dm = fem.DofMap(mesh, 3, periodic=True)
    w_field = dm.expand(dm.restrict(rng(3).standard_normal((mesh.n_nodes, 3))))
    xi = sym_gradient(mesh, w_field)
    solenoidal = pc.helmholtz_decompose(mesh, xi)
    assert _vol_norm(mesh, solenoidal) <= 1e-8 * _vol_norm(mesh, xi)


def test_helmholtz_constant_field_orthogonality(full_mesh_n4):
    mesh = full_mesh_n4
    nq = fem.hex_reference(mesh.spacing)[0].shape[0]
    xi = np.broadcast_to(np.eye(3), (mesh.n_elems, nq, 3, 3)).copy()
    solenoidal = pc.helmholtz_decompose(mesh, xi)
    dm = fem.DofMap(mesh, 3, periodic=True)
    r = rng(23)
    sol_norm = _vol_norm(mesh, solenoidal)
    for _ in range(20):
        phi = dm.expand(dm.restrict(r.standard_normal((mesh.n_nodes, 3))))
        dphi = fem.gradient_decomposition(mesh, phi)
        pairing = pc.gradient_pairing(mesh, solenoidal, dphi)
        assert abs(pairing) <= 1e-8 * max(sol_norm * _vol_norm(mesh, dphi), 1e-30)


def test_helmholtz_zero_and_asymmetric(full_mesh_n4):
    mesh = full_mesh_n4
    nq = fem.hex_reference(mesh.spacing)[0].shape[0]
    zero = np.zeros((mesh.n_elems, nq, 3, 3))
    assert np.abs(pc.helmholtz_decompose(mesh, zero)).max() == 0.0
    bad = zero.copy()
    bad[..., 0, 1] = 1.0
    with pytest.raises(AsymmetricInput):
        pc.helmholtz_decompose(mesh, bad)


def test_helmholtz_requires_full_cell(box_cell_n4):
    mesh, _, _ = box_cell_n4
    nq = fem.hex_reference(mesh.spacing)[0].shape[0]
    with pytest.raises(InconsistentMesh):
        pc.helmholtz_decompose(mesh, np.zeros((mesh.n_elems, nq, 3, 3)))


# ---------------------------------------------------------------------------
# cell solves preconditioned by the pore-filled cell
# ---------------------------------------------------------------------------

def _cell_geometry(kind):
    if kind == "full":
        return pg.build_cell_geometry("full", m=1)
    if kind == "box":
        return pg.build_cell_geometry(BOX_HOLE, m=4)
    return pg.build_cell_geometry(pg.channel_mask(4))


def _filled_cell(kind, n, tensor):
    mesh = pg.build_cell_mesh(_cell_geometry(kind), n)
    dm = fem.DofMap(mesh, 3, periodic=True)
    op = pc._cell_operator(mesh, tensor, dm)
    return op, pc._FilledCell(mesh, tensor, dm, op.sig)


def _anisotropic_tensor():
    # a sum of rank-one terms B (x) B over random symmetric B: every
    # coupling entry (A_1113, A_1323, ...) is nonzero
    b = rng(11).standard_normal((8, 3, 3))
    b = 0.5 * (b + b.transpose(0, 2, 1))
    return fem.ElasticityTensor4(np.einsum("kij,klm->ijlm", b, b))


@pytest.mark.parametrize("n, anisotropic", [(4, False), (4, True), (3, False)])
def test_filled_cell_inverts_unperforated_cell(n, anisotropic, iso_tensor):
    # without pores the filled cell is the cell operator itself, mean term
    # included, so the preconditioner is its inverse (n = 3: odd in y1 and
    # y2, so no Nyquist mode)
    tensor = _anisotropic_tensor() if anisotropic else iso_tensor
    op, precond = _filled_cell("full", n, tensor)
    b = precond(np.eye(op.shape[0])).T  # column j: the product of e_j
    assert np.abs(b @ dense(op) - np.eye(op.shape[0])).max() <= 1e-12


@pytest.mark.parametrize("kind, kappa", [("box", 4.0), ("channel", 21.0)])
def test_filled_cell_symmetric_positive(kind, kappa, iso_tensor):
    # the inverse Schur complement of the filled cell on the solid dofs:
    # symmetric positive definite, and the preconditioned operator has the
    # condition number of the pore extension (3.79 on box, 20.2 on channel)
    op, precond = _filled_cell(kind, 4, iso_tensor)
    b = precond(np.eye(op.shape[0])).T  # column j: the product of e_j
    assert np.abs(b - b.T).max() <= 1e-14 * np.abs(b).max()
    assert np.linalg.eigvalsh(b).min() > 0
    lam = np.linalg.eigvals(b @ dense(op)).real
    assert lam.max() / lam.min() < kappa


def test_filled_cell_applies_to_vectors_and_blocks(iso_tensor):
    op, precond = _filled_cell("box", 8, iso_tensor)
    r = rng(9).standard_normal((4, op.shape[0]))
    got = precond(r)
    want = np.stack([precond(v) for v in r])
    assert got.shape == r.shape and want.shape == r.shape
    assert got.dtype == want.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_filled_cell_keeps_no_dense_mode_inverse(iso_tensor):
    # the block Thomas factors take 3 x 3 blocks per node layer and mode; a
    # dense inverse per mode would take 22.6 MB at n = 16, above the
    # operator's own CSR arrays
    op, precond = _filled_cell("box", 16, iso_tensor)
    k = op.matrix
    held = sum(a.nbytes for a in (precond.pivots, precond.gains, precond.up_h, precond.zero))
    assert held < 0.1 * (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes)


def _capped_solves(monkeypatch, max_iter):
    solve = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd",
                        lambda *a, **k: solve(*a, **{**k, "max_iter": max_iter}))


@pytest.mark.parametrize("kind", ["box", "channel"])
@pytest.mark.parametrize("n", [8, 16, 24])
def test_cell_solves_take_few_iterations(kind, n, iso_tensor, monkeypatch):
    # Jacobi-CG needs about 52 (n = 8) and 108 (n = 16) iterations per
    # solve; the filled cell 16 to 23, with no growth in n
    mesh = pg.build_cell_mesh(_cell_geometry(kind), n)
    _capped_solves(monkeypatch, 25)
    sols = pc.solve_cell_problems(mesh, iso_tensor, tol=1e-10)
    assert sols.residuals.max() <= 1e-10


def test_cell_block_solve_one_matvec_per_iteration(box_geom, iso_tensor, monkeypatch):
    # the benchmark counts SymmetricOperator.matvec calls inside solve_spd as
    # CG iterations, so the preconditioner must not call it
    inside, matvecs, preconds = [], [], []
    solve, matvec, build = fem.solve_spd, fem.SymmetricOperator.matvec, pc._FilledCell

    def solving(*args, **kw):
        inside.append(1)
        try:
            return solve(*args, **kw)
        finally:
            inside.pop()

    def counting(self, x):
        if inside:
            matvecs.append(x.shape)
        return matvec(self, x)

    def filled(*args):
        precond = build(*args)
        return lambda r: preconds.append(1) or precond(r)

    monkeypatch.setattr(fem, "solve_spd", solving)
    monkeypatch.setattr(fem.SymmetricOperator, "matvec", counting)
    monkeypatch.setattr(pc, "_FilledCell", filled)
    pc.solve_cell_problems(pg.build_cell_mesh(box_geom, 8), iso_tensor)
    # one preconditioner call before the first iteration, then one per iteration
    assert len(matvecs) == len(preconds) - 1 >= 5
    widths = [shape[0] for shape in matvecs]
    assert widths[0] == 6 and widths == sorted(widths, reverse=True)


@pytest.mark.parametrize("kind", ["box", "channel"])
def test_filled_cell_tensors_match_jacobi(kind, iso_tensor, monkeypatch):
    mesh = pg.build_cell_mesh(_cell_geometry(kind), 16)
    filled = pc.effective_tensors(mesh, iso_tensor, pc.solve_cell_problems(mesh, iso_tensor))
    solve = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd", lambda op, rhs, **kw: solve(
        op, rhs, **{**kw, "precond": fem.jacobi(op.diagonal())}))
    jac = pc.effective_tensors(mesh, iso_tensor, pc.solve_cell_problems(mesh, iso_tensor))
    scale = np.abs(jac.a_star).max()
    for key in ("a_star", "b_star", "c_star"):
        assert np.abs(getattr(filled, key) - getattr(jac, key)).max() <= 1e-12 * scale


def _jacobi_cg(op, rhs, tol):
    """Jacobi-preconditioned CG in the operation order of the original
    ``fem.solve_spd``, for a zero start and a nonzero right-hand side."""
    inv_d = 1.0 / op.diagonal()
    x = np.zeros(rhs.shape[0])
    r = rhs.copy()
    bnorm = np.linalg.norm(rhs)
    z = inv_d * r
    p = z.copy()
    rz = np.dot(r, z)
    while np.linalg.norm(r) > tol * bnorm:
        ap = op.matvec(p)
        alpha = rz / np.dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        z = inv_d * r
        rz_new = np.dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x


def test_vector_jacobi_solves_keep_original_bits(box_geom, iso_tensor):
    # a vector solve with the default Jacobi preconditioner keeps the bits
    # of the original recurrence, on each load column of the cell problems
    mesh = pg.build_cell_mesh(box_geom, 8)
    dm = fem.DofMap(mesh, 3, periodic=True)
    op = pc._cell_operator(mesh, iso_tensor, dm)
    y3 = fem.quadrature_points(mesh)[:, :, 2:]
    for kind, ij in pc.PROBLEMS:
        stress = fem.sym_to_mandel(iso_tensor.apply(pc.basis_matrix(*ij)))
        b = pc._field_rhs(mesh, dm, -stress if kind == "stretch" else y3 * stress)
        want = _jacobi_cg(op, b, 1e-10)
        assert np.linalg.norm(op.matvec(want) - b) <= 1e-10 * np.linalg.norm(b)
        assert np.array_equal(fem.solve_spd(op, b, tol=1e-10), want)
