import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import inequalities as pi

from conftest import SIGMA, dense, rigid_field, rng


@pytest.fixture(scope="module")
def full_geom2():
    return pg.build_cell_geometry("full", m=2)


@pytest.fixture(scope="module")
def channel_geom():
    return pg.build_cell_geometry(pg.channel_mask(4))


def _korn_dense(lmesh, eps):
    dm = fem.DofMap(lmesh, 3, dirichlet_nodes=lmesh.dirichlet_nodes)
    a = dense(fem.assemble_elasticity(lmesh, fem.ElasticityTensor4.identity(), dm))
    iw = 1.0 / eps**2
    b = dense(fem.assemble_anisotropic(lmesh, dm, (iw, iw, 1.0),
                                       [[iw, iw, 1.0], [iw, iw, 1.0], [1, 1, 1]]))
    lam = sla.eigh(a, b, eigvals_only=True)[0]
    return eps / np.sqrt(lam)


def test_korn_dense_oracle_one_cell(full_geom2):
    lmesh = pg.build_layer_mesh(full_geom2, 1.0, SIGMA, 2)
    est = pi.korn_constant(lmesh, 1.0, tol=1e-10, seed=2)
    oracle = _korn_dense(lmesh, 1.0)
    assert est.constant == pytest.approx(oracle, rel=1e-6)


def test_korn_full_layer_finite(full_geom2):
    # the unperforated layer is admitted (trivial case) and gives a finite
    # positive constant at every tested resolution
    for n in (2, 4):
        lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, n)
        est = pi.korn_constant(lmesh, 0.5, tol=1e-6, seed=2)
        assert np.isfinite(est.constant)
        assert est.constant > 0


def test_korn_scale_invariance(full_geom2):
    # Rayleigh quotients are 0-homogeneous: scaling the field leaves the
    # quotient unchanged
    lmesh = pg.build_layer_mesh(full_geom2, 1.0, SIGMA, 2)
    dm = fem.DofMap(lmesh, 3, dirichlet_nodes=lmesh.dirichlet_nodes)
    a = fem.assemble_elasticity(lmesh, fem.ElasticityTensor4.identity(), dm)
    b = fem.assemble_anisotropic(lmesh, dm, (1, 1, 1),
                                 [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    v = rng(4).standard_normal(dm.n_dofs)

    def quotient(x):
        return (x @ a.matvec(x)) / (x @ b.matvec(x))

    q1 = quotient(v)
    q2 = quotient(2.0 * v)
    assert q1 == pytest.approx(q2, rel=1e-13)


def test_trace_dense_oracle_one_cell(channel_geom):
    lmesh = pg.build_layer_mesh(channel_geom, 1.0, SIGMA, 4, include_void=True)
    est = pi.trace_constant(lmesh, 1.0, tol=1e-10, seed=2)
    dm = fem.DofMap(lmesh, 3, dirichlet_nodes=lmesh.dirichlet_nodes)
    a = dense(fem.assemble_elasticity(lmesh, fem.ElasticityTensor4.identity(), dm))
    b = dense(fem.assemble_surface_mass(lmesh, dm, lmesh.lateral_faces))
    mu = sla.eigh(b, a, eigvals_only=True)[-1]
    assert est.constant == pytest.approx(np.sqrt(mu), rel=1e-6)


# ARPACK (eigsh) references on sparse LU factorizations, as in
# perfbench/make_references.py: an independent route to the same pencils
KORN_QUARTER = 1.7719417286183445
TRACE_QUARTER = 0.49026392264097474  # the runner-up of the cluster is 0.4902382
EXTENSION_QUARTER = 2.154086472312923


def test_korn_quarter_vs_eigsh(box_geom):
    lmesh = pg.build_layer_mesh(box_geom, 0.25, SIGMA, 4)
    est = pi.korn_constant(lmesh, 0.25, tol=1e-8, seed=1)
    assert est.constant == pytest.approx(KORN_QUARTER, rel=1e-6)


def test_korn_preconditioned_by_filled_layer(box_geom, channel_geom, monkeypatch):
    # Korn's LOBPCG takes the filled clamped layer (59 sweeps at eps 1/4 and
    # tol 1e-8, where Jacobi took 101); the trace keeps Jacobi, since its
    # free lateral void nodes lie outside that layer
    seen = []
    real = fem.max_rayleigh_pair

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append((kwargs["precond"], res.iterations))
        return res

    monkeypatch.setattr(fem, "max_rayleigh_pair", recorded)
    est = pi.korn_constant(pg.build_layer_mesh(box_geom, 0.25, SIGMA, 4), 0.25,
                           tol=1e-8, seed=1)
    assert est.constant == pytest.approx(KORN_QUARTER, rel=1e-6)
    assert isinstance(seen[0][0], fem.FilledLayer) and seen[0][1] <= 70
    pi.trace_constant(pg.build_layer_mesh(channel_geom, 0.5, SIGMA, 4, include_void=True),
                      0.5, tol=1e-4, seed=1)
    assert seen[1][0] is None


def test_trace_quarter_is_top_of_cluster(channel_geom):
    lmesh = pg.build_layer_mesh(channel_geom, 0.25, SIGMA, 4, include_void=True)
    est = pi.trace_constant(lmesh, 0.25, tol=1e-8, seed=1)
    assert est.constant == pytest.approx(TRACE_QUARTER, rel=1e-6)


def test_eigen_iteration_cap_raises(channel_geom, monkeypatch):
    lmesh = pg.build_layer_mesh(channel_geom, 0.25, SIGMA, 4, include_void=True)
    monkeypatch.setattr(fem, "EIGEN_MAX_SWEEPS", 3)
    with pytest.raises(fem.ConvergenceFailure):
        pi.trace_constant(lmesh, 0.25, tol=1e-8, seed=1)


def test_trace_degenerate_when_boundary_fully_clamped(full_geom2):
    # when the perforation does not reach the lateral boundary every
    # admissible field vanishes there and the estimate collapses to zero
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2, include_void=True)
    est = pi.trace_constant(lmesh, 0.5, tol=1e-8, seed=2)
    assert est.constant == pytest.approx(0.0, abs=1e-8)


def test_trace_positive_for_channel(channel_geom):
    lmesh = pg.build_layer_mesh(channel_geom, 0.5, SIGMA, 4, include_void=True)
    est = pi.trace_constant(lmesh, 0.5, tol=1e-6, seed=2)
    assert est.constant > 0.1


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def box_problem(box_geom):
    lmesh = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 4, include_void=True)
    return pi.extension_problem(lmesh)


def _extend(prob, nodal):
    """The extension of the solid values of a nodal field, as a nodal field."""
    return pi.extend_field(prob, nodal.reshape(-1)[prob.solid_dofs]).reshape(-1, 3)


def test_extend_rigid_is_rigid(box_problem):
    prob = box_problem
    v = rigid_field(prob.lmesh.coords, [0.2, -0.1, 0.3, -0.1, -0.2, -0.5])
    ext = _extend(prob, v)
    assert np.allclose(ext, v, atol=1e-9)
    void_elems = prob.lmesh.elems[~prob.lmesh.solid]
    d = fem.element_fields(prob.lmesh, ext, void_elems)[..., 3:]
    assert np.abs(d).max() <= 1e-9


def test_extend_zero_is_zero(box_problem):
    ext = _extend(box_problem, np.zeros((box_problem.lmesh.n_nodes, 3)))
    assert np.abs(ext).max() == 0.0


def test_extend_solid_values_unchanged(box_problem):
    prob = box_problem
    r = rng(9)
    v = r.standard_normal((prob.lmesh.n_nodes, 3))
    ext = _extend(prob, v)
    flat = v.reshape(-1)
    assert np.allclose(ext.reshape(-1)[prob.solid_dofs], flat[prob.solid_dofs])


def test_extend_block_rows_match_vectors(box_problem):
    prob = box_problem
    v = rng(10).standard_normal((3, prob.solid_dofs.size))
    block = pi.extend_field(prob, v)
    assert block.shape == (3, prob.dofmap.n_dofs)
    for row, vj in zip(block, v):
        want = pi.extend_field(prob, vj)
        assert np.array_equal(row[prob.solid_dofs], vj)
        assert np.linalg.norm(row - want) <= 1e-10 * np.linalg.norm(want)


def test_extension_minimality(box_problem):
    # oracle: any competitor with the same trace has at least the energy of
    # the minimizing extension
    prob = box_problem
    lmesh = prob.lmesh
    void_elems = lmesh.elems[~lmesh.solid]
    w_q = fem.quadrature_weights(lmesh)[0]
    w = np.broadcast_to(w_q, (void_elems.shape[0], w_q.size))
    r = rng(11)
    v = r.standard_normal((lmesh.n_nodes, 3))
    ext = _extend(prob, v)

    def void_energy(field):
        d = fem.element_fields(lmesh, field, void_elems)[..., 3:]
        return float(np.einsum("eq,eqi->", w, d**2))

    e_min = void_energy(ext)
    for _ in range(10):
        competitor = ext.reshape(-1).copy()
        competitor[prob.void_dofs] += r.standard_normal(prob.void_dofs.size)
        assert void_energy(competitor.reshape(-1, 3)) >= e_min - 1e-10


def _former_extension_blocks(lmesh):
    """The former construction of the extension's matrices: the solid
    energy and mass and the void energy as n x n forms of the whole layer,
    then summed and cut to the solid and void dofs."""
    dm = fem.DofMap(lmesh, 3)
    n = dm.n_dofs
    energy = fem.elasticity_element(lmesh.spacing, fem.ElasticityTensor4.identity())
    solid, void = lmesh.elems[lmesh.solid], lmesh.elems[~lmesh.solid]
    s_mat, m_mat = fem.assemble_forms(lmesh, dm, [energy, fem.mass_element(lmesh.spacing, 3)],
                                      elems=solid)
    v_mat = (fem.assemble_forms(lmesh, dm, [energy], elems=void)[0] if void.shape[0]
             else sp.csr_matrix((n, n)))
    touched = np.zeros(lmesh.n_nodes, dtype=bool)
    touched[solid] = True
    sd = np.flatnonzero(np.repeat(touched, 3))
    vd = np.flatnonzero(np.repeat(~touched, 3))
    return sd, vd, {"full_energy": (s_mat + v_mat).tocsr(),
                    "solid_energy": s_mat[sd][:, sd].tocsr(),
                    "solid_mass": m_mat[sd][:, sd].tocsr(),
                    "void_vv": v_mat[vd][:, vd].tocsr(),
                    "void_vs": v_mat[vd][:, sd].tocsr()}


@pytest.mark.parametrize("geom,eps", [("box", 0.5), ("box", 0.25), ("channel", 0.5),
                                      ("channel", 0.25), ("full", 0.5)])
def test_extension_blocks_equal_former_cuts(box_geom, channel_geom, full_geom2, geom, eps):
    # the solid forms assembled on the solid numbering and the void blocks
    # cut from the full energy's void rows hold the bits of the n x n forms
    # cut down; the full energy is one sum where it was two.  On the
    # unperforated layer the extension is the identity.
    g = {"box": box_geom, "channel": channel_geom, "full": full_geom2}[geom]
    lmesh = pg.build_layer_mesh(g, eps, SIGMA, 4 if geom != "full" else 2, include_void=True)
    prob = pi.extension_problem(lmesh)
    sd, vd, want = _former_extension_blocks(lmesh)
    assert np.array_equal(prob.solid_dofs, sd) and np.array_equal(prob.void_dofs, vd)
    for name in ("solid_energy", "solid_mass", "void_vv", "void_vs"):
        got, ref = getattr(prob, name), want[name]
        assert got.format == "csr" and got.shape == ref.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(ref, part)), (name, part)
    full, ref = prob.full_energy, want["full_energy"]
    assert full.shape == ref.shape
    assert abs(full - ref).max() <= 1e-15 * abs(ref).max()
    if geom == "full":
        assert prob.void_dofs.size == 0
        assert pi.extension_norm(prob).constant == 1.0
    else:
        assert prob.void_dofs.size > 0


def test_extension_norm_at_least_one(box_problem):
    est = pi.extension_norm(box_problem, tol=1e-4, seed=3)
    assert est.constant >= 1.0


def test_extension_norm_vs_dense_oracle(box_geom):
    # dense oracle on a single cell: eliminate the void block explicitly and
    # solve the projected dense eigenproblem
    lmesh = pg.build_layer_mesh(box_geom, 1.0, SIGMA, 4, include_void=True)
    prob = pi.extension_problem(lmesh)
    est = pi.extension_norm(prob, tol=1e-8, seed=3)

    s = prob.solid_energy.toarray()
    vvv = prob.void_vv.toarray()
    vvs = prob.void_vs.toarray()
    f = prob.full_energy.toarray()
    nsd = prob.solid_dofs.size
    wmat = -np.linalg.solve(vvv, vvs)
    emat = np.zeros((f.shape[0], nsd))
    emat[prob.solid_dofs, :] = np.eye(nsd)
    emat[prob.void_dofs, :] = wmat
    nmat = emat.T @ f @ emat
    # restrict both forms to an orthonormal complement of the rigid kernel
    modes = fem.rigid_modes(lmesh.coords).reshape(6, -1)[:, prob.solid_dofs]
    _, _, vh = np.linalg.svd(modes)
    z = vh[6:].T  # (nsd, nsd - 6) basis of the complement
    n_red = z.T @ nmat @ z
    s_red = z.T @ s @ z
    mu = sla.eigh(0.5 * (n_red + n_red.T), 0.5 * (s_red + s_red.T),
                  eigvals_only=True)[-1]
    assert est.constant == pytest.approx(np.sqrt(mu), rel=1e-4)


def test_extension_norm_quarter_converges_to_eigsh(box_geom):
    lmesh = pg.build_layer_mesh(box_geom, 0.25, SIGMA, 4, include_void=True)
    est = pi.extension_norm(pi.extension_problem(lmesh), tol=1e-8, seed=1)
    assert est.constant == pytest.approx(EXTENSION_QUARTER, rel=1e-6)


def test_extension_monotone_under_void_shrinkage():
    # smaller voids give ratios closer to one (reported trend)
    holes = [((0.125, 0.875), (0.125, 0.875), (-0.75, 0.75)),
             ((0.25, 0.75), (0.25, 0.75), (-0.5, 0.5)),
             ((0.375, 0.625), (0.375, 0.625), (-0.25, 0.25))]
    ratios = []
    for bounds in holes:
        geom = pg.build_cell_geometry(("box", bounds), m=8)
        lmesh = pg.build_layer_mesh(geom, 1.0, SIGMA, 8, include_void=True)
        est = pi.extension_norm(pi.extension_problem(lmesh), tol=1e-4, seed=3)
        ratios.append(est.constant)
    assert ratios[0] >= ratios[1] >= ratios[2] >= 1.0


def test_constant_sweep_table(box_geom):
    sweep = pi.constant_sweep("korn", box_geom, SIGMA, [0.5], 4, tol=1e-4, seed=1)
    table = sweep.table()
    assert len(table) == 1
    assert table[0][0] == "korn"
    assert table[0][1] == 0.5
    assert table[0][3] > 0
