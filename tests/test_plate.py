import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from perfolayer import geometry as pg
from perfolayer import plate as pp
from perfolayer.loads import CellQuadrature, preset_load_model

from conftest import SIGMA, rng


@pytest.fixture(scope="module")
def full_eff(full_cell_n8):
    return full_cell_n8[2]


@pytest.fixture(scope="module")
def cell_quad(full_geom):
    mesh = pg.build_cell_mesh(full_geom, 4)
    return CellQuadrature.from_cell_mesh(mesh)


def _loads(preset, cell_quad, params=None):
    return preset_load_model(preset, params).with_cell_quadrature(cell_quad)


def test_decoupling_when_b_vanishes(full_eff):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    assert np.abs(full_eff.b_star).max() <= 1e-10
    assert abs(system.k_ab).max() <= 1e-12


def test_bending_form_matches_dense_quadrature(full_eff):
    # oracle: high-order quadrature of the analytic c* hess(w):hess(w)
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)

    # w = x(1-x) y(1-y) is biquadratic, interpolated exactly by the element
    def w(x, y):
        return x * (1 - x) * y * (1 - y)

    def wx(x, y):
        return (1 - 2 * x) * y * (1 - y)

    def wy(x, y):
        return x * (1 - x) * (1 - 2 * y)

    def wxy(x, y):
        return (1 - 2 * x) * (1 - 2 * y)

    nodal = np.zeros((pmesh.n_nodes, 4))
    nodal[:, 0] = w(pmesh.coords[:, 0], pmesh.coords[:, 1])
    nodal[:, 1] = wx(pmesh.coords[:, 0], pmesh.coords[:, 1])
    nodal[:, 2] = wy(pmesh.coords[:, 0], pmesh.coords[:, 1])
    nodal[:, 3] = wxy(pmesh.coords[:, 0], pmesh.coords[:, 1])
    free = pg.build_plate_mesh(SIGMA, 4)
    free.clamped_nodes = np.array([], dtype=np.int64)
    sys_free = pp.assemble_plate_system(free, full_eff)
    red = sys_free.bend_dofs.restrict(nodal)
    energy = float(red @ (sys_free.k_bb @ red))

    x1, w1 = np.polynomial.legendre.leggauss(12)
    xs = 0.5 * (x1 + 1)
    ws = 0.5 * w1
    c = full_eff.c_star
    total = 0.0
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys := xs):
            hess = np.array([[-2 * yj * (1 - yj), (1 - 2 * xi) * (1 - 2 * yj)],
                             [(1 - 2 * xi) * (1 - 2 * yj), -2 * xi * (1 - xi)]])
            total += ws[i] * ws[j] * np.einsum("ijkl,ij,kl->", c, hess, hess)
    assert energy == pytest.approx(total, rel=1e-12)


def test_clamped_membrane_energy_positive(full_eff):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    r = rng(3)
    for _ in range(5):
        m = r.standard_normal(system.memb_dofs.n_dofs)
        assert m @ (system.k_aa @ m) > 0


def test_block_symmetry_and_definiteness(box_cell_n4):
    _, _, eff = box_cell_n4
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, eff)
    import scipy.sparse as sp

    full = sp.bmat([[system.k_bb, system.k_ab.T],
                    [system.k_ab, system.k_aa]]).toarray()
    assert np.abs(full - full.T).max() <= 1e-12 * np.abs(full).max()
    evals = np.linalg.eigvalsh(full)
    assert evals.min() > 0  # positive definite after clamping


def test_compute_loads_zero(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("zero", cell_quad)
    r_m, r_b = pp.compute_loads(system, loads, np.zeros(system.bend_dofs.n_dofs), 0.0)
    assert np.abs(r_m).max() == 0.0
    assert np.abs(r_b).max() == 0.0


def test_compute_loads_uniform_vertical(full_eff, cell_quad):
    # f3 = 1 on the full cell: h3 = 1 and Hbar = 0 by vertical symmetry
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("uniform_vertical", cell_quad)
    h, hbar = loads.effective_loads(0.0, np.array([0.3]), np.array([0.4]),
                                    np.array([0.0]))
    assert h[2][0] == pytest.approx(1.0, rel=1e-13)
    assert abs(h[0][0]) + abs(h[1][0]) == 0.0
    assert np.abs(hbar).max() <= 1e-13


def test_compute_loads_surface_pressure(full_eff, cell_quad):
    # g3 = 1 on Gamma = S+-: h3 = -|Gamma| / |Z^s| = -1 for the full cell
    loads = _loads("surface_pressure", cell_quad)
    assert cell_quad.surf_w.sum() == pytest.approx(2.0, rel=1e-13)  # |Gamma| = 2
    h, hbar = loads.effective_loads(0.0, np.array([0.5]), np.array([0.5]),
                                    np.array([0.0]))
    assert h[2][0] == pytest.approx(-1.0, rel=1e-13)
    # first moment of g3 does not enter Hbar (only in-plane tractions do)
    assert np.abs(hbar).max() <= 1e-13


def test_newmark_zero_loads_stays_zero(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("zero", cell_quad)
    state = pp.zero_state(system)
    for _ in range(3):
        state = pp.newmark_step(state, 0.01, loads)
    assert np.abs(state.w).max() == 0.0
    assert np.abs(state.m).max() == 0.0


def test_newmark_single_picard_when_z_independent(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("uniform_vertical", cell_quad)
    state = pp.newmark_step(pp.zero_state(system), 0.01, loads)
    assert state.picard_iters == 1
    assert state.picard_converged


def test_picard_contraction_small_lipschitz(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("linear_z", cell_quad, {"slope": 0.2})
    dt = 0.05
    assert loads.lipschitz * dt**2 < 1.0
    state = pp.newmark_step(pp.zero_state(system), dt, loads,
                            picard_tol=1e-12, picard_max=30)
    assert state.picard_converged
    assert state.picard_iters <= 10


def test_run_plate_t_zero_single_state(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    traj = pp.run_plate(system, _loads("uniform_vertical", cell_quad),
                        dt=0.01, t_end=0.0)
    assert len(traj.rows) == 1


def test_newmark_energy_conserved_after_cutoff(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    dt = 1.0 / 128.0
    loads = _loads("pulse", cell_quad, {"t0": 0.1})
    traj = pp.run_plate(system, loads, dt=dt, t_end=0.1 + 30 * dt,
                        tol=1e-13, store_states=True)
    energies = [pp.energy(s) for s in traj.states if s.t > 0.1 + dt / 2]
    e0 = energies[0]
    for e1, e2 in zip(energies, energies[1:]):
        assert abs(e2 - e1) <= 1e-10 * e0


def test_membrane_quasi_static_residual(box_cell_n4, cell_quad):
    _, _, eff = box_cell_n4
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, eff)
    loads = _loads("smooth", cell_quad)
    traj = pp.run_plate(system, loads, dt=0.02, t_end=0.1, store_states=True)
    st = traj.states[-1]
    r_m, _ = pp.compute_loads(system, loads, st.w, st.t)
    resid = system.k_aa @ st.m + system.k_ab @ st.w - r_m
    assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(r_m), 1e-30)


def test_static_limit_time_average(full_eff, cell_quad):
    # with constant loads the undamped trajectory oscillates around the
    # static solution; the time average approaches it (5 percent gate)
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("uniform_vertical", cell_quad)
    assert not loads.f_depends_z  # one block solve is the stationary state
    r_m, r_b = pp.compute_loads(system, loads, np.zeros(system.bend_dofs.n_dofs), 0.0)
    static_w = pp._solve_block(system, pp._block_operator(system, 0.0), r_b, r_m, 1e-12)[0]
    traj = pp.run_plate(system, loads, dt=1.0 / 256.0, t_end=1.0, store_states=True)
    mean_w = np.mean([s.w for s in traj.states], axis=0)
    num = np.sqrt((mean_w - static_w) @ (system.m_b @ (mean_w - static_w)))
    den = np.sqrt(static_w @ (system.m_b @ static_w))
    assert num <= 0.05 * den


def test_plate_state_fields(full_eff, cell_quad):
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    traj = pp.run_plate(system, _loads("uniform_vertical", cell_quad),
                        dt=0.02, t_end=0.04, store_states=True)
    st = traj.states[-1]
    # clamped dofs stay zero at all times
    w_nodal = system.bend_dofs.expand(st.w)
    m_nodal = system.memb_dofs.expand(st.m)
    assert np.abs(w_nodal[pmesh.clamped_nodes]).max() == 0.0
    assert np.abs(m_nodal[pmesh.clamped_nodes]).max() == 0.0


def test_energy_conserved_from_velocity_kick(full_eff, cell_quad):
    # b* = 0, no loads, initial velocity kick: discrete energy is constant
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, full_eff)
    loads = _loads("zero", cell_quad)
    r = rng(21)
    v0 = r.standard_normal(system.bend_dofs.n_dofs)
    traj = pp.run_plate(system, loads, dt=1.0 / 128.0, t_end=0.25, tol=1e-13,
                        store_states=True,
                        initial=(np.zeros(system.bend_dofs.n_dofs), v0))
    energies = [pp.energy(s) for s in traj.states]
    e0 = energies[0]
    assert e0 > 0
    for e1, e2 in zip(energies, energies[1:]):
        assert abs(e2 - e1) <= 1e-10 * e0


def test_plate_operators_match_element_loop(full_eff):
    # the coupling block is rectangular (membrane rows, bending columns);
    # a random b* makes every entry of its local matrix count
    b = rng(11).standard_normal((2, 2, 2, 2))
    eff = replace(full_eff, b_star=b)
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, eff)
    x, w = np.polynomial.legendre.leggauss(4)
    xi, eta = (g.ravel() for g in np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij"))
    h1, h2 = pmesh.spacing
    wq = np.outer(0.5 * w, 0.5 * w).ravel() * h1 * h2
    basis = pp.bending_basis(xi, eta, pmesh.spacing)
    val, dx, dy = pp.membrane_basis(xi, eta, pmesh.spacing)
    s = np.sqrt(2.0)
    hess = np.stack([basis.dxx, basis.dyy, s * basis.dxy], axis=1)
    strain = np.zeros((xi.size, 3, 8))
    strain[:, 0, 0::2], strain[:, 2, 0::2] = dx, s * 0.5 * dy
    strain[:, 1, 1::2], strain[:, 2, 1::2] = dy, s * 0.5 * dx
    k_ab = np.einsum("q,qrj,rs,qsi->ij", wq, hess, eff.voigt(b), strain)
    m_b = np.einsum("q,qi,qj->ij", wq, basis.val, basis.val)
    eb = system.bend_dofs.element_dofs(pmesh.elems)
    em = system.memb_dofs.element_dofs(pmesh.elems)
    nb, nm = system.bend_dofs.n_dofs, system.memb_dofs.n_dofs
    for mat, local, rows, cols, shape in ((system.k_ab, k_ab, em, eb, (nm, nb)),
                                          (system.m_b, m_b, eb, eb, (nb, nb))):
        want = np.zeros(shape)
        for e in range(pmesh.n_elems):
            kr, kc = rows[e] >= 0, cols[e] >= 0
            np.add.at(want, (rows[e][kr][:, None], cols[e][kc][None, :]),
                      local[np.ix_(kr, kc)])
        assert mat.shape == shape
        assert mat.nnz == np.count_nonzero(mat.data)
        assert np.abs(mat.toarray() - want).max() <= 1e-14 * np.abs(want).max()


def test_run_plate_builds_block_operator_once(full_eff, cell_quad, monkeypatch):
    system = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), full_eff)
    loads = _loads("smooth", cell_quad)
    dt = 0.02
    built = []
    real = pp._block_operator
    monkeypatch.setattr(pp, "_block_operator",
                        lambda *a: built.append(a[1]) or real(*a))
    traj = pp.run_plate(system, loads, dt=dt, t_end=3 * dt, store_states=True)
    assert built == [1.0 / (0.25 * dt * dt)]
    # run_plate starts from the stationary membrane; step on from its states
    for st in traj.states[:-1]:
        a = pp.newmark_step(st, dt, loads)
        system.memo.pop("newmark")
        b = pp.newmark_step(st, dt, loads)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.m, b.m)
    assert len(built) == 1 + len(traj.states[:-1])
    # another dt gets the operator of its own mass factor
    pp.newmark_step(traj.states[0], dt / 2, loads)
    assert built[-1] == 1.0 / (0.25 * (dt / 2)**2)


def test_evaluation_points_memoized_on_system(full_eff):
    system = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), full_eff)
    r = np.random.default_rng(12)
    w = r.standard_normal(system.bend_dofs.n_dofs)
    m = r.standard_normal(system.memb_dofs.n_dofs)
    pts = r.uniform(0.0, 1.0, (7, 2))
    first = pp.evaluate_deflection(system, w, pts, derivatives=True)
    at = system.memo["points"]
    second = pp.evaluate_membrane(system, m, pts.copy(), derivatives=True)
    assert system.memo["points"] is at
    fresh = pp.PlatePoints(system, pts)
    for got, want in zip(first + second, fresh.deflection(w, True) + fresh.membrane(m, True)):
        assert np.array_equal(got, want)
    pp.evaluate_deflection(system, w, pts[:3])
    assert system.memo["points"] is not at
    assert np.array_equal(system.memo["points"].pts, pts[:3])


def test_evaluation_memo_shared_by_threads(full_eff):
    # converge runs its eps jobs on threads that share one plate system
    system = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), full_eff)
    r = np.random.default_rng(13)
    w = r.standard_normal(system.bend_dofs.n_dofs)
    sets = [r.uniform(0.0, 1.0, (5 + k, 2)) for k in range(8)]
    want = [pp.PlatePoints(system, pts).deflection(w, True) for pts in sets]
    wrong = []

    def work(k):
        for _ in range(50):
            got = pp.evaluate_deflection(system, w, sets[k], derivatives=True)
            if not all(np.array_equal(g, v) for g, v in zip(got, want[k])):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
