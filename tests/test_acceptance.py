"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS line (visible with -s / -rP); heavy runs are shared
through module fixtures.  Time limits are asserted per criterion.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from perfolayer import cell as pc
from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import inequalities as pi
from perfolayer import micro as pm
from perfolayer import plate as pp
from perfolayer.loads import CellQuadrature, preset_load_model

from conftest import SIGMA, sym_gradient

EPS_LIST = (0.5, 0.25, 0.125)


def _report(k, name, detail=""):
    print(f"ACCEPTANCE {k:2d} {name}: PASS {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smooth_loads(box_geom):
    mesh = pg.build_cell_mesh(box_geom, 4)
    return preset_load_model("smooth").with_cell_quadrature(
        CellQuadrature.from_cell_mesh(mesh))


@pytest.fixture(scope="module")
def linear_loads(box_geom):
    mesh = pg.build_cell_mesh(box_geom, 4)
    return preset_load_model("linear").with_cell_quadrature(
        CellQuadrature.from_cell_mesh(mesh))


@pytest.fixture(scope="module")
def coupled_runs(box_geom, box_cell_n4, iso_tensor, linear_loads):
    """Micro runs for every eps against one fine-step macro reference,
    with per-step two-scale reports and moment errors (linear load case)."""
    mesh, sols, eff = box_cell_n4
    pmesh = pg.build_plate_mesh(SIGMA, 8)
    system = pp.assemble_plate_system(pmesh, eff)
    t_end = 0.5
    dt_macro = min(EPS_LIST) / 8
    ptraj = pp.run_plate(system, linear_loads, dt=dt_macro, t_end=t_end,
                         store_states=True)
    out = {}
    for eps in EPS_LIST:
        dt = eps / 8
        stride = int(round(dt / dt_macro))
        lmesh = pg.build_layer_mesh(box_geom, eps, SIGMA, 4)
        ops = pm.assemble_micro(lmesh, iso_tensor, eps, linear_loads)
        mtraj = pm.run_micro(ops, linear_loads, dt=dt, t_end=t_end,
                             store_states=True)
        reports = []
        moments = []
        for k, ms in enumerate(mtraj.states[1:], start=1):
            ps = ptraj.states[k * stride]
            reports.append(pm.two_scale_errors(ms, ps, sols))
            moments.append(pm.moment_errors(ps, lmesh, ms.nodal(), eps))
        out[eps] = {"lmesh": lmesh, "traj": mtraj, "reports": reports,
                    "moments": moments, "dt": dt}
    return out


def _time_integrated(reports, dt, pick):
    return float(np.sqrt(sum(dt * pick(r) ** 2 for r in reports)))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_homogenization_goldens(full_cell_n8):
    t0 = time.time()
    _, _, eff = full_cell_n8
    lam = mu = 1.0
    a1111 = 2 * mu + 2 * lam * mu / (lam + 2 * mu)   # 8/3
    a1122 = 2 * lam * mu / (lam + 2 * mu)            # 2/3
    assert eff.a_star[0, 0, 0, 0] == pytest.approx(a1111, rel=0.01)
    assert eff.a_star[0, 0, 1, 1] == pytest.approx(a1122, rel=0.01)
    assert eff.a_star[0, 1, 0, 1] == pytest.approx(1.0, rel=0.01)
    assert np.abs(eff.b_star).max() <= 1e-10
    target = eff.a_star / 3.0
    scale = np.abs(target).max()
    assert (np.abs(eff.c_star - target) <= 0.01 * np.maximum(np.abs(target),
                                                             1e-8 * scale)).all()
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    _report(1, "homogenization goldens",
            f"(a1111={eff.a_star[0, 0, 0, 0]:.6f}, {elapsed:.1f}s)")


def test_criterion_02_tensor_structure(box_cell_n8, iso_tensor):
    t0 = time.time()
    mesh, _, eff = box_cell_n8
    scale = np.abs(eff.a_star).max()
    assert np.abs(eff.a_star - eff.a_star.transpose(2, 3, 0, 1)).max() <= 1e-12 * scale
    assert np.abs(eff.c_star - eff.c_star.transpose(2, 3, 0, 1)).max() <= 1e-12 * scale
    assert abs(eff.a_star[0, 0, 0, 0] - eff.a_star[1, 1, 1, 1]) <= 1e-10 * max(1.0, scale)
    assert np.linalg.eigvalsh(eff.voigt(eff.a_star)).min() > 0
    assert np.linalg.eigvalsh(eff.voigt(eff.c_star)).min() > 0
    bound = pc.voigt_bound(iso_tensor, mesh)
    gap = eff.voigt(bound) - eff.voigt(eff.a_star)
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-10 * scale
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(2, "effective-tensor structure", f"({elapsed:.1f}s)")


def test_criterion_03_mesh_consistency(box_cell_n8, box_cell_n16):
    _, _, e8 = box_cell_n8
    _, _, e16 = box_cell_n16
    diff = np.abs(e8.a_star - e16.a_star)
    denom = np.maximum(np.abs(e16.a_star), 1e-3 * np.abs(e16.a_star).max())
    worst = float((diff / denom).max())
    assert worst <= 0.05
    _report(3, "mesh consistency", f"(worst componentwise change {worst:.2%})")


def test_criterion_04_korn_uniformity(box_geom):
    t0 = time.time()
    values = {}
    for eps in (0.25, 0.125):
        lmesh = pg.build_layer_mesh(box_geom, eps, SIGMA, 4)
        values[eps] = pi.korn_constant(lmesh, eps, tol=1e-4, seed=1).constant
    ratio = max(values.values()) / min(values.values())
    assert ratio <= 2.0

    geom2 = pg.build_cell_geometry("full", m=2)
    lm1 = pg.build_layer_mesh(geom2, 1.0, SIGMA, 2)
    est = pi.korn_constant(lm1, 1.0, tol=1e-10, seed=1)
    dm = fem.DofMap(lm1, 3, dirichlet_nodes=lm1.dirichlet_nodes)
    a = fem.assemble_elasticity(lm1, fem.ElasticityTensor4.identity(), dm).dense()
    b = fem.assemble_anisotropic(lm1, dm, (1.0, 1.0, 1.0),
                                 [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                                  [1.0, 1.0, 1.0]]).dense()
    lam = sla.eigh(a, b, eigvals_only=True)[0]
    dense = 1.0 / np.sqrt(lam)
    assert est.constant == pytest.approx(dense, rel=1e-6)
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report(4, "Korn uniformity",
            f"(C(1/4)={values[0.25]:.4f}, C(1/8)={values[0.125]:.4f}, "
            f"ratio={ratio:.3f}, {elapsed:.0f}s)")


def test_criterion_05_extension_uniformity(box_geom):
    t0 = time.time()
    geom2 = pg.build_cell_geometry("full", m=2)
    lm_full = pg.build_layer_mesh(geom2, 0.5, SIGMA, 2, include_void=True)
    est_full = pi.extension_norm(pi.extension_problem(lm_full))
    assert est_full.constant == 1.0  # unperforated: the extension is identity

    values = {}
    for eps in (0.25, 0.125):
        lmesh = pg.build_layer_mesh(box_geom, eps, SIGMA, 4, include_void=True)
        est = pi.extension_norm(pi.extension_problem(lmesh), tol=1e-4, seed=1)
        assert est.constant >= 1.0
        values[eps] = est.constant
    ratio = max(values.values()) / min(values.values())
    assert ratio <= 1.5
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report(5, "extension uniformity",
            f"(ratio(1/4)={values[0.25]:.4f}, ratio(1/8)={values[0.125]:.4f}, "
            f"{elapsed:.0f}s)")


def test_criterion_06_trace_constant():
    t0 = time.time()
    geom = pg.build_cell_geometry(pg.channel_mask(4))
    lm1 = pg.build_layer_mesh(geom, 1.0, SIGMA, 4, include_void=True)
    est = pi.trace_constant(lm1, 1.0, tol=1e-10, seed=1)
    dm = fem.DofMap(lm1, 3, dirichlet_nodes=lm1.dirichlet_nodes)
    a = fem.assemble_elasticity(lm1, fem.ElasticityTensor4.identity(), dm).dense()
    b = fem.assemble_surface_mass(lm1, dm, lm1.lateral_faces).dense()
    mu = sla.eigh(b, a, eigvals_only=True)[-1]
    assert est.constant == pytest.approx(np.sqrt(mu), rel=1e-6)

    values = {}
    for eps in (0.25, 0.125):
        lmesh = pg.build_layer_mesh(geom, eps, SIGMA, 4, include_void=True)
        values[eps] = pi.trace_constant(lmesh, eps, tol=1e-4, seed=1).constant
    ratio = max(values.values()) / min(values.values())
    assert ratio <= 2.0
    elapsed = time.time() - t0
    _report(6, "trace constant",
            f"(C(1/4)={values[0.25]:.4f}, C(1/8)={values[0.125]:.4f}, "
            f"ratio={ratio:.3f}, {elapsed:.0f}s)")


def test_criterion_07_helmholtz(full_geom):
    rng = np.random.default_rng(42)
    mesh = pg.build_cell_mesh(full_geom, 4)
    dm = fem.DofMap(mesh, 3, periodic=True)
    w = fem.quadrature_weights(mesh)
    nq = fem.hex_reference(mesh.spacing)[0].shape[0]

    def vol_norm(f):
        return float(np.sqrt(np.einsum("eq,eqi->", w, (f**2).reshape(*w.shape, -1))))

    for _ in range(10):
        raw = rng.standard_normal((mesh.n_elems, nq, 3, 3))
        xi = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        split = pc.helmholtz_decompose(mesh, xi)
        recon = vol_norm(fem.sym_to_mandel(xi) - split.potential - split.solenoidal)
        assert recon <= 1e-8 * vol_norm(xi)
        sol_norm = vol_norm(split.solenoidal)
        for _ in range(20):
            phi = dm.expand(dm.restrict(rng.standard_normal((mesh.n_nodes, 3))))
            dphi = fem.gradient_decomposition(mesh, phi)
            pairing = pc.gradient_pairing(mesh, split.solenoidal, dphi)
            assert abs(pairing) <= 1e-8 * max(sol_norm * vol_norm(dphi), 1e-30)

    # idempotence: inputs already of gradient form are recovered exactly
    for _ in range(3):
        wfield = dm.expand(dm.restrict(rng.standard_normal((mesh.n_nodes, 3))))
        xi = sym_gradient(mesh, wfield)
        split = pc.helmholtz_decompose(mesh, xi)
        assert vol_norm(split.potential - fem.sym_to_mandel(xi)) <= 1e-8 * vol_norm(xi)
    _report(7, "Helmholtz decomposition")


def test_criterion_08_plate_verification(full_cell_n8, smooth_loads):
    t0 = time.time()
    _, _, eff = full_cell_n8
    c = eff.c_star

    # manufactured static solution w = (x(1-x)y(1-y))^2
    def wfun(x, y):
        return (x * (1 - x) * y * (1 - y)) ** 2

    import sympy

    xs, ys = sympy.symbols("x y")
    w_expr = (xs * (1 - xs) * ys * (1 - ys)) ** 2
    f_expr = 0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    v = [xs, ys]
                    f_expr += c[i, j, k, l] * sympy.diff(w_expr, v[i], v[j], v[k], v[l])
    f_fn = sympy.lambdify((xs, ys), f_expr, "numpy")

    errors = []
    for n_sigma in (4, 8, 16):
        pmesh = pg.build_plate_mesh(SIGMA, n_sigma)
        system = pp.assemble_plate_system(pmesh, eff)
        fq = f_fn(system.quad_xy[..., 0], system.quad_xy[..., 1])
        rb = np.zeros(system.bend_dofs.n_dofs)
        eb = system.bend_dofs.element_dofs(pmesh.elems)
        local = np.einsum("q,eq,qi->ei", system.quad_w, fq, system.basis.val)
        keep = eb >= 0
        np.add.at(rb, eb[keep], local[keep])
        w_sol = fem.solve_spd(fem.SymmetricOperator(system.k_bb), rb,
                              tol=1e-13, max_iter=200000)
        wq = pp.deflection_at_quad(system, w_sol)
        exact = wfun(system.quad_xy[..., 0], system.quad_xy[..., 1])
        errors.append(float(np.sqrt(np.sum(system.quad_w[None, :] * (wq - exact)**2))))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0

    # Newmark conservation over 100 steps after load cutoff
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    system = pp.assemble_plate_system(pmesh, eff)
    dt = 1.0 / 128.0
    loads = preset_load_model("pulse", {"t0": 0.1}).with_cell_quadrature(
        smooth_loads.cell_quad)
    traj = pp.run_plate(system, loads, dt=dt, t_end=0.1 + 101 * dt, tol=1e-13,
                        store_states=True)
    energies = [pp.energy(s) for s in traj.states if s.t > 0.1 + dt / 2]
    assert len(energies) >= 100
    e0 = energies[0]
    drifts = [abs(e2 - e1) / e0 for e1, e2 in zip(energies, energies[1:])]
    assert max(drifts) <= 1e-10
    elapsed = time.time() - t0
    _report(8, "plate verification",
            f"(L2 drops {errors[0] / errors[1]:.1f}x, {errors[1] / errors[2]:.1f}x; "
            f"max drift {max(drifts):.2e}; {elapsed:.0f}s)")


def test_criterion_09_micro_apriori(box_geom, iso_tensor, smooth_loads):
    t0 = time.time()
    maxima = {}
    for eps in (0.25, 0.125):
        lmesh = pg.build_layer_mesh(box_geom, eps, SIGMA, 4)
        ops = pm.assemble_micro(lmesh, iso_tensor, eps, smooth_loads)
        traj = pm.run_micro(ops, smooth_loads, dt=eps / 8, t_end=0.25)
        check = pm.apriori_check(traj)
        maxima[eps] = (check["max_apriori_v"], check["max_apriori_D"])
    for comp in (0, 1):
        hi = max(maxima[0.25][comp], maxima[0.125][comp])
        lo = min(maxima[0.25][comp], maxima[0.125][comp])
        assert hi <= 2.0 * lo
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    _report(9, "micro a priori bounds",
            f"(v: {maxima[0.25][0]:.4f} vs {maxima[0.125][0]:.4f}; "
            f"D: {maxima[0.25][1]:.4f} vs {maxima[0.125][1]:.4f}; {elapsed:.0f}s)")


def test_criterion_10_two_scale_trend(coupled_runs, box_cell_n4, iso_tensor,
                                      smooth_loads):
    series = {}
    for eps in EPS_LIST:
        rep = coupled_runs[eps]["reports"]
        dt = coupled_runs[eps]["dt"]
        series[eps] = [
            _time_integrated(rep, dt, lambda r: r.err_u3),
            _time_integrated(rep, dt, lambda r: r.err_u1[0]),
            _time_integrated(rep, dt, lambda r: r.err_u1[1]),
            _time_integrated(rep, dt, lambda r: r.err_symgrad),
        ]
    for comp in range(4):
        vals = [series[eps][comp] for eps in EPS_LIST]
        assert vals[0] > vals[1] > vals[2], f"component {comp} not monotone: {vals}"

    # quadrature-exact Kirchhoff-Love ansatz at every eps
    mesh, sols, eff = box_cell_n4
    pmesh = pg.build_plate_mesh(SIGMA, 4)
    pmesh.clamped_nodes = np.array([], dtype=np.int64)
    system = pp.assemble_plate_system(pmesh, eff)
    coords = system.pmesh.coords
    nodal_w = np.zeros((system.pmesh.n_nodes, 4))
    nodal_w[:, 0] = 0.3 + 0.2 * coords[:, 0] - 0.1 * coords[:, 1] \
        + 0.5 * coords[:, 0] * coords[:, 1]
    nodal_w[:, 1] = 0.2 + 0.5 * coords[:, 1]
    nodal_w[:, 2] = -0.1 + 0.5 * coords[:, 0]
    nodal_w[:, 3] = 0.5
    nodal_m = np.zeros((system.pmesh.n_nodes, 2))
    nodal_m[:, 0] = 0.1 * coords[:, 0] + 0.4 * coords[:, 1]
    nodal_m[:, 1] = -0.2 * coords[:, 1]
    base = pp.zero_state(system)
    pstate = pp.PlateState(system=system, t=0.0,
                           w=system.bend_dofs.restrict(nodal_w),
                           v=base.v, a=base.a,
                           m=system.memb_dofs.restrict(nodal_m))
    for eps in EPS_LIST:
        lmesh = pg.build_layer_mesh(mesh.geometry, eps, SIGMA, 4)
        ops = pm.assemble_micro(lmesh, iso_tensor, eps, smooth_loads)
        u_nodal = pm.kirchhoff_love_field(lmesh, pstate, eps)
        mstate = pm.zero_micro_state(ops)
        mstate.nodal = lambda u=u_nodal: u
        rep = pm.two_scale_errors(mstate, pstate, sols)
        assert rep.err_u3 <= 1e-10
        assert max(rep.err_u1) <= 1e-10
    trend = [f"{series[eps][0]:.5f}" for eps in EPS_LIST]
    _report(10, "two-scale convergence trend", f"(err_u3: {' > '.join(trend)})")


def test_criterion_11_plate_moments(coupled_runs):
    agg = {}
    for eps in EPS_LIST:
        moments = coupled_runs[eps]["moments"]
        dt = coupled_runs[eps]["dt"]
        agg[eps] = (
            float(np.sqrt(sum(dt * m[0] ** 2 for m in moments))),
            float(np.sqrt(sum(dt * m[1] ** 2 for m in moments))),
        )
    for comp in (0, 1):
        vals = [agg[eps][comp] for eps in EPS_LIST]
        assert vals[0] > vals[1] > vals[2], f"moment {comp} not monotone: {vals}"
    _report(11, "plate-moment diagnostics",
            f"(U: {agg[0.5][0]:.5f} > {agg[0.25][0]:.5f} > {agg[0.125][0]:.5f})")
