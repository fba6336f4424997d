import copy
import dataclasses

import numpy as np
import pytest

from perfolayer import fem
from perfolayer import geometry as pg
from perfolayer import micro as pm
from perfolayer import plate as pp
from perfolayer.cell import INDEX_PAIRS
from perfolayer.errors import EmptyColumn, InconsistentMesh, TimeMismatch
from perfolayer.loads import CellQuadrature, preset_load_model

from conftest import (SIGMA, column, dense, kirchhoff_love_field, mass_operator, rigid_field,
                      rng, sym_gradient, traced_peak)


@pytest.fixture(scope="module")
def full_geom2():
    return pg.build_cell_geometry("full", m=2)


@pytest.fixture(scope="module")
def cq(full_geom):
    return CellQuadrature.from_cell_mesh(pg.build_cell_mesh(full_geom, 4))


def _loads(preset, cq, params=None):
    return preset_load_model(preset, params).with_cell_quadrature(cq)


def test_micro_scaling_eps_one(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 1.0, SIGMA, 2)
    ops = pm.assemble_micro(lmesh, iso_tensor, 1.0, _loads("zero", cq))
    dm = ops.dofmap
    plain = fem.assemble_elasticity(lmesh, iso_tensor, dm)
    diff = dense(ops.stiffness) - plain.matrix.toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(plain.matrix.toarray()).max()


def test_micro_scaling_quarter(full_geom2, iso_tensor, cq):
    # eps = 1/2: the scaled stiffness is 4x the plain elasticity form
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, _loads("zero", cq))
    plain = fem.assemble_elasticity(lmesh, iso_tensor, ops.dofmap)
    diff = dense(ops.stiffness) - 4.0 * plain.matrix.toarray()
    assert np.abs(diff).max() <= 1e-12 * np.abs(plain.matrix.toarray()).max()


def test_micro_rigid_energy_zero_before_dirichlet(full_geom2, iso_tensor):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    dm = fem.DofMap(lmesh, 3)  # no constraints
    k = fem.assemble_elasticity(lmesh, iso_tensor, dm)
    u = dm.restrict(rigid_field(lmesh.coords, [1.0, 2.0, -1.0, -2.0, 0.0, -1.0]))
    e = u @ k.matvec(u)
    assert abs(e) <= 1e-10 * np.abs(k.matrix).max()


def test_micro_zero_loads_zero_trajectory(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, _loads("zero", cq))
    traj = pm.run_micro(ops, _loads("zero", cq), dt=0.05, t_end=0.2)
    rows = np.asarray(traj.rows)
    assert np.abs(rows[:, 1:5]).max() == 0.0


def test_micro_single_picard_z_independent(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    loads = _loads("uniform_vertical", cq)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, loads)
    state = pm.micro_step(pm.zero_micro_state(ops), 0.05, loads,
                          pm.effective_operator(ops, 0.05), pm.newmark_preconditioner(ops, 0.05))
    assert state.picard_iters == 1


def test_micro_picard_linear_z(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    loads = _loads("linear_z", cq, {"slope": 0.2})
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, loads)
    state = pm.micro_step(pm.zero_micro_state(ops), 0.05, loads,
                          pm.effective_operator(ops, 0.05), pm.newmark_preconditioner(ops, 0.05),
                          picard_tol=1e-12)
    assert state.picard_converged
    assert state.picard_iters <= 10


def test_micro_energy_conserved_after_cutoff(full_geom2, iso_tensor, cq):
    eps = 0.5
    dt = eps / 16
    lmesh = pg.build_layer_mesh(full_geom2, eps, SIGMA, 2)
    loads = _loads("pulse", cq, {"t0": 4 * dt})
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, loads)
    traj = pm.run_micro(ops, loads, dt=dt, t_end=20 * dt, tol=1e-13,
                        store_states=True)
    # scaled energy eps^-1 |v|^2 + eps^-3 |D u|^2_A = 2 E_h / eps
    energies = [sum(s.energies()) for s in traj.states if s.t > 4 * dt + dt / 2]
    e0 = energies[0]
    for e1, e2 in zip(energies, energies[1:]):
        assert abs(e2 - e1) <= 1e-9 * e0


def test_micro_dirichlet_conformity(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    loads = _loads("smooth", cq)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, loads)
    traj = pm.run_micro(ops, loads, dt=0.05, t_end=0.2, store_states=True)
    for st in traj.states:
        nod = st.nodal()
        assert np.abs(nod[lmesh.dirichlet_nodes]).max() == 0.0


def test_micro_no_energy_growth_zero_loads(full_geom2, iso_tensor, cq):
    # kick the system, then integrate without loads at several step sizes
    eps = 0.5
    lmesh = pg.build_layer_mesh(full_geom2, eps, SIGMA, 2)
    loads = _loads("zero", cq)
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, loads)
    r = rng(5)
    for dt in (0.02, 0.1, 0.5):
        k_eff = pm.effective_operator(ops, dt)
        precond = pm.newmark_preconditioner(ops, dt)
        state = pm.zero_micro_state(ops)
        v0 = r.standard_normal(ops.dofmap.n_dofs)
        state = pm.MicroState(ops=ops, t=0.0, u=state.u, v=v0, a=state.a)
        e0 = sum(state.energies())
        for _ in range(10):
            state = pm.micro_step(state, dt, loads, k_eff, precond, tol=1e-13)
        assert sum(state.energies()) <= e0 * (1 + 1e-9)


def test_apriori_scaling_linearity(full_geom2, iso_tensor, cq):
    eps = 0.5
    lmesh = pg.build_layer_mesh(full_geom2, eps, SIGMA, 2)
    base = _loads("smooth", cq)
    # twice the default amplitudes of "smooth" (0.3, 1.0), exactly twice the force
    doubled = _loads("smooth", cq, {"inplane": 0.6, "vertical": 2.0})
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, base)
    ops2 = pm.assemble_micro(lmesh, iso_tensor, eps, doubled)
    t1 = pm.run_micro(ops, base, dt=0.05, t_end=0.2)
    t2 = pm.run_micro(ops2, doubled, dt=0.05, t_end=0.2)
    # columns 1-2 of the rows: apriori_v, apriori_D (micro.TRAJECTORY_HEADER)
    max1 = np.asarray(t1.rows)[:, 1:3].max(axis=0)
    max2 = np.asarray(t2.rows)[:, 1:3].max(axis=0)
    assert max2 == pytest.approx(2 * max1, rel=1e-9)


# ---------------------------------------------------------------------------
# vertical moments
# ---------------------------------------------------------------------------

def test_plate_moments_constant_inplane(full_geom2):
    eps = 0.5
    lmesh = pg.build_layer_mesh(full_geom2, eps, SIGMA, 2)
    c = 0.7
    u = np.zeros((lmesh.n_nodes, 3))
    u[:, 0] = eps * c
    pts = np.array([[0.3, 0.4], [0.6, 0.7]])
    U, R = pm.plate_moments(lmesh, u, eps, pts)
    assert np.allclose(U[:, 0], c, atol=1e-12)
    assert np.allclose(U[:, 1], 0.0, atol=1e-14)
    assert np.abs(R).max() <= 1e-12


def test_plate_moments_rotation(full_geom2):
    eps = 0.5
    lmesh = pg.build_layer_mesh(full_geom2, eps, SIGMA, 2)
    d = 1.3
    u = np.zeros((lmesh.n_nodes, 3))
    u[:, 0] = -lmesh.coords[:, 2] * d
    pts = np.array([[0.3, 0.4]])
    U, R = pm.plate_moments(lmesh, u, eps, pts)
    assert np.abs(U).max() <= 1e-12  # odd moment integrates to zero
    assert R[0, 0] == pytest.approx(-d, rel=1e-12)
    assert abs(R[0, 1]) <= 1e-12


def test_plate_moments_empty_column():
    # vertical through-hole (touches S+-): the line through it meets no solid
    mask = np.ones((4, 4, 8), dtype=bool)
    mask[1, 1, :] = False
    geom = pg.build_cell_geometry(mask)
    lmesh = pg.build_layer_mesh(geom, 1.0, SIGMA, 4)
    u = np.zeros((lmesh.n_nodes, 3))
    with pytest.raises(EmptyColumn):
        pm.plate_moments(lmesh, u, 1.0, np.array([[0.375, 0.375]]))


# ---------------------------------------------------------------------------
# two-scale report
# ---------------------------------------------------------------------------

def _free_plate_system(eff, n_sigma=4):
    pmesh = pg.build_plate_mesh(SIGMA, n_sigma)
    pmesh.clamped_nodes = np.array([], dtype=np.int64)
    return pp.assemble_plate_system(pmesh, eff)


def test_two_scale_zero_states(box_cell_n4, iso_tensor, cq):
    mesh, sols, eff = box_cell_n4
    lmesh = pg.build_layer_mesh(mesh.geometry, 0.5, SIGMA, 4)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, _loads("zero", cq))
    system = _free_plate_system(eff)
    mstate = pm.zero_micro_state(ops)
    pstate = pp.zero_state(system)
    rep = pm.two_scale_errors(mstate, pstate, sols)
    assert rep.err_u3 == 0.0
    assert rep.err_u1 == (0.0, 0.0)
    assert rep.err_symgrad == 0.0


def test_two_scale_time_mismatch(box_cell_n4, iso_tensor, cq):
    mesh, sols, eff = box_cell_n4
    lmesh = pg.build_layer_mesh(mesh.geometry, 0.5, SIGMA, 4)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, _loads("zero", cq))
    system = _free_plate_system(eff)
    mstate = pm.zero_micro_state(ops)
    pstate = pp.zero_state(system)
    pstate = pp.PlateState(system=system, t=1.0, w=pstate.w, v=pstate.v,
                           a=pstate.a, m=pstate.m)
    with pytest.raises(TimeMismatch):
        pm.two_scale_errors(mstate, pstate, sols)


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_two_scale_kirchhoff_love_ansatz_exact(box_cell_n4, iso_tensor, cq, eps):
    # bilinear macro fields make the KL ansatz trilinear on the micro mesh:
    # displacement errors vanish to quadrature accuracy
    mesh, sols, eff = box_cell_n4
    system = _free_plate_system(eff)
    coords = system.pmesh.coords

    def wfun(x, y):
        return 0.3 + 0.2 * x - 0.1 * y + 0.5 * x * y

    nodal_w = np.zeros((system.pmesh.n_nodes, 4))
    nodal_w[:, 0] = wfun(coords[:, 0], coords[:, 1])
    nodal_w[:, 1] = 0.2 + 0.5 * coords[:, 1]
    nodal_w[:, 2] = -0.1 + 0.5 * coords[:, 0]
    nodal_w[:, 3] = 0.5
    nodal_m = np.zeros((system.pmesh.n_nodes, 2))
    nodal_m[:, 0] = 0.1 * coords[:, 0] + 0.4 * coords[:, 1]
    nodal_m[:, 1] = -0.2 * coords[:, 1]

    pstate = pp.zero_state(system)
    pstate = pp.PlateState(system=system, t=0.0,
                           w=system.bend_dofs.restrict(nodal_w),
                           v=pstate.v, a=pstate.a,
                           m=system.memb_dofs.restrict(nodal_m))

    lmesh = pg.build_layer_mesh(mesh.geometry, eps, SIGMA, 4)
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, _loads("zero", cq))
    u_nodal = kirchhoff_love_field(lmesh, pstate, eps)
    red = ops.dofmap.restrict(u_nodal)
    mstate = pm.MicroState(ops=ops, t=0.0, u=red, v=np.zeros_like(red),
                           a=np.zeros_like(red))
    # bypass the Dirichlet zeroing for this diagnostic: use nodal directly
    mstate.nodal = lambda: u_nodal
    rep = pm.two_scale_errors(mstate, pstate, sols)
    assert rep.err_u3 <= 1e-10
    assert max(rep.err_u1) <= 1e-10


# ---------------------------------------------------------------------------
# fused per-step kernels
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def void_layers(box_geom):
    channel = pg.build_cell_geometry(pg.channel_mask(4), m=4)
    return {(name, eps): pg.build_layer_mesh(geom, eps, SIGMA, 4)
            for name, geom in (("box", box_geom), ("channel", channel))
            for eps in (0.5, 0.25)}


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_micro_operators_equal_scaled_copies_and_sum(void_layers, iso_tensor, name, eps):
    lmesh = void_layers[name, eps]
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, preset_load_model("zero"))
    # only the operators of the time loop are kept (no plan is built:
    # test_fem.test_plan_counts_per_assembly)
    assert "strain_energy" not in {f.name for f in dataclasses.fields(ops)}
    m, k = ops.mass.matrix.local, ops.stiffness.matrix.local
    assert np.array_equal(k, fem.elasticity_element(lmesh.spacing, iso_tensor) * (1.0 / eps**2))
    assert np.array_equal(m, fem.mass_element(lmesh.spacing, 3))
    c = 0.25 * (eps / 8) ** 2
    assert np.array_equal(pm.effective_operator(ops, eps / 8).matrix.local, m + c * k)


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_element_operator_matches_assembled_csr(void_layers, iso_tensor, name, eps):
    lmesh = void_layers[name, eps]
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, preset_load_model("zero"))
    mass = mass_operator(lmesh, ops.dofmap).matrix
    stiffness = fem.assemble_elasticity(lmesh, iso_tensor, ops.dofmap).matrix * (1.0 / eps**2)
    # the lateral Dirichlet rows are eliminated: their dofs sit at the dummy slot
    assert (ops.mass.matrix.dofs == ops.dofmap.n_dofs).any()
    c = 0.25 * (eps / 8) ** 2
    x = rng(12).standard_normal(ops.dofmap.n_dofs)
    for op, want in ((ops.mass, mass), (ops.stiffness, stiffness),
                     (pm.effective_operator(ops, eps / 8), mass + c * stiffness)):
        assert op.shape == want.shape
        y = want @ x
        assert np.abs(op.matvec(x) - y).max() <= 1e-14 * np.abs(y).max()
        d = want.diagonal()
        assert np.abs(op.diagonal() - d).max() <= 1e-14 * np.abs(d).max()
        # a block, also a strided view, one column or in Fortran order,
        # multiplies each column as a vector would
        block = rng(13).standard_normal((x.size, 4))
        for b in (block, block[:, ::2], block[:, 1:2], np.asfortranarray(block)):
            cols = np.column_stack([op.matvec(col) for col in b.T])
            got = op.matvec(b)
            assert got.shape == b.shape
            assert np.abs(got - cols).max() <= 1e-14 * np.abs(cols).max()


def test_micro_operators_share_one_dof_table(void_layers, iso_tensor):
    ops = pm.assemble_micro(void_layers["box", 0.25], iso_tensor, 0.25,
                            preset_load_model("zero"))
    k_eff = pm.effective_operator(ops, 0.25 / 8)
    mass = ops.mass.matrix
    for op in (ops.stiffness, ops.strain, k_eff):
        assert op.matrix.dofs is mass.dofs
        assert op.matrix.pattern is mass.pattern


def _add_at_reference(edofs, v, n):
    """sum_e P_e^T v_e by np.add.at, the dummy slot n dropped."""
    out = np.zeros(n + 1)
    np.add.at(out, edofs, v)
    return out[:n]


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_element_scatter_equals_add_at(void_layers, iso_tensor, cq, name, eps,
                                       monkeypatch):
    # the pattern sums each dof's contributions in element order from zero,
    # as np.add.at does, so products, diagonals and load vectors are
    # bit-identical to gather -> GEMM -> np.add.at
    lmesh = void_layers[name, eps]
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, preset_load_model("zero"))
    n = ops.dofmap.n_dofs
    edofs = ops.mass.matrix.dofs
    assert np.array_equal(edofs, ops.dofmap.element_dofs(lmesh.elems))
    assert (edofs == n).any()  # lateral Dirichlet nodes are eliminated
    # one row per node block, one entry per free element node, rows ascending
    free = edofs[:, ::3] < n
    p = ops.mass.matrix.pattern
    assert p.shape == (n // 3, edofs.size // 3)
    assert p.nnz == np.count_nonzero(free)
    assert np.array_equal(np.sort(p.indices), np.flatnonzero(free))
    rows = np.repeat(np.arange(p.shape[0]), np.diff(p.indptr))
    assert np.all(np.diff(rows * p.shape[1] + p.indices) > 0)  # read, not the cached flag
    assert np.all(p.data == 1.0)
    x = rng(13).standard_normal(n)
    for op in (ops.mass, ops.stiffness, ops.strain, pm.effective_operator(ops, eps / 8)):
        local = op.matrix.local
        v = np.append(x, 0.0)[edofs] @ np.ascontiguousarray(local.T)
        assert np.array_equal(op.matvec(x), _add_at_reference(edofs, v, n))
        d = np.broadcast_to(np.diagonal(local), edofs.shape)
        assert np.array_equal(op.diagonal(), _add_at_reference(edofs, d, n))
        # element vectors of another element count are refused, not read
        with pytest.raises(ValueError):
            op.matrix.scatter(v[:-1])
    # the load vector scatters its element vectors through the same pattern
    seen = []
    scatter = ops.mass.matrix.scatter
    monkeypatch.setattr(ops.mass.matrix, "scatter", lambda v: seen.append(v) or scatter(v))
    u3 = fem.element_values(lmesh, rng(14).standard_normal((lmesh.n_nodes, 3)))[..., 2]
    for preset in ("linear", "linear_z"):
        got = pm._volume_rhs(ops, _loads(preset, cq), 0.2, u3)
        assert np.array_equal(got, _add_at_reference(edofs, seen[-1], n))


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_element_fields_match_values_and_gradients(void_layers, name, eps):
    lmesh = void_layers[name, eps]
    assert lmesh.n_elems < lmesh.n_cells * 4 * 4 * 8  # the cell has voids
    r = rng(7)
    u = r.standard_normal((lmesh.n_nodes, 3))
    perm = r.permutation(lmesh.n_elems)
    for elems, order in ((None, slice(None)), (lmesh.elems[perm], perm)):
        got = fem.element_fields(lmesh, u, elems)
        want = np.concatenate([
            fem.element_values(lmesh, u)[order],
            fem.sym_to_mandel(sym_gradient(lmesh, u, elems)),
        ], axis=-1)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_inplane_points_equal_float_unique(void_layers, name, eps):
    lmesh = void_layers[name, eps]
    quad_x = fem.quadrature_points(lmesh)
    want, want_inv = np.unique(quad_x[..., :2].reshape(-1, 2), axis=0, return_inverse=True)
    got, got_inv = pm._inplane_points(lmesh, quad_x)
    assert np.array_equal(got, want)
    assert np.array_equal(got_inv, want_inv.reshape(-1))


def test_transfer_orders_elements_by_cell_element(box_cell_n4, iso_tensor):
    mesh, sols, eff = box_cell_n4
    system = _free_plate_system(eff)
    lmesh = pg.build_layer_mesh(mesh.geometry, 0.25, SIGMA, 4)
    zero = preset_load_model("zero")
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.25, zero)
    tr = pm.PlateTransfer.build(ops, system, sols)
    cell_elem = pm._cell_element_lookup(lmesh, mesh)
    order = np.argsort(cell_elem, kind="stable")
    assert np.array_equal(tr.order, order)
    # n_cells layer elements per cell element, by cell element, ascending
    # within one
    by_cell = tr.order.reshape(mesh.n_elems, lmesh.n_cells)
    assert np.all(cell_elem[by_cell] == np.arange(mesh.n_elems)[:, None])
    assert np.all(np.diff(by_cell, axis=1) > 0)
    # the distinct in-plane points, and the point map taken in that order
    quad_x = fem.quadrature_points(lmesh)[order]
    want, want_inv = np.unique(quad_x[..., :2].reshape(-1, 2), axis=0, return_inverse=True)
    assert np.array_equal(tr.plate_at.pts, want)
    point_of = ops.inplane[1].reshape(lmesh.n_elems, -1)
    assert np.array_equal(point_of[tr.order].ravel(), want_inv.reshape(-1))
    # the layer points of a cell element sit at the cell's depths y3 = x3 / eps
    # in every eps-cell, and every layer point has the one hex weight
    y3 = quad_x[..., 2].reshape(mesh.n_elems, -1, 8) / 0.25
    assert tr.y3.shape == (mesh.n_elems, 8)
    assert np.abs(y3 - tr.y3[:, None, :]).max() <= 1e-15
    assert np.all(fem.quadrature_weights(lmesh) == tr.weight)
    # bending 12 (coefficient H12 + H21): the corrector strain plus the
    # Mandel 12 entry of -y3 (M12 + M21) / 2
    chi = sols.nodal(column("bending", (1, 2)))
    want = fem.sym_to_mandel(sym_gradient(mesh, chi))
    want[..., 5] -= np.sqrt(2.0) / 2.0 * tr.y3
    assert tr.limit_strain.shape == (mesh.n_elems, 8, 6, 6)
    assert np.abs(tr.limit_strain[:, :, 5] - want).max() <= 1e-13 * np.abs(want).max()
    # a layer meshed with its voids does not tile the solid cell
    full = pg.build_layer_mesh(mesh.geometry, 0.25, SIGMA, 4, include_void=True)
    with pytest.raises(InconsistentMesh):
        pm.PlateTransfer.build(pm.assemble_micro(full, iso_tensor, 0.25, zero),
                               system, sols)


def test_transfer_reuses_the_operators_inplane_points(box_cell_n4, iso_tensor, monkeypatch):
    # the transfer takes the distinct points and their map from the
    # operators: one _inplane_points call per eps, in assemble_micro
    mesh, sols, eff = box_cell_n4
    system = _free_plate_system(eff)
    calls = []
    inplane_points = pm._inplane_points
    monkeypatch.setattr(pm, "_inplane_points",
                        lambda *args: calls.append(args) or inplane_points(*args))
    for k, eps in enumerate((0.5, 0.25), start=1):
        lmesh = pg.build_layer_mesh(mesh.geometry, eps, SIGMA, 4)
        ops = pm.assemble_micro(lmesh, iso_tensor, eps, preset_load_model("zero"))
        pm.two_scale_errors(pm.zero_micro_state(ops), pp.zero_state(system), sols)
        assert "plate_transfer" in lmesh.memo
        assert len(calls) == k


def test_volume_rhs_matches_quadrature_sum(full_geom2, iso_tensor, cq):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    loads = _loads("linear_z", cq)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, loads)
    u_nodal = rng(8).standard_normal((lmesh.n_nodes, 3))
    u3 = fem.element_values(lmesh, u_nodal)[..., 2]
    N, _, w, _ = fem.hex_reference(lmesh.spacing)
    x, y = ops.quad_x, ops.quad_y
    f = np.stack([loads.eval_f(i, 0.2, x[..., 0], x[..., 1], y[..., 0], y[..., 1],
                               y[..., 2], u3) for i in range(3)], axis=-1)
    f[..., :2] /= 0.5
    local = np.einsum("q,qa,eqc->eac", w, N, f).reshape(lmesh.n_elems, -1)
    want = fem.scatter_vector(local, ops.dofmap.element_dofs(lmesh.elems),
                              ops.dofmap.n_dofs) + ops.surface_rhs
    got = pm.micro_rhs(ops, loads, 0.2, u_nodal)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("name", ["box", "channel"])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_volume_rhs_of_inplane_load_evaluates_distinct_points(void_layers, iso_tensor,
                                                             cq, name, eps):
    # a force of (t, x1, x2) alone is evaluated once per distinct in-plane
    # point; the load vector equals the pointwise evaluation bit for bit
    lmesh = void_layers[name, eps]
    ops = pm.assemble_micro(lmesh, iso_tensor, eps, preset_load_model("zero"))
    u3 = fem.element_values(lmesh, rng(9).standard_normal((lmesh.n_nodes, 3)))[..., 2]
    n_distinct = ops.inplane[0].shape[0]
    assert 4 * n_distinct < u3.size
    for preset in ("linear", "smooth", "uniform_vertical"):
        loads = _loads(preset, cq)
        pointwise = copy.copy(loads)
        pointwise.f_depends_y = True
        sizes = []

        def counting(i, t, x1, *rest, eval_f=loads.eval_f):
            sizes.append(np.size(x1))
            return eval_f(i, t, x1, *rest)

        loads.eval_f = counting
        got = pm._volume_rhs(ops, loads, 0.2, u3)
        want = pm._volume_rhs(ops, pointwise, 0.2, u3)
        assert sizes == [n_distinct] * 3
        assert np.any(got) and np.array_equal(got, want)


def test_micro_state_forms_computed_once(full_geom2, iso_tensor, cq, monkeypatch):
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, SIGMA, 2)
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, _loads("zero", cq))
    r = rng(9)
    state = pm.MicroState(ops=ops, t=0.0, u=r.standard_normal(ops.dofmap.n_dofs),
                          v=r.standard_normal(ops.dofmap.n_dofs),
                          a=np.zeros(ops.dofmap.n_dofs))
    # the strain form is applied element by element; against the assembled
    # identity-tensor operator it agrees to rounding
    unit = fem.assemble_elasticity(lmesh, fem.ElasticityTensor4.identity(), ops.dofmap)
    want = (state.v @ ops.mass.matvec(state.v),
            state.u @ ops.stiffness.matvec(state.u),
            state.u @ unit.matvec(state.u))
    calls = []
    for op in (ops.mass, ops.stiffness, ops.strain):
        monkeypatch.setattr(op, "matvec",
                            lambda x, f=op.matvec: calls.append(1) or f(x))
    for _ in range(2):
        kin, ela = state.energies()
        vel, strain = state.scaled_velocity_norm(), state.scaled_strain_norm()
    assert len(calls) == 3
    assert (kin, ela) == (0.5 * want[0], 0.5 * want[1])
    assert vel == np.sqrt(want[0]) / np.sqrt(0.5)
    assert strain == pytest.approx(np.sqrt(want[2]) / 0.5**1.5, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# diagnostics against their direct evaluation
# ---------------------------------------------------------------------------

def _direct_two_scale(ms, ps, sols):
    """Two-scale errors with the plate evaluated at every layer quadrature
    point and the cell gradients decomposed afresh."""
    ops = ms.ops
    eps = ops.eps
    lmesh = ops.lmesh
    system = ps.system
    u_nodal = ms.nodal()
    uq = fem.element_values(lmesh, u_nodal)
    dq = sym_gradient(lmesh, u_nodal)
    x = ops.quad_x
    E, Q = x.shape[:2]
    pts = x[..., :2].reshape(-1, 2)
    y3 = (x[..., 2] / eps).reshape(-1)
    flat_w = fem.quadrature_weights(lmesh).reshape(-1)
    wvals, grad, hess = pp.evaluate_deflection(system, ps.w, pts, derivatives=True)
    u1, strain = pp.PlatePoints(system, pts).membrane(ps.m, True)

    err_u3 = float(np.sqrt(np.sum(flat_w * (uq[..., 2].reshape(-1) - wvals)**2) / eps))
    err_u1 = []
    for al in range(2):
        dua = uq[..., al].reshape(-1) / eps - (u1[:, al] - y3 * grad[:, al])
        err_u1.append(float(np.sqrt(np.sum(flat_w * dua**2) / eps)))

    cell_elem = pm._cell_element_lookup(lmesh, sols.mesh)
    coeff_s = {(1, 1): strain[:, 0, 0], (2, 2): strain[:, 1, 1],
               (1, 2): strain[:, 0, 1] + strain[:, 1, 0]}
    coeff_b = {(1, 1): hess[:, 0, 0], (2, 2): hess[:, 1, 1],
               (1, 2): hess[:, 0, 1] + hess[:, 1, 0]}
    dy_u2 = np.zeros((E * Q, 3, 3))
    for ij in INDEX_PAIRS:
        ds = sym_gradient(sols.mesh, sols.nodal(column("stretch", ij)))
        db = sym_gradient(sols.mesh, sols.nodal(column("bending", ij)))
        dy_u2 += coeff_s[ij][:, None, None] * ds[cell_elem].reshape(E * Q, 3, 3)
        dy_u2 += coeff_b[ij][:, None, None] * db[cell_elem].reshape(E * Q, 3, 3)
    limit_strain = np.zeros((E * Q, 3, 3))
    limit_strain[:, :2, :2] = strain - y3[:, None, None] * hess
    limit_strain += dy_u2
    diff = dq.reshape(E * Q, 3, 3) / eps - limit_strain
    err_sym = float(np.sqrt(np.sum(flat_w * np.sum(diff**2, axis=(1, 2))) / eps))
    return err_u3, err_u1[0], err_u1[1], err_sym


def _direct_plate_moments(lmesh, u_nodal, eps, pts):
    """Vertical moments with the shape values built per call."""
    vox = lmesh.voxel_elems
    (a1, b1, a2, b2) = lmesh.sigma
    h = lmesh.spacing[0]
    i1 = np.clip(((pts[:, 0] - a1) / h).astype(np.int64), 0, vox.shape[0] - 1)
    i2 = np.clip(((pts[:, 1] - a2) / h).astype(np.int64), 0, vox.shape[1] - 1)
    xi1 = (pts[:, 0] - a1) / h - i1
    xi2 = (pts[:, 1] - a2) / h - i2
    integral_u = np.zeros((pts.shape[0], 2))
    integral_xu = np.zeros((pts.shape[0], 2))
    g = 0.5 / np.sqrt(3.0)
    for l3 in range(vox.shape[2]):
        elem = vox[i1, i2, l3]
        act = elem >= 0
        if not act.any():
            continue
        un = u_nodal[lmesh.elems[elem[act]]]
        for xg in (0.5 - g, 0.5 + g):
            shp = np.empty((act.sum(), 8))
            for a, (ca, cb, cc) in enumerate(pg.HEX_CORNERS):
                sx = xi1[act] if ca else 1.0 - xi1[act]
                sy = xi2[act] if cb else 1.0 - xi2[act]
                shp[:, a] = sx * sy * (xg if cc else 1.0 - xg)
            uval = np.einsum("pa,pac->pc", shp, un[:, :, :2])
            x3 = -eps + (l3 + xg) * h
            integral_u[act] += 0.5 * h * uval
            integral_xu[act] += 0.5 * h * x3 * uval
    return integral_u / (2.0 * eps**2), 3.0 * integral_xu / (2.0 * eps**3)


def _direct_moment_errors(ps, lmesh, u_nodal, eps):
    system = ps.system
    pts = system.quad_xy.reshape(-1, 2)
    wq = np.broadcast_to(system.quad_w, system.quad_xy.shape[:2]).ravel()
    U, R = _direct_plate_moments(lmesh, u_nodal, eps, pts)
    u1 = pp.evaluate_membrane(system, ps.m, pts)
    _, grad, _ = pp.evaluate_deflection(system, ps.w, pts, derivatives=True)
    return (float(np.sqrt(np.sum(wq[:, None] * (U - u1) ** 2))),
            float(np.sqrt(np.sum(wq[:, None] * (R + grad) ** 2))))


@pytest.fixture(scope="module")
def coupled_small(box_cell_n4, iso_tensor):
    """Plate and micro runs at eps 1/2 and 1/4 with every state stored."""
    mesh, sols, eff = box_cell_n4
    loads = _loads("linear", CellQuadrature.from_cell_mesh(mesh))
    system = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 4), eff)
    dt_macro = 1.0 / 32
    ptraj = pp.run_plate(system, loads, dt=dt_macro, t_end=0.125, store_states=True)
    runs = []
    for eps in (0.5, 0.25):
        lmesh = pg.build_layer_mesh(mesh.geometry, eps, SIGMA, 4)
        ops = pm.assemble_micro(lmesh, iso_tensor, eps, loads)
        dt = eps / 8
        mtraj = pm.run_micro(ops, loads, dt=dt, t_end=0.125, store_states=True)
        stride = int(round(dt / dt_macro))
        pairs = [(ms, ptraj.states[k * stride])
                 for k, ms in enumerate(mtraj.states[1:], start=1)]
        runs.append((lmesh, ops, pairs))
    return sols, system, runs


def test_diagnostics_equal_direct_evaluation(coupled_small):
    sols, _, runs = coupled_small
    for lmesh, ops, pairs in runs:
        assert len(pairs) >= 2
        for ms, ps in pairs:
            rep = pm.two_scale_errors(ms, ps, sols)
            got = (rep.err_u3, rep.err_u1[0], rep.err_u1[1], rep.err_symgrad)
            # the fused kernel reorders the sums
            assert got == pytest.approx(_direct_two_scale(ms, ps, sols), rel=1e-12)
            assert rep.err_symgrad > 0
            u_nodal = ms.nodal()
            # the moment operator sums along each column in another order
            assert (pm.moment_errors(ps, lmesh, u_nodal, ms.eps)
                    == pytest.approx(_direct_moment_errors(ps, lmesh, u_nodal, ms.eps),
                                     rel=1e-12))
        # the moment columns follow the points asked for
        pts = np.array([[0.3, 0.4], [0.55, 0.8]])
        for p in (pts, pts[::-1], pts):
            got = pm.plate_moments(lmesh, u_nodal, ms.eps, p)
            want = _direct_plate_moments(lmesh, u_nodal, ms.eps, p)
            assert all(np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
                       for g, w in zip(got, want))


def test_two_scale_blocks_with_a_short_last_block(coupled_small, monkeypatch):
    # blocks of one cell element each, then of five with a short last block
    # (the 112 solid cell elements are not a multiple of five), and a point
    # count between two whole cell elements
    sols, _, runs = coupled_small
    for lmesh, ops, pairs in runs:
        n_ce = sols.mesh.n_elems
        per_ce = lmesh.n_cells * 8
        assert n_ce % 5
        ms, ps = pairs[-1]
        want = _direct_two_scale(ms, ps, sols)
        for points in (per_ce, 5 * per_ce, 5 * per_ce + per_ce // 2):
            monkeypatch.setattr(pm, "_BLOCK_POINTS", points)
            rep = pm.two_scale_errors(ms, ps, sols)
            got = (rep.err_u3, rep.err_u1[0], rep.err_u1[1], rep.err_symgrad)
            assert got == pytest.approx(want, rel=1e-12), points


def test_two_scale_peak_memory_follows_the_block(coupled_small, monkeypatch):
    # with the memo warm, the traced peak is one block's temporaries (about
    # 40 floats per point) plus the plate columns at the 1,024 distinct
    # points and the nodal field: under 80 floats per block point, where the
    # whole layer of eps 1/4 (E Q = 14,336 points) at once takes 4.2 MB
    sols, _, runs = coupled_small
    _, ops, pairs = runs[1]
    ms, ps = pairs[-1]
    points = 2048  # 16 of the 112 cell elements: seven blocks
    monkeypatch.setattr(pm, "_BLOCK_POINTS", points)
    pm.two_scale_errors(ms, ps, sols)
    _, peak = traced_peak(pm.two_scale_errors, ms, ps, sols)
    assert ops.quad_x.shape[0] * ops.quad_x.shape[1] >= 7 * points
    assert peak <= 80 * 8 * points, (peak, points)


def test_moment_columns_peak_memory(coupled_small):
    # the two Gauss depths of a voxel are summed before the CSR is formed,
    # which then holds each node of a line once: the build peaks at a small
    # multiple of the operator (the COO route over both depths took 16)
    sols, system, runs = coupled_small
    lmesh = runs[1][0]
    cols, peak = traced_peak(pm.MomentColumns.build, lmesh, system.quad_xy.reshape(-1, 2))
    op = cols.operator
    op_bytes = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    assert op.has_canonical_format
    assert peak <= 6 * op_bytes, (peak, op_bytes)


def test_two_scale_memo_follows_system_and_cells(coupled_small, box_cell_n4):
    from dataclasses import replace

    sols, system, runs = coupled_small
    _, ops, pairs = runs[0]
    ms, ps = pairs[-1]
    first = pm.two_scale_errors(ms, ps, sols)
    memo = ops.lmesh.memo["plate_transfer"]
    assert memo.system is system and memo.sols is sols
    pm.two_scale_errors(ms, ps, sols)
    assert ops.lmesh.memo["plate_transfer"] is memo

    stretch = [column("stretch", ij) for ij in INDEX_PAIRS]
    values = sols.values.copy()
    values[:, stretch] *= 2.0
    doubled = replace(sols, values=values)
    rep = pm.two_scale_errors(ms, ps, doubled)
    transfer = ops.lmesh.memo["plate_transfer"]
    assert transfer is not memo and transfer.sols is doubled
    assert rep.err_symgrad != first.err_symgrad
    assert rep.err_symgrad == pytest.approx(_direct_two_scale(ms, ps, doubled)[3],
                                            rel=1e-12)

    _, _, eff = box_cell_n4
    finer = pp.assemble_plate_system(pg.build_plate_mesh(SIGMA, 8), eff)
    r = rng(11)
    ps2 = pp.PlateState(system=finer, t=ms.t,
                        w=r.standard_normal(finer.bend_dofs.n_dofs),
                        v=np.zeros(finer.bend_dofs.n_dofs),
                        a=np.zeros(finer.bend_dofs.n_dofs),
                        m=r.standard_normal(finer.memb_dofs.n_dofs))
    rep = pm.two_scale_errors(ms, ps2, doubled)
    transfer = ops.lmesh.memo["plate_transfer"]
    assert transfer.system is finer and transfer.sols is doubled
    got = (rep.err_u3, rep.err_u1[0], rep.err_u1[1], rep.err_symgrad)
    assert got == pytest.approx(_direct_two_scale(ms, ps2, doubled), rel=1e-12)


# ---------------------------------------------------------------------------
# the pore-filled clamped layer as the Newmark preconditioner
# ---------------------------------------------------------------------------

def _filled_layer_form(lmesh, dofmap, tensor, m, s):
    """Dense B of ``fem.FilledLayer`` on the dofs: the form m |u_c|^2 +
    s C_cici |d_i u_c|^2 assembled over the layer's elements."""
    c = s * np.einsum("cici->ci", tensor.components)
    local = fem.component_element(lmesh.spacing, (m, m, m), c.T)
    return fem.assemble_forms(lmesh, dofmap, [local])[0].toarray()


@pytest.mark.parametrize("m, s", [(1.0, 0.3), (0.0, 1.0)])
def test_filled_layer_inverts_unperforated_layer(full_geom2, m, s):
    # without pores the free dofs are the whole clamped grid, so P is B^-1;
    # a 2 x 1 Sigma gives the two clamped axes different bases, and a
    # tensor with unequal C_cici weighs every component and axis apart
    lmesh = pg.build_layer_mesh(full_geom2, 0.5, ((0, 2), (0, 1)), 2)
    dm = fem.DofMap(lmesh, 3, dirichlet_nodes=lmesh.dirichlet_nodes)
    b = rng(21).standard_normal((8, 3, 3))
    b = 0.5 * (b + b.transpose(0, 2, 1))
    tensor = fem.ElasticityTensor4(np.einsum("kij,klm->ijlm", b, b))
    precond = fem.FilledLayer(lmesh, dm, tensor, m, s)
    form = _filled_layer_form(lmesh, dm, tensor, m, s)
    eye = np.eye(dm.n_dofs)
    assert np.abs(precond(form) - eye).max() <= 1e-12


@pytest.mark.parametrize("name", ["box", "channel"])
def test_filled_layer_symmetric_positive(void_layers, iso_tensor, name):
    lmesh = void_layers[name, 0.5]
    ops = pm.assemble_micro(lmesh, iso_tensor, 0.5, preset_load_model("zero"))
    precond = pm.newmark_preconditioner(ops, 0.5 / 8)
    p = precond(np.eye(ops.dofmap.n_dofs))
    assert np.abs(p - p.T).max() <= 1e-14 * np.abs(p).max()
    assert np.linalg.eigvalsh(p).min() > 0
    # a vector and each column of a block take the same product
    r = rng(22).standard_normal((ops.dofmap.n_dofs, 3))
    cols = np.column_stack([precond(c) for c in r.T])
    assert np.abs(precond(r) - cols).max() <= 1e-14 * np.abs(cols).max()


def test_filled_layer_refuses_free_lateral_dofs(iso_tensor):
    # with its void elements the channel layer keeps free nodes on the
    # lateral boundary, where the clamped filled layer has none
    channel = pg.build_cell_geometry(pg.channel_mask(4), m=4)
    lmesh = pg.build_layer_mesh(channel, 0.5, SIGMA, 4, include_void=True)
    dm = fem.DofMap(lmesh, 3, dirichlet_nodes=lmesh.dirichlet_nodes)
    with pytest.raises(InconsistentMesh, match="lateral"):
        fem.FilledLayer(lmesh, dm, iso_tensor, 1.0, 1.0)


@pytest.fixture(scope="module")
def first_solves_eps16(box_geom, iso_tensor, cq):
    """Per geometry at eps 1/16, n = 4, dt = eps/8 under ``linear``: the
    product count and solution of the first Newmark solve of ``micro_step``
    with its preconditioner and with Jacobi, its right-hand side and its
    operator."""
    channel = pg.build_cell_geometry(pg.channel_mask(4), m=4)
    loads = _loads("linear", cq)
    eps = 1.0 / 16
    dt = eps / 8
    out = {}
    for name, geom in (("box", box_geom), ("channel", channel)):
        ops = pm.assemble_micro(pg.build_layer_mesh(geom, eps, SIGMA, 4), iso_tensor, eps, loads)
        rhs0 = pm.micro_rhs(ops, loads, 0.0, ops.dofmap.expand(np.zeros(ops.dofmap.n_dofs)))
        state = dataclasses.replace(pm.zero_micro_state(ops),
                                    a=fem.solve_spd(ops.mass, rhs0, tol=1e-11))
        k_eff = pm.effective_operator(ops, dt)
        solves = {}
        for kind, precond in (("filled", pm.newmark_preconditioner(ops, dt)),
                              ("jacobi", fem.jacobi(k_eff.diagonal()))):
            counted = []
            k_eff.matvec = lambda x, op=k_eff: counted.append(1) or op.apply(x)
            new = pm.micro_step(state, dt, loads, k_eff, precond)
            solves[kind] = (len(counted), new.a)
        del k_eff.matvec
        u_pred = state.u + dt * state.v + dt * dt * 0.25 * state.a
        rhs = (pm.micro_rhs(ops, loads, dt, ops.dofmap.expand(u_pred))
               - ops.stiffness.matvec(u_pred))
        out[name] = solves, rhs, k_eff
    return out


@pytest.mark.parametrize("name, most", [("box", 40), ("channel", 60)])
def test_first_newmark_solve_at_eps16_takes_few_products(first_solves_eps16, name, most):
    # Jacobi takes 164 (box) and 169 (channel), doubling with each halving
    # of eps; the filled layer took 34 and 54
    solves, _, _ = first_solves_eps16[name]
    assert solves["filled"][0] <= most
    assert solves["jacobi"][0] > 2 * most


@pytest.mark.parametrize("name", ["box", "channel"])
def test_filled_layer_solution_matches_jacobi(first_solves_eps16, name):
    # both stop at the relative residual 1e-11 of micro_step's default tol
    solves, rhs, k_eff = first_solves_eps16[name]
    bnorm = np.linalg.norm(rhs)
    for kind in ("filled", "jacobi"):
        assert np.linalg.norm(k_eff.apply(solves[kind][1]) - rhs) <= 1e-11 * bnorm
    a, b = solves["filled"][1], solves["jacobi"][1]
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
