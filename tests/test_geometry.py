import numpy as np
import pytest

from perfolayer import geometry as pg
from perfolayer.errors import (
    DisconnectedSolid,
    EmptySolid,
    EpsilonNotReciprocalInteger,
    PeriodicMismatch,
    ResolutionIncompatible,
)

from conftest import BOX_HOLE, SIGMA


def test_full_cell_volume():
    geom = pg.build_cell_geometry("full", m=4)
    assert geom.solid_volume == 2.0


def test_box_hole_volume():
    geom = pg.build_cell_geometry(BOX_HOLE, m=8)
    assert geom.solid_volume == pytest.approx(1.75, abs=0)


def test_periodic_mismatch_rejected():
    mask = np.ones((4, 4, 8), dtype=bool)
    mask[0, :, :] = False  # solid column pattern differs between y1 faces
    mask[0, 0, 0] = True
    with pytest.raises((PeriodicMismatch, DisconnectedSolid)):
        pg.build_cell_geometry(mask)


def test_empty_and_disconnected_rejected():
    with pytest.raises(EmptySolid):
        pg.build_cell_geometry(np.zeros((2, 2, 4), dtype=bool))
    mask = np.ones((4, 4, 8), dtype=bool)
    mask[:, :, 4] = False  # split into two vertically disconnected slabs
    with pytest.raises(DisconnectedSolid):
        pg.build_cell_geometry(mask)


def test_cell_mesh_counts():
    geom = pg.build_cell_geometry("full", m=2)
    mesh = pg.build_cell_mesh(geom, 2)
    assert mesh.n_elems == 16
    assert np.sum(mesh.node_master == np.arange(mesh.n_nodes)) == 20  # after identification
    mesh4 = pg.build_cell_mesh(geom, 4)
    assert mesh4.n_elems == 4 * 4 * 8  # n x n x 2n voxels


def test_cell_mesh_box_count_matches_rasterization():
    # oracle: count solid voxels of the rasterized mask directly
    m = 8
    centers = (np.arange(m) + 0.5) / m
    cz = -1.0 + (np.arange(2 * m) + 0.5) / m
    hole = (((centers > 0.25) & (centers < 0.75))[:, None, None]
            & ((centers > 0.25) & (centers < 0.75))[None, :, None]
            & ((cz > -0.5) & (cz < 0.5))[None, None, :])
    expected = int((~hole).sum())
    assert expected == 896

    geom = pg.build_cell_geometry(BOX_HOLE, m=8)
    mesh = pg.build_cell_mesh(geom, 8)
    assert mesh.n_elems == expected


def test_cell_mesh_resolution_incompatible():
    geom = pg.build_cell_geometry(BOX_HOLE, m=8)
    with pytest.raises(ResolutionIncompatible):
        pg.build_cell_mesh(geom, 6)


def test_layer_mesh_counts():
    geom = pg.build_cell_geometry("full", m=2)
    lm = pg.build_layer_mesh(geom, 0.5, SIGMA, 2)
    assert lm.n_cells == 4
    assert lm.n_elems == 64
    lm4 = pg.build_layer_mesh(geom, 0.25, SIGMA, 2)
    assert lm4.n_cells == 16
    assert lm4.n_elems == 256


def test_layer_mesh_eps_validation():
    geom = pg.build_cell_geometry("full", m=2)
    lm = pg.build_layer_mesh(geom, 1.0 / 3.0, SIGMA, 2)
    assert lm.n_cells == 9
    with pytest.raises(EpsilonNotReciprocalInteger):
        pg.build_layer_mesh(geom, 0.3, SIGMA, 2)


def test_plate_mesh_counts_and_clamping():
    pm = pg.build_plate_mesh(SIGMA, 2)
    assert pm.n_elems == 4
    assert pm.n_nodes == 9
    assert 4 * pm.n_nodes == 36  # four Hermite dofs per node
    assert len(pm.clamped_nodes) == 8
    pm2 = pg.build_plate_mesh(((0, 2), (0, 1)), 2)
    assert pm2.n_elems == 8


def test_plate_mesh_fully_clamped_warns():
    with pytest.warns(UserWarning):
        pg.build_plate_mesh(SIGMA, 1)


def test_remesh_preserves_volume():
    geom = pg.build_cell_geometry(BOX_HOLE, m=4)
    v1 = pg.build_cell_mesh(geom, 4).n_elems / 4**3
    v2 = pg.build_cell_mesh(geom, 8).n_elems / 8**3
    assert v1 == v2 == geom.solid_volume


def test_full_geometry_gamma_is_top_bottom():
    geom = pg.build_cell_geometry("full", m=2)
    lm = pg.build_layer_mesh(geom, 0.5, SIGMA, 2)
    for e, axis, side in lm.gamma_faces:
        assert axis == 2
        z = lm.coords[lm.elems[e], 2]
        assert np.isclose(abs(z).max(), 0.5)
    # every top/bottom face of every element is tagged
    assert lm.gamma_faces.shape[0] == 2 * lm.n_cells * 4  # 4 in-plane voxels/cell


def test_layer_cell_affine_consistency(box_geom):
    from perfolayer import fem
    from perfolayer.micro import _cell_element_lookup

    eps = 0.5
    lm = pg.build_layer_mesh(box_geom, eps, SIGMA, 4)
    cm = pg.build_cell_mesh(box_geom, 4)
    lookup = _cell_element_lookup(lm, cm)
    xq = fem.quadrature_points(lm)
    yq = fem.quadrature_points(cm)
    # x / eps - k lands on the reference element of the mapped cell element
    mapped = xq / eps
    mapped[..., 0] %= 1.0
    mapped[..., 1] %= 1.0
    assert np.allclose(mapped, yq[lookup], atol=1e-12)


def test_dump_mesh_format(tmp_path):
    geom = pg.build_cell_geometry("full", m=2)
    mesh = pg.build_cell_mesh(geom, 2)
    path = tmp_path / "mesh.txt"
    pg.dump_mesh(path, mesh.coords, mesh.elems)
    lines = path.read_text().splitlines()
    assert lines[0] == "PERFOLAYER-MESH v1"
    assert int(lines[1]) == mesh.n_nodes
    assert int(lines[2]) == mesh.n_elems
    assert len(lines) == 3 + mesh.n_nodes + mesh.n_elems


def test_geometry_digest_tracks_mask():
    g1 = pg.build_cell_geometry("full", m=4)
    g2 = pg.build_cell_geometry("full", m=4)
    g3 = pg.build_cell_geometry(BOX_HOLE, m=4)
    assert g1.digest() == g2.digest()
    assert g1.digest() != g3.digest()


def test_checkerboard_mask_rejected():
    # vertex-connected (checkerboard) solids are not 6-connected
    mask = np.zeros((2, 2, 4), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = True
    with pytest.raises((DisconnectedSolid, PeriodicMismatch)):
        pg.build_cell_geometry(mask)


def _flood_fill_connected(mask):
    """The former stack-based flood fill of ``_six_connected``, kept as the
    reference."""
    solid = np.argwhere(mask)
    if solid.shape[0] == 0:
        return True
    visited = np.zeros(mask.shape, dtype=bool)
    stack = [tuple(solid[0])]
    visited[tuple(solid[0])] = True
    count = 0
    while stack:
        i, j, k = stack.pop()
        count += 1
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            a, b, c = i + di, j + dj, k + dk
            if all(0 <= v < s for v, s in zip((a, b, c), mask.shape)):
                if mask[a, b, c] and not visited[a, b, c]:
                    visited[a, b, c] = True
                    stack.append((a, b, c))
    return count == solid.shape[0]


def test_six_connected_matches_flood_fill():
    r = np.random.default_rng(3)
    outcomes = set()
    for _ in range(400):
        mask = r.random(tuple(r.integers(1, 7, size=3))) < r.uniform(0.3, 0.9)
        want = _flood_fill_connected(mask)
        assert pg._six_connected(mask) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _random_periodic_mask(seed, m=4):
    """A random solid mask with equal opposite lateral faces, 6-connected."""
    r = np.random.default_rng(seed)
    while True:
        mask = r.random((m, m, 2 * m)) < 0.75
        mask[-1] = mask[0]
        mask[:, -1] = mask[:, 0]
        if _flood_fill_connected(mask):
            return mask


def _descriptor(name):
    if name == "channel":
        return pg.channel_mask(4, height=(-0.75, 0.25))
    if isinstance(name, str) and name.startswith("random"):
        return _random_periodic_mask(int(name[len("random"):]))
    return name


def _faces_by_loop(mesh, origin, shape):
    """Face lists and Dirichlet nodes by the per-element, per-face loop over
    the voxel grid of the given origin and shape, rebuilt from the mesh
    coordinates (a cell mesh has no void elements)."""
    h = mesh.spacing[0]
    solid = getattr(mesh, "solid", np.ones(mesh.n_elems, dtype=bool))
    voxels = np.rint((mesh.coords[mesh.elems[:, 0]] - origin) / h).astype(np.int64)
    big = np.zeros(shape, bool)
    big[tuple(voxels[solid].T)] = True
    gamma, lateral, dirichlet = [], [], set()
    for e, (i, j, k) in enumerate(voxels):
        for axis, side in pg.HEX_FACES:
            nbr = [i, j, k]
            nbr[axis] += side
            inside = all(0 <= v < n for v, n in zip(nbr, big.shape))
            if axis < 2 and not inside:
                lateral.append((e, axis, side))
                if solid[e]:
                    dirichlet.update(int(mesh.elems[e, ln]) for ln in pg.HEX_FACES[(axis, side)])
            elif solid[e] and (not inside or not big[tuple(nbr)]):
                gamma.append((e, axis, side))
    return (np.array(gamma, dtype=np.int64).reshape(-1, 3),
            np.array(lateral, dtype=np.int64).reshape(-1, 3),
            np.array(sorted(dirichlet), dtype=np.int64))


@pytest.mark.parametrize("descriptor", ["full", BOX_HOLE, "channel"])
def test_layer_faces_match_per_face_loop(descriptor):
    geom = pg.build_cell_geometry(_descriptor(descriptor), m=4)
    for eps in (0.5, 0.25):
        for include_void in (False, True):
            lm = pg.build_layer_mesh(geom, eps, SIGMA, 4, include_void=include_void)
            a1, b1, a2, b2 = lm.sigma
            shape = (round((b1 - a1) / lm.spacing[0]), round((b2 - a2) / lm.spacing[1]),
                     2 * lm.resolution)
            gamma, lateral, dirichlet = _faces_by_loop(lm, np.array([a1, a2, -eps]), shape)
            for got, want in ((lm.gamma_faces, gamma), (lm.lateral_faces, lateral),
                              (lm.dirichlet_nodes, dirichlet)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("descriptor", ["full", BOX_HOLE, "channel", "random0", "random1"])
def test_cell_gamma_faces_match_per_face_loop(descriptor):
    geom = pg.build_cell_geometry(_descriptor(descriptor), m=4)
    for n in (4, 8, 12):
        cm = pg.build_cell_mesh(geom, n)
        gamma, _, _ = _faces_by_loop(cm, np.array([0.0, 0.0, -1.0]), (n, n, 2 * n))
        assert cm.gamma_faces.dtype == gamma.dtype and cm.gamma_faces.shape == gamma.shape
        assert np.array_equal(cm.gamma_faces, gamma)


def test_element_corners_follow_voxels(box_geom):
    # n = 12: the cell's i / n and the voxel's i * h may differ in the last bit
    cm = pg.build_cell_mesh(box_geom, 12)
    lm = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 12, include_void=True)
    lm_solid = pg.build_layer_mesh(box_geom, 0.5, SIGMA, 12)
    cases = ((cm, [0.0, 0.0, -1.0], cm.node_grid / 12),
             (lm, [SIGMA[0][0], SIGMA[1][0], -0.5], lm.node_grid * lm.spacing[0]),
             (lm_solid, [SIGMA[0][0], SIGMA[1][0], -0.5], lm_solid.node_grid * lm.spacing[0]))
    for mesh, origin, scaled in cases:
        assert mesh.voxels.shape == (mesh.n_elems, 3)
        np.testing.assert_allclose(mesh.coords[mesh.elems[:, 0]],
                                   np.array(origin) + mesh.voxels * mesh.spacing[0],
                                   rtol=0, atol=1e-14)
        # the node coordinates are the scaled integer grid indices, exactly
        assert mesh.node_grid.shape == (mesh.n_nodes, 3)
        assert np.array_equal(mesh.coords, scaled + np.array(origin))
        assert np.array_equal(mesh.node_grid[mesh.elems[:, 0]], mesh.voxels)
        # voxel_elems inverts voxels: every element once, -1 elsewhere
        assert mesh.voxel_elems.shape == tuple(mesh.voxels.max(axis=0) + 1)
        assert np.array_equal(mesh.voxel_elems[tuple(mesh.voxels.T)],
                              np.arange(mesh.n_elems))
        assert np.count_nonzero(mesh.voxel_elems >= 0) == mesh.n_elems
    assert (lm.voxel_elems >= 0).all() and (lm_solid.voxel_elems < 0).any()


@pytest.mark.parametrize("descriptor", ["full", BOX_HOLE, "channel", "random2"])
def test_cell_mesh_is_the_one_cell_layer(descriptor):
    geom = pg.build_cell_geometry(_descriptor(descriptor), m=4)
    cm = pg.build_cell_mesh(geom, 8)
    lm = pg.build_layer_mesh(geom, 1.0, ((0, 1), (0, 1)), 8)
    for name in ("elems", "gamma_faces", "voxels", "voxel_elems", "node_grid"):
        assert np.array_equal(getattr(cm, name), getattr(lm, name)), name
