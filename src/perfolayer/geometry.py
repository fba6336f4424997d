"""Voxel geometry and structured meshes for the perforated thin layer.

The reference cell is the box (0,1)^2 x (-1,1), meshed as the layer of one
cell (eps = 1 over (0,1)^2).  A perforation is described by a boolean voxel
mask at resolution m (shape (m, m, 2*m), entry True = solid).  All meshes
are axis-aligned hexahedral (or quadrilateral) grids, so periodic
identification and cell tiling are exact.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedSolid,
    EmptySolid,
    EpsilonNotReciprocalInteger,
    PeriodicMismatch,
    ResolutionIncompatible,
)

# Local corner offsets of a hexahedron, VTK ordering (bottom quad, top quad).
HEX_CORNERS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=np.int64,
)

# Local node ids of the six axis faces (-x, +x, -y, +y, -z, +z).
HEX_FACES = {
    (0, -1): (0, 3, 7, 4),
    (0, +1): (1, 2, 6, 5),
    (1, -1): (0, 1, 5, 4),
    (1, +1): (3, 2, 6, 7),
    (2, -1): (0, 1, 2, 3),
    (2, +1): (4, 5, 6, 7),
}
# The same faces as arrays; face k is (axis, side) = (k // 2, +1 if k odd else -1).
HEX_FACE_AXES = np.array([axis for axis, _ in HEX_FACES], dtype=np.int64)
HEX_FACE_SIDES = np.array([side for _, side in HEX_FACES], dtype=np.int64)
HEX_FACE_NODES = np.array(list(HEX_FACES.values()), dtype=np.int64)


@dataclass(frozen=True)
class CellGeometry:
    """Voxelized solid reference cell.

    mask[i1, i2, i3] is True when the voxel
    [i1/m,(i1+1)/m] x [i2/m,(i2+1)/m] x [-1+i3/m,-1+(i3+1)/m] is solid.
    """

    mask: np.ndarray
    resolution: int
    solid_volume: float

    @property
    def is_full(self) -> bool:
        return bool(self.mask.all())

    def digest(self) -> str:
        """Hash identifying the voxel mask (changes iff the mask changes)."""
        h = hashlib.sha256()
        h.update(np.int64(self.resolution).tobytes())
        h.update(np.packbits(self.mask.astype(np.uint8)).tobytes())
        return h.hexdigest()[:16]


@dataclass
class LayerMesh:
    """Tiled hexahedral mesh of the perforated thin layer (physical units).

    ``dirichlet_nodes`` collects the nodes of solid element faces on the
    lateral layer boundary; ``gamma_faces`` are the interior (traction)
    surface faces.  With ``include_void`` the mesh also carries the void
    elements (``solid`` flags them), which is needed for extension and trace
    estimates on the complete layer.  ``voxels`` (E, 3) is the voxel index
    of each element on the global grid of the layer, ``voxel_elems`` the
    element of each voxel of that grid or -1, and ``node_grid`` (N, 3) the
    integer grid index of each node.  At eps = 1 over (0,1)^2 the layer is
    the reference cell (``build_cell_mesh``).
    """

    geometry: CellGeometry
    eps: float
    sigma: tuple
    resolution: int
    coords: np.ndarray
    elems: np.ndarray
    spacing: tuple
    solid: np.ndarray
    voxels: np.ndarray
    voxel_elems: np.ndarray
    node_grid: np.ndarray
    dirichlet_nodes: np.ndarray
    gamma_faces: np.ndarray
    lateral_faces: np.ndarray
    n_cells: int
    # lookup tables that consumers derive from the mesh, kept for reuse
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]


@dataclass
class PlateMesh:
    """Structured quadrilateral mesh of the midsurface Sigma.

    The bending unknown uses four Hermite degrees of freedom per node
    (value, both first derivatives, mixed derivative); the membrane unknown
    uses two scalar components per node.  ``clamped_nodes`` lists every
    boundary node.
    """

    sigma: tuple
    resolution: int
    coords: np.ndarray
    elems: np.ndarray
    spacing: tuple
    shape: tuple
    clamped_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]


def _six_connected(mask: np.ndarray) -> bool:
    """Grow the component of the first solid voxel by face-neighbour
    dilation inside the mask until it stops; lateral wrap is intentionally
    not used (the continuum cell is connected as a subset of Z, not of the
    torus)."""
    reached = np.zeros(mask.shape, dtype=bool)
    reached.flat[np.argmax(mask)] = True
    while True:
        p = np.pad(reached, 1)
        grown = mask & (reached | p[2:, 1:-1, 1:-1] | p[:-2, 1:-1, 1:-1]
                        | p[1:-1, 2:, 1:-1] | p[1:-1, :-2, 1:-1]
                        | p[1:-1, 1:-1, 2:] | p[1:-1, 1:-1, :-2])
        if np.array_equal(grown, reached):
            return bool(np.array_equal(reached, mask))
        reached = grown


def build_cell_geometry(descriptor, m: int = 8) -> CellGeometry:
    """Construct the solid reference cell from a perforation descriptor.

    Parameters
    ----------
    descriptor : "full", ("box", bounds) with bounds ((x0,x1),(y0,y1),(z0,z1))
        strictly inside the cell, or an explicit boolean mask of shape
        (m, m, 2*m).  A plain ndarray is treated as an explicit mask.
    m : mask resolution (voxels per unit length).
    """
    if isinstance(descriptor, np.ndarray):
        mask = descriptor.astype(bool)
        if mask.ndim != 3 or mask.shape != (mask.shape[0], mask.shape[0], 2 * mask.shape[0]):
            raise ResolutionIncompatible(
                f"mask shape {mask.shape} is not (m, m, 2m)")
        m = mask.shape[0]
    elif descriptor == "full":
        mask = np.ones((m, m, 2 * m), dtype=bool)
    elif isinstance(descriptor, tuple) and len(descriptor) == 2 and descriptor[0] == "box":
        (x0, x1), (y0, y1), (z0, z1) = descriptor[1]
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0 and -1.0 < z0 < z1 < 1.0):
            raise ValueError("box hole must lie strictly inside the cell")
        mask = _box_hole_mask(m, descriptor[1])
    else:
        raise ValueError(f"unknown perforation descriptor: {descriptor!r}")

    if not mask.any():
        raise EmptySolid("mask contains no solid voxel")
    for axis in (0, 1):
        lo = np.take(mask, 0, axis=axis)
        hi = np.take(mask, mask.shape[axis] - 1, axis=axis)
        if not np.array_equal(lo, hi):
            raise PeriodicMismatch(
                f"solid pattern on the two y{axis + 1} faces differs")
    if not _six_connected(mask):
        raise DisconnectedSolid("solid voxel set is not 6-connected")

    volume = float(mask.sum()) / m**3
    return CellGeometry(mask=mask, resolution=m, solid_volume=volume)


def channel_mask(m: int, width=(0.25, 0.75), height=(-0.5, 0.5),
                 axis: int = 1) -> np.ndarray:
    """Voxel mask of a straight channel running through the cell along the
    given lateral axis (the perforation reaches the lateral boundary in a
    periodically compatible way): a box hole spanning (0, 1) along it."""
    if axis not in (0, 1):
        raise ValueError("channel axis must be 0 or 1")
    bounds = [width, width, height]
    bounds[axis] = (0.0, 1.0)
    return _box_hole_mask(m, bounds)


def _box_hole_mask(m: int, bounds) -> np.ndarray:
    """Mask (m, m, 2m) of the cell less the voxels whose centres lie strictly
    inside the box ``bounds`` ((x0, x1), (y0, y1), (z0, z1))."""
    c1 = (np.arange(m) + 0.5) / m
    c3 = -1.0 + (np.arange(2 * m) + 0.5) / m
    (x0, x1), (y0, y1), (z0, z1) = bounds
    return ~(((c1 > x0) & (c1 < x1))[:, None, None] & ((c1 > y0) & (c1 < y1))[:, None]
             & ((c3 > z0) & (c3 < z1)))


def _locate(pts: np.ndarray, sigma, spacing, shape):
    """Cell (P, 2) and local coordinates in [0, 1] (P, 2) of in-plane points
    on the uniform grid of ``shape`` cells of ``spacing`` over ``sigma``
    (a1, b1, a2, b2); a point on the far edge falls in the last cell."""
    s = (pts - np.array(sigma[::2])) / np.array(spacing[:2])
    cell = np.clip(s.astype(np.int64), 0, np.array(shape[:2]) - 1)
    return cell, s - cell


def _fine_mask(geom: CellGeometry, n: int) -> np.ndarray:
    """The cell mask at n voxels per unit length (n a positive multiple of
    the mask resolution)."""
    m = geom.resolution
    if n <= 0 or n % m != 0:
        raise ResolutionIncompatible(
            f"elements per unit length n={n} must be a positive multiple of m={m}")
    k = n // m
    return np.repeat(np.repeat(np.repeat(geom.mask, k, 0), k, 1), k, 2)


def _voxel_mesh(big: np.ndarray, include_void: bool = False):
    """Hexahedra of the voxels of ``big`` (True = solid): the solid ones, or
    all of them with ``include_void``, in lexicographic voxel order (x3
    fastest).

    Returns ``(voxels, voxel_elems, solid, elems, nodes, lateral, gamma)``:
    the voxel index (E, 3) of every element and the element of every voxel
    (-1 where none), the solid flag of every element, the connectivity over
    the grid nodes that some element uses, the grid index (N, 3) of each used
    node (lexicographic), and per element face (E, 6, ``HEX_FACES`` order)
    whether it lies on the lateral grid boundary and whether it is a
    traction face: a solid element face, not lateral, whose neighbour is
    void or lies across the top or bottom of the grid.
    """
    voxels = np.argwhere(np.ones_like(big) if include_void else big)
    voxel_elems = np.full(big.shape, -1, dtype=np.int64)
    voxel_elems[tuple(voxels.T)] = np.arange(voxels.shape[0])
    solid = big[voxels[:, 0], voxels[:, 1], voxels[:, 2]]
    grid = tuple(s + 1 for s in big.shape)
    corners = (voxels[:, None, :] + HEX_CORNERS) @ np.array([grid[1] * grid[2], grid[2], 1])
    used = np.zeros(int(np.prod(grid)), dtype=bool)
    used[corners] = True
    elems = (np.cumsum(used, dtype=np.int64) - 1)[corners]
    nodes = np.argwhere(used.reshape(grid))

    nbr = voxels[:, None, :] + HEX_FACE_SIDES[:, None] * np.eye(3, dtype=np.int64)[HEX_FACE_AXES]
    inside = np.all((nbr >= 0) & (nbr < big.shape), axis=-1)
    nbr = np.clip(nbr, 0, np.array(big.shape) - 1)
    nbr_solid = inside & big[nbr[..., 0], nbr[..., 1], nbr[..., 2]]
    lateral = (HEX_FACE_AXES < 2) & ~inside
    gamma = solid[:, None] & ~lateral & ~nbr_solid
    return voxels, voxel_elems, solid, elems, nodes, lateral, gamma


def _face_list(mask: np.ndarray) -> np.ndarray:
    """(element, axis, side) rows of the faces flagged in an (E, 6) mask."""
    e, f = np.nonzero(mask)
    return np.stack([e, HEX_FACE_AXES[f], HEX_FACE_SIDES[f]], axis=1).astype(np.int64)


def build_cell_mesh(geom: CellGeometry, n: int) -> LayerMesh:
    """Mesh the solid reference cell with n x n x 2n voxels (n a multiple of
    the mask resolution): the layer of one cell, eps = 1 over (0, 1)^2.  Its
    lateral periodic identification is made by ``fem.DofMap``."""
    return build_layer_mesh(geom, 1.0, ((0.0, 1.0), (0.0, 1.0)), n)


def _check_eps(eps: float) -> int:
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9 or eps <= 0:
        raise EpsilonNotReciprocalInteger(f"1/eps = {inv} is not an integer")
    return int(round(inv))


def build_layer_mesh(geom: CellGeometry, eps: float, sigma, n: int,
                     include_void: bool = False) -> LayerMesh:
    """Tile the scaled solid cell over Sigma x (-eps, eps).

    Sigma is ((a1, b1), (a2, b2)) with integer corners.  Elements are ordered
    by global voxel index (x3 fastest), which ``voxels`` holds.
    """
    _check_eps(eps)
    (a1, b1), (a2, b2) = sigma
    if not all(float(v).is_integer() for v in (a1, b1, a2, b2)):
        raise ValueError("Sigma corners must be integers")
    w1 = int(round((b1 - a1) / eps))
    w2 = int(round((b2 - a2) / eps))
    if abs(w1 * eps - (b1 - a1)) > 1e-12 or abs(w2 * eps - (b2 - a2)) > 1e-12:
        raise EpsilonNotReciprocalInteger("Sigma is not an integer number of cells")

    big = np.tile(_fine_mask(geom, n), (w1, w2, 1))
    voxels, voxel_elems, solid, elems, nodes, lateral, gamma = _voxel_mesh(big, include_void)
    h = eps / n
    coords = nodes * h + np.array([a1, a2, -eps])

    e, f = np.nonzero(lateral & solid[:, None])
    dirichlet_nodes = np.unique(elems[e[:, None], HEX_FACE_NODES[f]]).astype(np.int64)

    return LayerMesh(
        geometry=geom,
        eps=eps,
        sigma=tuple((float(a1), float(b1))) + tuple((float(a2), float(b2))),
        resolution=n,
        coords=coords,
        elems=elems,
        spacing=(h, h, h),
        solid=solid,
        voxels=voxels,
        voxel_elems=voxel_elems,
        node_grid=nodes,
        dirichlet_nodes=dirichlet_nodes,
        gamma_faces=_face_list(gamma),
        lateral_faces=_face_list(lateral),
        n_cells=w1 * w2,
    )


def build_plate_mesh(sigma, n_sigma: int) -> PlateMesh:
    """Structured quadrilateral mesh of Sigma with n_sigma elements per unit."""
    (a1, b1), (a2, b2) = sigma
    n1 = int(round((b1 - a1) * n_sigma))
    n2 = int(round((b2 - a2) * n_sigma))
    if n1 < 1 or n2 < 1:
        raise ValueError("degenerate plate mesh")
    h1 = (b1 - a1) / n1
    h2 = (b2 - a2) / n2
    node_ids = np.arange((n1 + 1) * (n2 + 1), dtype=np.int64).reshape(n1 + 1, n2 + 1)
    xs = a1 + np.arange(n1 + 1) * h1
    ys = a2 + np.arange(n2 + 1) * h2
    coords = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    elems = np.stack([node_ids[:-1, :-1], node_ids[1:, :-1], node_ids[1:, 1:],
                      node_ids[:-1, 1:]], axis=-1).reshape(-1, 4)
    boundary = np.zeros((n1 + 1, n2 + 1), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    clamped = node_ids[boundary]
    if clamped.size == coords.shape[0]:
        warnings.warn("all plate nodes are clamped; bending space is empty")
    return PlateMesh(
        sigma=(float(a1), float(b1), float(a2), float(b2)),
        resolution=n_sigma,
        coords=coords,
        elems=elems,
        spacing=(h1, h2),
        shape=(n1, n2),
        clamped_nodes=np.sort(clamped),
    )


def dump_mesh(path, coords: np.ndarray, elems: np.ndarray) -> None:
    """ASCII structured-grid dump (PERFOLAYER-MESH v1)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("PERFOLAYER-MESH v1\n")
        f.write(f"{coords.shape[0]}\n")
        f.write(f"{elems.shape[0]}\n")
        for row in coords:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")
        for row in elems:
            f.write(" ".join(str(int(v)) for v in row) + "\n")


def dump_field(path, values: np.ndarray) -> None:
    """ASCII nodal-field dump (PERFOLAYER-FIELD v1), one node per line."""
    values = np.atleast_2d(values.T).T
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("PERFOLAYER-FIELD v1\n")
        f.write(f"{values.shape[0]}\n")
        f.write(f"{values.shape[1] if values.ndim > 1 else 1}\n")
        for row in np.atleast_2d(values):
            f.write(" ".join(repr(float(v)) for v in np.atleast_1d(row)) + "\n")
