"""Structured triangular meshes, P1 vector velocity, P0 stress, assembly.

Element pair: continuous piecewise-linear vector velocity with homogeneous
Dirichlet values on the tagged part of the boundary, and element-constant
symmetric stress.  The symmetric gradient of a P1 field is element-constant,
so the stress update and the pointwise projection are exact per element.

dof layout: node k owns dofs (2k, 2k+1) for the (x, y) velocity components.
Stress fields are (n_elements, 3) arrays packed as (s00, s01, s11), matching
``tensor_core``.

The traction-free condition on the untagged boundary part is the natural
boundary condition of the weak form; no surface terms are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# cg_solve is not called here; perfbench/spans.py wraps fem2d.cg_solve by name
from .linalg import SparseSym, cg_solve, factorized_solve, spmv  # noqa: F401
from .tensor_core import frob_inner_arr

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"

SIDES = ("left", "right", "top", "bottom")


@dataclass
class Mesh2D:
    nodes: np.ndarray          # (n_nodes, 2)
    triangles: np.ndarray      # (n_el, 3), counterclockwise
    boundary_edges: list[tuple[int, int, str]]
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    # gradients of the three barycentric basis functions per element, (n_el, 3, 2)
    grads: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.nodes[self.triangles]          # (m, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            raise ValueError("all triangles must have positive signed area")
        self.areas = 0.5 * det
        self.centroids = p.mean(axis=1)
        g = np.empty((len(self.triangles), 3, 2))
        for i in range(3):
            a = p[:, (i + 1) % 3]
            b = p[:, (i + 2) % 3]
            g[:, i, 0] = (a[:, 1] - b[:, 1]) / det
            g[:, i, 1] = (b[:, 0] - a[:, 0]) / det
        self.grads = g
        if not any(tag == GAMMA1 for _, _, tag in self.boundary_edges):
            raise ValueError("the Dirichlet boundary part must be nonempty")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.triangles)

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def dirichlet_mask(self) -> np.ndarray:
        """True on both dofs of every node on a gamma1 edge."""
        mask = np.zeros((self.n_nodes, 2), dtype=bool)
        mask[[n for a, b, tag in self.boundary_edges if tag == GAMMA1 for n in (a, b)]] = True
        return mask.ravel()


def build_rect_mesh(nx: int, ny: int, lx: float, ly: float, gamma1) -> Mesh2D:
    """Structured mesh of [0,lx] x [0,ly]; each cell split along its NE diagonal.

    gamma1 selects a nonempty union of sides from {left, right, top, bottom}
    (``Mesh2D`` rejects an empty one); the rest of the boundary carries the
    natural (traction-free) condition.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    if lx <= 0.0 or ly <= 0.0:
        raise ValueError("lx and ly must be > 0")
    gamma1 = {gamma1} if isinstance(gamma1, str) else set(gamma1)
    unknown = gamma1 - set(SIDES)
    if unknown:
        raise ValueError(f"unknown boundary side(s): {sorted(unknown)}")

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            n00, n10 = nid(ix, iy), nid(ix + 1, iy)
            n01, n11 = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))

    def tag(side):
        return GAMMA1 if side in gamma1 else GAMMA2

    edges = []
    for ix in range(nx):
        edges.append((nid(ix, 0), nid(ix + 1, 0), tag("bottom")))
        edges.append((nid(ix, ny), nid(ix + 1, ny), tag("top")))
    for iy in range(ny):
        edges.append((nid(0, iy), nid(0, iy + 1), tag("left")))
        edges.append((nid(nx, iy), nid(nx, iy + 1), tag("right")))

    return Mesh2D(nodes=nodes, triangles=np.array(tris, dtype=int), boundary_edges=edges)


# -- assembly ----------------------------------------------------------------

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _scatter(mesh: Mesh2D, local: np.ndarray) -> SparseSym:
    """Accumulate per-element 6x6 blocks (dofs: 2*node+comp) into CSR."""
    m, n = mesh.n_elements, mesh.n_dofs
    # int32 indices: a sparse array keeps the index dtype it is built from
    dofs = np.empty((m, 6), dtype=np.int32)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    return SparseSym(sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)))


def assemble_mass(mesh: Mesh2D) -> SparseSym:
    """Consistent P1 mass matrix, block-diagonal over the two components."""
    local = np.zeros((mesh.n_elements, 6, 6))
    for i in range(3):
        for j in range(3):
            local[:, 2 * i, 2 * j] = _LOCAL_MASS[i, j] * mesh.areas
            local[:, 2 * i + 1, 2 * j + 1] = _LOCAL_MASS[i, j] * mesh.areas
    return _scatter(mesh, local)


def assemble_strain_stiffness(mesh: Mesh2D) -> SparseSym:
    """Matrix of integral E(phi_i):E(phi_j) over the mesh."""
    b = mesh.grads[:, :, 0]
    c = mesh.grads[:, :, 1]
    m = mesh.n_elements
    # rows of the per-element strain operator on (vx0, vy0, vx1, vy1, vx2, vy2)
    b1 = np.zeros((m, 6))
    b2 = np.zeros((m, 6))
    b3 = np.zeros((m, 6))
    b1[:, 0::2] = b
    b2[:, 1::2] = c
    b3[:, 0::2] = 0.5 * c
    b3[:, 1::2] = 0.5 * b
    local = np.einsum("mi,mj->mij", b1, b1)
    local += np.einsum("mi,mj->mij", b2, b2)
    local += 2.0 * np.einsum("mi,mj->mij", b3, b3)
    local *= mesh.areas[:, None, None]
    return _scatter(mesh, local)


def assemble_grad_stiffness(mesh: Mesh2D) -> SparseSym:
    """Full-gradient (H1 seminorm) matrix, componentwise scalar Laplacian."""
    g = mesh.grads
    scal = np.einsum("mix,mjx->mij", g, g) * mesh.areas[:, None, None]
    local = np.zeros((mesh.n_elements, 6, 6))
    local[:, 0::2, 0::2] = scal
    local[:, 1::2, 1::2] = scal
    return _scatter(mesh, local)


def strain_of(mesh: Mesh2D, v: np.ndarray) -> np.ndarray:
    """Element-constant symmetric gradient (n_el, 3) of a P1 dof vector."""
    nodal = v.reshape(-1, 2)[mesh.triangles]      # (m, 3, 2)
    b = mesh.grads[:, :, 0]
    c = mesh.grads[:, :, 1]
    e11 = np.einsum("mi,mi->m", b, nodal[:, :, 0])
    e22 = np.einsum("mi,mi->m", c, nodal[:, :, 1])
    e12 = 0.5 * (np.einsum("mi,mi->m", c, nodal[:, :, 0]) + np.einsum("mi,mi->m", b, nodal[:, :, 1]))
    return np.column_stack([e11, e12, e22])


def stress_load(mesh: Mesh2D, s: np.ndarray) -> np.ndarray:
    """dof vector of (sigma, E(phi_i)) for element-constant sigma, (n_el, 3)."""
    b = mesh.grads[:, :, 0]
    c = mesh.grads[:, :, 1]
    a = mesh.areas[:, None]
    rx = a * (s[:, 0:1] * b + s[:, 1:2] * c)      # (m, 3)
    ry = a * (s[:, 1:2] * b + s[:, 2:3] * c)
    out = np.zeros(mesh.n_dofs)
    np.add.at(out, 2 * mesh.triangles, rx)
    np.add.at(out, 2 * mesh.triangles + 1, ry)
    return out


def body_load(mesh: Mesh2D, cell_values: np.ndarray) -> np.ndarray:
    """dof vector of (f, phi_i) with one-point (centroid) quadrature."""
    share = (mesh.areas[:, None] / 3.0) * cell_values  # (m, 2)
    out = np.zeros(mesh.n_dofs)
    for i in range(3):
        np.add.at(out, 2 * mesh.triangles[:, i], share[:, 0])
        np.add.at(out, 2 * mesh.triangles[:, i] + 1, share[:, 1])
    return out


def apply_dirichlet(a: SparseSym, mask: np.ndarray) -> SparseSym:
    """Symmetric elimination of the dofs where ``mask`` is set: their rows and
    columns become those of the identity; a right-hand side must vanish there."""
    df = sp.diags_array((~mask).astype(float))
    return SparseSym(df @ a @ df + sp.diags_array(mask.astype(float)))


# -- norms -------------------------------------------------------------------


class FemSpace:
    """Mesh plus cached matrices for the norms used by the time stepper.

    The H1 matrices and the dual-norm factor are built on first use: a
    plain run needs only the mass and strain stiffness matrices.
    """

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self.mass = assemble_mass(mesh)
        self.strain_stiff = assemble_strain_stiffness(mesh)
        self.mask = mesh.dirichlet_mask()

    @cached_property
    def grad_stiff(self) -> SparseSym:
        return assemble_grad_stiffness(self.mesh)

    @cached_property
    def h1_gram(self) -> SparseSym:
        return self.mass + self.grad_stiff

    @cached_property
    def h1_gram_c(self) -> SparseSym:
        """The H1 Gram matrix with the constrained dofs eliminated."""
        return apply_dirichlet(self.h1_gram, self.mask)

    @cached_property
    def _dual_solve(self):
        return factorized_solve(self.h1_gram_c)

    def l2_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(u @ spmv(self.mass, u), 0.0)))

    def v_norm(self, u: np.ndarray) -> float:
        """Full H1 norm, sqrt(u' (M + K_grad) u)."""
        return float(np.sqrt(max(u @ spmv(self.h1_gram, u), 0.0)))

    def dual_norm(self, r: np.ndarray) -> float:
        """Discrete dual norm sqrt(r' G^-1 r) with G the constrained H1 Gram
        matrix, factored on the first call; r must vanish on constrained dofs."""
        r = np.where(self.mask, 0.0, r)
        return float(np.sqrt(max(r @ self._dual_solve(r), 0.0)))

    def stress_l2(self, data: np.ndarray) -> float:
        return float(np.sqrt(max((self.mesh.areas * frob_inner_arr(data, data)).sum(), 0.0)))


# -- VTK legacy ASCII ---------------------------------------------------------


def write_vtk(
    path,
    mesh: Mesh2D,
    point_vectors: dict[str, np.ndarray] | None = None,
    cell_tensors: dict[str, np.ndarray] | None = None,
    title: str = "plastiproj snapshot",
) -> None:
    """Legacy ASCII VTK with P1 vectors as POINT_DATA and P0 tensors as CELL_DATA."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {mesh.n_nodes} double")
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g} 0")
    m = mesh.n_elements
    lines.append(f"CELLS {m} {4 * m}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    lines.append(f"CELL_TYPES {m}")
    lines.extend(["5"] * m)
    if point_vectors:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, vals in point_vectors.items():
            vv = np.asarray(vals).reshape(-1, 2)
            lines.append(f"VECTORS {name} double")
            for vx, vy in vv:
                lines.append(f"{vx:.17g} {vy:.17g} 0")
    if cell_tensors:
        lines.append(f"CELL_DATA {m}")
        for name, vals in cell_tensors.items():
            lines.append(f"TENSORS {name} double")
            for s00, s01, s11 in np.asarray(vals):
                lines.append(f"{s00:.17g} {s01:.17g} 0")
                lines.append(f"{s01:.17g} {s11:.17g} 0")
                lines.append("0 0 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
