"""Structured triangular meshes, P1 vector velocity, P0 stress, assembly.

Element pair: continuous piecewise-linear vector velocity with homogeneous
Dirichlet values on the clamped nodes of the boundary, and element-constant
symmetric stress.  The symmetric gradient of a P1 field is element-constant,
so the stress update and the pointwise projection are exact per element.

dof layout: node k owns dofs (2k, 2k+1) for the (x, y) velocity components.
Stress fields are (n_elements, 3) arrays packed as (s00, s01, s11), matching
``tensor_core``.

The traction-free condition on the rest of the boundary is the natural
boundary condition of the weak form; no surface terms are assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

# cg_solve is not called here; perfbench/spans.py wraps fem2d.cg_solve by name
from .linalg import SparseSym, cg_solve, factorized_solve, spmv  # noqa: F401
from .tensor_core import frob_inner_arr

# the boundary sides, each as the index of its nodes in the (ny + 1, nx + 1) node grid
SIDES = {"left": np.s_[:, 0], "right": np.s_[:, -1], "top": np.s_[-1], "bottom": np.s_[0]}


@dataclass
class Mesh2D:
    nodes: np.ndarray          # (n_nodes, 2)
    triangles: np.ndarray      # (n_el, 3), counterclockwise
    clamped: np.ndarray        # (n_nodes,) bool: the nodes of the Dirichlet part
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    # int32 dofs (vx0, vy0, vx1, vy1, vx2, vy2) of each element, (n_el, 6)
    dofs: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.nodes[self.triangles]          # (m, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            raise ValueError("all triangles must have positive signed area")
        if not np.isfinite(det).all():
            raise ValueError("all triangles must have a finite signed area, but one overflows")
        self.areas = 0.5 * det
        self.centroids = p.mean(axis=1)
        # int32 indices: a sparse array keeps the index dtype it is built from
        self.dofs = np.empty((len(self.triangles), 6), dtype=np.int32)
        self.dofs[:, 0::2] = 2 * self.triangles
        self.dofs[:, 1::2] = 2 * self.triangles + 1
        if not self.clamped.any():
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
        """True on both dofs of every clamped node."""
        return np.repeat(self.clamped, 2)


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

    # node (ix, iy) is iy * (nx + 1) + ix; cell (ix, iy), row by row, gives
    # the triangles (n00, n10, n11) and (n00, n11, n01)
    n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    n10, n01 = n00 + 1, n00 + nx + 1
    tris = np.column_stack([n00, n10, n01 + 1, n00, n01 + 1, n01]).reshape(-1, 3)

    clamped = np.zeros((ny + 1, nx + 1), dtype=bool)
    for side in gamma1:
        clamped[SIDES[side]] = True

    return Mesh2D(nodes=nodes, triangles=tris, clamped=clamped.ravel())


# -- assembly ----------------------------------------------------------------

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _basis_grads(mesh: Mesh2D) -> np.ndarray:
    """Gradients of the three barycentric basis functions per element, (n_el, 3, 2)."""
    p = mesh.nodes[mesh.triangles]
    det = 2.0 * mesh.areas
    g = np.empty((mesh.n_elements, 3, 2))
    for i in range(3):
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        g[:, i, 0] = (a[:, 1] - b[:, 1]) / det
        g[:, i, 1] = (b[:, 0] - a[:, 0]) / det
    return g


def _scatter(mesh: Mesh2D, local: np.ndarray) -> SparseSym:
    """Accumulate per-element 6x6 blocks (dofs: 2*node+comp) into CSR."""
    n = mesh.n_dofs
    rows = np.repeat(mesh.dofs, 6, axis=1).ravel()
    cols = np.tile(mesh.dofs, (1, 6)).ravel()
    return SparseSym(sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)))


def _scatter_componentwise(mesh: Mesh2D, scal: np.ndarray) -> SparseSym:
    """The per-element scalar (n_el, 3, 3) blocks on each velocity component."""
    local = np.zeros((mesh.n_elements, 6, 6))
    local[:, 0::2, 0::2] = scal
    local[:, 1::2, 1::2] = scal
    return _scatter(mesh, local)


def assemble_mass(mesh: Mesh2D) -> SparseSym:
    """Consistent P1 mass matrix, block-diagonal over the two components."""
    return _scatter_componentwise(mesh, _LOCAL_MASS * mesh.areas[:, None, None])


def assemble_grad_stiffness(mesh: Mesh2D) -> SparseSym:
    """Full-gradient (H1 seminorm) matrix, componentwise scalar Laplacian."""
    g = _basis_grads(mesh)
    scal = np.einsum("mix,mjx->mij", g, g) * mesh.areas[:, None, None]
    return _scatter_componentwise(mesh, scal)


def strain_blocks(mesh: Mesh2D) -> np.ndarray:
    """Element blocks of the strain operator B, (n_el, 3, 6).

    Row k of block e maps the element's dofs ``mesh.dofs[e]`` to component k
    of its packed symmetric gradient (e11, e12, e22).
    """
    g = _basis_grads(mesh)
    blocks = np.zeros((mesh.n_elements, 3, 6))
    blocks[:, 0, 0::2] = g[:, :, 0]
    blocks[:, 1, 0::2] = 0.5 * g[:, :, 1]
    blocks[:, 1, 1::2] = 0.5 * g[:, :, 0]
    blocks[:, 2, 1::2] = g[:, :, 1]
    return blocks


def strain_of(space: FemSpace, v: np.ndarray) -> np.ndarray:
    """Element-constant symmetric gradient (n_el, 3) of a P1 dof vector."""
    return (space.strain_op @ v).reshape(-1, 3)


def stress_load(space: FemSpace, s: np.ndarray) -> np.ndarray:
    """dof vector of (sigma, E(phi_i)) for element-constant sigma, (n_el, 3)."""
    return space.strain_op_t @ (space.strain_weight * s.ravel())


def body_load(space: FemSpace, cell_values: np.ndarray) -> np.ndarray:
    """dof vector of (f, phi_i) with one-point (centroid) quadrature."""
    mesh = space.mesh
    share = (mesh.areas[:, None] / 3.0) * cell_values  # (m, 2)
    return np.bincount(mesh.dofs.ravel(), np.tile(share, 3).ravel(), minlength=mesh.n_dofs)


def apply_dirichlet(a: SparseSym, mask: np.ndarray) -> SparseSym:
    """Symmetric elimination of the dofs where ``mask`` is set: their rows and
    columns become those of the identity; a right-hand side must vanish there."""
    df = sp.diags_array((~mask).astype(float))
    return SparseSym(df @ a @ df + sp.diags_array(mask.astype(float)))


# -- norms -------------------------------------------------------------------


class FemSpace:
    """Mesh plus cached matrices for the norms used by the time stepper.

    Every matrix is built on first use, so parsing a config and checking its
    initial state assemble none.  The strain operator B (``strain_op``), its
    transpose and the strain stiffness B' W B are built together from one
    set of element blocks of B: the strain applies B, the stress load its
    transpose.  The H1 Gram matrix, its constrained factor (the dual norm)
    and the Korn constant serve the norms.  A study shares one space across
    its runs, so each is built at most once.
    """

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self.mask = mesh.dirichlet_mask()

    @cached_property
    def mass(self) -> SparseSym:
        return assemble_mass(self.mesh)

    @cached_property
    def strain_weight(self) -> np.ndarray:
        """w = areas x (1, 2, 1), raveled: the shear weight of frob_inner_arr,
        (sigma, eps)_H = (w * sigma.ravel()) @ eps.ravel()."""
        return np.outer(self.mesh.areas, (1.0, 2.0, 1.0)).ravel()

    @cached_property
    def _strain_operators(self) -> tuple:
        mesh = self.mesh
        blocks = strain_blocks(mesh)
        # B' W B summed element by element; scipy's product B.T @ (W @ B)
        # gives the same matrix, but its heap temporaries raise peak memory
        w = self.strain_weight.reshape(-1, 3, 1)
        stiff = _scatter(mesh, blocks.transpose(0, 2, 1) @ (w * blocks))
        # B: row 3e + k is row k of block e on the dofs mesh.dofs[e]; it takes
        # over the blocks' storage and drops their zeros in place
        m = mesh.n_elements
        cols = np.broadcast_to(mesh.dofs[:, None, :], blocks.shape).ravel()
        indptr = np.arange(0, 18 * m + 1, 6, dtype=np.int32)
        op = SparseSym((blocks.ravel(), cols, indptr), shape=(3 * m, mesh.n_dofs))
        op.eliminate_zeros()
        # B' is a CSC view of B's arrays, kept rather than rebuilt per stress load
        return stiff, op, op.T

    strain_stiff = property(lambda self: self._strain_operators[0])
    strain_op = property(lambda self: self._strain_operators[1])
    strain_op_t = property(lambda self: self._strain_operators[2])

    @cached_property
    def h1_gram(self) -> SparseSym:
        return self.mass + assemble_grad_stiffness(self.mesh)

    @cached_property
    def _dual_solve(self):
        """Solve with the H1 Gram matrix, its constrained dofs eliminated."""
        return factorized_solve(apply_dirichlet(self.h1_gram, self.mask))

    @cached_property
    def korn(self) -> float:
        """Largest ratio ||phi||_V / ||E(phi)||_H over the constrained space.

        That is sqrt(1 / mu) for the smallest eigenvalue mu of K x = mu G x on
        the free dofs (K strain stiffness, G H1 Gram), found by shift-invert
        Lanczos about 0 with K factored by ``factorized_solve``.  The fixed
        start vector keeps reruns byte-identical.
        """
        if self.mask.all():  # the zero space, where eigsh has no eigenvalue to find
            return 0.0
        free = ~self.mask
        g = self.h1_gram[free][:, free]
        k = self.strain_stiff[free][:, free]
        k_inv = LinearOperator(k.shape, matvec=factorized_solve(k), dtype=float)
        mu = eigsh(k, k=1, M=g, sigma=0.0, which="LM", v0=np.ones(k.shape[0]),
                   OPinv=k_inv, return_eigenvectors=False)
        return float(math.sqrt(1.0 / mu[0]))

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

    def stress_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """(a, b)_H: the area-weighted sum of a : b over (n_el, 3) stresses."""
        return float((self.mesh.areas * frob_inner_arr(a, b)).sum())

    def stress_l2(self, data: np.ndarray) -> float:
        return float(np.sqrt(max(self.stress_inner(data, data), 0.0)))


# -- VTK legacy ASCII ---------------------------------------------------------


def _rows(fmt: str, a: np.ndarray) -> str:
    """One ``fmt`` line per row of ``a``, formatted in a single pass."""
    a = np.asarray(a)
    return (fmt * len(a)) % tuple(a.ravel().tolist())


def write_vtk(path, mesh: Mesh2D, velocity: np.ndarray, stress: np.ndarray) -> None:
    """Legacy ASCII VTK of a P1 velocity dof vector as POINT_DATA and a P0
    packed stress (n_el, 3) as CELL_DATA."""
    m = mesh.n_elements
    parts = ["# vtk DataFile Version 3.0\nplastiproj snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
             f"POINTS {mesh.n_nodes} double\n",
             _rows("%.17g %.17g 0\n", mesh.nodes),
             f"CELLS {m} {4 * m}\n",
             _rows("3 %d %d %d\n", mesh.triangles),
             f"CELL_TYPES {m}\n" + "5\n" * m,
             f"POINT_DATA {mesh.n_nodes}\nVECTORS velocity double\n",
             _rows("%.17g %.17g 0\n", velocity.reshape(-1, 2)),
             f"CELL_DATA {m}\nTENSORS stress double\n",
             # packed (s00, s01, s11) as the rows (s00 s01 0), (s01 s11 0), (0 0 0)
             _rows("%.17g %.17g 0\n%.17g %.17g 0\n0 0 0\n", stress[:, [0, 1, 1, 2]])]
    with open(path, "w") as fh:
        fh.write("".join(parts))
