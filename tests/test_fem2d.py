import math

import numpy as np
import pytest

from plastiproj import fem2d, stepper
from plastiproj.fem2d import (
    FemSpace,
    apply_dirichlet,
    assemble_mass,
    body_load,
    build_rect_mesh,
    strain_of,
    stress_load,
    write_vtk,
)
from plastiproj.linalg import SparseSym, cg_solve, spmv
from plastiproj.scenarios import unit_square_spec
from plastiproj.tensor_core import frob_inner_arr


def test_minimal_mesh_counts():
    mesh = build_rect_mesh(1, 1, 1.0, 1.0, "left")
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 2
    np.testing.assert_array_equal(mesh.clamped, [True, False, True, False])
    np.testing.assert_array_equal(mesh.dirichlet_mask(), [1, 1, 0, 0, 1, 1, 0, 0])


def test_all_clamped_mesh_counts():
    mesh = build_rect_mesh(2, 2, 1.0, 1.0, ("left", "right", "top", "bottom"))
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    # every node but the centre one
    assert np.flatnonzero(~mesh.clamped).tolist() == [4]


def reference_rect_mesh(nx, ny, lx, ly, gamma1):
    """Nodes, triangles and clamped nodes of build_rect_mesh, cell by cell:
    a node is clamped when it ends a boundary edge on a gamma1 side."""
    gamma1 = {gamma1} if isinstance(gamma1, str) else set(gamma1)
    xx, yy = np.meshgrid(np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1))
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

    edges = []
    for ix in range(nx):
        edges.append((nid(ix, 0), nid(ix + 1, 0), "bottom"))
        edges.append((nid(ix, ny), nid(ix + 1, ny), "top"))
    for iy in range(ny):
        edges.append((nid(0, iy), nid(0, iy + 1), "left"))
        edges.append((nid(nx, iy), nid(nx, iy + 1), "right"))
    clamped = np.zeros(len(nodes), dtype=bool)
    for a, b, side in edges:
        if side in gamma1:
            clamped[[a, b]] = True
    return nodes, np.array(tris, dtype=int), clamped


@pytest.mark.parametrize("nx, ny, lx, ly, gamma1", [
    (1, 1, 1.0, 1.0, "left"),
    (1, 1, 1.0, 1.0, ("left", "right", "top", "bottom")),
    (3, 2, 2.0, 0.5, ("bottom",)),
    (2, 5, 1.0, 1.0, ("top", "right")),
    (16, 16, 1.0, 1.0, ("left",)),
])
def test_rect_mesh_matches_cell_loop(nx, ny, lx, ly, gamma1):
    mesh = build_rect_mesh(nx, ny, lx, ly, gamma1)
    nodes, tris, clamped = reference_rect_mesh(nx, ny, lx, ly, gamma1)
    np.testing.assert_array_equal(mesh.nodes, nodes)
    assert mesh.triangles.dtype == tris.dtype
    np.testing.assert_array_equal(mesh.triangles, tris)
    assert mesh.clamped.dtype == bool
    np.testing.assert_array_equal(mesh.clamped, clamped)


def test_total_area():
    mesh = build_rect_mesh(1, 1, 2.0, 1.0, "left")
    assert mesh.areas.sum() == pytest.approx(2.0)
    mesh = build_rect_mesh(5, 3, 1.0, 1.0, "left")
    assert mesh.areas.sum() == pytest.approx(1.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1, 1.0, 1.0, "left")
    with pytest.raises(ValueError):
        build_rect_mesh(1, 1, -1.0, 1.0, "left")
    with pytest.raises(ValueError, match="side"):
        build_rect_mesh(1, 1, 1.0, 1.0, "west")
    with pytest.raises(ValueError):
        build_rect_mesh(1, 1, 1.0, 1.0, ())


def test_mass_total():
    # sum over a constant field recovers the domain area per component
    mesh = build_rect_mesh(3, 3, 1.0, 1.0, "left")
    mass = assemble_mass(mesh)
    ones_x = np.zeros(mesh.n_dofs)
    ones_x[0::2] = 1.0
    assert ones_x @ spmv(mass, ones_x) == pytest.approx(1.0)


def test_strain_examples():
    mesh = build_rect_mesh(3, 2, 1.0, 1.0, "left")
    space = FemSpace(mesh)

    p = mesh.nodes

    shear = np.column_stack([p[:, 1], 0.0 * p[:, 0]]).ravel()
    np.testing.assert_allclose(strain_of(space, shear), np.tile([0.0, 0.5, 0.0], (mesh.n_elements, 1)), atol=1e-14)

    const = np.column_stack([np.ones(len(p)), np.ones(len(p))]).ravel()
    np.testing.assert_allclose(strain_of(space, const), 0.0, atol=1e-14)

    stretch = np.column_stack([p[:, 0], -p[:, 1]]).ravel()
    np.testing.assert_allclose(strain_of(space, stretch), np.tile([1.0, 0.0, -1.0], (mesh.n_elements, 1)), atol=1e-14)


def test_stress_load_examples():
    mesh = build_rect_mesh(2, 2, 1.0, 1.0, "left")
    space = FemSpace(mesh)
    np.testing.assert_allclose(stress_load(space, np.zeros((mesh.n_elements, 3))), 0.0)

    # adjoint identity: stress_load(sigma) . v == sum_el area * sigma : E(v)
    rng = np.random.default_rng(4)
    sigma = rng.standard_normal((mesh.n_elements, 3))
    v = rng.standard_normal(mesh.n_dofs)
    lhs = float(stress_load(space, sigma) @ v)
    eps = strain_of(space, v)
    rhs = float((mesh.areas * frob_inner_arr(sigma, eps)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_strain_stiffness_energy_identity():
    mesh = build_rect_mesh(3, 3, 1.0, 1.0, "left")
    space = FemSpace(mesh)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(mesh.n_dofs)
    eps = strain_of(space, v)
    want = float((mesh.areas * frob_inner_arr(eps, eps)).sum())
    assert float(v @ spmv(space.strain_stiff, v)) == pytest.approx(want, rel=1e-12)


def reference_strain_stiffness(mesh):
    """Dense strain stiffness summed from per-element 6x6 blocks, with basis
    gradients from each element's inverse Jacobian."""
    k = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for tri, area in zip(mesh.triangles, mesh.areas):
        p = mesh.nodes[tri]
        jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
        g12 = np.linalg.inv(jac).T               # columns: grad of l1 and l2
        grads = np.column_stack([-g12[:, 0] - g12[:, 1], g12]).T   # (3, 2)
        rows = np.zeros((3, 6))                  # (e11, e12, e22) on the six dofs
        rows[0, 0::2] = grads[:, 0]
        rows[1, 0::2] = 0.5 * grads[:, 1]
        rows[1, 1::2] = 0.5 * grads[:, 0]
        rows[2, 1::2] = grads[:, 1]
        local = area * rows.T @ np.diag([1.0, 2.0, 1.0]) @ rows
        dofs = np.column_stack([2 * tri, 2 * tri + 1]).ravel()
        k[np.ix_(dofs, dofs)] += local
    return k


@pytest.mark.parametrize("n", [1, 4])
def test_strain_stiffness_matches_element_blocks(n):
    space = FemSpace(build_rect_mesh(n, n, 1.0, 1.0, "left"))
    np.testing.assert_allclose(space.strain_stiff.to_dense(),
                               reference_strain_stiffness(space.mesh), rtol=1e-14)
    step = stepper._Engine(unit_square_spec(n_steps=4, mesh_n=n)).a_proj
    for a in (space.strain_op, space.strain_stiff, step):
        assert type(a) is SparseSym
        assert a.indptr.dtype == np.int32 and a.indices.dtype == np.int32
    assert space.strain_op.shape == (3 * space.mesh.n_elements, space.mesh.n_dofs)
    assert (space.strain_op.data != 0.0).all()


def test_body_load_constant_total():
    mesh = build_rect_mesh(4, 4, 1.0, 1.0, "left")
    load = body_load(FemSpace(mesh), np.tile([0.0, -1.0], (mesh.n_elements, 1)))
    # total force integrates f over the domain
    assert load[1::2].sum() == pytest.approx(-1.0)
    assert load[0::2].sum() == pytest.approx(0.0)


def test_assembly_sums_duplicates():
    # the two triangles of a 1x1 mesh share the nodes of its diagonal
    mesh = build_rect_mesh(1, 1, 1.0, 1.0, "left")
    a = fem2d._scatter(mesh, np.ones((mesh.n_elements, 6, 6)))
    shared = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for tri in mesh.triangles:
        shared[np.ix_(tri, tri)] += 1.0
    assert type(a) is SparseSym
    assert a.has_canonical_format
    assert a.indptr.dtype == np.int32 and a.indices.dtype == np.int32
    np.testing.assert_array_equal(a.to_dense(), np.kron(shared, np.ones((2, 2))))


def test_apply_dirichlet_all_clamped_is_identity():
    mesh = build_rect_mesh(1, 1, 1.0, 1.0, ("left", "right", "top", "bottom"))
    m = apply_dirichlet(assemble_mass(mesh), mesh.dirichlet_mask())
    assert type(m) is SparseSym
    np.testing.assert_allclose(m.to_dense(), np.eye(mesh.n_dofs), atol=1e-14)


def test_dirichlet_solution_vanishes_on_gamma1():
    mesh = build_rect_mesh(4, 4, 1.0, 1.0, "left")
    space = FemSpace(mesh)
    mask = mesh.dirichlet_mask()
    a = apply_dirichlet(space.h1_gram, mask)
    # identity on the constrained rows and columns, the input on the free block
    dense, eye, free = a.to_dense(), np.eye(mesh.n_dofs), np.ix_(~mask, ~mask)
    np.testing.assert_array_equal(dense[mask], eye[mask])
    np.testing.assert_array_equal(dense[:, mask], eye[:, mask])
    np.testing.assert_array_equal(dense[free], space.h1_gram.to_dense()[free])

    rhs = np.where(mask, 0.0, np.ones(mesh.n_dofs))
    res = cg_solve(a, rhs, tol=1e-13)
    assert res.converged
    np.testing.assert_allclose(res.x[mask], 0.0, atol=1e-12)
    assert np.abs(res.x[~mask]).min() > 0.0


def test_space_norm_examples():
    mesh = build_rect_mesh(3, 3, 1.0, 1.0, "left")
    space = FemSpace(mesh)
    zero_v = np.zeros(mesh.n_dofs)
    assert space.l2_norm(zero_v) == 0.0
    assert space.v_norm(zero_v) == 0.0

    const = np.column_stack([np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)]).ravel()
    assert space.l2_norm(const) == pytest.approx(1.0)

    sig = np.tile([1.0, 0.0, -1.0], (mesh.n_elements, 1))
    assert space.stress_l2(sig) == pytest.approx(math.sqrt(2.0))


def test_dual_norm_matches_dense_solve():
    mesh = build_rect_mesh(3, 3, 1.0, 1.0, "left")
    space = FemSpace(mesh)
    rng = np.random.default_rng(12)
    r = np.where(mesh.dirichlet_mask(), 0.0, rng.standard_normal(mesh.n_dofs))
    dense = apply_dirichlet(space.h1_gram, space.mask).to_dense()
    want = math.sqrt(float(r @ np.linalg.solve(dense, r)))
    assert space.dual_norm(r) == pytest.approx(want, rel=1e-8)


def test_write_vtk_layout(tmp_path):
    mesh = build_rect_mesh(1, 1, 1.0, 1.0, "left")
    path = tmp_path / "snap.vtk"
    velocity = np.array([0.1, -1.0, 0.0, 2.5, -0.5, 0.0, 1.0, -3.0])
    stress = np.array([[1.0, 0.25, -1.0], [0.1, -2.0, 3.0]])
    write_vtk(path, mesh, velocity, stress)
    # nodes row by row, the cell split along its NE diagonal, %.17g values,
    # and each packed stress as a 3x3 tensor
    assert path.read_text() == (
        "# vtk DataFile Version 3.0\n"
        "plastiproj snapshot\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 double\n"
        "0 0 0\n1 0 0\n0 1 0\n1 1 0\n"
        "CELLS 2 8\n"
        "3 0 1 3\n3 0 3 2\n"
        "CELL_TYPES 2\n"
        "5\n5\n"
        "POINT_DATA 4\n"
        "VECTORS velocity double\n"
        "0.10000000000000001 -1 0\n0 2.5 0\n-0.5 0 0\n1 -3 0\n"
        "CELL_DATA 2\n"
        "TENSORS stress double\n"
        "1 0.25 0\n0.25 -1 0\n0 0 0\n"
        "0.10000000000000001 -2 0\n-2 3 0\n0 0 0\n"
    )
