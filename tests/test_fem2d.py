import math

import numpy as np
import pytest

from plastiproj import fem2d
from plastiproj.fem2d import (
    FemSpace,
    GAMMA1,
    GAMMA2,
    apply_dirichlet,
    assemble_mass,
    assemble_strain_stiffness,
    body_load,
    build_rect_mesh,
    strain_of,
    stress_load,
    write_vtk,
)
from plastiproj.linalg import SparseSym, cg_solve, spmv
from plastiproj.tensor_core import frob_inner_arr


def test_minimal_mesh_counts():
    mesh = build_rect_mesh(1, 1, 1.0, 1.0, "left")
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 2
    tags = [tag for _, _, tag in mesh.boundary_edges]
    assert tags.count(GAMMA1) == 1
    assert tags.count(GAMMA2) == 3


def test_all_clamped_mesh_counts():
    mesh = build_rect_mesh(2, 2, 1.0, 1.0, ("left", "right", "top", "bottom"))
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    tags = [tag for _, _, tag in mesh.boundary_edges]
    assert tags.count(GAMMA1) == 8
    assert tags.count(GAMMA2) == 0


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

    p = mesh.nodes

    shear = np.column_stack([p[:, 1], 0.0 * p[:, 0]]).ravel()
    np.testing.assert_allclose(strain_of(mesh, shear), np.tile([0.0, 0.5, 0.0], (mesh.n_elements, 1)), atol=1e-14)

    const = np.column_stack([np.ones(len(p)), np.ones(len(p))]).ravel()
    np.testing.assert_allclose(strain_of(mesh, const), 0.0, atol=1e-14)

    stretch = np.column_stack([p[:, 0], -p[:, 1]]).ravel()
    np.testing.assert_allclose(strain_of(mesh, stretch), np.tile([1.0, 0.0, -1.0], (mesh.n_elements, 1)), atol=1e-14)


def test_stress_load_examples():
    mesh = build_rect_mesh(2, 2, 1.0, 1.0, "left")
    np.testing.assert_allclose(stress_load(mesh, np.zeros((mesh.n_elements, 3))), 0.0)

    # adjoint identity: stress_load(sigma) . v == sum_el area * sigma : E(v)
    rng = np.random.default_rng(4)
    sigma = rng.standard_normal((mesh.n_elements, 3))
    v = rng.standard_normal(mesh.n_dofs)
    lhs = float(stress_load(mesh, sigma) @ v)
    eps = strain_of(mesh, v)
    rhs = float((mesh.areas * frob_inner_arr(sigma, eps)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_strain_stiffness_energy_identity():
    mesh = build_rect_mesh(3, 3, 1.0, 1.0, "left")
    k = assemble_strain_stiffness(mesh)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(mesh.n_dofs)
    eps = strain_of(mesh, v)
    want = float((mesh.areas * frob_inner_arr(eps, eps)).sum())
    assert float(v @ spmv(k, v)) == pytest.approx(want, rel=1e-12)


def test_body_load_constant_total():
    mesh = build_rect_mesh(4, 4, 1.0, 1.0, "left")
    load = body_load(mesh, np.tile([0.0, -1.0], (mesh.n_elements, 1)))
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
    dense = space.h1_gram_c.to_dense()
    want = math.sqrt(float(r @ np.linalg.solve(dense, r)))
    assert space.dual_norm(r) == pytest.approx(want, rel=1e-8)


def test_write_vtk_layout(tmp_path):
    mesh = build_rect_mesh(2, 2, 1.0, 1.0, "left")
    path = tmp_path / "snap.vtk"
    write_vtk(
        path,
        mesh,
        point_vectors={"velocity": np.zeros(mesh.n_dofs)},
        cell_tensors={"stress": np.zeros((mesh.n_elements, 3))},
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_elements} {4 * mesh.n_elements}" in lines
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert f"CELL_DATA {mesh.n_elements}" in lines
    assert "VECTORS velocity double" in lines
    assert "TENSORS stress double" in lines
