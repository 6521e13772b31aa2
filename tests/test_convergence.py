"""Griso decomposition, Korn ratio quadrature, KL extraction, harness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from platehom.algebra import isotropic_hooke, plane_stress_form
from platehom.convergence import (extract_kl, griso_decompose, korn_ratio,
                                  nodal_l2_sq, residual_moments,
                                  theorem1_harness)
from platehom.microstructure import VoxelGrid, make_laminate


def z_nodes(nz):
    return np.linspace(-0.5, 0.5, nz + 1)


def reconstruct(parts):
    nz = parts.bar.shape[2] - 1
    return parts.elementary(z_nodes(nz)) + parts.bar


def test_constant_field_decomposition():
    field = np.zeros((5, 5, 5, 3))
    field[...] = (1.0, -2.0, 3.0)
    parts = griso_decompose(field)
    assert_allclose(parts.hat, field[:, :, 0, :])
    assert_allclose(parts.r, 0.0, atol=1e-14)
    assert_allclose(parts.bar, 0.0, atol=1e-14)


def test_pure_rotation_field_captured():
    # psi = (x3, 0, 0) is r = (0, 1) exactly, with zero residual
    nz = 6
    z = z_nodes(nz)
    field = np.zeros((4, 4, nz + 1, 3))
    field[..., 0] = z[None, None, :]
    parts = griso_decompose(field)
    assert_allclose(parts.r[..., 1], 1.0, atol=1e-13)
    assert_allclose(parts.r[..., 0], 0.0, atol=1e-13)
    assert_allclose(parts.hat, 0.0, atol=1e-14)
    assert_allclose(parts.bar, 0.0, atol=1e-13)


def test_reconstruction_identity_random():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((9, 7, 6, 3))
    parts = griso_decompose(field)
    assert np.max(np.abs(reconstruct(parts) - field)) < 1e-13
    m0, m1 = residual_moments(parts)
    assert m0 < 1e-13
    assert m1 < 1e-13


def test_projection_property_needs_coefficient_12():
    # decomposing an elementary field must return it unchanged
    rng = np.random.default_rng(1)
    nz = 8
    z = z_nodes(nz)
    hat = rng.standard_normal((6, 5, 3))
    r = rng.standard_normal((6, 5, 2))
    field = np.zeros((6, 5, nz + 1, 3))
    field[:] = hat[:, :, None, :]
    field[..., 0] += z[None, None, :] * r[:, :, None, 1]
    field[..., 1] -= z[None, None, :] * r[:, :, None, 0]
    parts = griso_decompose(field)
    assert np.max(np.abs(parts.bar)) < 1e-12
    assert_allclose(parts.r, r, atol=1e-12)
    assert_allclose(parts.hat, hat, atol=1e-13)


def test_korn_ratio_pure_rotation_finite():
    nz = 8
    z = z_nodes(nz)
    field = np.zeros((6, 6, nz + 1, 3))
    field[..., 0] = z[None, None, :]
    for h in (0.5, 0.1):
        ratio = korn_ratio(field, h)
        assert np.isfinite(ratio)
        assert ratio > 0


def test_korn_ratio_scale_invariance():
    rng = np.random.default_rng(3)
    field = rng.standard_normal((7, 7, 6, 3))
    r1 = korn_ratio(field, 0.2)
    r2 = korn_ratio(3.7 * field, 0.2)
    assert abs(r1 - r2) < 1e-12 * r1
    shifted = field + np.array([0.3, -0.8, 1.1])
    r3 = korn_ratio(shifted, 0.2)
    assert abs(r1 - r3) < 1e-9 * r1


def test_korn_ratio_smooth_field_grid_stable():
    def smooth(n):
        x = np.linspace(0, 1, n + 1)
        z = z_nodes(n)
        xx, yy, zz = np.meshgrid(x, x, z, indexing="ij")
        f = np.stack([
            np.sin(np.pi * xx) * np.cos(np.pi * yy) * zz,
            np.cos(np.pi * xx) * yy ** 2,
            np.sin(np.pi * yy) + zz ** 2 * xx,
        ], axis=-1)
        return f

    r16 = korn_ratio(smooth(16), 0.1)
    r32 = korn_ratio(smooth(32), 0.1)
    assert abs(r16 - r32) / r32 < 0.2


def test_korn_ratio_zero_field_rejected():
    with pytest.raises(ValueError):
        korn_ratio(np.zeros((4, 4, 4, 3)), 0.1)


def test_extract_kl_inverts_ansatz():
    # u = (w - x3 grad v, v/h) with quadratic v, linear w: exact recovery
    n, nz, h = 12, 6, 0.125
    x = np.linspace(0, 1, n + 1)
    z = z_nodes(nz)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w = np.stack([0.3 * xx + 0.1 * yy, -0.2 * yy], axis=-1)
    v = 0.5 * xx ** 2 - 0.25 * xx * yy + 0.1 * yy ** 2
    gvx = 1.0 * xx - 0.25 * yy
    gvy = -0.25 * xx + 0.2 * yy
    u = np.zeros((n + 1, n + 1, nz + 1, 3))
    u[..., 0] = w[..., 0][:, :, None] - z[None, None, :] * gvx[:, :, None]
    u[..., 1] = w[..., 1][:, :, None] - z[None, None, :] * gvy[:, :, None]
    u[..., 2] = v[:, :, None] / h
    w_rec, v_rec, corr = extract_kl(u, h)
    assert_allclose(w_rec, w, atol=1e-13)
    assert_allclose(v_rec, v, atol=1e-13)
    assert corr < 1e-12


def test_extract_kl_zero():
    w, v, corr = extract_kl(np.zeros((4, 4, 4, 3)), 0.1)
    assert_allclose(w, 0.0)
    assert_allclose(v, 0.0)
    assert corr == 0.0


def test_nodal_l2_of_constant():
    f = np.full((5, 6, 7, 3), 2.0)
    assert_allclose(nodal_l2_sq(f), 3 * 4.0, rtol=1e-12)


def test_harness_single_phase_smoke():
    phases = {1: isotropic_hooke(1.0, 1.0)}
    grid = VoxelGrid(12, 12, 4, np.ones(12 * 12 * 4, dtype=np.int32), "plate")
    q0 = plane_stress_form(phases[1])
    res = theorem1_harness(grid, phases, [0.25, 0.125], (0, 0, 1.0),
                           ("left",), q0, tol=1e-10)
    assert len(res.rows) == 2
    for r in res.rows:
        assert r.error is None
        assert r.f_h < 0 and r.f_0 < 0
        assert np.isfinite(r.rel_gap)
    assert res.corrector_monotone


def test_harness_zero_force():
    phases = {1: isotropic_hooke(1.0, 1.0)}
    grid = VoxelGrid(4, 4, 2, np.ones(32, dtype=np.int32), "plate")
    q0 = plane_stress_form(phases[1])
    res = theorem1_harness(grid, phases, [0.5, 0.25], (0, 0, 0.0), ("left",),
                           q0)
    for r in res.rows:
        assert r.f_h == 0.0
        assert r.f_0 == 0.0
        assert r.corrector_norm == 0.0


def test_harness_validates_h_list():
    phases = {1: isotropic_hooke(1.0, 1.0)}
    grid = VoxelGrid(4, 4, 2, np.ones(32, dtype=np.int32), "plate")
    q0 = plane_stress_form(phases[1])
    with pytest.raises(ValueError):
        theorem1_harness(grid, phases, [0.125, 0.25], (0, 0, 1), ("left",), q0)
    with pytest.raises(ValueError):
        theorem1_harness(grid, phases, [0.25, -0.1], (0, 0, 1), ("left",), q0)


def test_harness_x3_laminate_against_layered_oracle():
    # coupled laminate: the 3D energies approach the layered-oracle limit
    # monotonically; the |gap| itself can cross zero when the plate and 3D
    # discretization limits differ by ~1%, so assert the robust statements
    from platehom.cell import kl_limit_form

    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    grid = make_laminate("x3", [0.5, 0.5], (16, 16, 4), domain="plate")
    q0 = kl_limit_form(grid, phases)
    res = theorem1_harness(grid, phases, [0.25, 0.125, 0.0625], (0, 0, 1.0),
                           ("left",), q0, tol=1e-10)
    fh = [r.f_h for r in res.rows]
    assert fh[0] < fh[1] < fh[2]          # monotone toward the limit
    assert res.corrector_monotone
    assert res.rows[-1].rel_gap < 0.10


def test_two_scale_consistency_oscillating_plate():
    # full-pipeline check: a plate tiled with an in-plane-periodic cell at
    # period eps, thickness h = gamma*eps, approaches the plate model built
    # from the homogenized form as eps -> 0. Measured gaps at gamma = 1:
    # 26.4% (eps=1/4) -> 11.9% (eps=1/8) -> 5.9% (eps=1/16); the suite runs
    # the first two points and asserts the near-halving.
    from platehom import cell as cellmod, fem3d, plate2d
    from platehom.microstructure import tile

    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(4.0, 4.0)}
    cell_grid = make_laminate("x1", [0.5, 0.5], (4, 4, 8))
    hf = cellmod.homogenize(cell_grid, phases, 1.0, tol=1e-11)
    gaps = []
    for reps in (4, 8):
        nxy = 4 * reps
        h = 1.0 / reps
        plate_grid = tile([(cell_grid, (0, nxy, 0, nxy))], (nxy, nxy, 8))
        _, _, f_h, _ = fem3d.solve_clamped(plate_grid, phases, h,
                                           (0, 0, 1.0), ("left",), tol=1e-10)
        prob = plate2d.PlateProblem(mx=nxy, my=nxy, forms=hf.a,
                                    forces=np.array([0.0, 0.0, 1.0]),
                                    clamped=("left",))
        f_0 = plate2d.minimize_plate(prob).energy
        gaps.append(abs(f_h - f_0) / abs(f_0))
    assert gaps[1] < 0.7 * gaps[0]
    assert gaps[1] < 0.15


@pytest.fixture(scope="module")
def thin_laminate_harness():
    # the benchmark's thin plate: 32x32x8 x3 laminate, contrast 10, left
    # edge clamped, down to h = 1/32
    from platehom.cell import kl_limit_form

    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    grid = make_laminate("x3", [0.5, 0.5], (32, 32, 8), domain="plate")
    return theorem1_harness(grid, phases, [0.25, 0.0625, 0.03125],
                            (0, 0, 1.0), ("left",), kl_limit_form(grid, phases),
                            tol=1e-11)


def test_two_level_iterations_bounded_as_h_shrinks(thin_laminate_harness):
    # block-Jacobi alone took 422 and 5716 iterations at h = 1/4 and 1/16;
    # measured with the two-level preconditioner: 118, 113, 196
    records = thin_laminate_harness.solver
    assert [r["h"] for r in records] == [0.25, 0.0625, 0.03125]
    assert all(r["preconditioner"] == {"name": "two-level",
                                       "smoother": "block-jacobi",
                                       "coarse_dofs": 5 * 32 * 33}
               for r in records)
    assert [r["iterations"] <= bound
            for r, bound in zip(records, (150, 150, 250))] == [True] * 3
    assert all(r["residual"] <= 1e-11 for r in records)


def test_harness_h_one_32nd_laminate(thin_laminate_harness):
    # F_h rises monotonically to the 3D discrete limit, which sits ~1.9%
    # above the plate2d minimum on this grid (measured gaps 6.1%, 1.3%,
    # 1.7%); the corrector norm falls like h^2 (4.0x from 1/16 to 1/32)
    rows = thin_laminate_harness.rows
    assert all(r.error is None for r in rows)
    fh = [r.f_h for r in rows]
    assert fh[0] < fh[1] < fh[2] < 0.0
    assert rows[-1].rel_gap < 0.03
    ratio = rows[1].corrector_norm / rows[2].corrector_norm
    assert 3.5 < ratio < 4.5
