"""Homogenization driver: oracles, bounds, symmetries, gamma sweeps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_fem3d import block_fill_stiffness

from platehom import cell
from platehom.algebra import (PlateForm, isotropic_hooke, plane_stress_form,
                              rotation90_pair, soft_hooke)
from platehom.cell import (check_bounds, evaluate, gamma_sweep, homogenize,
                           kl_limit_form, voigt_form)
from platehom.microstructure import (VoxelGrid, make_checkerboard,
                                     make_laminate, refine)

H11 = isotropic_hooke(1.0, 1.0)
H1010 = isotropic_hooke(10.0, 10.0)


def uniform_cell(n=8, nz=None):
    nz = nz or n
    return VoxelGrid(n, n, nz, np.ones(n * n * nz, dtype=np.int32), "cell")


@pytest.fixture(scope="module")
def single_phase_form():
    return homogenize(uniform_cell(8), {1: H11}, gamma=1.0)


def test_single_phase_membrane_block(single_phase_form):
    # membrane correctors are exactly representable: block equals the
    # plane-stress oracle to solver precision
    oracle = plane_stress_form(H11).a[:3, :3]
    assert np.max(np.abs(single_phase_form.a[:3, :3] - oracle)) < 1e-8
    m1 = np.eye(2)
    assert_allclose(evaluate(single_phase_form, m1, np.zeros((2, 2))),
                    10.0 / 3.0, rtol=1e-6)


def test_single_phase_coupling_negligible(single_phase_form):
    assert np.max(np.abs(single_phase_form.a[:3, 3:])) < 1e-8


def test_single_phase_bending_block_converges():
    oracle = plane_stress_form(H11).a[:3, :3] / 12.0
    errs = []
    for nz in (8, 16):
        hf = homogenize(uniform_cell(4, nz), {1: H11}, gamma=1.0, tol=1e-11)
        errs.append(np.max(np.abs(hf.a[3:, 3:] - oracle)) / np.max(np.abs(oracle)))
    assert errs[0] < 0.02
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.8


def test_evaluate_zero_and_homogeneity(single_phase_form):
    rng = np.random.default_rng(3)
    z2 = np.zeros((2, 2))
    assert evaluate(single_phase_form, z2, z2) == 0.0
    for _ in range(50):
        g1, g2 = rng.standard_normal((2, 2, 2))
        m1, m2 = 0.5 * (g1 + g1.T), 0.5 * (g2 + g2.T)
        t = rng.uniform(-3, 3)
        assert_allclose(evaluate(single_phase_form, t * m1, t * m2),
                        t * t * evaluate(single_phase_form, m1, m2),
                        rtol=1e-12)


def test_evaluate_parallelogram_equality(single_phase_form):
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.standard_normal((4, 2, 2))
        m1, m2, n1, n2 = [0.5 * (x + x.T) for x in g]
        lhs = (evaluate(single_phase_form, m1 + n1, m2 + n2)
               + evaluate(single_phase_form, m1 - n1, m2 - n2))
        rhs = 2 * (evaluate(single_phase_form, m1, m2)
                   + evaluate(single_phase_form, n1, n2))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_x3_laminate_matches_1d_oracle():
    phases = {1: H11, 2: H1010}
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 32))
    oracle = kl_limit_form(grid, phases)
    hf = homogenize(grid, phases, gamma=1.0, tol=1e-11)
    assert np.max(np.abs(hf.a[:3, :3] - oracle.a[:3, :3])) < 1e-8
    rel = np.max(np.abs(hf.a - oracle.a)) / np.max(np.abs(oracle.a))
    assert rel < 0.02


def test_x3_laminate_gamma_independent():
    phases = {1: H11, 2: H1010}
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 16))
    a = homogenize(grid, phases, 0.5, tol=1e-11).a
    b = homogenize(grid, phases, 2.0, tol=1e-11).a
    assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))


def test_homogenize_validates_inputs():
    with pytest.raises(ValueError):
        homogenize(uniform_cell(2), {1: H11}, gamma=0.0)
    plate = VoxelGrid(2, 2, 2, np.ones(8, dtype=np.int32), "plate")
    with pytest.raises(ValueError):
        homogenize(plate, {1: H11}, gamma=1.0)
    with pytest.raises(ValueError):
        homogenize(uniform_cell(2), {7: H11}, gamma=1.0)


@pytest.mark.parametrize("shape, gamma, tensors, what", [
    ((4, 4, 2), 1.0, [H11, H1010], "lattice shape"),
    ((4, 4, 4), 2.0, [H11, H1010], "gamma"),
    ((4, 4, 4), 1.0, [H11, isotropic_hooke(10.0, 9.0)], "phase tensors"),
    ((4, 4, 4), 1.0, [H11], "phase tensors"),
])
def test_homogenize_rejects_a_foreign_preconditioner(shape, gamma, tensors,
                                                     what):
    # each case differs from the cell's operator in one thing only, so each
    # comparison of the guard is the only one that can reject it; the last
    # tensor case is a prefix of the cell's phases
    from platehom import fem3d

    grid = make_checkerboard(2, (4, 4, 4))
    precond = fem3d.ReferencePreconditioner(shape, gamma, tensors)
    with pytest.raises(ValueError, match=what):
        homogenize(grid, {1: H11, 2: H1010}, 1.0, precond=precond)


def test_homogenize_with_its_own_preconditioner_is_bitwise():
    from platehom import fem3d

    grid = make_checkerboard(2, (4, 4, 4))
    phases = {1: H11, 2: isotropic_hooke(10.0, 10.0)}
    precond = fem3d.ReferencePreconditioner((4, 4, 4), 0.5, [H11, H1010])
    shared = homogenize(grid, phases, 0.5, precond=precond)
    own = homogenize(grid, phases, 0.5)
    assert np.array_equal(shared.a, own.a)
    assert shared.solve.record() == own.solve.record()


def test_form_symmetry_defect(single_phase_form):
    a = single_phase_form.a
    assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))


def test_voigt_upper_bound_checkerboard():
    phases = {1: H11, 2: H1010}
    grid = make_checkerboard(2, (4, 4, 4))
    hf = homogenize(grid, phases, gamma=1.0)
    voigt = voigt_form(grid, phases)
    diff = np.linalg.eigvalsh(voigt.a - hf.a)
    assert diff[0] >= -1e-9


def test_voigt_form_is_volume_average():
    phases = {1: H11, 2: H1010}
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 8))
    voigt = voigt_form(grid, phases)
    # membrane block: plain average of the embedded in-plane blocks
    from platehom.algebra import _EMBED
    avg = 0.5 * (_EMBED.T @ H11.c @ _EMBED + _EMBED.T @ H1010.c @ _EMBED) / 2.0
    assert_allclose(voigt.a[:3, :3], avg, rtol=1e-12)


def test_check_bounds_single_phase(single_phase_form):
    rep = check_bounds(single_phase_form, alpha=1.0, beta=2.5)
    assert rep.passed
    # bending eigenvalue sits exactly on the alpha/12 floor
    assert rep.eig_min >= 1.0 / 12.0 - 1e-9
    assert rep.eig_min < 1.0 / 12.0 + 0.01
    assert rep.eig_max <= 2.5 + 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_check_bounds_slack_is_relative(scale):
    # the checks allow 1e-12 of beta and of max|Voigt|: a form pushed
    # 1e-6 max|A| past the Voigt ceiling fails at either scale, and the
    # Voigt ceiling itself passes
    phases = {1: isotropic_hooke(scale, scale),
              2: isotropic_hooke(10 * scale, 10 * scale)}
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 4))
    hf = homogenize(grid, phases, 1.0)
    voigt = voigt_form(grid, phases)
    alpha, beta = phases[1].alpha, phases[2].beta
    assert check_bounds(hf, alpha, beta, voigt=voigt).passed
    assert check_bounds(voigt, alpha, beta, voigt=voigt).voigt_ok
    e = np.ones(6) / np.sqrt(6.0)
    pushed = PlateForm(voigt.a + 1e-6 * np.abs(hf.a).max() * np.outer(e, e))
    rep = check_bounds(pushed, alpha, beta, voigt=voigt)
    assert not rep.voigt_ok and not rep.passed
    assert rep.voigt_margin < -5e-7 * np.abs(hf.a).max()


def test_check_bounds_soft_phase_skips_coercivity():
    phases = {1: H11, 2: soft_hooke(1e-6 * H11.beta)}
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 4))
    hf = homogenize(grid, phases, 1.0, allow_soft=True)
    with pytest.warns(UserWarning, match="soft"):
        rep = check_bounds(hf, alpha=0.0, beta=H11.beta)
    assert rep.coercivity_checked is False
    assert rep.passed


def test_gamma_sweep_single_phase_flat():
    grid = uniform_cell(4)
    result = gamma_sweep(grid, {1: H11}, [0.25, 1.0, 4.0], tol=1e-11)
    a0 = result.forms[0].a
    for hf in result.forms[1:]:
        assert np.max(np.abs(hf.a - a0)) < 1e-6
    assert result.gamma0_estimate is not None
    assert np.max(np.abs(result.gamma0_estimate - a0)) < 1e-5


def test_gamma_sweep_inplane_laminate_varies_and_bounded():
    phases = {1: H11, 2: H1010}
    grid = make_laminate("x1", [0.5, 0.5], (8, 2, 8))
    gammas = [0.25, 1.0, 4.0]
    result = gamma_sweep(grid, phases, gammas, tol=1e-10)
    voigt = voigt_form(grid, phases)
    a_small = result.forms[0].a
    a_big = result.forms[-1].a
    assert np.max(np.abs(a_small - a_big)) > 1e-3  # gamma matters in-plane
    for hf in result.forms:
        assert np.linalg.eigvalsh(voigt.a - hf.a)[0] >= -1e-9


def test_gamma_sweep_validates():
    grid = uniform_cell(2)
    with pytest.raises(ValueError):
        gamma_sweep(grid, {1: H11}, [1.0, 0.5])
    with pytest.raises(ValueError):
        gamma_sweep(grid, {1: H11}, [-1.0, 0.5])


def test_refinement_monotone_as_quadratic_forms():
    phases = {1: H11, 2: H1010}
    coarse_grid = make_checkerboard(2, (4, 4, 4))
    fine_grid = refine(coarse_grid, 2)
    a_c = homogenize(coarse_grid, phases, 1.0, tol=1e-11).a
    a_f = homogenize(fine_grid, phases, 1.0, tol=1e-11).a
    assert np.linalg.eigvalsh(a_c - a_f)[0] >= -1e-9


def test_isotropy_inheritance_90_degree(single_phase_form):
    r = rotation90_pair()
    a = single_phase_form.a
    assert np.max(np.abs(r @ a @ r.T - a)) < 1e-8


def test_mirror_symmetric_grid_decouples():
    # symmetric in x3 -> membrane/bending coupling below discretization noise
    phases = {1: H11, 2: H1010}
    data3 = np.ones((2, 2, 8), dtype=np.int32)
    data3[:, :, 2:6] = 2  # stiff core, symmetric about the midplane
    grid = VoxelGrid(2, 2, 8, np.ascontiguousarray(
        data3.transpose(2, 1, 0)).ravel(), "cell")
    hf = homogenize(grid, phases, 1.0, tol=1e-11)
    assert np.max(np.abs(hf.a[:3, 3:])) < 1e-6


def test_form_file_roundtrip(tmp_path, single_phase_form):
    path = tmp_path / "form.json"
    cell.dump_form(single_phase_form, path)
    back = cell.load_form(path)
    assert_allclose(back.a, single_phase_form.a)
    doc = path.read_text()
    assert "mandel-pair-v1" in doc
    assert "absorbed" in doc  # convention note embedded


def test_sweep_csv_has_extrapolated_rows(tmp_path):
    grid = uniform_cell(2)
    result = gamma_sweep(grid, {1: H11}, [0.5, 1.0, 2.0], tol=1e-10)
    path = tmp_path / "sweep.csv"
    cell.dump_sweep_csv(result, path)
    text = path.read_text().splitlines()
    assert text[0] == "# basis: mandel-pair-v1"
    assert text[1].startswith("gamma,")
    assert len(text[1].split(",")) == 24
    assert any(row.startswith("gamma->0 est.") for row in text)
    assert any(row.startswith("gamma->inf est.") for row in text)


def test_corrector_mean_free_per_component():
    # discrete normalization: periodic identification + zero nodal mean
    from platehom import fem3d

    phases = {1: H11, 2: H1010}
    grid = make_checkerboard(2, (4, 4, 4))
    op = fem3d.assemble(grid, phases, scale=1.0)
    gmat, _ = fem3d.corrector_loads(op)
    precond = fem3d.ReferencePreconditioner(grid.shape, 1.0, op.tensors)
    for a in (0, 3, 5):
        u, info = fem3d.pcg(op.k, -gmat[:, a], precond, tol=1e-11)
        for c in range(3):
            assert abs(u[c::3].mean()) < 1e-12


def test_anisotropic_mandel6_phase_homogenizes():
    rng = np.random.default_rng(21)
    from platehom.algebra import HookeTensor3

    c = rng.standard_normal((6, 6))
    aniso = HookeTensor3.from_mandel(c @ c.T + 4.0 * np.eye(6))
    phases = {1: H11, 2: aniso}
    grid = make_checkerboard(2, (4, 4, 4))
    hf = homogenize(grid, phases, 1.0, tol=1e-10)
    alpha = min(H11.alpha, aniso.alpha)
    beta = max(H11.beta, aniso.beta)
    rep = check_bounds(hf, alpha, beta, voigt=voigt_form(grid, phases))
    assert rep.passed


def test_homogenize_matches_dense_pseudoinverse():
    # independent route through the singular system: dense pinv of the
    # test-side K handles the translation kernel that the iterative path
    # handles by projection
    from platehom import fem3d

    phases = {1: H11, 2: H1010}
    grid = make_checkerboard(1, (2, 2, 2))
    hf = homogenize(grid, phases, 0.7, tol=1e-13)
    op = fem3d.assemble(grid, phases, scale=0.7, mode="cell")
    gmat, e0 = fem3d.corrector_loads(op)
    kd = block_fill_stiffness(op).toarray()
    u = -np.linalg.pinv(kd) @ gmat
    a_dense = 0.5 * (e0 + gmat.T @ u + u.T @ gmat + u.T @ kd @ u)
    assert np.max(np.abs(hf.a - a_dense)) < 1e-12 * np.max(np.abs(a_dense))


def _pinned_lu_form(grid, phases, gamma):
    # independent route: sparse LU of the test-side K with node 0 pinned in
    # place of the projection; the loads are orthogonal to the translations,
    # so the pinning leaves the form unchanged
    import scipy.sparse.linalg as spla

    from platehom import fem3d

    op = fem3d.assemble(grid, phases, scale=gamma, mode="cell")
    gmat, e0 = fem3d.corrector_loads(op)
    k = block_fill_stiffness(op)
    keep = np.arange(3, op.ndof)
    u = np.zeros((op.ndof, 6))
    # K is symmetric: a minimum-degree ordering of K + K^T fills about a
    # third less than the default column ordering, half the time at 16^3
    lu = spla.splu(k[keep][:, keep].tocsc(), permc_spec="MMD_AT_PLUS_A")
    u[keep] = lu.solve(-gmat[keep])
    a = 0.5 * (e0 + gmat.T @ u + u.T @ gmat + u.T @ (k @ u))
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_forms_match_pinned_lu_checkerboard(gamma):
    phases = {1: H11, 2: H1010}
    grid = make_checkerboard(2, (8, 8, 8))
    ref = _pinned_lu_form(grid, phases, gamma)
    a = homogenize(grid, phases, gamma).a
    assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()


def test_forms_match_pinned_lu_anisotropic_phase():
    from platehom.algebra import HookeTensor3

    rng = np.random.default_rng(21)
    c = rng.standard_normal((6, 6))
    aniso = HookeTensor3.from_mandel(c @ c.T + 4.0 * np.eye(6))
    phases = {1: H11, 2: aniso}
    grid = make_checkerboard(2, (4, 4, 4))
    hf = homogenize(grid, phases, 1.0)
    assert set(hf.solve.preconditioner) == {"name", "c0_digest"}
    ref = _pinned_lu_form(grid, phases, 1.0)
    assert np.abs(hf.a - ref).max() <= 1e-12 * np.abs(ref).max()


def test_reference_preconditioner_iterations_gamma_independent():
    # seeded 16^3 random two-phase cell, contrast 10: the Fourier reference
    # medium keeps every corrector at <= 23 iterations for every gamma
    # (measured 21-23; 33-37 to a 1e-10 residual, and Jacobi CG took
    # 157-1800 per corrector on such a cell)
    rng = np.random.default_rng(5)
    grid = VoxelGrid(16, 16, 16, rng.integers(1, 3, 16 ** 3).astype(np.int32),
                     "cell")
    for gamma in (0.1, 1.0, 10.0):
        hf = homogenize(grid, {1: H11, 2: H1010}, gamma)
        its = hf.solve.column_iterations
        assert len(its) == 6
        assert max(its) <= 23, (gamma, its)
        # every column met the residual rule or the certified bound
        assert all(r <= 1e-10 or e <= 1e-13 for r, e in
                   zip(hf.solve.column_residuals, hf.solve.column_bounds))
        ref = _pinned_lu_form(grid, {1: H11, 2: H1010}, gamma)
        assert np.abs(hf.a - ref).max() <= 1e-13 * np.abs(ref).max()


def _random_cell(n=8, seed=7):
    rng = np.random.default_rng(seed)
    return VoxelGrid(n, n, n, rng.integers(1, 3, n ** 3).astype(np.int32),
                     "cell")


def _corrector_solve(grid, phases, gamma, tol=1e-10, bound=True):
    # homogenize's corrector solve, returning the correctors too; with
    # bound=False, the residual rule alone
    from platehom import fem3d

    op = fem3d.assemble(grid, phases, scale=gamma, mode="cell",
                        allow_soft=True)
    gmat, e0 = fem3d.corrector_loads(op)
    precond = fem3d.ReferencePreconditioner(grid.shape, gamma, op.tensors)
    u, info = fem3d.pcg(op.k, op.project(-gmat), precond=precond, tol=tol,
                        bound=(precond.m, np.diag(e0)) if bound else None)
    u = op.project(u)
    return op, gmat, e0, u, info


@pytest.mark.parametrize("gamma", [0.1, 10.0])
@pytest.mark.parametrize("phase2", [H1010, isotropic_hooke(1e3, 1e3),
                                    soft_hooke(1e-3)],
                         ids=["c10", "c1000", "soft1e-3"])
def test_certified_bound_holds_and_form_meets_it(phase2, gamma):
    # the recorded bound times e0_ii - E_i, which is 2 A_ii of the computed
    # correctors, bounds their true squared energy error (against a
    # tol-1e-13 solve); the form is within tau = 1e-13 of max|A| of the
    # pinned direct solve
    grid, phases = _random_cell(), {1: H11, 2: phase2}
    hf = homogenize(grid, phases, gamma)
    op, gmat, e0, u, info = _corrector_solve(grid, phases, gamma)
    a = 0.5 * (e0 + gmat.T @ u + u.T @ gmat + u.T @ (op.k @ u))
    assert np.array_equal(0.5 * (a + a.T), hf.a)       # homogenize's solve
    assert info.column_bounds == hf.solve.column_bounds
    assert info.lower_bound > 0.0
    _, _, _, u_ref, _ = _corrector_solve(grid, phases, gamma, tol=1e-13,
                                         bound=False)
    e = u - u_ref
    err2 = np.vecdot(e, op.k @ e, axis=0)
    assert np.all(err2 <= np.array(info.column_bounds) * 2.0 * np.diag(a))
    ref = _pinned_lu_form(grid, phases, gamma)
    assert np.abs(hf.a - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("token", ["laminate:x1", "laminate:x2", "laminate:30",
                                   "laminate:45", "laminate:60",
                                   "checkerboard:2", "checkerboard:4"])
def test_bound_never_adds_iterations(token):
    # the 8^3 cells of a gclosure-sample at theta = (1/2, 1/2): the bound
    # is a second stop rule, so no column iterates longer than it does on
    # the residual rule alone
    from platehom.gclosure import GeneratorSpec, build_generator
    from platehom.microstructure import adjust_volume_fraction

    grid = build_generator(GeneratorSpec.parse(token), (0.5, 0.5), (8, 8, 8))
    grid = adjust_volume_fraction(grid, (0.5, 0.5), phase_ids=[1, 2])
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        both = _corrector_solve(grid, {1: H11, 2: H1010}, gamma)[-1]
        residual = _corrector_solve(grid, {1: H11, 2: H1010}, gamma,
                                    bound=False)[-1]
        assert all(i <= j for i, j in zip(both.column_iterations,
                                          residual.column_iterations))
        assert both.iterations < residual.iterations, (token, gamma)


def test_bound_is_off_without_a_stiffness_floor():
    # a phase with no stiffness gives m = 0: the residual rule alone, and
    # the record keeps m but no bounds
    grid, phases = _random_cell(4), {1: H11, 2: soft_hooke(0.0)}
    hf = homogenize(grid, phases, 1.0, allow_soft=True)
    assert hf.solve.lower_bound == 0.0 and hf.solve.column_bounds is None
    assert max(hf.solve.column_residuals) <= 1e-10
    _, _, _, _, info = _corrector_solve(grid, phases, 1.0, bound=False)
    assert info.column_iterations == hf.solve.column_iterations
    rec = hf.solve.record()
    assert rec["m"] == 0.0 and "energy_bounds" not in rec
