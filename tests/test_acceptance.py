"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import time

import numpy as np

from platehom.algebra import (isotropic_hooke, laminate_x3_form,
                              plane_stress_form, relaxation_matrix)
from platehom.cell import check_bounds, evaluate, homogenize, voigt_form
from platehom.convergence import (griso_decompose, korn_ratio,
                                  theorem1_harness)
from platehom.gclosure import (Patch, PatchworkSpec, patchwork_construct,
                               windowed_recovery)
from platehom.microstructure import (VoxelGrid, adjust_volume_fraction,
                                     make_laminate)
from platehom.plate2d import PlateProblem, perturbation_stability

H11 = isotropic_hooke(1.0, 1.0)
H1010 = isotropic_hooke(10.0, 10.0)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def uniform_cell(nx, ny, nz):
    return VoxelGrid(nx, ny, nz, np.ones(nx * ny * nz, dtype=np.int32), "cell")


def test_criterion_1_homogeneous_plate_decoupling():
    t0 = time.perf_counter()
    r_oracle = relaxation_matrix(H11)
    spot_ok = True
    mem_err = coup = 0.0
    bend_errs = {}
    for gamma in (0.2, 1.0, 5.0):
        hf8 = homogenize(uniform_cell(8, 8, 8), {1: H11}, gamma, tol=1e-11)
        mem_err = max(mem_err, np.max(np.abs(hf8.a[:3, :3] - r_oracle))
                      / np.max(np.abs(r_oracle)))
        coup = max(coup, np.max(np.abs(hf8.a[:3, 3:])))
        spot = evaluate(hf8, np.eye(2), np.zeros((2, 2)))
        spot_ok &= abs(spot - 10.0 / 3.0) < 1e-6 * (10.0 / 3.0)
        e8 = (np.max(np.abs(hf8.a[3:, 3:] - r_oracle / 12.0))
              / np.max(np.abs(r_oracle / 12.0)))
        hf16 = homogenize(uniform_cell(8, 8, 16), {1: H11}, gamma, tol=1e-11)
        e16 = (np.max(np.abs(hf16.a[3:, 3:] - r_oracle / 12.0))
               / np.max(np.abs(r_oracle / 12.0)))
        bend_errs[gamma] = (e8, e16)
    elapsed = time.perf_counter() - t0
    rates = {g: np.log2(e8 / e16) for g, (e8, e16) in bend_errs.items()}
    worst_e8 = max(e8 for e8, _ in bend_errs.values())
    ok = (mem_err < 1e-6 and spot_ok and coup <= 1e-8 and worst_e8 < 0.02
          and all(r >= 1.8 for r in rates.values()) and elapsed < 30.0)
    report(1, ok, f"membrane err {mem_err:.2e}, coupling {coup:.2e}, "
                  f"bending err {worst_e8:.3%}, rates "
                  f"{[f'{r:.2f}' for r in rates.values()]}, {elapsed:.1f}s")


def test_criterion_2_x3_laminate_oracle():
    t0 = time.perf_counter()
    phases = {1: H11, 2: H1010}
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 32))
    oracle = laminate_x3_form([(H11, -0.5, 0.0), (H1010, 0.0, 0.5)])
    a05 = homogenize(grid, phases, 0.5, tol=1e-11).a
    a20 = homogenize(grid, phases, 2.0, tol=1e-11).a
    full_rel = np.max(np.abs(a05 - oracle.a)) / np.max(np.abs(oracle.a))
    mem_abs = np.max(np.abs(a05[:3, :3] - oracle.a[:3, :3]))
    gamma_rel = np.max(np.abs(a05 - a20)) / np.max(np.abs(a20))
    elapsed = time.perf_counter() - t0
    ok = (full_rel < 0.02 and mem_abs < 1e-8 and gamma_rel < 1e-9
          and elapsed < 60.0)
    report(2, ok, f"full-form err {full_rel:.2e}, membrane {mem_abs:.2e}, "
                  f"gamma dependence {gamma_rel:.2e}, {elapsed:.1f}s")


def test_criterion_3_universal_bounds():
    t0 = time.perf_counter()
    phases = {1: H11, 2: H1010}
    alpha = min(H11.alpha, H1010.alpha)
    beta = max(H11.beta, H1010.beta)
    rng = np.random.default_rng(2024)
    all_ok = True
    worst_floor = np.inf
    worst_voigt = np.inf
    for _ in range(20):
        data = rng.integers(1, 3, size=512).astype(np.int32)
        grid = VoxelGrid(8, 8, 8, data, "cell")
        hf = homogenize(grid, phases, 1.0, tol=1e-10)
        rep = check_bounds(hf, alpha, beta, voigt=voigt_form(grid, phases))
        all_ok &= rep.passed
        worst_floor = min(worst_floor, rep.eig_min - alpha / 12.0)
        worst_voigt = min(worst_voigt, rep.voigt_margin)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 300.0
    report(3, ok, f"20 mixtures, min floor margin {worst_floor:.2e}, "
                  f"min voigt margin {worst_voigt:.2e}, {elapsed:.1f}s")


def test_criterion_4_quadratic_form_identities():
    hf = homogenize(uniform_cell(4, 4, 4), {1: H11}, 1.0, tol=1e-11)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((4, 2, 2))
        m1, m2, n1, n2 = [0.5 * (x + x.T) for x in g]
        t = rng.uniform(0.1, 3.0)
        qa = evaluate(hf, t * m1, t * m2)
        qb = t * t * evaluate(hf, m1, m2)
        worst = max(worst, abs(qa - qb) / max(abs(qb), 1e-300))
        lhs = evaluate(hf, m1 + n1, m2 + n2) + evaluate(hf, m1 - n1, m2 - n2)
        rhs = 2 * (evaluate(hf, m1, m2) + evaluate(hf, n1, n2))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    ok = worst < 1e-12
    report(4, ok, f"homogeneity+parallelogram worst rel defect {worst:.2e}")


def test_criterion_5_theorem1_energy_convergence():
    grid = VoxelGrid(32, 32, 8, np.ones(32 * 32 * 8, dtype=np.int32), "plate")
    q0 = plane_stress_form(H11)
    res = theorem1_harness(grid, {1: H11}, [0.25, 0.125, 0.0625],
                           (0.0, 0.0, 1.0), ("left",), q0, tol=1e-11)
    gaps = [r.rel_gap for r in res.rows]
    iterations = [s["iterations"] for s in res.solver]
    ok = (res.gap_monotone and res.corrector_monotone and gaps[-1] < 0.10
          and len(iterations) == 3 and max(iterations) <= 150)
    report(5, ok, f"gaps {[f'{g:.3f}' for g in gaps]}, corrector "
                  f"{[f'{r.corrector_norm:.1e}' for r in res.rows]}, "
                  f"CG iterations {iterations}")


def test_criterion_6_griso_suite():
    rng = np.random.default_rng(7)
    z = np.linspace(-0.5, 0.5, 17)

    field = rng.standard_normal((17, 17, 17, 3))
    parts = griso_decompose(field)
    rec_err = np.max(np.abs(parts.elementary(z) + parts.bar - field))

    hat = rng.standard_normal((17, 17, 3))
    r = rng.standard_normal((17, 17, 2))
    lin = np.zeros((17, 17, 17, 3))
    lin[:] = hat[:, :, None, :]
    lin[..., 0] += z[None, None, :] * r[:, :, None, 1]
    lin[..., 1] -= z[None, None, :] * r[:, :, None, 0]
    proj_err = np.max(np.abs(griso_decompose(lin).bar))

    ratio = korn_ratio(field, 0.1)
    scale_def = abs(korn_ratio(2.5 * field, 0.1) - ratio) / ratio

    def smooth(n):
        x = np.linspace(0, 1, n + 1)
        zz = np.linspace(-0.5, 0.5, n + 1)
        xx, yy, z3 = np.meshgrid(x, x, zz, indexing="ij")
        return np.stack([
            np.sin(np.pi * xx) * np.cos(np.pi * yy) * z3,
            np.cos(np.pi * xx) * yy ** 2,
            np.sin(np.pi * yy) + z3 ** 2 * xx,
        ], axis=-1)

    r16 = korn_ratio(smooth(16), 0.1)
    r32 = korn_ratio(smooth(32), 0.1)
    stability = abs(r16 - r32) / r32

    ok = (rec_err < 1e-13 and proj_err < 1e-12 and np.isfinite(ratio)
          and scale_def < 1e-12 and stability < 0.20)
    report(6, ok, f"reconstruction {rec_err:.1e}, projection {proj_err:.1e}, "
                  f"korn {r16:.3f}->{r32:.3f} (drift {stability:.1%}), "
                  f"scale defect {scale_def:.1e}")


def test_criterion_7_volume_fraction_adjustment():
    rng = np.random.default_rng(11)
    all_ok = True
    for trial in range(25):
        total = int(rng.integers(90, 130))
        data = rng.integers(1, 3, size=total).astype(np.int32)
        grid = VoxelGrid(total, 1, 1, data)
        for target in ([0.5, 0.5], [1 / 3, 2 / 3]):
            out = adjust_volume_fraction(grid, target)
            have = np.array([np.count_nonzero(out.data == p) for p in (1, 2)])
            # integer-rounded targets: sum preserved, each count within 1/2
            # of theta*total (ties broken by the largest-remainder rule)
            counts_ok = (have.sum() == total
                         and np.all(np.abs(have - np.asarray(target) * total)
                                    <= 0.5 + 1e-9))
            # brute-force recount: flips must equal the minimal rebalancing
            flips = int(np.count_nonzero(out.data != grid.data))
            before = np.array([np.count_nonzero(grid.data == p) for p in (1, 2)])
            minimal = int(np.maximum(before - have, 0).sum())
            all_ok &= counts_ok and flips == minimal
    report(7, all_ok, "25 random grids x 2 targets: exact integer counts, "
                      "flip count == minimal rebalancing count")


def test_criterion_8_patchwork_local_recovery():
    t0 = time.perf_counter()
    phases = {1: H11, 2: H1010}
    cell_a = make_laminate("x1", [0.5, 0.5], (8, 8, 8))   # 0 degrees
    cell_b = make_laminate("x2", [0.5, 0.5], (8, 8, 8))   # 90 degrees
    spec = PatchworkSpec(
        resolution=(48, 24, 8), gamma=1.0,
        patches=(Patch(cell=cell_a, rect=(0, 24, 0, 24), label="0deg"),
                 Patch(cell=cell_b, rect=(24, 48, 0, 24), label="90deg")),
    )
    grid = patchwork_construct(spec)
    reports = windowed_recovery(grid, spec, phases, tol=1e-10)
    elapsed = time.perf_counter() - t0
    gaps = [r.form_gap for r in reports]
    theta_ok = all(r.theta_exact for r in reports)
    ok = all(g <= 0.05 for g in gaps) and theta_ok and elapsed < 120.0
    report(8, ok, f"patch gaps {[f'{g:.2e}' for g in gaps]}, "
                  f"theta exact: {theta_ok}, {elapsed:.1f}s")


def test_criterion_9_minimizer_stability():
    q0 = plane_stress_form(H11)
    prob = PlateProblem(mx=32, my=32, forms=q0.a,
                        forces=np.array([0.0, 0.0, 1.0]), clamped=("left",))
    rep = perturbation_stability(prob, etas=(1e-3, 1e-4))
    ratio = rep.gap_ratio
    ok = ratio is not None and 5.0 <= ratio <= 20.0
    report(9, ok, f"energy-gap ratio {ratio:.2f} (linear target 10, "
                  f"factor-2 band), gaps {rep.energy_gaps}")
