"""Tests of the benchmark's oracle, trace and declared metrics.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import common
import inputs
import oracle
import run
import spans
import workloads

ph = common.import_program()
PHASES = [(1.0, 1.0), (10.0, 10.0)]


def hooke(lam, mu):
    return ph.algebra.isotropic_hooke(lam, mu)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (10.0, 10.0), (3.0, 0.5)])
def test_plane_stress_matches_schur_complement(lam, mu):
    assert_allclose(oracle.plane_stress(lam, mu),
                    ph.algebra.relaxation_matrix(hooke(lam, mu)), rtol=1e-14)
    alpha, beta = oracle.hooke_bounds(lam, mu)
    assert_allclose([alpha, beta], [hooke(lam, mu).alpha, hooke(lam, mu).beta],
                    rtol=1e-14)


def test_laminate_form_matches_program():
    layers = [(1.0, 1.0, -0.5, -0.125), (10.0, 10.0, -0.125, 0.25),
              (1.0, 1.0, 0.25, 0.5)]
    got = oracle.laminate_x3_form(layers)
    want = ph.algebra.laminate_x3_form(
        [(hooke(lam, mu), z0, z1) for lam, mu, z0, z1 in layers]).a
    assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_homogeneous_laminate_is_plane_stress_form():
    got = oracle.laminate_x3_form([(2.0, 3.0, -0.5, 0.5)])
    assert_allclose(got, ph.algebra.plane_stress_form(hooke(2.0, 3.0)).a,
                    rtol=1e-14, atol=1e-16)


def test_voigt_form_matches_zero_corrector_energy():
    data = np.random.default_rng(5).integers(1, 3, size=4 * 3 * 5)
    grid = ph.microstructure.VoxelGrid(nx=4, ny=3, nz=5, data=data)
    arr = grid.as_3d()
    counts = np.stack([(arr == p).sum(axis=(0, 1)) for p in (1, 2)], axis=1)
    want = ph.cell.voigt_form(grid, {1: hooke(*PHASES[0]), 2: hooke(*PHASES[1])})
    assert_allclose(oracle.voigt_form(counts, PHASES), want.a,
                    rtol=1e-13, atol=1e-15)


def plate_energy(m, clamped, a, f):
    problem = ph.plate2d.PlateProblem(mx=m, my=m, forms=a,
                                      forces=np.array([0.0, 0.0, f]),
                                      clamped=clamped)
    return ph.plate2d.minimize_plate(problem).energy


def test_cantilever_energy_is_second_order_limit():
    a, f = inputs.ortho_form(2.0), 0.5
    want = oracle.cantilever_energy(a, f)
    gaps = [abs(plate_energy(m, ("left",), a, f) - want) / abs(want) * m * m
            for m in (8, 16)]
    assert all(g < workloads.BEAM_TOL_M2 for g in gaps)


def test_clamped_strip_energy_on_odd_grids():
    # odd cell counts have no zero-energy mode, so the energy converges to
    # the beam value at second order there; even counts are the known fault
    a = inputs.ortho_form(1.0)
    want = oracle.clamped_strip_energy(a, 1.0)
    for m in (9, 15):
        got = plate_energy(m, ("left", "right"), a, 1.0)
        assert abs(got - want) / abs(want) * m * m < workloads.STRIP_TOL_M2


def test_beam_oracles_reject_coupled_forms():
    a = inputs.ortho_form(1.0)
    a[3, 4] = a[4, 3] = 0.01
    with pytest.raises(ValueError):
        oracle.cantilever_energy(a, 1.0)


def test_mirror_swaps_x1_and_x2_laminates():
    phases = {1: hooke(*PHASES[0]), 2: hooke(*PHASES[1])}
    forms = [ph.cell.homogenize(
        ph.microstructure.make_laminate(axis, [0.5, 0.5], (4, 4, 4)),
        phases, 1.0).a for axis in ("x1", "x2")]
    p = oracle.MIRROR
    assert_allclose(p @ p, np.eye(6))
    assert_allclose(forms[1], p @ forms[0] @ p, rtol=1e-12, atol=1e-14)


def test_tracer_splits_2d_from_3d_solves_and_accounts_for_time():
    modules = [getattr(ph, m) for m in run.TRACED_MODULES]
    tracer = spans.Tracer()
    tracer.install(modules, "platehom")
    try:
        tracer.run("bench.op", plate_energy, 8, ("left",),
                   inputs.ortho_form(1.0), 1.0)
    finally:
        tracer.uninstall()
    assert ph.plate2d.pcg is ph.fem3d.pcg        # originals restored
    names = {s.name for s in tracer.spans}
    assert "plate2d.pcg" in names and "fem3d.pcg" not in names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["plate2d.pcg_iterations"][0] > 0
    # the pooled solve and assembly metrics every workload reports
    assert metrics["solve.pcg_iterations"] == metrics["plate2d.pcg_iterations"]
    assert metrics["solve.pcg_s"] == metrics["plate2d.pcg_s"]
    assert metrics["assemble.total_s"] == metrics["plate2d.assemble_s"]
    assert metrics["assemble.calls"][0] == 1
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(tracer.spans[0].seconds, rel=1e-9)


def test_declared_workloads_match_benchmark_json():
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == inputs.WORKLOADS
