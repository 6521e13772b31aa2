"""Mixture sampling, patchwork construction, and windowed local recovery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from platehom import fem3d
from platehom.algebra import isotropic_hooke, rotation90_pair
from platehom.cell import check_bounds, homogenize
from platehom.gclosure import (GeneratorSpec, Patch, PatchworkSpec,
                               build_generator, dump_samples_csv,
                               load_patchwork_spec, patchwork_construct,
                               sample_ptheta, windowed_recovery)
from platehom.microstructure import adjust_volume_fraction, make_laminate

PHASES = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}


def test_generator_spec_parsing():
    g = GeneratorSpec.parse("laminate:x1")
    assert g.kind == "laminate" and g.axis == "x1"
    g = GeneratorSpec.parse("laminate:45")
    assert g.axis == 45.0
    g = GeneratorSpec.parse("checkerboard:2")
    assert g.period == 2
    with pytest.raises(ValueError):
        GeneratorSpec.parse("gyroid:1")


def test_single_phase_samples_identical():
    phases = {1: PHASES[1]}
    gens = [GeneratorSpec.parse("laminate:x1"),
            GeneratorSpec.parse("checkerboard:2")]
    out = sample_ptheta(phases, [1.0], gens, [0.5, 2.0], resolution=(4, 4, 4))
    mats = [e.form.a for e in out.entries if e.form is not None]
    assert len(mats) == 4
    for m in mats[1:]:
        assert np.max(np.abs(m - mats[0])) < 1e-6


def test_empty_generator_list():
    out = sample_ptheta(PHASES, [0.5, 0.5], [], [1.0])
    assert out.entries == []


def test_rotation_conjugation_0_vs_90():
    gens = [GeneratorSpec.parse("laminate:x1"),
            GeneratorSpec.parse("laminate:x2"),
            GeneratorSpec.parse("laminate:45")]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [1.0],
                        resolution=(8, 8, 8), tol=1e-11)
    by_gen = {e.generator: e.form.a for e in out.entries}
    a0 = by_gen["laminate:x1"]
    a90 = by_gen["laminate:x2"]
    r = rotation90_pair()
    assert np.max(np.abs(r @ a0 @ r.T - a90)) < 1e-6
    # the 45-degree laminate genuinely differs from the axis-aligned ones
    assert np.max(np.abs(by_gen["laminate:45"] - a0)) > 1e-3


def test_samples_satisfy_universal_bounds():
    gens = [GeneratorSpec.parse("laminate:x1"),
            GeneratorSpec.parse("checkerboard:2")]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [0.5, 2.0],
                        resolution=(4, 4, 4))
    alpha = min(p.alpha for p in PHASES.values())
    beta = max(p.beta for p in PHASES.values())
    for e in out.entries:
        assert e.form is not None
        rep = check_bounds(e.form, alpha, beta)
        assert rep.passed
        assert_allclose(e.realized_theta, [0.5, 0.5])


def test_samples_csv(tmp_path):
    gens = [GeneratorSpec.parse("laminate:x3")]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [1.0], resolution=(2, 2, 4))
    path = tmp_path / "samples.csv"
    dump_samples_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# basis: mandel-pair-v1"
    assert lines[1].startswith("generator,gamma,")
    assert len(lines) == 3


@pytest.fixture
def builds(monkeypatch):
    """The (shape, gamma) of every reference preconditioner built."""
    made = []

    class Counting(fem3d.ReferencePreconditioner):
        def __init__(self, shape, gamma, tensors):
            made.append((tuple(shape), gamma))
            super().__init__(shape, gamma, tensors)

    monkeypatch.setattr(fem3d, "ReferencePreconditioner", Counting)
    return made


SHARED_GENS = ("laminate:x1", "laminate:45", "checkerboard:2")


def test_sample_builds_one_preconditioner_per_gamma(builds):
    gens = [GeneratorSpec.parse(t) for t in SHARED_GENS]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [0.5, 2.0],
                        resolution=(4, 4, 4))
    # every cell holds both phases: one (gamma, phase set) pair per gamma
    assert builds == [((4, 4, 4), 0.5), ((4, 4, 4), 2.0)]
    assert [(e.generator, e.gamma) for e in out.entries] == [
        (t, g) for t in SHARED_GENS for g in (0.5, 2.0)]


def test_sample_forms_match_standalone_homogenize():
    gens = [GeneratorSpec.parse(t) for t in SHARED_GENS]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [0.5, 2.0],
                        resolution=(4, 4, 4))
    for e in out.entries:
        spec = GeneratorSpec.parse(e.generator)
        grid = adjust_volume_fraction(
            build_generator(spec, [0.5, 0.5], (4, 4, 4)), [0.5, 0.5],
            phase_ids=[1, 2])
        own = homogenize(grid, PHASES, e.gamma)
        assert np.array_equal(e.form.a, own.a)
        assert e.form.solve.record() == own.solve.record()


def test_sample_repeated_gamma_gives_two_rows(builds):
    gens = [GeneratorSpec.parse(t) for t in SHARED_GENS[:2]]
    out = sample_ptheta(PHASES, [0.5, 0.5], gens, [1.0, 1.0],
                        resolution=(4, 4, 4))
    assert [(e.generator, e.gamma) for e in out.entries] == [
        (t, 1.0) for t in SHARED_GENS[:2] for _ in range(2)]
    for first, second in zip(out.entries[::2], out.entries[1::2]):
        assert np.array_equal(first.form.a, second.form.a)
    assert len(builds) == 2


def test_sample_validates_gamma_and_phases():
    gens = [GeneratorSpec.parse("laminate:x1")]
    with pytest.raises(ValueError, match="gamma must be positive"):
        sample_ptheta(PHASES, [0.5, 0.5], gens, [1.0, 0.0],
                      resolution=(4, 4, 4))
    with pytest.raises(ValueError, match="unknown phase ids"):
        sample_ptheta({1: PHASES[1], 3: PHASES[2]}, [0.5, 0.5], gens, [1.0],
                      resolution=(4, 4, 4))


def two_patch_spec(period=4, reps=3):
    cell_a = make_laminate("x1", [0.5, 0.5], (period, period, period))
    cell_b = make_laminate("x2", [0.5, 0.5], (period, period, period))
    w = period * reps
    return PatchworkSpec(
        resolution=(2 * w, w, period), gamma=1.0,
        patches=(Patch(cell=cell_a, rect=(0, w, 0, w), label="a"),
                 Patch(cell=cell_b, rect=(w, 2 * w, 0, w), label="b")),
    )


def test_patchwork_construct_periodic_per_patch():
    spec = two_patch_spec()
    grid = patchwork_construct(spec)
    arr = grid.as_3d()
    p = 4
    assert np.array_equal(arr[:p, :p], arr[p:2 * p, :p])
    assert np.array_equal(arr[12:12 + p, :p], arr[12 + p:12 + 2 * p, :p])
    # area-weighted fractions are exact in integer arithmetic
    assert np.count_nonzero(grid.data == 1) * 2 == grid.data.size


def test_windowed_recovery_two_patches():
    spec = two_patch_spec()
    grid = patchwork_construct(spec)
    reports = windowed_recovery(grid, spec, PHASES, tol=1e-11)
    assert len(reports) == 2
    for rep in reports:
        assert rep.form_gap <= 1e-8   # window reproduces the generating cell
        assert rep.theta_exact
        assert_allclose(rep.window_theta, rep.target_theta)


def test_windowed_recovery_builds_one_preconditioner_per_patch(builds):
    spec = two_patch_spec()
    reports = windowed_recovery(patchwork_construct(spec), spec, PHASES)
    assert builds == [((4, 4, 4), 1.0)] * 2
    assert all(rep.form_gap == 0.0 for rep in reports)


def test_windowed_recovery_margin_violation():
    spec = two_patch_spec(reps=2)  # only 2 periods per direction: no margin
    grid = patchwork_construct(spec)
    with pytest.raises(ValueError, match="interface"):
        windowed_recovery(grid, spec, PHASES)


def test_patchwork_spec_file(tmp_path):
    import json

    from platehom.microstructure import dump_grid

    cell_a = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    dump_grid(cell_a, tmp_path / "a.json")
    doc = {
        "resolution": [12, 12, 4], "gamma": 1.0,
        "patches": [{"rect": [0, 12, 0, 12], "micro": "a.json", "label": "a"}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_patchwork_spec(path)
    assert spec.gamma == 1.0
    assert spec.patches[0].cell.shape == (4, 4, 4)
    grid = patchwork_construct(spec)
    reports = windowed_recovery(grid, spec, PHASES, tol=1e-11)
    assert reports[0].form_gap <= 1e-8  # single patch: window is the cell
