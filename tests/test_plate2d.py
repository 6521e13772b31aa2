"""Limit plate solver: decoupling, energy identity, coupling, stability."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from platehom.algebra import isotropic_hooke, plane_stress_form
from platehom.plate2d import (PlateProblem, cell_strains, dump_solution_csv,
                              load_problem, minimize_plate,
                              perturbation_stability)

Q0 = plane_stress_form(isotropic_hooke(1.0, 1.0))


def cantilever(mx=12, my=12, forms=None, f=(0.0, 0.0, 1.0)):
    return PlateProblem(mx=mx, my=my,
                        forms=Q0.a if forms is None else forms,
                        forces=np.asarray(f, dtype=float), clamped=("left",))


def test_zero_force_zero_solution():
    sol = minimize_plate(cantilever(f=(0.0, 0.0, 0.0)))
    assert sol.energy == 0.0
    assert_allclose(sol.w, 0.0)
    assert_allclose(sol.v, 0.0)


def test_decoupled_pure_bending():
    sol = minimize_plate(cantilever())
    # no membrane-curvature coupling: in-plane displacement stays zero
    assert np.max(np.abs(sol.w)) <= 1e-8
    assert sol.energy < 0.0
    assert abs(sol.energy + 0.5 * sol.load_value) < 1e-10 * abs(sol.energy)


def test_clamped_edge_exactly_zero():
    sol = minimize_plate(cantilever())
    assert np.max(np.abs(sol.v[0, :])) == 0.0
    assert np.max(np.abs(sol.w[0, :, :])) == 0.0


def test_coupling_activates_membrane():
    a = Q0.a.copy()
    a[0, 3] = a[3, 0] = 0.05  # artificial membrane-bending coupling
    assert np.linalg.eigvalsh(a)[0] > 0
    sol = minimize_plate(cantilever(forms=a))
    assert np.max(np.abs(sol.w)) > 1e-6


def test_elastic_energy_decreases_under_refinement():
    # empirical property of the nonconforming v space: the elastic energy
    # |F| = -F at the minimizer shrinks monotonically toward the limit
    e = [minimize_plate(cantilever(mx=m, my=m)).energy for m in (8, 16, 32)]
    assert abs(e[1]) < abs(e[0])
    assert abs(e[2]) < abs(e[1])


def test_in_plane_membrane_only_solution():
    # pure in-plane load: v stays zero for a decoupled form
    sol = minimize_plate(cantilever(f=(1.0, 0.0, 0.0)))
    assert np.max(np.abs(sol.v)) <= 1e-9
    assert np.max(np.abs(sol.w)) > 1e-3
    assert abs(sol.energy + 0.5 * sol.load_value) < 1e-10 * abs(sol.energy)


def test_validation_errors():
    with pytest.raises(ValueError):
        PlateProblem(mx=8, my=8, forms=Q0.a, forces=np.zeros(3), clamped=())
    with pytest.raises(ValueError):
        PlateProblem(mx=1, my=8, forms=Q0.a, forces=np.zeros(3),
                     clamped=("left",))
    with pytest.raises(ValueError):
        PlateProblem(mx=4, my=4, forms=np.zeros((6, 6)), forces=np.zeros(3),
                     clamped=("left",))
    with pytest.raises(ValueError):
        PlateProblem(mx=4, my=4, forms=Q0.a, forces=np.zeros(3),
                     clamped=("diagonal",))


def test_perturbation_stability_linear_in_eta():
    prob = cantilever()
    rep = perturbation_stability(prob, etas=(1e-3, 1e-4))
    assert rep.energy_gaps[0] > 0
    # first-order perturbation: gap ratio ~ eta ratio = 10, within factor 2
    assert 5.0 <= rep.gap_ratio <= 20.0
    assert rep.strain_gaps[0] > 0


def test_perturbation_stability_builds_stencils_once():
    # three solves and three strain evaluations on one grid share one set
    from platehom import plate2d

    plate2d._curvature_stencils.cache_clear()
    perturbation_stability(cantilever(mx=8, my=8), etas=(1e-3, 1e-4))
    info = plate2d._curvature_stencils.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_perturbation_zero_eta_zero_gap():
    rep = perturbation_stability(cantilever(mx=8, my=8), etas=(0.0, 1e-3))
    assert rep.energy_gaps[0] == 0.0


def test_perturbation_indefinite_rejected():
    with pytest.raises(ValueError, match="indefinite"):
        perturbation_stability(cantilever(mx=8, my=8), etas=(-2.0,))


def test_cell_strains_constant_membrane_field():
    # prescribe a linear w via the load-free system is awkward; instead check
    # the strain extractor on a manufactured solution object
    prob = cantilever(mx=4, my=4)
    sol = minimize_plate(prob)
    x = np.linspace(0.0, 1.0, 5)
    wlin = np.zeros((5, 5, 2))
    wlin[..., 0] = 0.3 * x[:, None]          # e11 = 0.3 everywhere
    sol.w[:] = wlin
    sol.v[:] = 0.0
    z = cell_strains(prob, sol)
    assert_allclose(z[..., 0], 0.3, atol=1e-13)
    assert_allclose(z[..., 1:], 0.0, atol=1e-13)


def test_problem_file_roundtrip(tmp_path):
    import json

    doc = {"mx": 4, "my": 4, "form": Q0.a.ravel().tolist(),
           "forces": [0.0, 0.0, 1.0], "clamped": ["left"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    sol = minimize_plate(prob)
    assert sol.energy < 0.0
    out = tmp_path / "sol.csv"
    dump_solution_csv(sol, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,w1,w2,v"
    assert len(lines) == 1 + 5 * 5


def test_problem_file_per_cell_forms_and_nodal_forces(tmp_path):
    import json

    a_soft = Q0.a.copy()
    a_stiff = 5.0 * Q0.a
    per_cell = np.zeros((4, 4, 36))
    per_cell[:2, :, :] = a_soft.ravel()
    per_cell[2:, :, :] = a_stiff.ravel()
    forces = np.zeros((5, 5, 3))
    forces[..., 2] = 1.0
    doc = {"mx": 4, "my": 4, "form": {"per_cell": per_cell.tolist()},
           "forces": forces.reshape(-1, 3).tolist(), "clamped": ["left"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    sol = minimize_plate(prob)
    assert sol.energy < 0.0
    # the soft half deflects more than a uniformly stiff plate would
    stiff = PlateProblem(mx=4, my=4, forms=a_stiff, forces=forces,
                         clamped=("left",))
    assert abs(sol.energy) > abs(minimize_plate(stiff).energy)
