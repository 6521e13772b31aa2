"""End-to-end command-line runs in temporary directories."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platehom.cli import main


@pytest.fixture()
def phases_file(tmp_path):
    doc = {"phases": [
        {"id": 1, "model": "isotropic", "lambda": 1.0, "mu": 1.0},
        {"id": 2, "model": "isotropic", "lambda": 10.0, "mu": 10.0},
    ]}
    path = tmp_path / "phases.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return main(argv)


def test_gen_micro_and_homogenize(tmp_path, phases_file):
    out1 = tmp_path / "micro"
    rc = run(["gen-micro", "--kind", "laminate", "--axis", "x3",
              "--fractions", "0.5,0.5", "--res", "2,2,8",
              "--out", str(out1)])
    assert rc == 0
    micro = out1 / "micro.json"
    assert micro.exists()
    out2 = tmp_path / "hom"
    rc = run(["homogenize", "--micro", str(micro), "--phases", phases_file,
              "--gamma", "1.0", "--out", str(out2), "--check"])
    assert rc == 0
    form = json.loads((out2 / "form.json").read_text())
    assert form["basis"] == "mandel-pair-v1"
    assert len(form["matrix"]) == 36
    assert form["gamma"] == 1.0
    assert (out2 / "bounds.json").exists()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert str(micro) in manifest["inputs"]
    assert manifest["basis"] == "mandel-pair-v1"


def test_deterministic_artifacts(tmp_path, phases_file):
    args = ["gen-micro", "--kind", "random", "--seed", "7",
            "--res", "4,4,4", "--fractions", "0.5,0.5"]
    run(args + ["--out", str(tmp_path / "a")])
    run(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "micro.json").read_bytes()
    b = (tmp_path / "b" / "micro.json").read_bytes()
    assert a == b


def test_gamma_sweep_command(tmp_path, phases_file):
    out1 = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x1",
         "--fractions", "0.5,0.5", "--res", "4,4,4", "--out", str(out1)])
    out2 = tmp_path / "sweep"
    rc = run(["gamma-sweep", "--micro", str(out1 / "micro.json"),
              "--phases", phases_file, "--gammas", "0.5:2:3",
              "--out", str(out2)])
    assert rc == 0
    rows = (out2 / "sweep.csv").read_text().splitlines()
    assert rows[0] == "# basis: mandel-pair-v1"
    assert len(rows) == 2 + 3 + 2  # tag, header, 3 gammas, 2 extrapolations
    doc = json.loads((out2 / "sweep.json").read_text())
    assert len(doc["gammas"]) == 3
    assert doc["gamma0_estimate"] is not None
    solver = json.loads((out2 / "manifest.json").read_text())["solver"]
    assert [r["gamma"] for r in solver] == doc["gammas"]
    assert [r["residuals"] for r in solver] == [f["residuals"] for f in doc["forms"]]


def test_plate_solve_command(tmp_path):
    from platehom.algebra import isotropic_hooke, plane_stress_form

    q0 = plane_stress_form(isotropic_hooke(1.0, 1.0))
    doc = {"mx": 8, "my": 8, "form": q0.a.ravel().tolist(),
           "forces": [0.0, 0.0, 1.0], "clamped": ["left"]}
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "plate"
    rc = run(["plate-solve", "--problem", str(prob), "--out", str(out)])
    assert rc == 0
    assert (out / "solution.csv").read_text().startswith("x,y,w1,w2,v")
    energy = json.loads((out / "energy.json").read_text())
    assert energy["energy"] < 0


def _plate_problem(tmp_path, m, clamped, forces=(0.0, 0.0, 1.0)):
    from platehom.algebra import isotropic_hooke, plane_stress_form

    q0 = plane_stress_form(isotropic_hooke(1.0, 1.0))
    doc = {"mx": m, "my": m, "form": q0.a.ravel().tolist(),
           "forces": list(forces), "clamped": clamped}
    prob = tmp_path / f"problem{m}.json"
    prob.write_text(json.dumps(doc))
    return str(prob)


def test_plate_solve_manifest_and_repeatable_artifacts(tmp_path):
    prob = _plate_problem(tmp_path, 8, ["left"])
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["plate-solve", "--problem", prob, "--out", str(out)]) == 0
    for name in ("energy.json", "solution.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    energy = json.loads((outs[0] / "energy.json").read_text())
    assert sorted(energy) == ["basis", "energy", "iterations", "load_value",
                              "residual"]
    (rec,) = json.loads((outs[0] / "manifest.json").read_text())["solver"]
    # 8 free nodes along x (the left edge is clamped), 9 along y: x runs
    # fastest, and the isotropic form splits K into a membrane block and a
    # bending block, band 3 * 8 + 1. The transverse load leaves the membrane
    # block unloaded, so the bending block is the one solved, and the
    # record is a one-column solve's
    assert rec["preconditioner"] == {"name": "banded-cholesky",
                                     "blocks": ["bending"],
                                     "bandwidths": [25]}
    assert rec["iterations"] == energy["iterations"] <= 3
    assert rec["residual"] == energy["residual"] <= 1e-12
    assert 0.0 <= rec["energy_error"] <= 1e-12


def test_plate_solve_zero_load_solves_no_block(tmp_path):
    # energy.json keeps the bytes it had when both blocks were solved
    prob = _plate_problem(tmp_path, 8, ["left"], forces=(0.0, 0.0, 0.0))
    out = tmp_path / "zero"
    assert run(["plate-solve", "--problem", prob, "--out", str(out)]) == 0
    assert (out / "energy.json").read_text() == (
        '{\n "energy": 0.0,\n "load_value": 0.0,\n "iterations": 0,\n'
        ' "residual": 0.0,\n "basis": "mandel-pair-v1"\n}')
    (rec,) = json.loads((out / "manifest.json").read_text())["solver"]
    assert rec["preconditioner"]["blocks"] == []
    assert rec["energy_error"] == 0.0


def test_plate_solve_asymmetric_form_exit_code(tmp_path, capsys):
    # a form with an upper-only membrane-bending entry is a validation
    # error, not a solver failure of the coupled block
    doc = json.loads(Path(_plate_problem(tmp_path, 8, ["left"])).read_text())
    doc["form"][3] += 0.3
    prob = tmp_path / "asymmetric.json"
    prob.write_text(json.dumps(doc))
    assert run(["plate-solve", "--problem", str(prob),
                "--out", str(tmp_path / "a")]) == 1
    assert "cell form (0, 0) is not symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [0, 21])
def test_plate_solve_non_finite_form_exit_code(tmp_path, capsys, entry):
    # a NaN in form slot [0, 0] (the unloaded membrane block) used to exit
    # 0 with a finite energy, one in [3, 3] (the bending block) exit 2 as a
    # solver failure; both are validation errors
    doc = json.loads(Path(_plate_problem(tmp_path, 8, ["left"])).read_text())
    doc["form"][entry] = float("nan")
    prob = tmp_path / "nan.json"
    prob.write_text(json.dumps(doc))
    assert run(["plate-solve", "--problem", str(prob),
                "--out", str(tmp_path / "a")]) == 1
    assert "cell form (0, 0) is not finite" in capsys.readouterr().err
    assert not (tmp_path / "a" / "energy.json").exists()


def test_plate_solve_singular_strip_exit_code(tmp_path):
    # an even cell count between two clamped edges has a zero-energy mode;
    # an in-plane load alone does not reach it, so it fails nothing
    out = tmp_path / "strip"
    for m, forces, code in ((8, (0.0, 0.0, 1.0), 2), (9, (0.0, 0.0, 1.0), 0),
                            (8, (0.3, 0.2, 0.0), 0)):
        prob = _plate_problem(tmp_path, m, ["left", "right"], forces)
        assert run(["plate-solve", "--problem", prob, "--out", str(out)]) == code


def test_plate_solve_singular_strip_with_in_plane_load_exit_code(tmp_path,
                                                                 capsys):
    # the membrane block solves; the bending block's zero-energy mode still
    # fails the command, and the message names that block
    prob = _plate_problem(tmp_path, 8, ["left", "right"], forces=(0.3, 0.2, 1.0))
    assert run(["plate-solve", "--problem", prob,
                "--out", str(tmp_path / "strip")]) == 2
    assert "bending block" in capsys.readouterr().err


def test_theorem1_command(tmp_path, phases_file):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "8,8,4", "--domain", "plate",
         "--out", str(m)])
    out = tmp_path / "t1"
    rc = run(["theorem1", "--micro", str(m / "micro.json"),
              "--phases", phases_file, "--h", "0.25,0.125",
              "--f", "0,0,1", "--clamped", "left", "--out", str(out)])
    assert rc == 0
    rows = (out / "theorem1.csv").read_text().splitlines()
    assert rows[0] == "h,F_h,F0,rel_gap,corrector_norm,kl_gap"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert "gap_monotone" in summary
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert [r["h"] for r in solver] == [0.25, 0.125]
    for r in solver:
        # 8 free columns along x (the left edge is clamped), 9 along y:
        # x runs fastest and neighbours are 9 columns apart
        assert r["preconditioner"] == {"name": "two-level",
                                       "smoother": "jacobi",
                                       "coarse_dofs": 5 * 8 * 9,
                                       "coarse_solver": "banded-cholesky",
                                       "bandwidth": 5 * 9 + 4}
        assert r["iterations"] > 0 and r["residual"] <= 1e-11
        assert 0.0 <= r["energy_error"] <= 1e-9


def _fresh_stdout(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this
    platehom."""
    import platehom

    src = str(Path(platehom.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_plate_commands_leave_sparse_linalg_unloaded(tmp_path, phases_file):
    # both factorizations are banded Cholesky from scipy.linalg, and the
    # limit plate is assembled and multiplied cell by cell, so the plate
    # commands load scipy.linalg and no scipy.sparse module
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "4,4,2", "--domain", "plate",
         "--out", str(m)])
    commands = [
        ["plate-solve", "--problem", _plate_problem(tmp_path, 8, ["left"]),
         "--out", str(tmp_path / "p")],
        ["theorem1", "--micro", str(m / "micro.json"), "--phases", phases_file,
         "--h", "0.25", "--f", "0,0,1", "--clamped", "left",
         "--out", str(tmp_path / "t")],
    ]
    for argv in commands:
        code = ("import sys\nfrom platehom.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print(sorted(m for m in ('scipy.sparse', 'scipy.sparse.linalg',"
                " 'scipy.linalg') if m in sys.modules))")
        assert _fresh_stdout(code).splitlines()[-1] == "['scipy.linalg']"


def test_clamped_solve_loads_scipy_linalg_alone():
    # the two-level preconditioner's smoother is K's diagonal and its
    # coarse factor banded Cholesky, so a clamped 3D solve loads
    # scipy.linalg and not scipy.sparse
    code = ("import sys\nfrom platehom import fem3d\n"
            "from platehom.algebra import isotropic_hooke\n"
            "from platehom.microstructure import make_laminate\n"
            "grid = make_laminate('x3', [0.5, 0.5], (4, 4, 2), domain='plate')\n"
            "phases = {1: isotropic_hooke(1.0, 1.0),"
            " 2: isotropic_hooke(10.0, 10.0)}\n"
            "fem3d.solve_clamped(grid, phases, 0.25, (0, 0, 1), ('left',))\n"
            "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg')"
            " if m in sys.modules))")
    assert _fresh_stdout(code).splitlines()[-1] == "['scipy.linalg']"


def test_commands_that_solve_nothing_leave_scipy_solvers_unloaded(tmp_path):
    # scipy.sparse (with the numpy.f2py and numpy.testing it pulls in) and
    # scipy.linalg load with the first assembly or factor, not at start-up
    argv = ["gen-micro", "--kind", "random", "--seed", "1", "--res", "4,4,2",
            "--out", str(tmp_path / "m")]
    code = ("import sys\nimport platehom\nfrom platehom.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "try:\n    main(['--help'])\nexcept SystemExit:\n    pass\n"
            "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg')"
            " if m in sys.modules))")
    assert _fresh_stdout(code).splitlines()[-1] == "[]"


def test_cell_commands_leave_scipy_solvers_unloaded(tmp_path, phases_file):
    # a cell's loads add their corners through the stencil's inverse corner
    # map and its CG runs on the element product, so the cell commands
    # load neither scipy.sparse nor scipy.linalg
    from platehom.microstructure import dump_grid, make_laminate

    m = tmp_path / "m"
    run(["gen-micro", "--kind", "random", "--seed", "1", "--res", "4,4,4",
         "--fractions", "0.5,0.5", "--out", str(m)])
    dump_grid(make_laminate("x1", [0.5, 0.5], (4, 4, 4)), tmp_path / "a.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "resolution": [12, 12, 4], "gamma": 1.0,
        "patches": [{"rect": [0, 12, 0, 12], "micro": "a.json"}]}))
    micro = ["--micro", str(m / "micro.json"), "--phases", phases_file]
    commands = [
        ["homogenize", *micro, "--gamma", "1.0", "--check",
         "--out", str(tmp_path / "h")],
        ["gamma-sweep", *micro, "--gammas", "0.5,1.0",
         "--out", str(tmp_path / "g")],
        ["gclosure-sample", "--phases", phases_file, "--theta", "0.5,0.5",
         "--generators", "laminate:x1,checkerboard:2", "--gammas", "1.0",
         "--res", "4,4,4", "--out", str(tmp_path / "s")],
        ["patchwork", "--spec", str(spec), "--phases", phases_file,
         "--check", "--out", str(tmp_path / "p")],
    ]
    code = ("import sys\nfrom platehom.cli import main\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in commands)
            + "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg')"
            " if m in sys.modules))")
    assert _fresh_stdout(code).splitlines()[-1] == "[]"


def test_griso_command(tmp_path):
    out = tmp_path / "g"
    rc = run(["griso", "--res", "8,8,8", "--seed", "3", "--h", "0.2",
              "--check", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "griso.json").read_text())
    assert doc["reconstruction_error"] < 1e-13
    assert doc["moment_coeff"] == 12.0
    assert (out / "residual.vtk").exists()


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_griso_check_scales_with_the_field(tmp_path, scale):
    # the reconstruction identity holds to about 1e-16 of max|field|: a
    # seeded 9^3 field scaled by 1e4 reads 7.3e-12, by 1e6 4.7e-10, which
    # an absolute 1e-12 bound failed
    field = scale * np.random.default_rng(9).standard_normal((10, 10, 10, 3))
    np.save(tmp_path / "field.npy", field)
    out = tmp_path / "g"
    assert run(["griso", "--field", str(tmp_path / "field.npy"), "--check",
                "--out", str(out)]) == 0
    err = json.loads((out / "griso.json").read_text())["reconstruction_error"]
    assert 1e-12 < err <= 1e-13 * np.abs(field).max()


@pytest.mark.parametrize("command", ["gen-micro", "griso", "gclosure-sample"])
@pytest.mark.parametrize("res", ["4,4", "4,4,4,4", "4,x,4", "0,4,4", "4,-1,4",
                                 ""])
def test_res_needs_three_positive_ints(tmp_path, phases_file, capsys, command, res):
    argv = {"gen-micro": ["gen-micro", "--kind", "random"],
            "griso": ["griso"],
            "gclosure-sample": ["gclosure-sample", "--phases", phases_file,
                                "--theta", "0.5,0.5", "--generators",
                                "laminate:x1"]}[command]
    assert run(argv + ["--res", res, "--out", str(tmp_path / "o")]) == 1
    assert (f"--res needs three positive ints nx,ny,nz, got {res!r}"
            in capsys.readouterr().err)


def test_gclosure_sample_command(tmp_path, phases_file):
    out = tmp_path / "s"
    rc = run(["gclosure-sample", "--phases", phases_file, "--theta", "0.5,0.5",
              "--generators", "laminate:x1,laminate:90", "--gammas", "1.0",
              "--res", "4,4,4", "--out", str(out)])
    assert rc == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 4  # tag, header, 2 samples
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert [r["generator"] for r in solver] == ["laminate:x1", "laminate:90"]
    assert all(len(r["iterations"]) == 6 for r in solver)


def test_patchwork_command(tmp_path, phases_file):
    from platehom.microstructure import dump_grid, make_laminate

    cell_a = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    dump_grid(cell_a, tmp_path / "a.json")
    spec = {"resolution": [12, 12, 4], "gamma": 1.0,
            "patches": [{"rect": [0, 12, 0, 12], "micro": "a.json"}]}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "pw"
    rc = run(["patchwork", "--spec", str(spath), "--phases", phases_file,
              "--check", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "recovery.json").read_text())
    assert rep["basis"] == "mandel-pair-v1"
    assert rep["patches"][0]["form_gap"] <= 0.05
    assert rep["patches"][0]["theta_exact"]


@pytest.mark.parametrize("scale", [1e9, 1e10])
def test_bounds_check_at_si_scale(tmp_path, scale):
    # an x3 laminate with SI-scale moduli: rounding alone read a Voigt
    # margin of -2.2e-7 at 1e9, past an absolute 1e-9 slack
    doc = {"phases": [
        {"id": 1, "model": "isotropic", "lambda": scale, "mu": scale},
        {"id": 2, "model": "isotropic", "lambda": 10 * scale, "mu": 10 * scale},
    ]}
    (tmp_path / "phases.json").write_text(json.dumps(doc))
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "4,4,4", "--out", str(tmp_path)])
    assert run(["homogenize", "--micro", str(tmp_path / "micro.json"),
                "--phases", str(tmp_path / "phases.json"), "--gamma", "1.0",
                "--out", str(tmp_path / "hom"), "--check"]) == 0
    rep = json.loads((tmp_path / "hom" / "bounds.json").read_text())
    assert rep["passed"] and rep["voigt_ok"]


def test_check_command():
    assert run(["check"]) == 0


def test_exit_codes(tmp_path, phases_file):
    # parse error -> 1
    assert run(["homogenize", "--micro", "missing.json",
                "--phases", phases_file, "--gamma", "1.0",
                "--out", str(tmp_path / "x")]) == 1
    assert run(["nonsense-command"]) == 1
    # bad gamma -> validation error
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    assert run(["homogenize", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--gamma", "-1.0",
                "--out", str(tmp_path / "y")]) == 1


def test_theorem1_failed_check_exit_code(tmp_path, phases_file):
    # no gap is below 0: the check fails, and the artifacts and the
    # manifest are still written
    out = tmp_path / "t1"
    assert run(["theorem1", "--micro", _plate_micro(tmp_path, "8,8,4"),
                "--phases", phases_file, "--h", "0.25,0.125",
                "--check", "--gap-tol", "0", "--out", str(out)]) == 3
    assert (out / "theorem1.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["command"] == "theorem1"


def test_patchwork_failed_check_exit_code(tmp_path, phases_file):
    from platehom.microstructure import dump_grid, make_laminate

    dump_grid(make_laminate("x1", [0.5, 0.5], (4, 4, 4)), tmp_path / "a.json")
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({
        "resolution": [12, 12, 4], "gamma": 1.0,
        "patches": [{"rect": [0, 12, 0, 12], "micro": "a.json"}]}))
    out = tmp_path / "pw"
    assert run(["patchwork", "--spec", str(spath), "--phases", phases_file,
                "--check", "--gap-tol", "-1", "--out", str(out)]) == 3
    assert (out / "recovery.json").exists()


def test_griso_failed_check_exit_code(tmp_path, monkeypatch):
    from platehom import convergence

    orig = convergence.griso_decompose

    def corrupted(field):
        parts = orig(field)
        parts.bar[0, 0, 0, 0] += 1.0
        return parts

    monkeypatch.setattr(convergence, "griso_decompose", corrupted)
    out = tmp_path / "g"
    assert run(["griso", "--res", "4,4,4", "--check", "--out", str(out)]) == 3
    assert json.loads((out / "griso.json").read_text())[
        "reconstruction_error"] == pytest.approx(1.0)


def test_gen_micro_adjust_writes_the_target_fractions(tmp_path):
    out = tmp_path / "m"
    assert run(["gen-micro", "--kind", "random", "--res", "4,4,4",
                "--adjust", "0.25,0.75", "--out", str(out)]) == 0
    doc = json.loads((out / "fractions.json").read_text())
    assert doc["ids"] == [1, 2] and doc["fractions"] == [0.25, 0.75]


def test_config_without_a_path_exit_code(capsys):
    assert run(["check", "--config"]) == 1
    assert "--config requires a path" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, phases_file, monkeypatch):
    # force an unreachable tolerance and a tiny iteration budget: pcg stalls
    import platehom.fem3d as fem3d
    import platehom.plate2d as plate2d

    orig = fem3d.pcg

    def crippled(k, b, precond, tol=1e-10, max_iter=None, bound=None):
        return orig(k, b, precond=precond, tol=1e-30, max_iter=1, bound=bound)

    monkeypatch.setattr(fem3d, "pcg", crippled)
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    rc = run(["homogenize", "--micro", str(m / "micro.json"),
              "--phases", phases_file, "--gamma", "1.0",
              "--out", str(tmp_path / "z")])
    assert rc == 2
    monkeypatch.setattr(plate2d, "pcg", crippled)
    prob = _plate_problem(tmp_path, 8, ["left"])
    assert run(["plate-solve", "--problem", prob,
                "--out", str(tmp_path / "p")]) == 2


def test_failed_solves_keep_their_manifest_slot(tmp_path, phases_file,
                                               monkeypatch):
    # the second solve of each command stalls, as in
    # test_solver_failure_exit_code; its record holds the error in place of
    # the solve, so the list still lines up with the gammas and samples
    import platehom.fem3d as fem3d

    orig = fem3d.pcg
    calls = []

    def second_crippled(k, b, precond, tol=1e-10, max_iter=None, bound=None):
        calls.append(1)
        if len(calls) == 2:
            return orig(k, b, precond=precond, tol=1e-30, max_iter=1,
                        bound=bound)
        return orig(k, b, precond=precond, tol=tol, max_iter=max_iter,
                    bound=bound)

    monkeypatch.setattr(fem3d, "pcg", second_crippled)
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "4,4,4", "--out", str(m)])
    out = tmp_path / "g"
    assert run(["gamma-sweep", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--gammas", "0.5,1.0,2.0",
                "--out", str(out)]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert [r["gamma"] for r in solver] == [0.5, 1.0, 2.0]
    assert [("error" in r) for r in solver] == [False, True, False]
    assert set(solver[1]) == {"gamma", "error"}
    assert "stalled" in solver[1]["error"]

    calls.clear()
    out = tmp_path / "s"
    assert run(["gclosure-sample", "--phases", phases_file,
                "--theta", "0.5,0.5", "--generators", "laminate:x1,laminate:90",
                "--gammas", "1.0", "--res", "4,4,4", "--out", str(out)]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert [r["generator"] for r in solver] == ["laminate:x1", "laminate:90"]
    assert "iterations" in solver[0]
    assert set(solver[1]) == {"generator", "gamma", "error"}
    assert "stalled" in solver[1]["error"]


def _homogenize_checkerboard(tmp_path, phases_file, out="z"):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    return run(["homogenize", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--gamma", "1.0",
                "--out", str(tmp_path / out)])


def test_indefinite_operator_exit_code(tmp_path, phases_file, monkeypatch):
    # a CG breakdown (p.Ap <= 0) is a solver failure, not a usage error: the
    # element product of negated element stiffnesses is -K
    import platehom.fem3d as fem3d

    orig = fem3d.assemble

    def negated(*args, **kwargs):
        op = orig(*args, **kwargs)
        op.k = copy.copy(op.k)
        op.k.kes = -op.kes
        return op

    monkeypatch.setattr(fem3d, "assemble", negated)
    assert _homogenize_checkerboard(tmp_path, phases_file) == 2


def test_form_symmetry_defect_exit_code(tmp_path, phases_file, monkeypatch):
    import platehom.fem3d as fem3d

    orig = fem3d.corrector_loads

    def skewed(op):
        gmat, e0 = orig(op)
        return gmat, e0 + np.triu(np.full((6, 6), 1e-6 * np.abs(e0).max()), 1)

    monkeypatch.setattr(fem3d, "corrector_loads", skewed)
    assert _homogenize_checkerboard(tmp_path, phases_file) == 2


def test_manifest_records_solver(tmp_path, phases_file):
    assert _homogenize_checkerboard(tmp_path, phases_file, out="h") == 0
    manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
    form = json.loads((tmp_path / "h" / "form.json").read_text())
    (record,) = manifest["solver"]
    assert record["gamma"] == 1.0
    assert record["preconditioner"] == {"name": "fft-reference",
                                        "lambda0": pytest.approx(10 ** 0.5),
                                        "mu0": pytest.approx(10 ** 0.5)}
    assert len(record["iterations"]) == 6
    assert all(1 <= it <= 40 for it in record["iterations"])
    assert record["residuals"] == form["residuals"]
    # every column met the residual rule or the certified bound
    assert record["m"] == pytest.approx(10 ** -0.5)
    assert len(record["energy_bounds"]) == 6
    assert all(r <= 1e-10 or e <= 1e-13 for r, e in
               zip(record["residuals"], record["energy_bounds"]))
    assert "solver" not in form


def test_manifest_records_blas_build_and_threads(tmp_path, monkeypatch):
    # the first thread variable set wins; with none, the core count
    def blas(out, env):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert run(["gen-micro", "--kind", "checkerboard", "--period", "2",
                    "--res", "2,2,2", "--out", str(tmp_path / out)]) == 0
        doc = json.loads((tmp_path / out / "manifest.json").read_text())
        return doc["blas"]

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = blas("a", {"OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "5"})
    assert rec == {"name": build["name"], "version": build["version"],
                   "threads": 3, "threads_from": "OMP_NUM_THREADS"}
    rec = blas("b", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"})
    assert (rec["threads"], rec["threads_from"]) == (1, "OPENBLAS_NUM_THREADS")
    rec = blas("c", {})
    assert (rec["threads"], rec["threads_from"]) == (os.cpu_count(),
                                                     "cpu_count")


def test_manifests_record_operator_size(tmp_path, phases_file):
    # no operator assembles K: its element product records one corner map
    # entry per free element corner, 8 per element of a cell
    assert _homogenize_checkerboard(tmp_path, phases_file, out="h") == 0
    (record,) = json.loads((tmp_path / "h" / "manifest.json").read_text())["solver"]
    assert record["ndof"] == 3 * 4 * 4 * 5                # periodic 4x4, 5 planes
    assert record["nnz"] == 8 * (4 * 4 * 4)
    m = tmp_path / "p"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "8,8,4", "--domain", "plate",
         "--out", str(m)])
    assert run(["theorem1", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--h", "0.25", "--f", "0,0,1",
                "--clamped", "left", "--out", str(tmp_path / "t")]) == 0
    (record,) = json.loads((tmp_path / "t" / "manifest.json").read_text())["solver"]
    assert record["ndof"] == 3 * 8 * 9 * 5                # left column clamped
    # a plate's element product: 8 per element less the 4 that each element
    # of the first x layer has on the clamped edge
    assert record["nnz"] == 8 * (8 * 8 * 4) - 4 * (8 * 4)


def _solver_records(tmp_path, phases_file, command):
    """The manifest ``solver`` records of a small run of ``command``."""
    out = tmp_path / "out"
    if command == "plate-solve":
        argv = ["--problem", _plate_problem(tmp_path, 8, ["left"])]
    elif command == "gclosure-sample":
        argv = ["--phases", phases_file, "--theta", "0.5,0.5",
                "--generators", "laminate:x1", "--gammas", "1.0",
                "--res", "4,4,4"]
    else:
        domain = "plate" if command == "theorem1" else "cell"
        run(["gen-micro", "--kind", "laminate", "--axis", "x3",
             "--fractions", "0.5,0.5", "--res", "4,4,4", "--domain", domain,
             "--out", str(tmp_path / "m")])
        argv = ["--micro", str(tmp_path / "m" / "micro.json"),
                "--phases", phases_file]
        argv += {"homogenize": ["--gamma", "1.0"],
                 "gamma-sweep": ["--gammas", "0.5,1.0"],
                 "theorem1": ["--h", "0.25", "--f", "0,0,1",
                              "--clamped", "left"]}[command]
    assert run([command, *argv, "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["solver"]


@pytest.mark.parametrize("command", ["homogenize", "gamma-sweep",
                                     "gclosure-sample", "theorem1",
                                     "plate-solve"])
def test_every_solver_record_holds_size_and_iterations(tmp_path, phases_file,
                                                        command):
    records = _solver_records(tmp_path, phases_file, command)
    assert records
    for rec in records:
        assert {"ndof", "nnz", "preconditioner", "iterations"} <= set(rec)
        assert rec["ndof"] > 0 and rec["nnz"] >= rec["ndof"]
    if command == "plate-solve":
        # w1, w2 and v at the 8 x 9 nodes off the clamped left edge
        assert records[0]["ndof"] == 3 * 8 * 9


def test_config_file_merging(tmp_path, phases_file):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma": 2.0, "out": str(tmp_path / "hc")}))
    # config supplies values for flags not given on the command line
    rc = run(["--config", str(conf), "homogenize",
              "--micro", str(m / "micro.json"), "--phases", phases_file,
              "--gamma", "1.0"])
    assert rc == 0
    form = json.loads((tmp_path / "hc" / "form.json").read_text())
    assert form["gamma"] == 1.0   # explicit flag wins over config
    # unknown config keys are rejected
    conf.write_text(json.dumps({"nonsense": 1}))
    assert run(["--config", str(conf), "check"]) == 1


def test_config_file_with_equals_spelling(tmp_path, phases_file):
    # argparse takes --config=PATH as well as --config PATH; both must
    # install the file's values
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": 1e-3}))
    for spelling in (["--config", str(conf)], [f"--config={conf}"]):
        out = tmp_path / f"h{len(spelling)}"
        assert run(spelling + ["homogenize", "--micro", str(m / "micro.json"),
                               "--phases", phases_file, "--gamma", "1.0",
                               "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["tol"] == 1e-3


def test_failed_bounds_check_keeps_its_manifest(tmp_path, phases_file,
                                                monkeypatch):
    import dataclasses

    from platehom import cell

    orig = cell.check_bounds

    def failing(*args, **kwargs):
        return dataclasses.replace(orig(*args, **kwargs), passed=False)

    monkeypatch.setattr(cell, "check_bounds", failing)
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    out = tmp_path / "hom"
    assert run(["homogenize", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--gamma", "1.0", "--check",
                "--out", str(out)]) == 3
    assert json.loads((out / "bounds.json").read_text())["passed"] is False
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "homogenize"


def test_unknown_edge_name_is_rejected(tmp_path, phases_file):
    # one fem3d helper checks the edge names of the 3D plate, the limit
    # plate and the theorem1 command
    from platehom import fem3d, plate2d
    from platehom.algebra import isotropic_hooke
    from platehom.microstructure import VoxelGrid

    with pytest.raises(ValueError, match="unknown edge names"):
        fem3d.free_nodes(3, 3, ("left", "west"))
    grid = VoxelGrid(4, 4, 2, np.ones(32, dtype=np.int32), "plate")
    with pytest.raises(ValueError, match="unknown edge names"):
        fem3d.assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=0.5,
                       mode="plate", clamped=("west",))
    with pytest.raises(ValueError, match="unknown edge names"):
        plate2d.PlateProblem(mx=4, my=4, forms=np.eye(6),
                             forces=np.zeros(3), clamped=("left", "west"))
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "4,4,2", "--domain", "plate",
         "--out", str(m)])
    assert run(["theorem1", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--h", "0.25", "--clamped", "west",
                "--out", str(tmp_path / "t1")]) == 1


def test_homogenize_artifact_byte_identical(tmp_path, phases_file):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    for sub in ("h1", "h2"):
        run(["homogenize", "--micro", str(m / "micro.json"),
             "--phases", phases_file, "--gamma", "1.0",
             "--out", str(tmp_path / sub)])
    a = (tmp_path / "h1" / "form.json").read_bytes()
    b = (tmp_path / "h2" / "form.json").read_bytes()
    assert a == b


def test_gammas_range_endpoints_inclusive(tmp_path, phases_file):
    from platehom.cli import _gammas

    vals = _gammas("0.01:100:13")
    assert len(vals) == 13
    assert abs(vals[0] - 0.01) < 1e-15
    assert abs(vals[-1] - 100.0) < 1e-12


def test_theorem1_with_explicit_form(tmp_path, phases_file):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "8,8,4", "--out", str(m)])
    hom = tmp_path / "hom"
    run(["homogenize", "--micro", str(m / "micro.json"),
         "--phases", phases_file, "--gamma", "1.0", "--out", str(hom)])
    mp = tmp_path / "mp"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3",
         "--fractions", "0.5,0.5", "--res", "8,8,4", "--domain", "plate",
         "--out", str(mp)])
    out = tmp_path / "t1f"
    rc = run(["theorem1", "--micro", str(mp / "micro.json"),
              "--phases", phases_file, "--h", "0.25",
              "--form", str(hom / "form.json"), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"][0]["error"] is None


def test_patchwork_inline_micro(tmp_path, phases_file):
    from platehom.microstructure import make_laminate

    cell_a = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    inline = {"nx": 4, "ny": 4, "nz": 4, "data": cell_a.data.tolist()}
    spec = {"resolution": [12, 12, 4], "gamma": 1.0,
            "patches": [{"rect": [0, 12, 0, 12], "micro": inline}]}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "pw"
    rc = run(["patchwork", "--spec", str(spath), "--phases", phases_file,
              "--check", "--out", str(out)])
    assert rc == 0


def _cell_micro(tmp_path, res="4,4,4"):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", res, "--out", str(m)])
    return str(m / "micro.json")


@pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
def test_homogenize_needs_a_finite_positive_gamma(tmp_path, phases_file,
                                                  capsys, gamma):
    out = tmp_path / "o"
    assert run(["homogenize", "--micro", _cell_micro(tmp_path),
                "--phases", phases_file, "--gamma", gamma,
                "--out", str(out)]) == 1
    assert "gamma must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gammas, message", [
    ("nan", "all gammas must be positive and finite"),
    ("0.5,inf", "all gammas must be positive and finite"),
    ("0.1:inf:3", '"a:b:n"'), ("nan:1:3", '"a:b:n"'), ("0:1:3", '"a:b:n"'),
    ("0.1:1", '"a:b:n"'), ("0.1:1:2:3", '"a:b:n"'), ("0.1:1:x", '"a:b:n"'),
    ("", '"a:b:n"'), (",", '"a:b:n"')])
def test_gamma_sweep_needs_finite_positive_gammas(tmp_path, phases_file,
                                                  capsys, gammas, message):
    # a NaN gamma used to write a partial sweep.csv before it failed, an
    # infinite one NaN rows, and an empty list a header-only sweep
    out = tmp_path / "o"
    assert run(["gamma-sweep", "--micro", _cell_micro(tmp_path),
                "--phases", phases_file, "--gammas", gammas,
                "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _plate_micro(tmp_path, res="4,4,2"):
    m = tmp_path / "pm"
    run(["gen-micro", "--kind", "laminate", "--axis", "x3", "--res", res,
         "--domain", "plate", "--out", str(m)])
    return str(m / "micro.json")


@pytest.mark.parametrize("h", ["nan", "inf", "0.25,nan", "0"])
def test_theorem1_needs_finite_positive_thicknesses(tmp_path, phases_file,
                                                    capsys, h):
    out = tmp_path / "o"
    assert run(["theorem1", "--micro", _plate_micro(tmp_path),
                "--phases", phases_file, "--h", h, "--out", str(out)]) == 1
    assert "thicknesses must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def _run_silently(argv):
    """``run(argv)`` and the warnings it emitted, none filtered out."""
    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = run(argv)
    return rc, [str(w.message) for w in seen]


@pytest.mark.parametrize("gamma, message", [
    ("1e-150", "the reference operator's symbol at gamma 1e-150 is singular"),
    ("1e-200", "the element stiffness at scale 1e-200 is not finite"),
    ("1e-300", "the element stiffness at scale 1e-300 is not finite")])
def test_homogenize_rejects_a_gamma_the_element_cannot_hold(
        tmp_path, phases_file, capsys, gamma, message):
    # 1/gamma^2 overflows the element stiffness below about 1e-154, and
    # at 1e-150 the reference symbol is singular: each is an input error
    # naming gamma, raised before any warning or artifact
    micro, out = _cell_micro(tmp_path), tmp_path / "o"
    rc, warned = _run_silently(["homogenize", "--micro", micro,
                                "--phases", phases_file, "--gamma", gamma,
                                "--out", str(out)])
    assert (rc, warned) == (1, [])
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_rejects_a_thickness_the_element_cannot_hold(
        tmp_path, phases_file, capsys):
    # 1/h^2 overflows the element stiffness as 1/gamma^2 does
    micro, out = _plate_micro(tmp_path), tmp_path / "o"
    rc, warned = _run_silently(["theorem1", "--micro", micro,
                                "--phases", phases_file, "--h", "1e-300",
                                "--out", str(out)])
    assert (rc, warned) == (1, [])
    assert ("the element stiffness at scale 1e-300 is not finite"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("h", ["nan", "inf", "0"])
def test_griso_needs_a_finite_positive_h(tmp_path, capsys, h):
    out = tmp_path / "o"
    assert run(["griso", "--res", "4,4,4", "--h", h, "--out", str(out)]) == 1
    assert "h must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
@pytest.mark.parametrize("command", ["homogenize", "plate-solve", "theorem1"])
def test_tol_must_be_positive_and_finite(tmp_path, phases_file, capsys,
                                         command, tol):
    # a validation error, not a solver failure: CG used to run into a
    # breakdown (tol 0) or a stall after 0 iterations (tol NaN) first
    argv = {"homogenize": ["homogenize", "--micro", _cell_micro(tmp_path),
                           "--phases", phases_file, "--gamma", "1"],
            "plate-solve": ["plate-solve", "--problem",
                            _plate_problem(tmp_path, 4, ["left"])],
            "theorem1": ["theorem1", "--micro", _plate_micro(tmp_path),
                         "--phases", phases_file, "--h", "0.25"]}[command]
    out = tmp_path / "o"
    assert run(argv + [f"--tol={tol}", "--out", str(out)]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# the artifacts of the thread-count test and the bound on each move from
# the README (Determinism): relative to the value's own size, or, for a
# form or a field, to its largest entry
THREAD_BOUNDS = {"F_h": 1e-10, "F0": 1e-9, "rel_gap": 1e-7, "kl_gap": 1e-7,
                 "corrector_norm": 1e-7, "energy": 2e-9, "load_value": 2e-9,
                 "form": 1e-13, "solution": 2e-9}


def test_thread_count_moves_stay_within_the_stated_bounds(tmp_path,
                                                          phases_file):
    # byte-identity holds for one BLAS thread count. One thread against two
    # moves the 16^3 form (the element product's GEMMs thread), the 64x64
    # cantilever's energy and fields and theorem1's values on a 32x32x8
    # laminate at h = 1/16 (the banded factors thread); every move stays
    # within the README's bound on the digits that record summation order.
    # On inputs too small to thread nothing moves, and the test would
    # check nothing
    if (os.cpu_count() or 1) < 2:
        pytest.skip("two BLAS threads need two cores")
    cell16 = tmp_path / "c"
    run(["gen-micro", "--kind", "random", "--seed", "1", "--res", "16,16,16",
         "--out", str(cell16)])
    plate = _plate_micro(tmp_path, "32,32,8")
    problem = _plate_problem(tmp_path, 64, ["left"])
    import platehom

    src = str(Path(platehom.__file__).parents[1])
    for threads in ("1", "2"):
        out = tmp_path / threads
        code = ("from platehom.cli import main\n"
                f"assert main(['homogenize', '--micro', {str(cell16 / 'micro.json')!r},"
                f" '--phases', {phases_file!r}, '--gamma', '1',"
                f" '--out', {str(out / 'h')!r}]) == 0\n"
                f"assert main(['plate-solve', '--problem', {problem!r},"
                f" '--out', {str(out / 'p')!r}]) == 0\n"
                f"assert main(['theorem1', '--micro', {plate!r}, '--phases',"
                f" {phases_file!r}, '--h', '0.0625', '--out', {str(out / 't')!r}]) == 0\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    one, two = tmp_path / "1", tmp_path / "2"
    moves = {}
    forms = [np.array(json.loads((d / "h" / "form.json").read_text())["matrix"])
             for d in (one, two)]
    moves["form"] = np.abs(forms[0] - forms[1]).max() / np.abs(forms[0]).max()
    energies = [json.loads((d / "p" / "energy.json").read_text()) for d in (one, two)]
    for key in ("energy", "load_value"):
        moves[key] = abs(energies[0][key] / energies[1][key] - 1.0)
    fields = [np.loadtxt(d / "p" / "solution.csv", delimiter=",", skiprows=1)[:, 2:]
              for d in (one, two)]
    moves["solution"] = np.abs(fields[0] - fields[1]).max() / np.abs(fields[0]).max()
    rows = [(d / "t" / "theorem1.csv").read_text().splitlines() for d in (one, two)]
    header = rows[0][0].split(",")
    for a, b in zip(rows[0][1:], rows[1][1:]):
        for key, x, y in zip(header, map(float, a.split(",")), map(float, b.split(","))):
            if key != "h":
                moves[key] = abs(x / y - 1.0)
    summaries = [json.loads((d / "t" / "summary.json").read_text())["rows"]
                 for d in (one, two)]
    for a, b in zip(*summaries):
        for key in ("f_h", "f_0", "rel_gap", "kl_gap", "corrector_norm"):
            bound = THREAD_BOUNDS[{"f_h": "F_h", "f_0": "F0"}.get(key, key)]
            assert abs(a[key] / b[key] - 1.0) <= bound
    assert max(moves.values()) > 0.0, "no artifact moved: the inputs do not thread"
    for key, move in moves.items():
        assert move <= THREAD_BOUNDS[key], (key, move)
