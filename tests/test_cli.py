"""End-to-end command-line runs in temporary directories."""

import json
import os

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
        assert r["preconditioner"] == {"name": "two-level",
                                       "smoother": "block-jacobi",
                                       "coarse_dofs": 5 * 8 * 9}
        assert r["iterations"] > 0 and r["residual"] <= 1e-11


def test_griso_command(tmp_path):
    out = tmp_path / "g"
    rc = run(["griso", "--res", "8,8,8", "--seed", "3", "--h", "0.2",
              "--check", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "griso.json").read_text())
    assert doc["reconstruction_error"] < 1e-13
    assert doc["moment_coeff"] == 12.0
    assert (out / "residual.vtk").exists()


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


def test_solver_failure_exit_code(tmp_path, phases_file, monkeypatch):
    # force an unreachable tolerance and a tiny iteration budget
    import platehom.fem3d as fem3d

    orig = fem3d.pcg

    def crippled(k, b, precond="jacobi", tol=1e-10, max_iter=None,
                 project=None):
        return orig(k, b, precond=precond, tol=1e-30, max_iter=1,
                    project=project)

    monkeypatch.setattr(fem3d, "pcg", crippled)
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    rc = run(["homogenize", "--micro", str(m / "micro.json"),
              "--phases", phases_file, "--gamma", "1.0",
              "--out", str(tmp_path / "z")])
    assert rc == 2


def _homogenize_checkerboard(tmp_path, phases_file, out="z"):
    m = tmp_path / "m"
    run(["gen-micro", "--kind", "checkerboard", "--period", "2",
         "--res", "4,4,4", "--out", str(m)])
    return run(["homogenize", "--micro", str(m / "micro.json"),
                "--phases", phases_file, "--gamma", "1.0",
                "--out", str(tmp_path / out)])


def test_indefinite_operator_exit_code(tmp_path, phases_file, monkeypatch):
    # a CG breakdown (p.Ap <= 0) is a solver failure, not a usage error
    import platehom.fem3d as fem3d

    orig = fem3d.assemble

    def negated(*args, **kwargs):
        op = orig(*args, **kwargs)
        op.k = -op.k
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
    assert all(r <= 1e-10 for r in record["residuals"])
    assert "solver" not in form


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
