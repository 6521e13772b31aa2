"""Command-line front end: reproducible runs of the module operations.

Every command writes its artifacts plus a manifest (hashed inputs,
parameters, library versions, solver record, timestamp). Execution is
serial and deterministic, so identical configurations produce byte-identical
artifacts; only the manifest carries a timestamp.

Exit codes: 0 success, 1 parse/validation error, 2 solver failure,
3 check failure (commands run with --check).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, algebra, cell, convergence, fem3d, gclosure
from . import microstructure as micro
from . import plate2d
from .fem3d import SolverError

BASIS_TAG = cell.BASIS_TAG


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# the variables that set a BLAS build's thread count, in the order read
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    """numpy's BLAS build (``name`` and ``version``) and the thread count in
    effect: the first of ``_THREAD_VARS`` that is set, else os.cpu_count(),
    with ``threads_from`` naming which. Summation order, and so the
    trailing digits of every artifact, depends on both."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    rec = {"name": blas.get("name"), "version": blas.get("version")}
    for var in _THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value:
            return rec | {"threads": int(value) if value.isdigit() else value,
                          "threads_from": var}
    return rec | {"threads": os.cpu_count(), "threads_from": "cpu_count"}


def _write_manifest(outdir: str, command: str, params: dict, inputs: list[str],
                    solver: list[dict] | None = None) -> None:
    """Write manifest.json; ``solver`` holds one record per solve, its
    ``fem3d.SolveInfo.record()``, after the gamma of a homogenized form (and
    the generator of a ``gclosure-sample`` entry) or the h of a ``theorem1``
    thickness. It is left out for commands that solve nothing."""
    import scipy

    params = {k: v for k, v in params.items()
              if k not in ("func", "config")
              and isinstance(v, (str, int, float, bool, list, dict, type(None)))}
    doc = {
        "command": command,
        "parameters": params,
        "inputs": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "versions": {"platehom": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": _blas(),
        "basis": BASIS_TAG,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if solver is not None:
        doc["solver"] = solver
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(doc, f, indent=1)


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _res(text: str) -> tuple[int, ...]:
    """A ``--res`` value: three positive ints nx,ny,nz."""
    parts = text.split(",")
    if len(parts) != 3 or not all(t.isdecimal() and int(t) > 0 for t in parts):
        raise CliError(f"--res needs three positive ints nx,ny,nz, got {text!r}")
    return tuple(map(int, parts))


def _gammas(text: str) -> list[float]:
    """Either "a:b:n" (n log-spaced values, inclusive) or a comma list."""
    if ":" in text:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        if a <= 0 or b <= 0 or n < 1:
            raise CliError(f"invalid gamma range {text!r}")
        return np.geomspace(a, b, n).tolist()
    return _floats(text)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _apply_config(parser: "_Parser", argv: list[str]) -> list[str]:
    """Install config-file values as parser defaults; explicit flags win."""
    # argparse also takes the one-token spelling --config=PATH
    argv = [part for arg in argv for part in (
        arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config requires a path")
    with open(argv[i + 1]) as f:
        conf = json.load(f)
    conf = {k.replace("-", "_"): v for k, v in conf.items()}

    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    known = {a.dest for p in parsers for a in p._actions}
    unknown = set(conf) - known
    if unknown:
        raise CliError(f"unknown config keys {sorted(unknown)}")
    for p in parsers:
        dests = {a.dest for a in p._actions}
        p.set_defaults(**{k: v for k, v in conf.items() if k in dests})
    return argv[:i] + argv[i + 2:]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_micro(args) -> int:
    res = _res(args.res)
    if args.kind == "laminate":
        axis = args.axis if args.axis in ("x1", "x2", "x3") else float(args.axis)
        grid = micro.make_laminate(axis, _floats(args.fractions), res,
                                   domain=args.domain)
    elif args.kind == "checkerboard":
        nph = len(_floats(args.fractions)) if args.fractions else 2
        grid = micro.make_checkerboard(args.period, res, nphases=nph,
                                       domain=args.domain)
    elif args.kind == "random":
        rng = np.random.default_rng(args.seed)
        nph = len(_floats(args.fractions)) if args.fractions else 2
        data = rng.integers(1, nph + 1, size=res[0] * res[1] * res[2])
        grid = micro.VoxelGrid(nx=res[0], ny=res[1], nz=res[2],
                               data=data.astype(np.int32), domain=args.domain)
    else:
        raise CliError(f"unknown kind {args.kind!r}")
    if args.adjust:
        grid = micro.adjust_volume_fraction(grid, _floats(args.adjust))
    outdir = _outdir(args)
    path = os.path.join(outdir, args.name)
    micro.dump_grid(grid, path)
    frac = micro.volume_fractions(grid)
    with open(os.path.join(outdir, "fractions.json"), "w") as f:
        json.dump({"ids": grid.phase_ids().tolist(),
                   "fractions": frac.tolist(), "basis": BASIS_TAG}, f)
    _write_manifest(outdir, "gen-micro", vars(args) | {"realized": frac.tolist()}, [])
    return 0


def cmd_homogenize(args) -> int:
    grid = micro.load_grid(args.micro)
    phases = algebra.load_phases(args.phases)
    hf = cell.homogenize(grid, phases, args.gamma, tol=args.tol,
                         allow_soft=args.allow_soft)
    outdir = _outdir(args)
    cell.dump_form(hf, os.path.join(outdir, "form.json"))
    if args.check:
        ids = sorted(phases)
        alpha = min(phases[p].alpha for p in ids)
        beta = max(phases[p].beta for p in ids)
        rep = cell.check_bounds(hf, alpha, beta,
                                voigt=cell.voigt_form(grid, phases))
        with open(os.path.join(outdir, "bounds.json"), "w") as f:
            json.dump(rep.__dict__, f, indent=1)
    _write_manifest(outdir, "homogenize",
                    {"gamma": args.gamma, "tol": args.tol},
                    [args.micro, args.phases],
                    solver=[{"gamma": hf.gamma, **hf.solve.record()}])
    if args.check and not rep.passed:
        return 3
    return 0


def cmd_gamma_sweep(args) -> int:
    grid = micro.load_grid(args.micro)
    phases = algebra.load_phases(args.phases)
    gammas = sorted(_gammas(args.gammas))
    result = cell.gamma_sweep(grid, phases, gammas, tol=args.tol,
                              allow_soft=args.allow_soft)
    outdir = _outdir(args)
    cell.dump_sweep_csv(result, os.path.join(outdir, "sweep.csv"))
    doc = {
        "gammas": result.gammas,
        "forms": [cell.form_to_dict(f) if f else None for f in result.forms],
        "errors": {str(k): v for k, v in result.errors.items()},
        "gamma0_estimate": (result.gamma0_estimate.ravel().tolist()
                            if result.gamma0_estimate is not None else None),
        "gammainf_estimate": (result.gammainf_estimate.ravel().tolist()
                              if result.gammainf_estimate is not None else None),
        "basis": BASIS_TAG,
    }
    with open(os.path.join(outdir, "sweep.json"), "w") as f:
        json.dump(doc, f, indent=1)
    _write_manifest(outdir, "gamma-sweep", {"gammas": gammas, "tol": args.tol},
                    [args.micro, args.phases],
                    solver=[{"gamma": g, **f.solve.record()} if f
                            else {"gamma": g, "error": result.errors[g]}
                            for g, f in zip(result.gammas, result.forms)])
    return 0


def cmd_plate_solve(args) -> int:
    problem = plate2d.load_problem(args.problem)
    sol = plate2d.minimize_plate(problem, tol=args.tol)
    outdir = _outdir(args)
    plate2d.dump_solution_csv(sol, os.path.join(outdir, "solution.csv"))
    with open(os.path.join(outdir, "energy.json"), "w") as f:
        json.dump({"energy": sol.energy, "load_value": sol.load_value,
                   "iterations": sol.solve.iterations,
                   "residual": sol.solve.residual,
                   "basis": BASIS_TAG}, f, indent=1)
    _write_manifest(outdir, "plate-solve", {"tol": args.tol}, [args.problem],
                    solver=[sol.solve.record()])
    return 0


def cmd_theorem1(args) -> int:
    grid = micro.load_grid(args.micro)
    phases = algebra.load_phases(args.phases)
    if args.form:
        q0 = cell.load_form(args.form)
    else:
        q0 = cell.kl_limit_form(grid, phases)  # exact for x3-layered plates
    hs = sorted(_floats(args.h), reverse=True)
    result = convergence.theorem1_harness(grid, phases, hs, _floats(args.f),
                                          tuple(args.clamped.split(",")), q0,
                                          tol=args.tol)
    outdir = _outdir(args)
    convergence.dump_harness_csv(result, os.path.join(outdir, "theorem1.csv"))
    convergence.dump_harness_summary(result, os.path.join(outdir, "summary.json"))
    _write_manifest(outdir, "theorem1",
                    {"h": hs, "f": _floats(args.f), "clamped": args.clamped},
                    [args.micro, args.phases, args.form or ""],
                    solver=result.solver)
    if args.check and not (result.gap_monotone and result.corrector_monotone
                           and result.final_gap < args.gap_tol):
        return 3
    return 0


def cmd_griso(args) -> int:
    if args.field:
        field = np.load(args.field)
        if field.ndim != 4 or field.shape[3] != 3:
            raise CliError("field array must have shape (nx+1, ny+1, nz+1, 3)")
    else:
        res = _res(args.res)
        rng = np.random.default_rng(args.seed)
        field = rng.standard_normal((res[0] + 1, res[1] + 1, res[2] + 1, 3))
    parts = convergence.griso_decompose(field)
    z = np.linspace(-0.5, 0.5, field.shape[2])
    recon = parts.elementary(z) + parts.bar
    rec_err = float(np.max(np.abs(recon - field)))
    m0, m1 = convergence.residual_moments(parts)
    ratio = convergence.korn_ratio(field, args.h)
    outdir = _outdir(args)
    with open(os.path.join(outdir, "griso.json"), "w") as f:
        json.dump({"reconstruction_error": rec_err, "residual_mean": m0,
                   "residual_moment": m1, "korn_ratio": ratio,
                   "moment_coeff": parts.moment_coeff, "h": args.h,
                   "basis": BASIS_TAG}, f, indent=1)
    fem3d.dump_vtk(parts.bar, os.path.join(outdir, "residual.vtk"),
                   name="residual")
    _write_manifest(outdir, "griso", {"h": args.h, "seed": args.seed},
                    [args.field or ""])
    if args.check and not (rec_err <= 1e-13 * np.abs(field).max() and ratio > 0):
        return 3
    return 0


def cmd_gclosure_sample(args) -> int:
    phases = algebra.load_phases(args.phases)
    theta = _floats(args.theta)
    gens = [gclosure.GeneratorSpec.parse(t) for t in args.generators.split(",")]
    res = _res(args.res)
    samples = gclosure.sample_ptheta(phases, theta, gens, _gammas(args.gammas),
                                     resolution=res, tol=args.tol)
    outdir = _outdir(args)
    gclosure.dump_samples_csv(samples, os.path.join(outdir, "samples.csv"))
    _write_manifest(outdir, "gclosure-sample",
                    {"theta": theta, "generators": args.generators,
                     "res": list(res)}, [args.phases],
                    solver=[{"generator": e.generator, "gamma": e.gamma,
                             **(e.form.solve.record() if e.form
                                else {"error": e.error})}
                            for e in samples.entries])
    return 0


def cmd_patchwork(args) -> int:
    spec = gclosure.load_patchwork_spec(args.spec)
    phases = algebra.load_phases(args.phases)
    grid = gclosure.patchwork_construct(spec)
    outdir = _outdir(args)
    micro.dump_grid(grid, os.path.join(outdir, "patchwork_micro.json"))
    reports = gclosure.windowed_recovery(grid, spec, phases, tol=args.tol)
    gclosure.dump_recovery_report(reports, os.path.join(outdir, "recovery.json"))
    _write_manifest(outdir, "patchwork", {"gamma": spec.gamma},
                    [args.spec, args.phases])
    if args.check and not all(r.form_gap <= args.gap_tol and r.theta_exact
                              for r in reports):
        return 3
    return 0


def cmd_check(args) -> int:
    """Fast built-in property battery for CI wiring."""
    rng = np.random.default_rng(0)
    failures = []

    def expect(name, ok):
        print(("PASS " if ok else "FAIL ") + name)
        if not ok:
            failures.append(name)

    h11 = algebra.isotropic_hooke(1.0, 1.0)
    expect("isotropic bounds", abs(h11.alpha - 1) < 1e-12 and abs(h11.beta - 2.5) < 1e-12)
    expect("plane-stress spot value",
           abs(algebra.pointwise_relax(h11, np.eye(2)) - 10.0 / 3.0) < 1e-12)
    e = rng.standard_normal((3, 3))
    expect("mandel isometry",
           abs(np.linalg.norm(algebra.mandel3(0.5 * (e + e.T)))
               - np.linalg.norm(0.5 * (e + e.T))) < 1e-12)

    grid = micro.make_laminate("x3", [0.5, 0.5], (2, 2, 8))
    phases = {1: h11, 2: algebra.isotropic_hooke(10.0, 10.0)}
    hf = cell.homogenize(grid, phases, 1.0)
    oracle = cell.kl_limit_form(grid, phases)
    rel = np.abs(hf.a - oracle.a).max() / np.abs(oracle.a).max()
    expect("laminate oracle (2%)", rel < 0.02)
    expect("symmetry", np.abs(hf.a - hf.a.T).max() <= 1e-12 * np.abs(hf.a).max())

    field = rng.standard_normal((9, 9, 9, 3))
    parts = convergence.griso_decompose(field)
    z = np.linspace(-0.5, 0.5, 9)
    rec = parts.elementary(z) + parts.bar
    expect("griso reconstruction", np.max(np.abs(rec - field)) < 1e-13)
    lin = parts.elementary(z)
    parts2 = convergence.griso_decompose(lin)
    expect("griso projection", np.max(np.abs(parts2.bar)) < 1e-12)

    print(f"{len(failures)} failure(s)")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="platehom",
                description="homogenized plate energies from periodic "
                            "3D microstructures")
    p.add_argument("--config", help="JSON config file; keys mirror the flags")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, tol=1e-10):
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--tol", type=float, default=tol)

    sp = sub.add_parser("gen-micro", help="generate a microstructure file")
    sp.add_argument("--kind", required=True,
                    choices=["laminate", "checkerboard", "random"])
    sp.add_argument("--axis", default="x3", help="x1|x2|x3 or angle in degrees")
    sp.add_argument("--fractions", default="0.5,0.5")
    sp.add_argument("--period", type=int, default=2)
    sp.add_argument("--res", default="8,8,8")
    sp.add_argument("--domain", default="cell", choices=["cell", "plate"])
    sp.add_argument("--adjust", default="",
                    help="fractions to enforce exactly after generation")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--name", default="micro.json")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_gen_micro)

    sp = sub.add_parser("homogenize", help="cell problem at one gamma")
    sp.add_argument("--micro", required=True)
    sp.add_argument("--phases", required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--allow-soft", action="store_true")
    sp.add_argument("--check", action="store_true",
                    help="also run check_bounds; exit 3 on failure")
    add_common(sp)
    sp.set_defaults(func=cmd_homogenize)

    sp = sub.add_parser("gamma-sweep", help="homogenize over a gamma range")
    sp.add_argument("--micro", required=True)
    sp.add_argument("--phases", required=True)
    sp.add_argument("--gammas", required=True,
                    help='"a:b:n" for n log-spaced values, or a comma list')
    sp.add_argument("--allow-soft", action="store_true")
    add_common(sp)
    sp.set_defaults(func=cmd_gamma_sweep)

    sp = sub.add_parser("plate-solve", help="minimize the limit plate functional")
    sp.add_argument("--problem", required=True)
    add_common(sp, tol=1e-12)
    sp.set_defaults(func=cmd_plate_solve)

    sp = sub.add_parser("theorem1", help="3D-vs-limit energy convergence sweep")
    sp.add_argument("--micro", required=True, help="plate-domain grid")
    sp.add_argument("--phases", required=True)
    sp.add_argument("--h", required=True, help="comma list of thicknesses")
    sp.add_argument("--f", default="0,0,1")
    sp.add_argument("--clamped", default="left")
    sp.add_argument("--form", default="",
                    help="limit form JSON; default: exact x3-layered form")
    sp.add_argument("--check", action="store_true")
    sp.add_argument("--gap-tol", type=float, default=0.10)
    add_common(sp, tol=1e-11)
    sp.set_defaults(func=cmd_theorem1)

    sp = sub.add_parser("griso", help="decomposition self-checks on a field")
    sp.add_argument("--field", default="", help=".npy nodal field; default random")
    sp.add_argument("--res", default="16,16,16")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--h", type=float, default=0.1)
    sp.add_argument("--check", action="store_true")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_griso)

    sp = sub.add_parser("gclosure-sample", help="sample homogenized mixtures")
    sp.add_argument("--phases", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--generators", required=True,
                    help='comma list, e.g. "laminate:x1,laminate:45,checkerboard:2"')
    sp.add_argument("--gammas", default="1.0")
    sp.add_argument("--res", default="8,8,8")
    add_common(sp)
    sp.set_defaults(func=cmd_gclosure_sample)

    sp = sub.add_parser("patchwork", help="construct + locally recover a patchwork")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--phases", required=True)
    sp.add_argument("--check", action="store_true")
    sp.add_argument("--gap-tol", type=float, default=0.05)
    add_common(sp)
    sp.set_defaults(func=cmd_patchwork)

    sp = sub.add_parser("check", help="fast built-in property battery")
    sp.set_defaults(func=cmd_check)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
