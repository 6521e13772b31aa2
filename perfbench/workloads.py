"""The four workloads: the operations of one round and the checks on them.

Every operation goes through the program's public entry points:
``platehom.cli.main`` where a command exists, a public module function
otherwise. Checks compare against ``oracle`` (closed forms), ``reference``
(direct factorization) or a property the method must have; a failed check
is a problem that makes the run incorrect, except for the clamped-clamped
strip, whose wrong energy is a known fault counted as a failed operation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
import reference
from spans import h_key

# relative tolerances of the checks (see README)
SYMMETRY_TOL = 1e-12
BOUND_SLACK = 1e-12
REFERENCE_TOL = 1e-10
MIRROR_TOL = 1e-12
LIMIT_FORM_TOL = 1e-13
THIN_GAP_BOUND = {"h4": 0.10, "h8": 0.02, "h16": 0.03}
BEAM_TOL_M2 = 10.0            # |E - E_beam| / |E_beam| <= BEAM_TOL_M2 / m^2
STRIP_TOL_M2 = 100.0          # the same for the strip (70 / m^2 on odd m)
STABILITY_RATIO = (5.0, 20.0)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    timed: bool = True          # False: kept out of every end-to-end metric


@dataclass
class Round:
    out: Path
    times: dict[str, float] = field(default_factory=dict)
    results: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def timed_seconds(self, ops: list[Op]) -> float:
        return sum(self.times[op.name] for op in ops if op.timed)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_form(a: np.ndarray, alpha: float, beta: float, voigt: np.ndarray,
               label: str, problems: list[str]) -> None:
    """Symmetry, the eigenvalue bounds [alpha/12, beta] and A <= Voigt."""
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
        problems.append(f"{label}: form not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (a + a.T))
    if eig[0] < alpha / 12.0 - BOUND_SLACK * beta or eig[-1] > beta * (1 + BOUND_SLACK):
        problems.append(f"{label}: eigenvalues [{eig[0]:.6g}, {eig[-1]:.6g}] "
                        f"outside [{alpha / 12:.6g}, {beta:.6g}]")
    if np.linalg.eigvalsh(voigt - a)[0] < -BOUND_SLACK * np.abs(voigt).max():
        problems.append(f"{label}: Voigt - A not positive semidefinite")


def layer_counts(grid, ids) -> np.ndarray:
    """(nz, len(ids)) voxel count of each phase in each layer."""
    arr = grid.as_3d()
    return np.stack([(arr == p).sum(axis=(0, 1)) for p in ids], axis=1)


class Workload:
    name = ""

    def __init__(self, platehom, inp: Path, seed: int):
        self.ph = platehom
        self.inp = inp
        self.seed = seed

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, rnd: Round, problems: list[str]) -> None:
        """Set ``rnd.attempted``/``rnd.failed`` and append check problems."""
        raise NotImplementedError

    def final_check(self, problems: list[str]) -> None:
        """Checks made once a run, after its timed rounds."""

    def cli(self, *argv) -> int:
        return self.ph.cli.main([str(a) for a in argv])

    def bounds(self, doc) -> tuple[float, float]:
        pairs = [oracle.hooke_bounds(*p) for p in inputs.phase_params(doc)]
        return min(a for a, _ in pairs), max(b for _, b in pairs)


class CellSweep(Workload):
    name = "cell-sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.forms: list[dict[float, np.ndarray]] = []   # per round

    def ops(self, out):
        gammas = ",".join(f"{g:g}" for g in inputs.SWEEP_GAMMAS)
        return [Op("gamma-sweep", lambda: self.cli(
            "gamma-sweep", "--micro", self.inp / "micro.json",
            "--phases", self.inp / "phases.json", "--gammas", gammas,
            "--out", out / "sweep"))]

    def check(self, rnd, problems):
        n = len(inputs.SWEEP_GAMMAS)
        rnd.attempted = n
        if rnd.results["gamma-sweep"] != 0:
            rnd.failed = n
            return
        doc = _read_json(rnd.out / "sweep" / "sweep.json")
        phases = _read_json(self.inp / "phases.json")
        alpha, beta = self.bounds(phases)
        grid = self.ph.microstructure.load_grid(self.inp / "micro.json")
        voigt = oracle.voigt_form(layer_counts(grid, [1, 2]),
                                  inputs.phase_params(phases))
        forms = {}
        for g, f in zip(inputs.SWEEP_GAMMAS, doc["forms"]):
            if f is None:
                rnd.failed += 1
                continue
            forms[g] = np.array(f["matrix"]).reshape(6, 6)
            check_form(forms[g], alpha, beta, voigt, f"gamma {g:g}", problems)
        self.forms.append(forms)

    def final_check(self, problems):
        # a seed's cell is the reference cell shifted, stiffness times s
        s = inputs.phase_params(_read_json(self.inp / "phases.json"))[0][1]
        try:
            ref = dict(zip(inputs.SWEEP_GAMMAS, reference.stored()))
        except ValueError as exc:
            problems.append(str(exc))
            return
        for forms in self.forms:
            for g, a in forms.items():
                r = s * ref[g]
                if _rel(a, r) > REFERENCE_TOL:
                    problems.append(f"gamma {g:g}: form differs from the "
                                    f"direct reference by {_rel(a, r):.3e}")


class CellManySmall(Workload):
    name = "cell-many-small"

    def ops(self, out):
        return [Op("gclosure-sample", lambda: self.cli(
            "gclosure-sample", "--phases", self.inp / "phases.json",
            "--theta", ",".join(map(str, inputs.SMALL_THETA)),
            "--generators", ",".join(inputs.SMALL_GENERATORS),
            "--gammas", ",".join(f"{g:g}" for g in inputs.SMALL_GAMMAS),
            "--res", ",".join([str(inputs.SMALL_RES)] * 3),
            "--out", out / "samples"))]

    def _grids(self):
        """Each generator's cell as sample_ptheta builds it."""
        gc, micro = self.ph.gclosure, self.ph.microstructure
        res = (inputs.SMALL_RES,) * 3
        out = {}
        for token in inputs.SMALL_GENERATORS:
            spec = gc.GeneratorSpec.parse(token)
            grid = gc.build_generator(spec, inputs.SMALL_THETA, res)
            out[spec.describe()] = micro.adjust_volume_fraction(
                grid, inputs.SMALL_THETA, phase_ids=[1, 2])
        return out

    def check(self, rnd, problems):
        n = len(inputs.SMALL_GENERATORS) * len(inputs.SMALL_GAMMAS)
        rnd.attempted = n
        if rnd.results["gclosure-sample"] != 0:
            rnd.failed = n
            return
        with open(rnd.out / "samples" / "samples.csv") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")][1:]
        if len(rows) != n:
            problems.append(f"samples.csv has {len(rows)} rows, expected {n}")
        phases = _read_json(self.inp / "phases.json")
        alpha, beta = self.bounds(phases)
        params = inputs.phase_params(phases)
        iu = np.triu_indices(6)
        forms = {}
        grids = self._grids()
        for row in rows:
            gen, gamma = row[0], float(row[1])
            if row[-1]:
                rnd.failed += 1
                continue
            a = np.zeros((6, 6))
            a[iu] = [float(x) for x in row[2:23]]
            a = a + np.triu(a, 1).T
            counts = layer_counts(grids[gen], [1, 2])
            total = counts.sum(axis=0)
            if not np.all(total * 2 == counts.sum()):
                problems.append(f"{gen}: realized fractions {total} not 1/2")
            check_form(a, alpha, beta, oracle.voigt_form(counts, params),
                       f"{gen} gamma {gamma:g}", problems)
            forms[gen, gamma] = a
        p = oracle.MIRROR
        for g in inputs.SMALL_GAMMAS:
            pairs = [("laminate:x2", "laminate:x1"),
                     ("checkerboard:2", "checkerboard:2"),
                     ("checkerboard:4", "checkerboard:4")]
            for left, right in pairs:
                if (left, g) in forms and (right, g) in forms:
                    mirrored = p @ forms[right, g] @ p
                    if _rel(forms[left, g], mirrored) > MIRROR_TOL:
                        problems.append(f"{left} != P {right} P at gamma {g:g}")


class PlateThin(Workload):
    name = "plate-thin"

    def ops(self, out):
        f = _read_json(self.inp / "load.json")["f"]
        return [Op(f"theorem1.{h_key(h)}", lambda h=h: self.cli(
            "theorem1", "--micro", self.inp / "plate_micro.json",
            "--phases", self.inp / "phases.json", "--h", repr(h),
            "--f", f"0,0,{f!r}", "--clamped", "left",
            "--out", out / f"h{h!r}")) for h in inputs.THIN_HS]

    def check(self, rnd, problems):
        rnd.attempted = len(inputs.THIN_HS)
        rows = []
        for h in inputs.THIN_HS:
            if rnd.results[f"theorem1.{h_key(h)}"] != 0:
                rnd.failed += 1
                continue
            with open(rnd.out / f"h{h!r}" / "theorem1.csv") as fh:
                row = [float(x) for x in list(csv.reader(fh))[1]]
            _, f_h, f0, rel_gap, corr, _ = row
            key = h_key(h)
            if not f_h < 0.0:
                problems.append(f"{key}: F_h = {f_h} is not negative")
            gap = abs(f_h - f0) / abs(f0)
            if not gap < THIN_GAP_BOUND[key] or abs(gap - rel_gap) > 1e-12 * gap:
                problems.append(f"{key}: |F_h - F0|/|F0| = {gap:.4g} "
                                f"(reported {rel_gap:.4g}, bound "
                                f"{THIN_GAP_BOUND[key]})")
            rows.append((f0, corr))
        if len({f0 for f0, _ in rows}) > 1:
            problems.append("F0 differs between the theorem1 commands")
        corrs = [c for _, c in rows]
        if any(b >= a for a, b in zip(corrs, corrs[1:])):
            problems.append(f"corrector norms {corrs} do not decrease with h")

    def final_check(self, problems):
        grid = self.ph.microstructure.load_grid(self.inp / "plate_micro.json")
        doc = _read_json(self.inp / "phases.json")
        form = self.ph.cell.kl_limit_form(
            grid, self.ph.algebra.load_phases(self.inp / "phases.json"))
        params = inputs.phase_params(doc)
        nz = grid.nz
        ids = grid.as_3d()[0, 0, :]
        layers = [(*params[p - 1], -0.5 + k / nz, -0.5 + (k + 1) / nz)
                  for k, p in enumerate(ids)]
        expected = oracle.laminate_x3_form(layers)
        if _rel(form.a, expected) > LIMIT_FORM_TOL:
            problems.append(f"limit form differs from the laminate oracle by "
                            f"{_rel(form.a, expected):.3e}")


class PlateLimit(Workload):
    name = "plate-limit"

    def ops(self, out):
        plate2d = self.ph.plate2d

        def stability():
            problem = plate2d.load_problem(self.inp / "stability.json")
            return plate2d.perturbation_stability(problem)

        return [
            Op("plate-solve", lambda: self.cli(
                "plate-solve", "--problem", self.inp / "cantilever.json",
                "--out", out / "plate-solve")),
            Op("stability", stability),
            Op("strip", lambda: self.cli(
                "plate-solve", "--problem", self.inp / "strip.json",
                "--out", out / "strip"), timed=False),
        ]

    def _beam_gap(self, rnd, op, problem_file, expected) -> float:
        """|E - E_beam| / |E_beam| times m^2, inf if the command failed."""
        if rnd.results[op] != 0:
            return np.inf
        prob = _read_json(self.inp / problem_file)
        energy = _read_json(rnd.out / op / "energy.json")["energy"]
        want = expected(np.array(prob["form"]).reshape(6, 6), prob["forces"][2])
        return abs(energy - want) / abs(want) * prob["mx"] ** 2

    def check(self, rnd, problems):
        rnd.attempted = 3
        gap = self._beam_gap(rnd, "plate-solve", "cantilever.json",
                             oracle.cantilever_energy)
        if gap == np.inf:
            rnd.failed += 1
        elif gap > BEAM_TOL_M2:
            problems.append(f"cantilever energy off the beam oracle by "
                            f"{gap:.3g}/m^2")
        report = rnd.results["stability"]
        lo, hi = STABILITY_RATIO
        if isinstance(report, Exception):
            rnd.failed += 1
        else:
            with open(rnd.out / "stability.json", "w") as fh:
                json.dump(report.__dict__, fh)
            if not (report.gap_ratio is not None and lo <= report.gap_ratio <= hi):
                problems.append(f"stability gap ratio {report.gap_ratio} "
                                f"outside [{lo}, {hi}]")
        # the known fault: an exact zero-energy mode on the strip (README)
        if not self._beam_gap(rnd, "strip", "strip.json",
                              oracle.clamped_strip_energy) <= STRIP_TOL_M2:
            rnd.failed += 1


WORKLOADS = {w.name: w for w in (CellSweep, CellManySmall, PlateThin, PlateLimit)}
