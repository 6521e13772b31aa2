"""Seeded input files for each workload.

Run as a script, it is one set-up of a run: a fresh process that imports
the program and writes one workload's inputs. ``run.py`` times several of
them from spawn to exit and reports the median as ``setup_s``::

    python3 perfbench/inputs.py --workload cell-sweep --seed 0 --out DIR

Workload parameters that do not come from the seed are constants here, so
the set-up, the operations and the checks read the same values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common

common.pin_threads()

import numpy as np  # noqa: E402  (after the thread pinning)

import oracle  # noqa: E402

WORKLOADS = ("cell-sweep", "cell-many-small", "plate-thin", "plate-limit")

CONTRAST = 10.0
SWEEP_RES = 16
SWEEP_LAYOUT_SEED = 0         # the random cell; seeds shift and scale it
SWEEP_GAMMAS = (0.1, 1.0, 10.0)
SMALL_RES = 8
SMALL_THETA = (0.5, 0.5)
SMALL_GENERATORS = ("laminate:x1", "laminate:x2", "laminate:30", "laminate:45",
                    "laminate:60", "checkerboard:2", "checkerboard:4")
SMALL_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
THIN_RES = (32, 32, 8)
THIN_HS = (0.25, 0.125, 0.0625)
CANTILEVER_M = 64
STABILITY_M = 32
STRIP_M = 32
# membrane block of the bending-decoupled orthotropic form; its bending block
# is diag(membrane) / 12, so x1 bending couples to nothing else
ORTHO_MEMBRANE = np.array([[1.0, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.35]])


def seeded_scale(seed: int) -> tuple[float, float]:
    """(stiffness scale, load), each a power of two in [1/4, 4].

    Scaling K and the load by powers of two is exact in floating point, so
    every number the program computes scales exactly and its solvers do the
    same iterations for every seed. An arbitrary scale would change the
    rounding, and with it the count of a stalling CG (h = 1/16: 4223 or
    5716 iterations), so the spread across seeds would be the input's, not
    the machine's.
    """
    rng = np.random.default_rng([seed, 1])
    s, f = 2.0 ** rng.integers(-2, 3, size=2)
    return float(s), float(f)


def phases_doc(s: float) -> dict:
    return {"phases": [
        {"id": 1, "model": "isotropic", "lambda": s, "mu": s},
        {"id": 2, "model": "isotropic", "lambda": CONTRAST * s,
         "mu": CONTRAST * s},
    ]}


def sweep_base():
    """(nz, ny, nx) phase ids of the random two-phase cell."""
    n = SWEEP_RES
    rng = np.random.default_rng(SWEEP_LAYOUT_SEED)
    return rng.integers(1, 3, size=(n, n, n)).astype(np.int32)


def sweep_cell(seed: int) -> np.ndarray:
    """The random cell shifted periodically in-plane by a seeded offset.

    A shift permutes the dofs and leaves every form unchanged. A fresh
    layout per seed would change the CG work by several percent (seeds 1-6
    took 16980 to 17798 iterations), input spread that would hide the
    machine's.
    """
    shift = np.random.default_rng([seed, 2]).integers(0, SWEEP_RES, size=2)
    return np.roll(sweep_base(), tuple(shift), axis=(1, 2))


def phase_params(doc: dict) -> list[tuple[float, float]]:
    """(lambda, mu) per phase, ordered by phase id."""
    entries = sorted(doc["phases"], key=lambda e: e["id"])
    return [(e["lambda"], e["mu"]) for e in entries]


def ortho_form(s: float) -> np.ndarray:
    a = np.zeros((6, 6))
    a[:3, :3] = s * ORTHO_MEMBRANE
    a[3:, 3:] = np.diag(np.diag(s * ORTHO_MEMBRANE)) / 12.0
    return a


def plane_stress_form(lam: float, mu: float) -> np.ndarray:
    """Homogeneous plate: plane-stress membrane, bending = membrane / 12."""
    r = oracle.plane_stress(lam, mu)
    return np.block([[r, np.zeros((3, 3))], [np.zeros((3, 3)), r / 12.0]])


def plate_problem(m: int, form: np.ndarray, f: float, clamped) -> dict:
    return {"mx": m, "my": m, "form": form.ravel().tolist(),
            "forces": [0.0, 0.0, f], "clamped": list(clamped)}


def _dump(doc, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_inputs(workload: str, seed: int, out: Path, platehom) -> None:
    """Write the input files of ``workload`` for ``seed`` into ``out``."""
    micro = platehom.microstructure
    out.mkdir(parents=True, exist_ok=True)
    s, f = seeded_scale(seed)
    if workload == "cell-sweep":
        _dump(phases_doc(s), out / "phases.json")
        n = SWEEP_RES
        micro.dump_grid(micro.VoxelGrid(nx=n, ny=n, nz=n,
                                        data=sweep_cell(seed).ravel()),
                        out / "micro.json")
    elif workload == "cell-many-small":
        _dump(phases_doc(s), out / "phases.json")
    elif workload == "plate-thin":
        _dump(phases_doc(s), out / "phases.json")
        grid = micro.make_laminate("x3", [0.5, 0.5], THIN_RES, domain="plate")
        micro.dump_grid(grid, out / "plate_micro.json")
        _dump({"f": f}, out / "load.json")
    elif workload == "plate-limit":
        _dump(plate_problem(CANTILEVER_M, ortho_form(s), f, ["left"]),
              out / "cantilever.json")
        _dump(plate_problem(STABILITY_M, plane_stress_form(s, s), f, ["left"]),
              out / "stability.json")
        # the strip fails on every seed (see README), so it takes no seed
        _dump(plate_problem(STRIP_M, ortho_form(1.0), 1.0, ["left", "right"]),
              out / "strip.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    try:
        platehom = common.import_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_inputs(args.workload, args.seed, args.out, platehom)
    return 0


if __name__ == "__main__":
    sys.exit(main())
