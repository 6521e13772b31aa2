"""One-off timings of the larger baseline rows no workload reaches: cells at
24^3, the clamped plate at h = 1/32 and plate2d at m = 128. They are
printed, not gated; the README records one run of::

    python3 perfbench/baseline_rows.py

Inputs are the workloads' inputs at seed 0 with the size raised.
"""

from __future__ import annotations

import json
import shutil
import time

import common

common.pin_threads()

import numpy as np  # noqa: E402

import inputs  # noqa: E402


def timed(platehom, *argv) -> float:
    t0 = time.perf_counter()
    rc = platehom.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}")
    return time.perf_counter() - t0


def main() -> int:
    platehom = common.import_program()
    micro = platehom.microstructure
    work = common.OUT / "baseline_rows"
    work.mkdir(parents=True, exist_ok=True)
    (work / "phases.json").write_text(json.dumps(inputs.phases_doc(1.0)))
    n = 24
    data = np.random.default_rng(0).integers(1, 3, size=n ** 3)
    micro.dump_grid(micro.VoxelGrid(nx=n, ny=n, nz=n, data=data),
                    work / "cell24.json")
    for gamma in inputs.SWEEP_GAMMAS:
        t = timed(platehom, "homogenize", "--micro", work / "cell24.json",
                  "--phases", work / "phases.json", "--gamma", gamma,
                  "--out", work / f"cell24-g{gamma:g}")
        print(f"cell 24^3 homogenize gamma={gamma:g}: {t:.1f} s", flush=True)
    micro.dump_grid(micro.make_laminate("x3", [0.5, 0.5], inputs.THIN_RES,
                                        domain="plate"), work / "plate.json")
    t = timed(platehom, "theorem1", "--micro", work / "plate.json",
              "--phases", work / "phases.json", "--h", 0.03125,
              "--clamped", "left", "--out", work / "h32")
    print(f"theorem1 32x32x8 h=1/32: {t:.1f} s", flush=True)
    (work / "m128.json").write_text(json.dumps(inputs.plate_problem(
        128, inputs.ortho_form(1.0), 1.0, ["left"])))
    t = timed(platehom, "plate-solve", "--problem", work / "m128.json",
              "--out", work / "m128")
    iters = json.loads((work / "m128" / "energy.json").read_text())["iterations"]
    print(f"plate-solve 128x128 cantilever: {t:.1f} s, {iters} iterations")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
