"""Sampling the set of periodically homogenized mixtures at fixed volume
fraction, and the patchwork construction with windowed local recovery.

The sampled set is exactly that: a finite family of homogenized forms from
parametric microstructure generators, each adjusted to the target fractions.
The patchwork tiles each patch of the plate with a periodic cell; windowed
recovery re-homogenizes one period cut strictly inside each patch and checks
it against the patch's target form. That window is a copy of the patch cell,
so the check is a smoke test of the tiling and the windowing: it does not
test the locality of Gamma-closure, which needs 3D plate solves on the
patchwork as eps -> 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import cell as cellmod
from . import fem3d
from .algebra import HookeTensor3
from .fem3d import SolverError
from .microstructure import (VoxelGrid, adjust_volume_fraction, load_grid,
                             make_checkerboard, make_laminate, tile,
                             volume_fractions, window)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str                      # "laminate" | "checkerboard"
    axis: str | float | None = None
    period: int | None = None

    def describe(self) -> str:
        if self.kind == "laminate":
            axis = self.axis if isinstance(self.axis, str) else f"{self.axis:g}"
            return f"laminate:{axis}"
        return f"checkerboard:{self.period}"

    @staticmethod
    def parse(token: str) -> "GeneratorSpec":
        kind, _, arg = token.partition(":")
        if kind == "laminate":
            axis: str | float = arg if arg in ("x1", "x2", "x3") else float(arg)
            return GeneratorSpec(kind="laminate", axis=axis)
        if kind == "checkerboard":
            return GeneratorSpec(kind="checkerboard", period=int(arg))
        raise ValueError(f"unknown generator {token!r}")


def build_generator(spec: GeneratorSpec, theta, resolution) -> VoxelGrid:
    if spec.kind == "laminate":
        return make_laminate(spec.axis, theta, resolution)
    if spec.kind == "checkerboard":
        nph = np.asarray(theta).size
        return make_checkerboard(spec.period, resolution, nphases=nph)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


@dataclass
class SampleEntry:
    generator: str
    gamma: float
    form: cellmod.HomogenizedForm | None
    realized_theta: tuple[float, ...]
    error: str | None = None


@dataclass
class SampleSet:
    theta: tuple[float, ...]
    entries: list[SampleEntry] = field(default_factory=list)


def sample_ptheta(phases: dict[int, HookeTensor3], theta, generators,
                  gammas, resolution=(8, 8, 8),
                  tol: float = 1e-10) -> SampleSet:
    """One homogenized form per (generator, gamma), every generator adjusted
    to the target fractions first; failures are recorded, not raised.

    The entries run generator by generator, each over ``gammas``, but the
    solves run gamma by gamma: the cells at one gamma that hold the same
    phases (all have the shape ``resolution``) share one reference
    preconditioner, built once for that shape, gamma and phase tensors
    (``cell.homogenize``'s ``precond``) and dropped before the next gamma's.
    """
    theta = np.asarray(theta, dtype=float)
    out = SampleSet(theta=tuple(theta.tolist()))
    ids = sorted(phases)
    cells = []
    for spec in generators:
        grid = build_generator(spec, theta, resolution)
        grid = adjust_volume_fraction(grid, theta, phase_ids=ids)
        present, tensors = fem3d.phase_tensors(grid, phases)
        cells.append((spec.describe(), grid, tuple(present), tensors,
                      tuple(volume_fractions(grid, ids).tolist())))
    rows = [[] for _ in cells]
    for g in map(float, gammas):
        preconds = {}
        for row, (name, grid, present, tensors, realized) in zip(rows, cells):
            if present not in preconds:
                preconds[present] = fem3d.ReferencePreconditioner(
                    grid.shape, g, tensors)
            try:
                hf = cellmod.homogenize(grid, phases, g, tol=tol,
                                        precond=preconds[present])
                row.append(SampleEntry(generator=name, gamma=g, form=hf,
                                       realized_theta=realized))
            except SolverError as exc:
                row.append(SampleEntry(generator=name, gamma=g, form=None,
                                       realized_theta=realized,
                                       error=str(exc)))
    out.entries = [e for row in rows for e in row]
    return out


def dump_samples_csv(samples: SampleSet, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# basis: {cellmod.BASIS_TAG}\n")
        w = csv.writer(f)
        w.writerow(["generator", "gamma", *cellmod.UPPER_HEADER,
                    "eig_min", "eig_max", "error"])
        for e in samples.entries:
            if e.form is None:
                w.writerow([e.generator, e.gamma] + ["nan"] * 23 + [e.error])
                continue
            w.writerow([e.generator, e.gamma, *cellmod.form_row(e.form.a), ""])


# ---------------------------------------------------------------------------
# patchwork construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Patch:
    cell: VoxelGrid
    rect: tuple[int, int, int, int]    # (i0, i1, j0, j1) in target voxels
    label: str = ""


@dataclass(frozen=True)
class PatchworkSpec:
    resolution: tuple[int, int, int]
    gamma: float
    patches: tuple[Patch, ...]


def patchwork_construct(spec: PatchworkSpec) -> VoxelGrid:
    """Plate grid whose restriction to each patch is the periodic extension
    of that patch's cell."""
    return tile([(p.cell, p.rect) for p in spec.patches], spec.resolution)


MARGIN_PERIODS = 1   # whole periods between a window and a patch interface


@dataclass
class PatchReport:
    label: str
    window_origin: tuple[int, int]
    form_gap: float
    theta_exact: bool
    window_theta: tuple[float, ...]
    target_theta: tuple[float, ...]


def windowed_recovery(grid: VoxelGrid, spec: PatchworkSpec,
                      phases: dict[int, HookeTensor3],
                      tol: float = 1e-10) -> list[PatchReport]:
    """Re-homogenize one period inside each patch and compare to the target.

    The window is period-aligned and at least ``MARGIN_PERIODS`` periods from
    every patch interface; a patch too small for that margin is an error.
    ``grid`` must be ``patchwork_construct(spec)``: the cell and its window
    share one reference preconditioner, which ``cell.homogenize`` rejects
    for a window that holds other phases.

    A period-aligned window of the tiling is bit-for-bit the patch cell, so
    by construction every patch's form gap is exactly 0 and its volume
    fractions match. This is a smoke test of ``patchwork_construct`` and
    ``window``; it does not test locality.
    """
    reports = []
    ids = sorted(phases)
    for p in spec.patches:
        i0, i1, j0, j1 = p.rect
        px, py = p.cell.nx, p.cell.ny
        repsx = (i1 - i0) // px
        repsy = (j1 - j0) // py
        mx = (repsx - 1) // 2
        my = (repsy - 1) // 2
        if mx < MARGIN_PERIODS or my < MARGIN_PERIODS:
            raise ValueError(
                f"patch {p.label or p.rect}: window would sit within "
                f"{MARGIN_PERIODS} period(s) of an interface"
            )
        wi = i0 + mx * px
        wj = j0 + my * py
        sub = window(grid, wi, wj, px, py)
        # the window is the cell, so one preconditioner serves both solves
        precond = fem3d.ReferencePreconditioner(
            p.cell.shape, spec.gamma, fem3d.phase_tensors(p.cell, phases)[1])
        target = cellmod.homogenize(p.cell, phases, spec.gamma, tol=tol,
                                    precond=precond)
        got = cellmod.homogenize(sub, phases, spec.gamma, tol=tol,
                                 precond=precond)
        del precond
        gap = float(np.max(np.abs(got.a - target.a))
                    / max(np.max(np.abs(target.a)), 1e-300))

        # coarse in-plane averaging: integer counts must match the tiled cell
        region = grid.as_3d()[i0:i1, j0:j1, :]
        reps = repsx * repsy
        cell3 = p.cell.as_3d()
        exact = all(
            int(np.count_nonzero(region == pid))
            == reps * int(np.count_nonzero(cell3 == pid))
            for pid in ids
        )
        wt = tuple(volume_fractions(sub, ids).tolist())
        tt = tuple(volume_fractions(p.cell, ids).tolist())
        reports.append(PatchReport(label=p.label or str(p.rect),
                                   window_origin=(wi, wj), form_gap=gap,
                                   theta_exact=exact, window_theta=wt,
                                   target_theta=tt))
    return reports


# ---------------------------------------------------------------------------
# patchwork spec file
# ---------------------------------------------------------------------------

def load_patchwork_spec(path) -> PatchworkSpec:
    """Spec JSON: {"resolution": [NX,NY,NZ], "gamma": g, "patches":
    [{"rect": [i0,i1,j0,j1], "micro": <path or inline grid doc>, "label": s}]}.
    Relative micro paths resolve against the spec file's directory."""
    import os

    with open(path) as f:
        doc = json.load(f)
    base = os.path.dirname(os.path.abspath(path))
    patches = []
    for pd in doc["patches"]:
        micro = pd["micro"]
        if isinstance(micro, str):
            mp = micro if os.path.isabs(micro) else os.path.join(base, micro)
            cell_grid = load_grid(mp)
        else:
            cell_grid = VoxelGrid(nx=int(micro["nx"]), ny=int(micro["ny"]),
                                  nz=int(micro["nz"]),
                                  data=np.array(micro["data"], dtype=np.int32),
                                  domain="cell")
        patches.append(Patch(cell=cell_grid, rect=tuple(pd["rect"]),
                             label=pd.get("label", "")))
    return PatchworkSpec(resolution=tuple(doc["resolution"]),
                         gamma=float(doc["gamma"]), patches=tuple(patches))


def dump_recovery_report(reports: list[PatchReport], path) -> None:
    doc = {"basis": cellmod.BASIS_TAG,
           "patches": [r.__dict__ for r in reports]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
