"""Homogenized plate stiffness from periodic cell corrector problems.

For a gamma in (0, inf) and a periodic N-phase cell, six corrector problems
(one per membrane/curvature Mandel basis load) yield the 6x6 form A with
value z.Az equal to the infimum of the cell energy; the 1/2 inside the 3D
density is absorbed into A, so the coercivity/boundedness eigenvalue bounds
[alpha/12, beta] apply to A directly.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem3d
from .algebra import HookeTensor3, PlateForm, evaluate_form, laminate_x3_form
from .fem3d import SolverError
from .microstructure import VoxelGrid, volume_fractions

BASIS_TAG = "mandel-pair-v1"
CONVENTION_NOTE = (
    "matrix A gives the homogenized energy value z.Az directly (the 1/2 of "
    "the 3D density is absorbed); Mandel order (m11, m22, sqrt2 m12) for each "
    "of the membrane and curvature slots"
)


@dataclass(frozen=True)
class HomogenizedForm:
    """A PlateForm plus the provenance of the cell computation."""

    form: PlateForm
    gamma: float
    resolution: tuple[int, int, int]
    fractions: tuple[float, ...]
    phase_ids: tuple[int, ...]
    phase_digests: tuple[str, ...]
    solve: fem3d.SolveInfo = field(compare=False)  # the six-corrector CG solve

    @property
    def a(self) -> np.ndarray:
        return self.form.a


# Q(M1, M2) = z.Az of a PlateForm or a HomogenizedForm: both carry ``a``
evaluate = evaluate_form


def _form_matrix(e0, gmat, u, ku) -> np.ndarray:
    # A_ab = 0.5 * int (eps_a + B psi_a) . C (eps_b + B psi_b); the cross
    # version below is symmetric by construction and second-order accurate
    # in the corrector error.
    a = 0.5 * (e0 + gmat.T @ u + u.T @ gmat + u.T @ ku)
    defect = np.max(np.abs(a - a.T))
    scale = max(np.max(np.abs(a)), 1e-300)
    if defect > 1e-12 * scale:
        raise SolverError(f"form symmetry defect {defect:.3e} exceeds 1e-12 rel")
    return 0.5 * (a + a.T)


def _check_reference(precond: fem3d.ReferencePreconditioner,
                     op: fem3d.Operator) -> None:
    """Raise ``ValueError`` unless ``precond`` was built for the lattice,
    gamma and phase tensors of the cell operator ``op``: its m bounds K
    from below only for the phases it was built from."""
    same_tensors = (len(precond.tensors) == len(op.tensors)
                    and all(np.array_equal(p.c, q.c)
                            for p, q in zip(precond.tensors, op.tensors)))
    for what, same in (("lattice shape", precond.shape == op.stencil.lattice),
                       ("gamma", precond.gamma == op.scale),
                       ("phase tensors", same_tensors)):
        if not same:
            raise ValueError(f"the preconditioner's {what} differs from the "
                             "cell operator's")


def homogenize(grid: VoxelGrid, phases: dict[int, HookeTensor3], gamma: float,
               tol: float = 1e-10, allow_soft: bool = False,
               precond: fem3d.ReferencePreconditioner | None = None
               ) -> HomogenizedForm:
    """Compute the homogenized plate form of a periodic cell at given gamma.

    The six corrector problems are one block CG solve, preconditioned by the
    in-plane Fourier inverse of a homogeneous reference medium K0. A column
    stops once its relative residual reaches ``tol`` or once its certified
    form error does: every phase has C_p >= m C0, so K >= m K0 and the
    corrector's energy error obeys ||e_i||_K^2 <= r.K0^-1 r / m, and the form
    error |dA_ij| = |e_i.K e_j| / 2 is at most tol / 1000 of max|A| when
    that bound is tol / 1000 of 2 A_ii (``fem3d.pcg``'s ``bound``).

    With ``precond`` None the preconditioner is built here. A caller that
    homogenizes several cells can build one and pass it to each: it must be
    built for this grid's shape, this gamma and the tensors of the phases
    present in this grid (``fem3d.phase_tensors``), else ``ValueError``. The
    form is then bit for bit the one built without it.
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if grid.domain != "cell":
        raise ValueError("homogenize expects a cell-domain grid")
    op = fem3d.assemble(grid, phases, scale=gamma, mode="cell",
                        allow_soft=allow_soft)
    if precond is None:
        precond = fem3d.ReferencePreconditioner(grid.shape, gamma, op.tensors)
    else:
        _check_reference(precond, op)
    gmat, e0 = fem3d.corrector_loads(op)
    # the translations stay out: the loads and correctors are projected
    # here, every search direction by the preconditioner
    u, info = fem3d.pcg(op.k, op.project(-gmat), precond=precond, tol=tol,
                        bound=(precond.m, np.diag(e0)))
    u = op.project(u)
    info.preconditioner = precond.describe()
    a = _form_matrix(e0, gmat, u, op.k @ u)
    ids = sorted(int(p) for p in grid.phase_ids())
    return HomogenizedForm(
        form=PlateForm(a=a, gamma=gamma),
        gamma=gamma,
        resolution=grid.shape,
        fractions=tuple(volume_fractions(grid, ids).tolist()),
        phase_ids=tuple(ids),
        phase_digests=tuple(phases[p].digest() for p in ids),
        solve=info,
    )


def voigt_form(grid: VoxelGrid, phases: dict[int, HookeTensor3]) -> PlateForm:
    """Upper-bound form with correctors forced to zero (gamma-independent)."""
    op = fem3d.assemble(grid, phases, scale=1.0, mode="cell", allow_soft=True)
    _, e0 = fem3d.corrector_loads(op)
    return PlateForm(a=0.5 * e0, gamma="voigt")


def x3_layers(grid: VoxelGrid, phases: dict[int, HookeTensor3]
              ) -> list[tuple[HookeTensor3, float, float]]:
    """Layer decomposition of an x3-laminated grid (errors if in-plane varying)."""
    arr = grid.as_3d()
    layers = []
    hz = 1.0 / grid.nz
    for k in range(grid.nz):
        sl = arr[:, :, k]
        pid = int(sl.flat[0])
        if not np.all(sl == pid):
            raise ValueError("grid varies in-plane; not an x3 laminate")
        z0 = -0.5 + k * hz
        if layers and layers[-1][0] is phases[pid]:
            h, a, _ = layers[-1]
            layers[-1] = (h, a, z0 + hz)
        else:
            layers.append((phases[pid], z0, z0 + hz))
    return layers


def kl_limit_form(grid: VoxelGrid, phases: dict[int, HookeTensor3]) -> PlateForm:
    """Exact limit form for in-plane-invariant (x3-layered) microstructures."""
    return laminate_x3_form(x3_layers(grid, phases))


@dataclass
class BoundsReport:
    eig_min: float
    eig_max: float
    coercive_floor: float          # alpha / 12
    bounded_ceiling: float         # beta
    coercivity_checked: bool
    coercivity_ok: bool
    boundedness_ok: bool
    voigt_ok: bool | None
    voigt_margin: float | None
    passed: bool


def check_bounds(form, alpha: float, beta: float,
                 voigt: PlateForm | None = None) -> BoundsReport:
    """Verify eigenvalues of A against [alpha/12, beta] and the Voigt ceiling,
    each to 1e-12 of beta (of max|Voigt| for the ceiling).

    With non-coercive (soft) phases pass alpha <= 0: the coercivity check is
    skipped with a warning, mirroring the bound's precondition.
    """
    a = form.a
    slack = 1e-12 * beta
    eig = np.linalg.eigvalsh(a)
    check_coercivity = alpha > 0.0
    if not check_coercivity:
        warnings.warn("soft phase present: coercivity bound skipped", stacklevel=2)
    coercivity_ok = bool(eig[0] >= alpha / 12.0 - slack) if check_coercivity else True
    boundedness_ok = bool(eig[-1] <= beta + slack)
    voigt_ok = None
    voigt_margin = None
    if voigt is not None:
        diff = np.linalg.eigvalsh(voigt.a - a)
        voigt_margin = float(diff[0])
        voigt_ok = bool(voigt_margin >= -1e-12 * np.abs(voigt.a).max())
    passed = coercivity_ok and boundedness_ok and (voigt_ok is not False)
    return BoundsReport(
        eig_min=float(eig[0]), eig_max=float(eig[-1]),
        coercive_floor=alpha / 12.0, bounded_ceiling=beta,
        coercivity_checked=check_coercivity, coercivity_ok=coercivity_ok,
        boundedness_ok=boundedness_ok, voigt_ok=voigt_ok,
        voigt_margin=voigt_margin, passed=passed,
    )


@dataclass
class SweepResult:
    gammas: list[float]
    forms: list[HomogenizedForm | None]
    errors: dict[float, str] = field(default_factory=dict)
    gamma0_estimate: np.ndarray | None = None
    gammainf_estimate: np.ndarray | None = None


def _aitken(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Entrywise Aitken delta-squared extrapolation with safe fallback."""
    d1 = m1 - m0
    d2 = m2 - m1
    den = d2 - d1
    out = m2.copy()
    ok = np.abs(den) > 1e-14 * (np.abs(m2) + 1e-300)
    out[ok] = m2[ok] - d2[ok] ** 2 / den[ok]
    return out


def gamma_sweep(grid: VoxelGrid, phases: dict[int, HookeTensor3], gammas,
                tol: float = 1e-10, allow_soft: bool = False) -> SweepResult:
    """Homogenize over a sorted list of gammas; endpoint behavior is
    Aitken-extrapolated, never solved at gamma = 0 or infinity."""
    gammas = [float(g) for g in gammas]
    if not all(0.0 < g < np.inf for g in gammas):
        raise ValueError("all gammas must be positive and finite")
    if sorted(gammas) != gammas:
        raise ValueError("gammas must be sorted ascending")
    result = SweepResult(gammas=gammas, forms=[])
    for g in gammas:
        try:
            result.forms.append(homogenize(grid, phases, g, tol=tol,
                                           allow_soft=allow_soft))
        except SolverError as exc:
            result.forms.append(None)
            result.errors[g] = str(exc)
    good = [f for f in result.forms if f is not None]
    if len(good) >= 3:
        result.gamma0_estimate = _aitken(good[2].a, good[1].a, good[0].a)
        result.gammainf_estimate = _aitken(good[-3].a, good[-2].a, good[-1].a)
    elif good:
        result.gamma0_estimate = good[0].a.copy()
        result.gammainf_estimate = good[-1].a.copy()
    return result


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def form_to_dict(hf: HomogenizedForm) -> dict:
    return {
        "gamma": hf.gamma,
        "basis": BASIS_TAG,
        "matrix": hf.a.ravel().tolist(),
        "fractions": list(hf.fractions),
        "resolution": list(hf.resolution),
        "residuals": list(hf.solve.column_residuals),
        "phase_ids": list(hf.phase_ids),
        "phase_digests": list(hf.phase_digests),
        "note": CONVENTION_NOTE,
    }


def dump_form(hf: HomogenizedForm, path) -> None:
    with open(path, "w") as f:
        json.dump(form_to_dict(hf), f, indent=1)


def load_form(path) -> PlateForm:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("basis", BASIS_TAG) != BASIS_TAG:
        raise ValueError(f"unsupported basis tag {doc.get('basis')!r}")
    a = np.array(doc["matrix"], dtype=float).reshape(6, 6)
    return PlateForm(a=a, gamma=doc.get("gamma", "limit"))


UPPER_HEADER = [f"a{i + 1}{j + 1}" for i, j in zip(*np.triu_indices(6))]


def form_row(a: np.ndarray) -> list[float]:
    """A form's CSV row: its upper triangle, in ``UPPER_HEADER`` order, then
    its smallest and largest eigenvalue."""
    eig = np.linalg.eigvalsh(a)
    return [*a[np.triu_indices(6)].tolist(), eig[0], eig[-1]]


def dump_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# basis: {BASIS_TAG}\n")
        w = csv.writer(f)
        w.writerow(["gamma", *UPPER_HEADER, "eig_min", "eig_max"])
        for g, hf in zip(result.gammas, result.forms):
            if hf is None:
                w.writerow([g] + ["nan"] * 23)
                continue
            w.writerow([g, *form_row(hf.a)])
        for label, est in (("gamma->0 est.", result.gamma0_estimate),
                           ("gamma->inf est.", result.gammainf_estimate)):
            if est is not None:
                w.writerow([label, *form_row(est)])
