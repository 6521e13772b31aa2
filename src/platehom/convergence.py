"""Thin-domain displacement decomposition and the energy-convergence harness.

The decomposition splits a nodal field on omega x I into its thickness
average, an infinitesimal rotation linear in x3, and a residual:

    psi = hat(x') + r(x') ^ x3 e3 + bar(x),
    hat = int_I psi dx3,   r = 12 * int_I x3 (e3 ^ psi) dx3.

The moment coefficient is 12 = 1 / int_I x3^2 dx3 for I = [-1/2, 1/2]; it is
the unique value for which fields linear in x3 are reproduced exactly
(decomposing hat + r ^ x3 e3 returns zero residual). Thickness integrals are
exact on piecewise-linear-in-x3 interpolants, which the projection property
requires; for plain averages this coincides with the trapezoid rule.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import cell, fem3d, plate2d
from .algebra import HookeTensor3, PlateForm
from .microstructure import VoxelGrid

MOMENT_COEFF = 12.0


def _z_nodes(nz: int) -> np.ndarray:
    return np.linspace(-0.5, 0.5, nz + 1)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _moment_weights(z: np.ndarray) -> np.ndarray:
    """Nodal weights giving the exact integral of x3 * (P1 interpolant)."""
    w = np.zeros_like(z)
    for k in range(z.size - 1):
        a, b = z[k], z[k + 1]
        h = b - a
        # int_a^b x*(b-x)/h dx and int_a^b x*(x-a)/h dx
        w[k] += (b * (b * b - a * a) / 2.0 - (b**3 - a**3) / 3.0) / h
        w[k + 1] += ((b**3 - a**3) / 3.0 - a * (b * b - a * a) / 2.0) / h
    return w


@dataclass
class GrisoParts:
    hat: np.ndarray        # (nx+1, ny+1, 3) thickness average
    r: np.ndarray          # (nx+1, ny+1, 2) in-plane rotation components
    bar: np.ndarray        # (nx+1, ny+1, nz+1, 3) residual
    moment_coeff: float

    def elementary(self, z: np.ndarray) -> np.ndarray:
        """The reconstructed hat + r ^ x3 e3 part as a nodal 3D field."""
        out = np.broadcast_to(
            self.hat[:, :, None, :], self.bar.shape
        ).copy()
        out[..., 0] += z[None, None, :] * self.r[:, :, None, 1]
        out[..., 1] -= z[None, None, :] * self.r[:, :, None, 0]
        return out


def griso_decompose(field: np.ndarray) -> GrisoParts:
    """Split a nodal field on omega x I; the reconstruction identity
    field = hat + r ^ x3 e3 + bar holds exactly by construction."""
    field = np.asarray(field, dtype=float)
    nz = field.shape[2] - 1
    if nz < 2:
        raise ValueError("need at least 2 cell layers in x3")
    z = _z_nodes(nz)
    tw = _trapezoid_weights(nz + 1, 1.0 / nz)
    mw = _moment_weights(z)
    hat = np.einsum("k,ijkc->ijc", tw, field)
    mom = np.einsum("k,ijkc->ijc", mw, field)
    r = np.stack([-MOMENT_COEFF * mom[..., 1], MOMENT_COEFF * mom[..., 0]],
                 axis=-1)
    bar = field.copy()
    bar -= hat[:, :, None, :]
    bar[..., 0] -= z[None, None, :] * r[:, :, None, 1]
    bar[..., 1] += z[None, None, :] * r[:, :, None, 0]
    return GrisoParts(hat=hat, r=r, bar=bar, moment_coeff=MOMENT_COEFF)


def residual_moments(parts: GrisoParts) -> tuple[float, float]:
    """Max abs of int_I bar dx3 and int_I x3 (e3 ^ bar) dx3 (quadrature-level)."""
    nz = parts.bar.shape[2] - 1
    z = _z_nodes(nz)
    tw = _trapezoid_weights(nz + 1, 1.0 / nz)
    mw = _moment_weights(z)
    m0 = np.einsum("k,ijkc->ijc", tw, parts.bar)
    m1 = np.einsum("k,ijkc->ijc", mw, parts.bar[..., :2])
    return float(np.max(np.abs(m0))), float(np.max(np.abs(m1)))


# ---------------------------------------------------------------------------
# gradient and norm quadrature on nodal grids
# ---------------------------------------------------------------------------

def center_gradient(field: np.ndarray, scale: float) -> np.ndarray:
    """Scaled gradient of the trilinear interpolant at element centers.

    Returns (nx, ny, nz, 3 comps, 3 dirs) with the z column divided by scale.
    """
    nx = field.shape[0] - 1
    ny = field.shape[1] - 1
    nz = field.shape[2] - 1
    hx, hy, hz = 1.0 / nx, 1.0 / ny, 1.0 / nz

    def face_mean(d, axis):
        # average the edge differences over the two transverse directions
        for ax in (0, 1, 2):
            if ax != axis:
                d = 0.5 * (np.take(d, np.arange(d.shape[ax] - 1), axis=ax)
                           + np.take(d, np.arange(1, d.shape[ax]), axis=ax))
        return d

    gx = face_mean(np.diff(field, axis=0) / hx, 0)
    gy = face_mean(np.diff(field, axis=1) / hy, 1)
    gz = face_mean(np.diff(field, axis=2) / (hz * scale), 2)
    return np.stack([gx, gy, gz], axis=-1)


def sym_grad_energy(field: np.ndarray, scale: float) -> float:
    """int |sym grad_s field|^2 by midpoint (element-center) quadrature."""
    g = center_gradient(field, scale)
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    nx, ny, nz = g.shape[:3]
    return float((s ** 2).sum() / (nx * ny * nz))


def grad_energy(field: np.ndarray, scale: float) -> float:
    g = center_gradient(field, scale)
    nx, ny, nz = g.shape[:3]
    return float((g ** 2).sum() / (nx * ny * nz))


def nodal_l2_sq(field: np.ndarray) -> float:
    """int |field|^2 with product trapezoid weights on the unit-volume grid."""
    dims = field.shape[:3]
    acc = field ** 2
    for ax, n in enumerate(dims):
        tw = _trapezoid_weights(n, 1.0 / (n - 1))
        shape = [1, 1, 1, 1][: acc.ndim]
        shape[ax] = n
        acc = acc * tw.reshape(shape)
    return float(acc.sum())


def korn_ratio(field: np.ndarray, h: float) -> float:
    """Measured quotient of the thin-domain Korn inequality:
    [ |sym grad_h elementary|^2 + |grad_h bar|^2 + h^-2 |bar|^2 ] over
    |sym grad_h field|^2."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    den = sym_grad_energy(field, h)
    if den == 0.0:
        raise ValueError("field has vanishing symmetrized scaled gradient")
    parts = griso_decompose(field)
    z = _z_nodes(field.shape[2] - 1)
    elem = parts.elementary(z)
    num = (sym_grad_energy(elem, h) + grad_energy(parts.bar, h)
           + nodal_l2_sq(parts.bar) / (h * h))
    return num / den


# ---------------------------------------------------------------------------
# Kirchhoff-Love extraction
# ---------------------------------------------------------------------------

def _grad2d(v: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Nodal gradient, central differences with second-order one-sided edges."""
    gx = np.empty_like(v)
    gx[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * hx)
    gx[0, :] = (-3 * v[0, :] + 4 * v[1, :] - v[2, :]) / (2 * hx)
    gx[-1, :] = (3 * v[-1, :] - 4 * v[-2, :] + v[-3, :]) / (2 * hx)
    gy = np.empty_like(v)
    gy[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * hy)
    gy[:, 0] = (-3 * v[:, 0] + 4 * v[:, 1] - v[:, 2]) / (2 * hy)
    gy[:, -1] = (3 * v[:, -1] - 4 * v[:, -2] + v[:, -3]) / (2 * hy)
    return np.stack([gx, gy], axis=-1)


def extract_kl(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Recover (w, v) from a 3D displacement and the corrector norm.

    w = int_I (u1, u2) dx3, v = h int_I u3 dx3; the corrector is the remainder
    of the Kirchhoff-Love ansatz (w - x3 grad v, v/h) and its reported norm is
    ||(psi1, psi2, h psi3)||_L2.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    nx, ny = u.shape[0] - 1, u.shape[1] - 1
    nz = u.shape[2] - 1
    tw = _trapezoid_weights(nz + 1, 1.0 / nz)
    w = np.einsum("k,ijkc->ijc", tw, u[..., :2])
    v = h * np.einsum("k,ijk->ij", tw, u[..., 2])
    gv = _grad2d(v, 1.0 / nx, 1.0 / ny)
    z = _z_nodes(nz)
    psi = u.copy()
    psi[..., :2] -= w[:, :, None, :]
    psi[..., :2] += z[None, None, :, None] * gv[:, :, None, :]
    psi[..., 2] -= v[:, :, None] / h
    scaled = psi.copy()
    scaled[..., 2] *= h
    return w, v, float(np.sqrt(nodal_l2_sq(scaled)))


def nodal_l2_sq_2d(field: np.ndarray) -> float:
    n0, n1 = field.shape[:2]
    w0 = _trapezoid_weights(n0, 1.0 / (n0 - 1))
    w1 = _trapezoid_weights(n1, 1.0 / (n1 - 1))
    acc = field ** 2
    if acc.ndim == 3:
        acc = acc.sum(axis=-1)
    return float((acc * w0[:, None] * w1[None, :]).sum())


# ---------------------------------------------------------------------------
# energy-convergence harness
# ---------------------------------------------------------------------------

@dataclass
class HarnessRow:
    h: float
    f_h: float
    f_0: float
    rel_gap: float
    corrector_norm: float
    kl_gap: float
    error: str | None = None


@dataclass
class HarnessResult:
    rows: list[HarnessRow]
    gap_monotone: bool
    corrector_monotone: bool
    final_gap: float
    # one record per h: h and the solve's ``SolveInfo.record()``, or h and
    # the solver error
    solver: list[dict] = field(default_factory=list)


def theorem1_harness(grid: VoxelGrid, phases: dict[int, HookeTensor3],
                     h_list, forces, clamped: tuple[str, ...],
                     q0: PlateForm, tol: float = 1e-11) -> HarnessResult:
    """Compare scaled 3D energies against the limit plate minimum over a
    decreasing list of thicknesses.

    The 3D force functional and the plate force functional use the same
    density f = (f1, f2, f3); ``q0`` is the limit form (from ``cell`` output
    or, for in-plane-invariant microstructures, the exact layered form).
    """
    h_list = [float(h) for h in h_list]
    if any(h <= 0 for h in h_list):
        raise ValueError("thicknesses must be positive")
    if sorted(h_list, reverse=True) != h_list:
        raise ValueError("h list must be decreasing")
    nx, ny, _ = grid.shape
    problem = plate2d.PlateProblem(mx=nx, my=ny, forms=q0.a,
                                   forces=np.asarray(forces, dtype=float),
                                   clamped=clamped)
    limit = plate2d.minimize_plate(problem)
    f0 = limit.energy

    rows: list[HarnessRow] = []
    solver: list[dict] = []
    for h in h_list:
        try:
            op, u, f_h, info = fem3d.solve_clamped(grid, phases, h, forces,
                                                   clamped, tol=tol)
        except fem3d.SolverError as exc:
            rows.append(HarnessRow(h=h, f_h=np.nan, f_0=f0, rel_gap=np.nan,
                                   corrector_norm=np.nan, kl_gap=np.nan,
                                   error=str(exc)))
            solver.append({"h": h, "error": str(exc)})
            continue
        solver.append({"h": h, **info.record()})
        field = fem3d.expand_field(op, u)
        w_h, v_h, corr = extract_kl(field, h)
        kl_gap = np.sqrt(nodal_l2_sq_2d(w_h - limit.w)
                         + nodal_l2_sq_2d(v_h - limit.v))
        rel = abs(f_h - f0) / abs(f0) if f0 != 0.0 else abs(f_h)
        rows.append(HarnessRow(h=h, f_h=f_h, f_0=f0, rel_gap=rel,
                               corrector_norm=corr, kl_gap=float(kl_gap)))
    good = [r for r in rows if r.error is None]
    gaps = [r.rel_gap for r in good]
    corrs = [r.corrector_norm for r in good]
    return HarnessResult(
        rows=rows,
        gap_monotone=all(b < a for a, b in zip(gaps, gaps[1:])),
        corrector_monotone=all(b < a for a, b in zip(corrs, corrs[1:])),
        final_gap=gaps[-1] if gaps else np.nan,
        solver=solver,
    )


def dump_harness_csv(result: HarnessResult, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["h", "F_h", "F0", "rel_gap", "corrector_norm", "kl_gap"])
        for r in result.rows:
            w.writerow([r.h, r.f_h, r.f_0, r.rel_gap, r.corrector_norm,
                        r.kl_gap])


def dump_harness_summary(result: HarnessResult, path) -> None:
    doc = {
        "basis": cell.BASIS_TAG,
        "gap_monotone": result.gap_monotone,
        "corrector_monotone": result.corrector_monotone,
        "final_gap": result.final_gap,
        "rows": [r.__dict__ for r in result.rows],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
