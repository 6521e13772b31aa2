"""Symmetric-tensor algebra in Mandel coordinates and elasticity quadratic forms.

Conventions used everywhere in this package:

* Sym3 Mandel order: (m11, m22, m33, sqrt(2) m23, sqrt(2) m13, sqrt(2) m12),
  so the Frobenius norm of a symmetric matrix equals the Euclidean norm of
  its Mandel vector.
* Sym2 Mandel order: (m11, m22, sqrt(2) m12).
* A 6x6 stiffness matrix C represents the energy density
  Q(F) = 0.5 * mandel(sym F) . C mandel(sym F); the coercivity/boundedness
  constants (alpha, beta) are the extreme eigenvalues of C/2.
* A plate form (``PlateForm``) is a 6x6 matrix A on membrane/curvature pairs
  with value z . A z (no extra 1/2), z = (mandel2(M1), mandel2(M2)).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)

# Sym2 Mandel vector (m11, m22, sqrt2 m12) embedded into the Sym3 Mandel slots
# (m11, m22, m33, s2 m23, s2 m13, s2 m12) occupied by iota(M).
_EMBED = np.zeros((6, 3))
_EMBED[0, 0] = 1.0
_EMBED[1, 1] = 1.0
_EMBED[5, 2] = 1.0

# mandel3(sym(b otimes e3)) = _BCOL @ b for b in R^3.
_BCOL = np.zeros((6, 3))
_BCOL[2, 2] = 1.0
_BCOL[3, 1] = 1.0 / SQRT2
_BCOL[4, 0] = 1.0 / SQRT2


def mandel2(m: np.ndarray) -> np.ndarray:
    """Mandel coordinates of a symmetric 2x2 matrix."""
    m = np.asarray(m, dtype=float)
    return np.array([m[0, 0], m[1, 1], SQRT2 * m[0, 1]])


def mandel3(m: np.ndarray) -> np.ndarray:
    """Mandel coordinates of a symmetric 3x3 matrix."""
    m = np.asarray(m, dtype=float)
    return np.array([
        m[0, 0], m[1, 1], m[2, 2],
        SQRT2 * m[1, 2], SQRT2 * m[0, 2], SQRT2 * m[0, 1],
    ])


def mandel_pair(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """R^6 coordinates of a (membrane, curvature) pair of symmetric 2x2 matrices."""
    return np.concatenate([mandel2(m1), mandel2(m2)])


def embed2to3(m: np.ndarray) -> np.ndarray:
    """Natural inclusion of a 2x2 matrix into 3x3 (third row/column zero)."""
    m = np.asarray(m, dtype=float)
    out = np.zeros((3, 3))
    out[:2, :2] = m
    return out


def rotation90_mandel2() -> np.ndarray:
    """Mandel-2 representation of conjugation by an in-plane 90-degree rotation."""
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def rotation90_pair() -> np.ndarray:
    """Block-diagonal 90-degree rotation acting on membrane/curvature pairs."""
    r = rotation90_mandel2()
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[3:, 3:] = r
    return out


class NonCoerciveError(ValueError):
    """Raised when an operation requires a coercive elasticity tensor."""


@dataclass(frozen=True)
class HookeTensor3:
    """A 3D elasticity quadratic form Q(F) = 0.5 c z.z in Sym3 Mandel coordinates.

    ``alpha`` and ``beta`` are the smallest/largest eigenvalues of c/2, which
    gives the sandwich alpha |sym F|^2 <= Q(F) <= beta |sym F|^2; the tensor
    is coercive iff alpha > 0.
    """

    c: np.ndarray
    alpha: float
    beta: float

    @staticmethod
    def from_mandel(c: np.ndarray) -> "HookeTensor3":
        c = np.array(c, dtype=float).reshape(6, 6)
        asym = np.max(np.abs(c - c.T))
        scale = max(np.max(np.abs(c)), 1.0)
        if asym > 1e-12 * scale:
            warnings.warn(
                f"stiffness matrix symmetrized (asymmetry {asym:.3e})",
                stacklevel=2,
            )
        c = 0.5 * (c + c.T)
        eig = np.linalg.eigvalsh(0.5 * c)
        c.flags.writeable = False
        return HookeTensor3(c=c, alpha=float(eig[0]), beta=float(eig[-1]))

    @property
    def coercive(self) -> bool:
        return self.alpha > 0.0

    def digest(self) -> str:
        """Stable hash of the stiffness entries, used for form provenance."""
        return hashlib.sha256(np.round(self.c, 12).tobytes()).hexdigest()[:16]


def isotropic_hooke(lam: float, mu: float) -> HookeTensor3:
    """Hooke tensor for Q(F) = mu |sym F|^2 + (lam/2) tr(sym F)^2.

    Requires mu > 0 and 3 lam + 2 mu > 0 (ellipticity).
    """
    if not (mu > 0.0 and 3.0 * lam + 2.0 * mu > 0.0):
        raise ValueError(f"non-elliptic parameters lambda={lam}, mu={mu}")
    t = np.zeros(6)
    t[:3] = 1.0
    c = 2.0 * mu * np.eye(6) + lam * np.outer(t, t)
    return HookeTensor3.from_mandel(c)


def soft_hooke(epsilon: float) -> HookeTensor3:
    """Near-void stand-in with c/2 = epsilon * identity (perforation surrogate)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return HookeTensor3.from_mandel(2.0 * epsilon * np.eye(6))


def eval_energy(h: HookeTensor3, e: np.ndarray) -> float:
    """Energy density 0.5 C z.z for a (not necessarily symmetric) 3x3 strain."""
    e = np.asarray(e, dtype=float)
    z = mandel3(0.5 * (e + e.T))
    return float(0.5 * z @ h.c @ z)


def bounds(h: HookeTensor3) -> tuple[float, float]:
    """(alpha, beta) eigenvalue bounds of c/2; alpha <= 0 flags non-coercivity."""
    if h.alpha <= 0.0:
        warnings.warn(f"tensor is not coercive (alpha={h.alpha:.3e})", stacklevel=2)
    return h.alpha, h.beta


def relaxation_matrix(h: HookeTensor3) -> np.ndarray:
    """3x3 Mandel-2 matrix R of the plane-stress reduction of ``h``.

    R is the Schur complement of the out-of-plane strain block:
    min over b of Q(iota(M) + sym(b otimes e3)) = mandel2(M) . R mandel2(M).
    """
    cbb = _BCOL.T @ h.c @ _BCOL
    if not h.coercive:
        cond = np.linalg.cond(cbb)
        if not np.isfinite(cond) or cond > 1e14:
            raise NonCoerciveError(
                "singular plane-stress stationarity system (non-coercive tensor)"
            )
    cbm = _BCOL.T @ h.c @ _EMBED
    r = _EMBED.T @ h.c @ _EMBED - cbm.T @ np.linalg.solve(cbb, cbm)
    # Schur complement of the 0.5 C z.z energy: the 1/2 carries through
    return 0.25 * (r + r.T)


def pointwise_relax(h: HookeTensor3, m: np.ndarray) -> float:
    """min over b in R^3 of Q(iota(M) + sym(b otimes e3)).

    For isotropic tensors this equals mu |M|^2 + (lam mu / (lam + 2 mu)) tr(M)^2.
    """
    z = mandel2(np.asarray(m, dtype=float))
    return float(z @ relaxation_matrix(h) @ z)


@dataclass(frozen=True)
class PlateForm:
    """6x6 quadratic form on membrane/curvature pairs, value z.Az (no extra 1/2)."""

    a: np.ndarray
    gamma: float | str = "limit"

    def __post_init__(self):
        a = np.array(self.a, dtype=float).reshape(6, 6)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def evaluate_form(form: PlateForm, m1: np.ndarray, m2: np.ndarray) -> float:
    """Q(M1, M2) = z.Az for the mandel pair z of (M1, M2)."""
    z = mandel_pair(m1, m2)
    return float(z @ form.a @ z)


def plane_stress_form(h: HookeTensor3) -> PlateForm:
    """Plate form of a homogeneous plate: membrane = plane-stress reduction,
    bending = membrane/12, no coupling."""
    r = relaxation_matrix(h)
    a = np.zeros((6, 6))
    a[:3, :3] = r
    a[3:, 3:] = r / 12.0
    return PlateForm(a=a, gamma="limit")


def laminate_x3_form(layers: list[tuple[HookeTensor3, float, float]]) -> PlateForm:
    """Plate form of an x3-layered material by pointwise relaxation + integration.

    ``layers`` is a list of (tensor, z0, z1) slabs covering [-1/2, 1/2].
    Independent of gamma: for x3-only microstructures the cell problem
    decouples into a pointwise minimization over the third strain column,
    so Q(M1, M2) = integral over x3 of the plane-stress value at M1 + x3 M2.
    """
    a = np.zeros((6, 6))
    for h, z0, z1 in layers:
        r = relaxation_matrix(h)
        w0 = z1 - z0
        w1 = 0.5 * (z1**2 - z0**2)
        w2 = (z1**3 - z0**3) / 3.0
        a[:3, :3] += w0 * r
        a[:3, 3:] += w1 * r
        a[3:, :3] += w1 * r
        a[3:, 3:] += w2 * r
    return PlateForm(a=a, gamma="limit")


# ---------------------------------------------------------------------------
# phase library file format
# ---------------------------------------------------------------------------

def load_phases(path) -> dict[int, HookeTensor3]:
    """Read a phase-library JSON file: {"phases": [{"id", "model", ...}]}.

    Models: "isotropic" with "lambda"/"mu", or "mandel6" with "c" (36 numbers,
    row-major, Mandel basis).
    """
    with open(path) as f:
        doc = json.load(f)
    phases: dict[int, HookeTensor3] = {}
    for entry in doc["phases"]:
        pid = int(entry["id"])
        if pid in phases:
            raise ValueError(f"duplicate phase id {pid}")
        model = entry["model"]
        if model == "isotropic":
            phases[pid] = isotropic_hooke(float(entry["lambda"]), float(entry["mu"]))
        elif model == "mandel6":
            c = np.array(entry["c"], dtype=float)
            if c.size != 36:
                raise ValueError(f"phase {pid}: expected 36 entries, got {c.size}")
            phases[pid] = HookeTensor3.from_mandel(c.reshape(6, 6))
        else:
            raise ValueError(f"phase {pid}: unknown model {model!r}")
    if not phases:
        raise ValueError("phase library is empty")
    return phases


def dump_phases(phases: dict[int, HookeTensor3], path) -> None:
    doc = {
        "phases": [
            {"id": pid, "model": "mandel6", "c": h.c.ravel().tolist()}
            for pid, h in sorted(phases.items())
        ]
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
