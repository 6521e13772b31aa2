"""Closed-form results the benchmark checks the program against.

Nothing here calls ``platehom``: each value is written out from its formula,
for isotropic phases given as (lambda, mu) with the energy density
Q(F) = mu |sym F|^2 + (lambda/2) tr(sym F)^2.

Plate forms use the program's basis: a 6x6 matrix A on the Mandel pair
z = (m11, m22, sqrt2 m12, k11, k22, sqrt2 k12) with value z.Az.
"""

from __future__ import annotations

import numpy as np

# x <-> y mirror: swaps m11 and m22 in the membrane and in the curvature slot
MIRROR = np.eye(6)[[1, 0, 2, 4, 3, 5]]


def hooke_bounds(lam: float, mu: float) -> tuple[float, float]:
    """(alpha, beta): extreme eigenvalues of C/2 for an isotropic phase.

    C/2 = mu I + (lambda/2) t t^T with t = (1, 1, 1, 0, 0, 0), so the
    eigenvalues are mu (five times) and mu + 3 lambda / 2.
    """
    pair = (mu, mu + 1.5 * lam)
    return min(pair), max(pair)


def plane_stress(lam: float, mu: float) -> np.ndarray:
    """3x3 Mandel-2 matrix R of min over the out-of-plane strain of Q.

    Eliminating e33 = -lambda tr(M) / (lambda + 2 mu) gives
    mu |M|^2 + lambda mu / (lambda + 2 mu) tr(M)^2, and |M|^2 = z.z.
    """
    t = np.array([1.0, 1.0, 0.0])
    return mu * np.eye(3) + lam * mu / (lam + 2.0 * mu) * np.outer(t, t)


def membrane(lam: float, mu: float) -> np.ndarray:
    """3x3 block of C on in-plane strains (rows m11, m22, sqrt2 m12)."""
    return np.array([[lam + 2.0 * mu, lam, 0.0],
                     [lam, lam + 2.0 * mu, 0.0],
                     [0.0, 0.0, 2.0 * mu]])


def moments(z0: float, z1: float) -> tuple[float, float, float]:
    """Exact integrals of 1, x3 and x3^2 over [z0, z1]."""
    return z1 - z0, (z1 ** 2 - z0 ** 2) / 2.0, (z1 ** 3 - z0 ** 3) / 3.0


def _stack(blocks) -> np.ndarray:
    """Sum of [[I0, I1], [I1, I2]] (x) B over (I0, I1, I2, B)."""
    a = np.zeros((6, 6))
    for i0, i1, i2, b in blocks:
        a += np.block([[i0 * b, i1 * b], [i1 * b, i2 * b]])
    return a


def laminate_x3_form(layers) -> np.ndarray:
    """Plate form of an x3 laminate of (lam, mu, z0, z1) slabs covering
    [-1/2, 1/2]: the plane-stress value at M1 + x3 M2 integrated over x3."""
    return _stack((*moments(z0, z1), plane_stress(lam, mu))
                  for lam, mu, z0, z1 in layers)


def voigt_form(counts: np.ndarray, phases) -> np.ndarray:
    """Zero-corrector plate form of a voxel cell.

    ``counts[k, p]`` is the number of voxels of phase ``phases[p] =
    (lam, mu)`` in voxel layer k (layers of equal height from x3 = -1/2).
    With no corrector the strain is iota(M1 + x3 M2), so the form is half
    the layer integrals of 1, x3, x3^2 times the in-plane block of C,
    weighted by each phase's share of the layer.
    """
    counts = np.asarray(counts, dtype=float)
    nz = counts.shape[0]
    per_layer = counts.sum(axis=1)
    blocks = []
    for k in range(nz):
        z0, z1 = -0.5 + k / nz, -0.5 + (k + 1) / nz
        c = sum(counts[k, p] / per_layer[k] * membrane(*phases[p])
                for p in range(len(phases)))
        blocks.append((*moments(z0, z1), 0.5 * c))
    return _stack(blocks)


def _bending_a33(a: np.ndarray) -> float:
    """A33 (k11 stiffness) of a form whose x1 bending is decoupled."""
    a = np.asarray(a, dtype=float)
    coupled = np.abs(np.concatenate([a[:3, 3:].ravel(), a[3, 4:]])).max()
    if coupled > 1e-14 * np.abs(a).max():
        raise ValueError("form couples x1 bending to membrane, k22 or k12")
    return float(a[3, 3])


def cantilever_energy(a: np.ndarray, f: float) -> float:
    """Minimum of the plate energy on the unit square, left edge clamped,
    uniform transverse load f, for a bending-decoupled form.

    The deflection depends on x1 only: 2 A33 v'''' = f with v = v' = 0 at
    x1 = 0 and v'' = v''' = 0 at x1 = 1, so v = f x^2 (6 - 4x + x^2) /
    (48 A33), the integral of v is f / (40 A33) and the minimum is
    -f/2 times that.
    """
    return -f * f / (80.0 * _bending_a33(a))


def clamped_strip_energy(a: np.ndarray, f: float) -> float:
    """Same as ``cantilever_energy`` with the left and right edges clamped:
    v = f x^2 (1 - x)^2 / (48 A33), the integral of v is f / (1440 A33)."""
    return -f * f / (2880.0 * _bending_a33(a))
