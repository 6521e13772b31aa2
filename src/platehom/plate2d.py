"""Limit plate model on the unit square: minimize the homogenized energy
integral of Q0(x', sym grad w, -hess v) minus the force term f.(w1, w2, v).

Discretization: w on bilinear quadrilaterals with 2x2 Gauss membrane strain
(the curvature is constant per cell, so coupling acts through the cell-center
membrane strain); v nodal with a finite-difference Hessian at cell centers
built from 3-point nodal second differences averaged onto the cell, the
bilinear cross-derivative for the mixed entry, and one-sided ghost reflection
across clamped edges enforcing dv/dn = 0. The v space is nonconforming;
refinement behavior is verified empirically by the tests.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .algebra import SQRT2
from .fem3d import EDGES, SolverError, pcg

GAUSS = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class PlateProblem:
    mx: int
    my: int
    forms: np.ndarray          # (mx, my, 6, 6) per-cell form matrices
    forces: np.ndarray         # (mx+1, my+1, 3) nodal force densities
    clamped: tuple[str, ...]

    def __post_init__(self):
        if self.mx < 2 or self.my < 2:
            raise ValueError("plate grid must be at least 2x2")
        if not self.clamped:
            raise ValueError("clamped edge set must be nonempty")
        bad = [e for e in self.clamped if e not in EDGES]
        if bad:
            raise ValueError(f"unknown edge names {bad}")
        forms = np.array(self.forms, dtype=float)
        if forms.shape == (6, 6):
            forms = np.broadcast_to(forms, (self.mx, self.my, 6, 6)).copy()
        if forms.shape != (self.mx, self.my, 6, 6):
            raise ValueError(f"forms shape {forms.shape} invalid")
        eigs = np.linalg.eigvalsh(forms)
        if np.any(eigs[..., 0] <= 0.0):
            raise ValueError("every cell form must be positive definite")
        forces = np.asarray(self.forces, dtype=float)
        if forces.shape == (3,):
            forces = np.broadcast_to(forces, (self.mx + 1, self.my + 1, 3)).copy()
        if forces.shape != (self.mx + 1, self.my + 1, 3):
            raise ValueError(f"forces shape {forces.shape} invalid")
        forms.flags.writeable = False
        forces.flags.writeable = False
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "forces", forces)

    @property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.forms)[..., 0].min())


@dataclass
class PlateSolution:
    w: np.ndarray        # (mx+1, my+1, 2)
    v: np.ndarray        # (mx+1, my+1)
    energy: float
    load_value: float    # l(w, v) at the minimizer
    iterations: int
    residual: float


def _membrane_b(hx: float, hy: float) -> np.ndarray:
    """(4 gp, 3, 8) Mandel-2 strain matrices of the bilinear quad."""
    corners = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float)
    signs = 2.0 * corners - 1.0
    gps = GAUSS * signs
    b = np.zeros((4, 3, 8))
    for g, (xi, eta) in enumerate(gps):
        for a, (xa, ya) in enumerate(signs):
            dx = xa * (1 + ya * eta) / 4.0 * (2.0 / hx)
            dy = ya * (1 + xa * xi) / 4.0 * (2.0 / hy)
            b[g, 0, 2 * a + 0] = dx
            b[g, 1, 2 * a + 1] = dy
            b[g, 2, 2 * a + 0] = dy / SQRT2
            b[g, 2, 2 * a + 1] = dx / SQRT2
    return b


def _second_difference_columns(mx: int, clamped_lo: bool, clamped_hi: bool):
    """For each node column c, the (nodes, coeffs) of the 1D second difference
    at c, or None where unavailable (free boundary column)."""
    cols: list[tuple[list[int], list[float]] | None] = [None] * (mx + 1)
    for c in range(1, mx):
        cols[c] = ([c - 1, c, c + 1], [1.0, -2.0, 1.0])
    if clamped_lo:
        cols[0] = ([1], [2.0])          # ghost v(-1)=v(1), v(0)=0
    if clamped_hi:
        cols[mx] = ([mx - 1], [2.0])
    return cols


class _CurvatureStencils:
    """Per-cell sparse rows of the Hessian operator at cell centers."""

    def __init__(self, mx: int, my: int, clamped: tuple[str, ...]):
        hx, hy = 1.0 / mx, 1.0 / my
        d2x = _second_difference_columns(mx, "left" in clamped, "right" in clamped)
        d2y = _second_difference_columns(my, "bottom" in clamped, "top" in clamped)
        self.rows = {}  # (ci, cj) -> (node_list [(i, j)], coeff array (3, n))
        for ci in range(mx):
            for cj in range(my):
                entries: dict[tuple[int, int], np.ndarray] = {}

                def add(i, j, row, val):
                    key = (i, j)
                    if key not in entries:
                        entries[key] = np.zeros(3)
                    entries[key][row] += val

                avail_x = [c for c in (ci, ci + 1) if d2x[c] is not None]
                if not avail_x:
                    raise ValueError(
                        "no x-curvature stencil available; grid too coarse "
                        "or both x-edges free at mx < 2"
                    )
                for c in avail_x:
                    nodes, coeffs = d2x[c]
                    for n, cf in zip(nodes, coeffs):
                        for j in (cj, cj + 1):
                            add(n, j, 0, cf / (hx * hx) / (2 * len(avail_x)))
                avail_y = [r for r in (cj, cj + 1) if d2y[r] is not None]
                if not avail_y:
                    raise ValueError("no y-curvature stencil available")
                for r in avail_y:
                    nodes, coeffs = d2y[r]
                    for n, cf in zip(nodes, coeffs):
                        for i in (ci, ci + 1):
                            add(i, n, 1, cf / (hy * hy) / (2 * len(avail_y)))
                # bilinear cross derivative, exact at the cell center
                cross = 1.0 / (hx * hy)
                add(ci, cj, 2, cross)
                add(ci + 1, cj + 1, 2, cross)
                add(ci + 1, cj, 2, -cross)
                add(ci, cj + 1, 2, -cross)
                nodes = sorted(entries)
                coeff = np.stack([entries[n] for n in nodes], axis=1)
                coeff.flags.writeable = False     # shared through the cache
                self.rows[(ci, cj)] = (nodes, coeff)


@functools.lru_cache(maxsize=1)
def _curvature_stencils(mx: int, my: int,
                        clamped: tuple[str, ...]) -> _CurvatureStencils:
    """The stencils of the last grid and clamped set, so that repeated
    assemblies and strain evaluations on one grid (a perturbation report
    makes six) build them once. One set only: at 64x64 it takes 6 MB, and
    it grows with mx * my."""
    return _CurvatureStencils(mx, my, clamped)


def assemble_plate(problem: PlateProblem):
    """Returns (K, load, free mask, dof layout) with energy = 0.5 u.K u - l.u."""
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    nn = (mx + 1) * (my + 1)
    nw = 2 * nn
    ndof = nw + nn

    def nid(i, j):
        return i + (mx + 1) * j

    bm = _membrane_b(hx, hy)
    wgp = hx * hy / 4.0
    stencils = _curvature_stencils(mx, my, tuple(problem.clamped))

    rows, cols, vals = [], [], []
    for ci in range(mx):
        for cj in range(my):
            a = problem.forms[ci, cj]
            wnodes = [nid(ci, cj), nid(ci + 1, cj), nid(ci, cj + 1),
                      nid(ci + 1, cj + 1)]
            wdofs = np.array([2 * n + c for n in wnodes for c in (0, 1)])
            vnodes, ccoef = stencils.rows[(ci, cj)]
            vdofs = np.array([nw + nid(i, j) for i, j in vnodes])
            dofs = np.concatenate([wdofs, vdofs])
            nloc = dofs.size
            ke = np.zeros((nloc, nloc))
            for g in range(4):
                z = np.zeros((6, nloc))
                z[:3, :8] = bm[g]
                z[3:, 8:] = -ccoef          # curvature M2 = -hessian
                ke += 2.0 * wgp * (z.T @ a @ z)
            rows.append(np.broadcast_to(dofs[:, None], (nloc, nloc)).ravel())
            cols.append(np.broadcast_to(dofs[None, :], (nloc, nloc)).ravel())
            vals.append(ke.ravel())
    k_full = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsr()
    k_full.sum_duplicates()

    # lumped nodal load weights (quarter of each adjacent cell)
    area = np.zeros((mx + 1, my + 1))
    area[:-1, :-1] += hx * hy / 4.0
    area[1:, :-1] += hx * hy / 4.0
    area[:-1, 1:] += hx * hy / 4.0
    area[1:, 1:] += hx * hy / 4.0
    ell = np.zeros(ndof)
    for i in range(mx + 1):
        for j in range(my + 1):
            n = nid(i, j)
            ell[2 * n] = problem.forces[i, j, 0] * area[i, j]
            ell[2 * n + 1] = problem.forces[i, j, 1] * area[i, j]
            ell[nw + n] = problem.forces[i, j, 2] * area[i, j]

    node_free = np.ones((mx + 1, my + 1), dtype=bool)
    if "left" in problem.clamped:
        node_free[0, :] = False
    if "right" in problem.clamped:
        node_free[mx, :] = False
    if "bottom" in problem.clamped:
        node_free[:, 0] = False
    if "top" in problem.clamped:
        node_free[:, my] = False
    flat_free = np.zeros(nn, dtype=bool)
    for i in range(mx + 1):
        for j in range(my + 1):
            flat_free[nid(i, j)] = node_free[i, j]
    dof_free = np.concatenate([np.repeat(flat_free, 2), flat_free])

    k = k_full[dof_free][:, dof_free].tocsr()
    return k, ell[dof_free], dof_free, flat_free


def minimize_plate(problem: PlateProblem, tol: float = 1e-12,
                   max_iter: int | None = None) -> PlateSolution:
    """Discrete minimizer of the limit plate functional via diagonal PCG."""
    k, ell, dof_free, flat_free = assemble_plate(problem)
    if max_iter is None:
        max_iter = max(2000, 100 * k.shape[0])
    u, info = pcg(k, ell, precond="jacobi", tol=tol, max_iter=max_iter)
    if not info.converged:
        raise SolverError(
            f"plate solve stalled at residual {info.residual:.3e} "
            f"after {info.iterations} iterations"
        )
    mx, my = problem.mx, problem.my
    nn = (mx + 1) * (my + 1)
    full = np.zeros(2 * nn + nn)
    full[np.flatnonzero(np.concatenate([np.repeat(flat_free, 2), flat_free]))] = u
    wflat = full[:2 * nn].reshape(nn, 2)
    vflat = full[2 * nn:]
    w = np.zeros((mx + 1, my + 1, 2))
    v = np.zeros((mx + 1, my + 1))
    for j in range(my + 1):
        for i in range(mx + 1):
            n = i + (mx + 1) * j
            w[i, j] = wflat[n]
            v[i, j] = vflat[n]
    energy = float(0.5 * u @ (k @ u) - ell @ u)
    return PlateSolution(w=w, v=v, energy=energy, load_value=float(ell @ u),
                         iterations=info.iterations, residual=info.residual)


def cell_strains(problem: PlateProblem, sol: PlateSolution) -> np.ndarray:
    """(mx, my, 6) membrane/curvature pair at cell centers of a solution."""
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    stencils = _curvature_stencils(mx, my, tuple(problem.clamped))
    out = np.zeros((mx, my, 6))
    w, v = sol.w, sol.v
    for ci in range(mx):
        for cj in range(my):
            du = w[ci + 1, cj] + w[ci + 1, cj + 1] - w[ci, cj] - w[ci, cj + 1]
            dv = w[ci, cj + 1] + w[ci + 1, cj + 1] - w[ci, cj] - w[ci + 1, cj]
            gx = du / (2 * hx)
            gy = dv / (2 * hy)
            out[ci, cj, 0] = gx[0]
            out[ci, cj, 1] = gy[1]
            out[ci, cj, 2] = (gx[1] + gy[0]) / SQRT2
            vnodes, ccoef = stencils.rows[(ci, cj)]
            vv = np.array([v[i, j] for i, j in vnodes])
            out[ci, cj, 3:] = -(ccoef @ vv)
    return out


@dataclass
class StabilityReport:
    etas: list[float]
    energy_gaps: list[float]
    strain_gaps: list[float]
    base_energy: float
    gap_ratio: float | None
    slope_estimate: float | None


def perturbation_stability(problem: PlateProblem, etas=(1e-3, 1e-4),
                           tol: float = 1e-12) -> StabilityReport:
    """Solve the problem with coefficient perturbations A -> A + eta*B and
    report how the minimum moves; the gap is asymptotically linear in eta.

    B is a fixed positive-semidefinite direction scaled to ||A||, so the
    energy derivative is nonzero whenever the base strains are.
    """
    base = minimize_plate(problem, tol=tol)
    z0 = cell_strains(problem, base)
    scale = np.linalg.norm(problem.forms, ord=2, axis=(2, 3)).max()
    vvec = np.ones(6) / np.sqrt(6.0)
    bdir = scale * 0.5 * (np.eye(6) + np.outer(vvec, vvec))
    gaps, sgaps = [], []
    for eta in etas:
        if eta == 0.0:
            gaps.append(0.0)
            sgaps.append(0.0)
            continue
        forms_eta = problem.forms + eta * bdir
        if np.linalg.eigvalsh(forms_eta)[..., 0].min() <= 0.0:
            raise ValueError(f"eta={eta} makes a cell form indefinite")
        pert = PlateProblem(mx=problem.mx, my=problem.my, forms=forms_eta,
                            forces=problem.forces, clamped=problem.clamped)
        sol = minimize_plate(pert, tol=tol)
        gaps.append(abs(sol.energy - base.energy))
        dz = cell_strains(pert, sol) - z0
        sgaps.append(float(np.sqrt((dz ** 2).sum() / (problem.mx * problem.my))))
    ratio = None
    slope = None
    positive = [(e, g) for e, g in zip(etas, gaps) if e != 0]
    if len(positive) >= 2:
        (e1, g1), (e2, g2) = positive[0], positive[1]
        ratio = g1 / g2 if g2 > 0 else np.inf
        slope = g1 / e1
    elif positive:
        slope = positive[0][1] / positive[0][0]
    return StabilityReport(etas=list(etas), energy_gaps=gaps, strain_gaps=sgaps,
                           base_energy=base.energy, gap_ratio=ratio,
                           slope_estimate=slope)


# ---------------------------------------------------------------------------
# problem / solution files
# ---------------------------------------------------------------------------

def load_problem(path) -> PlateProblem:
    """Problem JSON: grid dims, per-cell or uniform 36-entry form, forces as
    a 3-vector or per-node array, clamped edge list."""
    with open(path) as f:
        doc = json.load(f)
    mx, my = int(doc["mx"]), int(doc["my"])
    fdoc = doc["form"]
    if isinstance(fdoc, dict) and "per_cell" in fdoc:
        forms = np.array(fdoc["per_cell"], dtype=float).reshape(mx, my, 6, 6)
    else:
        forms = np.array(fdoc, dtype=float).reshape(6, 6)
    forces = np.array(doc["forces"], dtype=float)
    if forces.ndim > 1:
        forces = forces.reshape(mx + 1, my + 1, 3)
    return PlateProblem(mx=mx, my=my, forms=forms, forces=forces,
                        clamped=tuple(doc["clamped"]))


def dump_solution_csv(sol: PlateSolution, path) -> None:
    mx = sol.v.shape[0] - 1
    my = sol.v.shape[1] - 1
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "w1", "w2", "v"])
        for j in range(my + 1):
            for i in range(mx + 1):
                w.writerow([i / mx, j / my, sol.w[i, j, 0], sol.w[i, j, 1],
                            sol.v[i, j]])
