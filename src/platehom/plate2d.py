"""Limit plate model on the unit square: minimize the homogenized energy
integral of Q0(x', sym grad w, -hess v) minus the force term f.(w1, w2, v).

Discretization: w on bilinear quadrilaterals with 2x2 Gauss membrane strain
(the curvature is constant per cell, so coupling acts through the cell-center
membrane strain); v nodal with a finite-difference Hessian at cell centers
built from 3-point nodal second differences averaged onto the cell, the
bilinear cross-derivative for the mixed entry, and one-sided ghost reflection
across clamped edges enforcing dv/dn = 0. The v space is nonconforming;
refinement behavior is verified empirically by the tests.

K is assembled cell by cell (``PlateOperator``) and solved block by block
(``minimize_plate``). With the two edges of one axis clamped, the other
two free and an even cell count between them, the averaged second
differences leave an exact zero-energy deflection (0, 1, 0, 1, ... across
node lines): K's bending block is singular, and ``minimize_plate`` raises
``SolverError`` when the load reaches that block, not on in-plane loads.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import SQRT2
from .fem3d import (BandedCholesky, SolveInfo, SolverError, fill_band,
                    free_nodes, free_rectangle, pcg)

GAUSS = 1.0 / np.sqrt(3.0)
# the strain rows of each Gauss group (the center, xi, eta); a cell's ten
# strain rows are these in turn, each with its form slot and group
GROUP_ROWS = ((0, 1, 2, 3, 4, 5), (1, 2), (0, 2))
FORM_SLOT = np.array(sum(GROUP_ROWS, ()))
GROUP = np.array([g for g, rows in enumerate(GROUP_ROWS) for _ in rows])
# a cell's 1-D rows along one axis (``_cell_rows``)
DIFF, AVG, TILT, SECOND = range(4)
# each strain row's terms (component of w1, w2, v; scale; x row; y row):
# scale times the product of the cell's rows, in the Mandel coordinates of
# ``algebra.mandel_pair`` (sqrt2 e12; M2 = -hess v, twist -sqrt2 v_xy)
STRAIN_TERMS = (
    ((0, 1.0, DIFF, AVG),), ((1, 1.0, AVG, DIFF),),
    ((0, 1 / SQRT2, AVG, DIFF), (1, 1 / SQRT2, DIFF, AVG)),
    ((2, -1.0, SECOND, AVG),), ((2, -1.0, AVG, SECOND),),
    ((2, -SQRT2, DIFF, DIFF),),
    ((1, GAUSS, TILT, DIFF),), ((0, GAUSS / SQRT2, TILT, DIFF),),
    ((0, GAUSS, DIFF, TILT),), ((1, GAUSS / SQRT2, DIFF, TILT),),
)
# the blocks of K: their node field components and strain rows
BLOCKS = {"membrane": ((0, 1), (0, 1, 2, 6, 7, 8, 9)),
          "bending": ((2,), (3, 4, 5)),
          "coupled": ((0, 1, 2), tuple(range(10)))}
# a block's local dofs of a cell, (component, x, y offset from its first
# node): w on its corners, v on the cross its second differences reach
LOCAL = {name: np.array([(c, i, j) for c in comps for i, j in (
    ((-1, 0), (0, 0), (1, 0), (2, 0), (-1, 1), (0, 1), (1, 1), (2, 1),
     (0, -1), (1, -1), (0, 2), (1, 2)) if c == 2 else
    ((0, 0), (1, 0), (0, 1), (1, 1)))], dtype=np.int8)
    for name, (comps, _) in BLOCKS.items()}


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
        free_nodes(self.my + 1, self.mx + 1, self.clamped)  # checks the names
        forms = np.array(self.forms, dtype=float)
        if forms.shape == (6, 6):
            forms = np.broadcast_to(forms, (self.mx, self.my, 6, 6)).copy()
        if forms.shape != (self.mx, self.my, 6, 6):
            raise ValueError(f"forms shape {forms.shape} invalid")
        forces = np.asarray(self.forces, dtype=float)
        if forces.shape == (3,):
            forces = np.broadcast_to(forces, (self.mx + 1, self.my + 1, 3)).copy()
        if forces.shape != (self.mx + 1, self.my + 1, 3):
            raise ValueError(f"forces shape {forces.shape} invalid")
        # NaN would pass the symmetry and Cholesky checks
        for what, a in (("cell form", forms), ("nodal force", forces)):
            bad = np.argwhere(~np.isfinite(a.reshape(*a.shape[:2], -1)).all(axis=-1))
            if bad.size:
                raise ValueError(f"{what} {tuple(bad[0].tolist())} is not finite")
        # symmetric to 1e-12 of max|A|, each cell; stored as 0.5 (A + A^T)
        i, j = np.triu_indices(6, 1)
        asym = np.abs(forms[..., i, j] - forms[..., j, i]).max(axis=-1)
        bad = np.argwhere(asym > 1e-12 * np.abs(forms).max(axis=(-2, -1)))
        if bad.size:
            ci, cj = bad[0]
            raise ValueError(f"cell form ({ci}, {cj}) is not symmetric: "
                             f"max |A - A^T| = {asym[ci, cj]:.3e}")
        forms = 0.5 * (forms + forms.swapaxes(-1, -2))
        try:
            np.linalg.cholesky(forms)
        except np.linalg.LinAlgError:
            raise ValueError("every cell form must be positive definite") from None
        forms.flags.writeable = False
        forces.flags.writeable = False
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "forces", forces)


@dataclass
class PlateSolution:
    w: np.ndarray        # (mx+1, my+1, 2)
    v: np.ndarray        # (mx+1, my+1)
    energy: float
    load_value: float    # l(w, v) at the minimizer
    # the block solves (``minimize_plate``): per-block iterations and
    # residuals, and energy_error |sum_b r_b.K_b^-1 r_b| / |l.u|
    solve: SolveInfo = field(compare=False)


def _cell_rows(n: int, clamped_lo: bool, clamped_hi: bool) -> list:
    """The n >= 2 cells of one axis in runs that share their 1-D rows,
    inner cells first: (cells, rows), rows (4, 4) at the node offsets
    -1 .. 2 from a cell's first node: difference, mean, slope in the local
    coordinate xi in [-1, 1], and n^2 times the mean of the 3-point second
    differences at those of its nodes that have one (a clamped end node's
    is 2 v(1), from v = 0 and the ghost value v(-1) = v(1))."""
    seconds = np.array([[0.5, -0.5, -0.5, 0.5],
                        [0.0, 0.5, 0.0, 0.5] if clamped_lo else [0.0, 1.0, -2.0, 1.0],
                        [0.5, 0.0, 0.5, 0.0] if clamped_hi else [1.0, -2.0, 1.0, 0.0]])
    rows = [[0.0, -n, n, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, -0.5, 0.5, 0.0]]
    return [(cells, np.array(rows + [s])) for cells, s in zip(
        (slice(1, n - 1), slice(0, 1), slice(n - 1, n)), seconds * (n * n))
        if cells.start < cells.stop]


class PlateOperator:
    """K on the free dofs (w1, w2 of free node f at 2f, 2f + 1, v at
    2 nf + f; free nodes [j0, j1) x [i0, i1), flat order, ``dofs``) from the
    element matrices of the blocks ``names``. ``ke[name]`` (n, n, my, mx)
    holds each cell's K_c = B_c^T D_c B_c on the block's local dofs
    (``LOCAL``), D_c 2 hx hy times the form on the block's strain rows, zero
    between Gauss groups: K_c = sum D_c[q, q'] M_qq' over the pairs q <= q'
    of one group, M_qq' = B_q[a] B_q'[b] + B_q'[a] B_q[b] (halved for
    q = q'), symmetric bit for bit, in one GEMM for all cells with the inner
    run's rows, then one per other run. ``k @ p`` gathers each cell's local
    dofs by slices of node grids, multiplies them by K_c and adds them back
    by slices; ``nnz`` counts the element matrix entries and ``indices`` is
    the int8 table of the local dofs."""

    def __init__(self, problem: PlateProblem, names):
        mx, my, clamped = problem.mx, problem.my, problem.clamped
        self.mx, self.my = mx, my
        self.free = free_nodes(my + 1, mx + 1, clamped)
        j0, j1, i0, i1 = free_rectangle(self.free)
        self.nfy, self.nfx = j1 - j0, i1 - i0
        self.free_rect = np.s_[:, j0 + 1:j1 + 1, i0 + 1:i1 + 1]
        self.shape = (3 * self.nfy * self.nfx,) * 2
        self.runs = (_cell_rows(mx, "left" in clamped, "right" in clamped),
                     _cell_rows(my, "bottom" in clamped, "top" in clamped))
        self.ke = {name: self._element_matrices(problem.forms, name) for name in names}

    nnz = property(lambda self: sum(ke.size for ke in self.ke.values()))
    indices = property(lambda self: np.concatenate([LOCAL[n] for n in self.ke]))

    def strain_rows(self, rows, local: np.ndarray) -> list:
        """(cells along y, cells along x, B) of each pair of runs, B the
        strain rows ``rows`` (``STRAIN_TERMS``) of those cells on their
        local dofs ``local``."""
        (cxs, xs), (cys, ys) = ((c, np.stack(r)) for c, r in (
            zip(*runs) for runs in self.runs))
        comp, i, j = local.astype(np.intp).T + [[0], [1], [1]]
        b = np.zeros((len(ys), len(xs), len(rows), len(local)))
        for r, q in enumerate(rows):
            for c, scale, xr, yr in STRAIN_TERMS[q]:
                on = comp == c
                b[:, :, r, on] = ys[:, None, yr, j[on]] * xs[None, :, xr, i[on]] * scale
        return [(cy, cx, b[v, u]) for v, cy in enumerate(cys)
                for u, cx in enumerate(cxs)]

    def _element_matrices(self, forms: np.ndarray, name: str) -> np.ndarray:
        rows = list(BLOCKS[name][1])
        q, r = np.nonzero(np.triu(np.equal.outer(GROUP[rows], GROUP[rows])))
        d = forms[..., FORM_SLOT[rows][q], FORM_SLOT[rows][r]].T * (
            2.0 * (1.0 / self.mx) * (1.0 / self.my))    # (P, my, mx)
        ke = np.empty((len(LOCAL[name]),) * 2 + (self.my, self.mx))
        for n, (cy, cx, b) in enumerate(self.strain_rows(rows, LOCAL[name])):
            m = ((b[q, :, None] * b[r, None] + b[r, :, None] * b[q, None])
                 * np.where(q == r, 0.5, 1.0)[:, None, None]).reshape(q.size, -1).T
            if n == 0:
                np.matmul(m, d.reshape(q.size, -1), out=ke.reshape(m.shape[0], -1))
            else:
                ke[:, :, cy, cx] = (m @ d[:, cy, cx].reshape(q.size, -1)).reshape(
                    ke[:, :, cy, cx].shape)
        return ke

    def grids(self, p: np.ndarray) -> np.ndarray:
        """(3, my + 3, mx + 3, m) node grids of w1, w2 and v, a ghost line
        past each edge, of the free-dof vectors ``p`` (ndof, m)."""
        u = np.zeros((3, self.my + 3, self.mx + 3, p.shape[1]))
        nw, free = 2 * self.nfy * self.nfx, u[self.free_rect]
        free[:2] = p[:nw].reshape(self.nfy, self.nfx, 2, -1).transpose(2, 0, 1, 3)
        free[2] = p[nw:].reshape(self.nfy, self.nfx, -1)
        return u

    def gather(self, u: np.ndarray, local: np.ndarray) -> np.ndarray:
        """(n, my, mx, m): every cell's values of the node grids ``u`` at
        its n local dofs ``local``."""
        return np.stack([u[c, j + 1:j + 1 + self.my, i + 1:i + 1 + self.mx]
                         for c, i, j in local.tolist()])

    def block(self, name: str) -> PlateOperator:
        """K's block ``name``: K on its dofs, zero on the others."""
        op = copy.copy(self)
        op.ke = {name: self.ke[name]}
        return op

    def dofs(self, name: str) -> np.ndarray:
        """(free nodes, k): the dof of each of block ``name``'s k node field
        components at each free node, flat order."""
        f = np.arange(self.nfy * self.nfx)[:, None]
        return np.hstack([2 * f, 2 * f + 1, 2 * f.size + f])[:, BLOCKS[name][0]]

    def band(self, name: str) -> np.ndarray:
        """Lower band of block ``name`` in band order: its element matrices
        through ``fem3d.fill_band``, in one slab."""
        return fill_band(self.free, LOCAL[name], [(0, self.ke[name])])

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        u = self.grids(p.reshape(self.shape[0], -1))
        out = np.zeros_like(u)
        for name, ke in self.ke.items():
            y = np.einsum("abji,bjim->ajim", ke, self.gather(u, LOCAL[name]))
            for n, (c, i, j) in enumerate(LOCAL[name].tolist()):
                out[c, j + 1:j + 1 + self.my, i + 1:i + 1 + self.mx] += y[n]
        w, v, m = out[self.free_rect][:2], out[self.free_rect][2], u.shape[-1]
        return np.concatenate([w.transpose(1, 2, 0, 3).reshape(-1, m),
                               v.reshape(-1, m)]).reshape(p.shape)


def assemble_plate(problem: PlateProblem):
    """Returns (K, load) with energy 0.5 u.K u - l.u on the free dofs, K
    the ``PlateOperator`` of the blocks the load reaches, the blocks whose
    minimizer is not 0. With no membrane-bending coupling in any cell form,
    K has no entry between w and v: a "membrane" block of the w dofs, w1
    and w2 together per node, about 2 n sub-diagonals in band order for n
    free nodes along the shorter side, and a "bending" block of the v dofs,
    about 3 n; else one "coupled" block of w1, w2, v per node, about 9 n."""
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    # lumped nodal load weights (quarter of each adjacent cell)
    area = np.zeros((mx + 1, my + 1))
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        area[i:mx + i, j:my + j] += hx * hy / 4.0
    load = (problem.forces * area[..., None]).swapaxes(0, 1).reshape(-1, 3)
    load = load[free_nodes(my + 1, mx + 1, problem.clamped).ravel()]
    ell = np.concatenate([load[:, :2].ravel(), load[:, 2]])
    nw = 2 * len(load)          # the w dofs come first, then v
    parts = ({"coupled": ell} if np.any(problem.forms[..., :3, 3:])
             else {"membrane": ell[:nw], "bending": ell[nw:]})
    return PlateOperator(problem, [n for n, part in parts.items()
                                   if part.any()]), ell


def _solve_block(k: PlateOperator, ell: np.ndarray, name: str, tol: float):
    """CG on K's block ``name`` for its part of ``ell``, preconditioned by
    its banded Cholesky factor: the solution, K times it, its SolveInfo,
    the bandwidth and r.K_b^-1 r, r = l_b - K u_b. Frees the band."""
    what = f"plate operator's {name} block"
    factor = BandedCholesky(k.band(name), k.free, k.dofs(name), what)
    ell_b = np.zeros_like(ell)
    ell_b[factor.order] = ell[factor.order]
    try:
        u, info = pcg(k, ell_b, precond=factor.solve, tol=tol)
    except SolverError as exc:
        raise SolverError(f"{what}: {exc}") from exc
    ku = k @ u
    r = ell_b - ku
    return u, ku, info, factor.bandwidth, float(r @ factor.solve(r))


def minimize_plate(problem: PlateProblem, tol: float = 1e-12) -> PlateSolution:
    """Discrete minimizer of the limit plate functional, block by block
    (``assemble_plate``). Each block the load reaches goes to CG on its block
    of K, preconditioned by the block's banded Cholesky factor
    (``fem3d.BandedCholesky``), and converges in one or two iterations;
    one band is alive at a time. With no membrane-bending coupling the
    block solutions sum to the minimizer, and a block with no load has the
    minimizer 0: it gets no band, no factor and no CG. Each block's K u
    serves both its residual and the energy. The solve record lists the
    solved blocks.

    Raises ``SolverError``, naming the block, when a solved block of K is
    singular: when its factorization or CG breaks down, or when the
    relative energy error estimate |sum_b r_b.K_b^-1 r_b| / |l.u| of the
    result, r = l - K u, r_b its part on block b and K_b the computed
    factor of b, exceeds ``tol`` (the CG recursion cannot see a zero-energy
    mode that the factor amplifies); the estimate names the block with the
    largest term. A singular block the load does not reach raises nothing.
    """
    k, ell = assemble_plate(problem)
    names = list(k.ke)
    solves = [_solve_block(k.block(name), ell, name, tol) for name in names]
    us, kus, infos, widths, terms = zip(*solves) if solves else ((),) * 5
    u, ku = (sum(a, np.zeros_like(ell)) for a in (us, kus))
    info = SolveInfo(ndof=k.shape[0], nnz=k.nnz,
                     column_iterations=tuple(i.iterations for i in infos),
                     column_residuals=tuple(i.residual for i in infos),
                     preconditioner={"name": "banded-cholesky", "blocks": names,
                                     "bandwidths": list(widths)})
    load_value = float(ell @ u)
    error = info.energy_error = float(
        abs(sum(terms)) / max(abs(load_value), np.finfo(float).tiny))
    if not error <= tol:
        worst = names[int(np.argmax(np.abs(terms)))]
        raise SolverError(
            f"plate operator's {worst} block is singular: relative energy "
            f"error estimate {error:.3e} exceeds {tol:.1e} after "
            f"{info.iterations} iterations"
        )
    grids = k.grids(u[:, None])[:, 1:-1, 1:-1, 0]
    return PlateSolution(w=grids[:2].T, v=grids[2].T,
                         energy=float(0.5 * u @ ku - load_value),
                         load_value=load_value, solve=info)


def cell_strains(problem: PlateProblem, sol: PlateSolution) -> np.ndarray:
    """(mx, my, 6) membrane/curvature pair at cell centers of a solution:
    the center strain rows on every cell's local dofs, gathered by slices
    as in ``PlateOperator``."""
    grid = PlateOperator(problem, ())
    u = np.zeros((3, problem.my + 3, problem.mx + 3, 1))
    u[:, 1:-1, 1:-1, 0] = np.concatenate([sol.w, sol.v[..., None]], axis=-1).T
    cells = grid.gather(u, LOCAL["coupled"])[..., 0]
    z = np.empty((6, problem.my, problem.mx))
    for cy, cx, b in grid.strain_rows(range(6), LOCAL["coupled"]):
        z[:, cy, cx] = np.einsum("ql,lji->qji", b, cells[:, cy, cx])
    return z.T


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
        try:
            pert = PlateProblem(mx=problem.mx, my=problem.my,
                                forms=problem.forms + eta * bdir,
                                forces=problem.forces, clamped=problem.clamped)
        except ValueError as exc:
            raise ValueError(f"eta={eta} makes a cell form indefinite") from exc
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
    """One row per node, x fastest: x, y, w1, w2, v."""
    mx, my = sol.v.shape[0] - 1, sol.v.shape[1] - 1
    x, y = np.meshgrid(np.arange(mx + 1) / mx, np.arange(my + 1) / my)
    rows = np.column_stack([a.ravel() for a in (
        x, y, sol.w[..., 0].T, sol.w[..., 1].T, sol.v.T)]).tolist()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "w1", "w2", "v"])
        w.writerows(rows)
