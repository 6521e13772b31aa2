"""Limit plate model on the unit square: minimize the homogenized energy
integral of Q0(x', sym grad w, -hess v) minus the force term f.(w1, w2, v).

Discretization: w on bilinear quadrilaterals with 2x2 Gauss membrane strain
(the curvature is constant per cell, so coupling acts through the cell-center
membrane strain); v nodal with a finite-difference Hessian at cell centers
built from 3-point nodal second differences averaged onto the cell, the
bilinear cross-derivative for the mixed entry, and one-sided ghost reflection
across clamped edges enforcing dv/dn = 0. The v space is nonconforming;
refinement behavior is verified empirically by the tests.

Every strain row is a Kronecker product of 1-D operators (average,
difference, averaged second difference), built once per grid, and the 2x2
Gauss sum K = sum_g 2 w_g B_g^T blockdiag(A) B_g is one sparse product in
closed form (see ``_StrainOperators``). Every node couples to nodes at
most three lines away, so in a node order that runs fastest along the
shorter side K is a band matrix (``band_layout``). With no membrane-bending
coupling K has no entry between w and v, and ``minimize_plate`` solves the
membrane and the bending block one after the other, each with its own band
filled straight from K's CSR (``csr_band``); a coupled K is one block. A
block the load does not reach has the minimizer 0 and is not solved. A
block's banded Cholesky factor (``fem3d.BandedCholesky``) preconditions CG
on K, which converges in one or two iterations. With the two edges of one
axis clamped, the other two free and an even cell count between them, the
averaged second differences leave an exact zero-energy deflection (0, 1, 0,
1, ... across node columns): K, its bending block when the form
decouples, is singular, and ``minimize_plate`` raises ``SolverError`` when
the load reaches that block.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import SQRT2
from .fem3d import (BandedCholesky, SolveInfo, SolverError, band_order,
                    free_nodes, pcg)

GAUSS = 1.0 / np.sqrt(3.0)
# the strain rows of each Gauss group of ``_StrainOperators``: the center
# moves all six, xi only (e22, e12), eta only (e11, e12)
GROUP_ROWS = ((0, 1, 2, 3, 4, 5), (1, 2), (0, 2))
# rows of K per chunk of ``csr_band``, whose index arrays stay small beside
# the band
BAND_FILL_ROWS = 256


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


@dataclass
class PlateSolution:
    w: np.ndarray        # (mx+1, my+1, 2)
    v: np.ndarray        # (mx+1, my+1)
    energy: float
    load_value: float    # l(w, v) at the minimizer
    # the block solves (``minimize_plate``): per-block iterations and
    # residuals, and energy_error |sum_b r_b.K_b^-1 r_b| / |l.u|
    solve: SolveInfo = field(compare=False)


def _two_point(n: int, lo, hi) -> np.ndarray:
    """(n, n+1): row c holds ``lo`` at node c and ``hi`` at node c + 1."""
    m = np.zeros((n, n + 1))
    c = np.arange(n)
    m[c, c], m[c, c + 1] = lo, hi
    return m


def _second_difference(n: int, clamped_lo: bool, clamped_hi: bool) -> np.ndarray:
    """(n, n+1), unscaled: per cell, the mean of the 3-point nodal second
    differences at those of its two end nodes that have one. A clamped end
    node has v = 0 and the ghost value v(-1) = v(1), so its difference is
    2 v(1); a free end node has none."""
    d2 = np.zeros((n + 1, n + 1))
    c = np.arange(1, n)
    d2[c, c - 1], d2[c, c], d2[c, c + 1] = 1.0, -2.0, 1.0
    d2[0, 1] = 2.0 if clamped_lo else 0.0
    d2[n, n - 1] = 2.0 if clamped_hi else 0.0
    have = np.ones(n + 1)
    have[0], have[n] = clamped_lo, clamped_hi
    pick = _two_point(n, have[:-1], have[1:])
    count = pick.sum(axis=1, keepdims=True)
    if np.any(count == 0.0):
        raise ValueError("no curvature stencil available on some cell")
    return (pick / count) @ d2


def _slot(r: int, c: int, ncomp: int, scale: float = 1.0) -> np.ndarray:
    """(6, ncomp): places component c of a node field in strain row r."""
    m = np.zeros((6, ncomp))
    m[r, c] = scale
    return m


class _StrainOperators:
    """Membrane/curvature strain operators of one grid and clamped set.

    Rows are 6 c + r for cell c = ci + mx cj. Dofs are w1, w2 of node
    n = i + (mx+1) j at 2n, 2n+1 and v at 2 nn + n, so kron(ay, ax) applies
    ay along j and ax along i. Membrane rows are the strains of the bilinear
    w, curvature rows the Mandel coordinates (-v_xx, -v_yy, -sqrt2 v_xy) of
    M2 = -hess v (``algebra.mandel_pair``): averaged second differences in x
    and y and the bilinear cross derivative.

    ``center`` holds the cell-center strains on all dofs. The strain at the
    Gauss point (xi, eta) = (+-g, +-g), g = 1/sqrt(3), is center + xi B_xi +
    eta B_eta, so the cross terms cancel in the 2x2 Gauss sum:
    sum_g B_g^T D B_g = 4 (B_c^T D B_c + g^2 B_xi^T D B_xi + g^2 B_eta^T D B_eta).
    B_xi moves only the e22 and e12 rows and B_eta only e11 and e12, so
    ``gauss`` stacks, on the free dofs, B_c (six rows per cell), then g B_xi
    and g B_eta on their two rows per cell only (``GROUP_ROWS``), cell by
    cell in ascending row order.
    """

    def __init__(self, mx: int, my: int, clamped: tuple[str, ...]):
        import scipy.sparse as sp

        self.flat_free = free_nodes(my + 1, mx + 1, clamped).ravel()  # [j, i]
        self.dof_free = np.concatenate([np.repeat(self.flat_free, 2),
                                        self.flat_free])

        dx, dy = _two_point(mx, -mx, mx), _two_point(my, -my, my)
        avg_x, avg_y = _two_point(mx, 0.5, 0.5), _two_point(my, 0.5, 0.5)
        # d/dxi of the interpolant at local coordinate xi in [-1, 1]
        tilt_x, tilt_y = _two_point(mx, -0.5, 0.5), _two_point(my, -0.5, 0.5)
        d2x = _second_difference(mx, "left" in clamped, "right" in clamped)
        d2y = _second_difference(my, "bottom" in clamped, "top" in clamped)

        def strains(gx, gy, vxx, vyy, vxy):
            """Strain rows from the x and y derivatives of w and the second
            derivatives of v, each an (ncell, nn) operator."""
            membrane = sum(sp.kron(op, _slot(r, c, 2, scale), format="csr")
                           for op, r, c, scale in (
                               (gx, 0, 0, 1.0), (gy, 1, 1, 1.0),
                               (gy, 2, 0, 1 / SQRT2), (gx, 2, 1, 1 / SQRT2)))
            bending = sum(sp.kron(op, _slot(r, 0, 1, scale), format="csr")
                          for r, op, scale in ((3, vxx, -1.0), (4, vyy, -1.0),
                                               (5, vxy, -SQRT2)))
            return sp.hstack([membrane, bending], format="csr")

        zero = sp.csr_matrix((mx * my, (mx + 1) * (my + 1)))
        self.center = strains(sp.kron(avg_y, dx), sp.kron(dy, avg_x),
                              sp.kron(avg_y, d2x) * (mx * mx),
                              sp.kron(d2y, avg_x) * (my * my),
                              sp.kron(dy, dx))
        b_xi = strains(zero, sp.kron(dy, tilt_x), zero, zero, zero)
        b_eta = strains(sp.kron(tilt_y, dx), zero, zero, zero, zero)
        ncell = mx * my
        self.gauss = sp.vstack(
            [b[(6 * np.arange(ncell)[:, None] + rows).ravel()] for b, rows in zip(
                (self.center, GAUSS * b_xi, GAUSS * b_eta), GROUP_ROWS)],
            format="csr")[:, self.dof_free]


@functools.lru_cache(maxsize=1)
def _curvature_stencils(mx: int, my: int,
                        clamped: tuple[str, ...]) -> _StrainOperators:
    """The strain operators of the last grid and clamped set, so that
    repeated assemblies and strain evaluations on one grid (a perturbation
    report makes six) build them once. One set only: it grows with
    mx * my."""
    return _StrainOperators(mx, my, clamped)


def _form_blocks(forms: np.ndarray):
    """D of ``assemble_plate``: the CSR block diagonal, over the rows of
    ``_StrainOperators.gauss``, of each cell's block of the (ncell, 6, 6)
    ``forms`` on each Gauss group's strain rows (``GROUP_ROWS``), each
    row's columns in ascending order."""
    import scipy.sparse as sp

    ncell = forms.shape[0]
    data, cols, counts, start = [], [], [], 0
    for rows in map(list, GROUP_ROWS):
        s = len(rows)
        data.append(forms[:, rows][:, :, rows].ravel())
        first = start + np.arange(ncell * s) // s * s   # its cell's first column
        cols.append((first[:, None] + np.arange(s)).ravel())
        counts.append(np.full(ncell * s, s))
        start += ncell * s
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                         shape=(start, start))


def assemble_plate(problem: PlateProblem):
    """Returns (K, load, free dof mask, free node mask) with energy
    0.5 u.K u - l.u on the free dofs.

    K = sum_g 2 w_g B_g^T blockdiag(A_c) B_g over the 2x2 Gauss points,
    summed in closed form (see ``_StrainOperators``): K = sum_q G_q^T (D_q
    G_q) over the three Gauss groups q, D_q the cells' form blocks on the
    group's strain rows, as one product G^T (D G) of the stacked groups'
    nonzero rows (``_form_blocks``). Every entry of K sums the same terms
    in the same order as the product over all 18 rows per cell would."""
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    ops = _curvature_stencils(mx, my, tuple(problem.clamped))
    # D G, with D gone before G^T is built; csr @ csr throughout: scipy's
    # bsr and csc products are slower here. Cell order c = ci + mx cj; 4
    # Gauss points of weight 2 w_g = hx hy / 2
    dg = _form_blocks(problem.forms.swapaxes(0, 1).reshape(mx * my, 6, 6)
                      * (2.0 * hx * hy)) @ ops.gauss
    k = ops.gauss.T.tocsr() @ dg

    # lumped nodal load weights (quarter of each adjacent cell)
    area = np.zeros((mx + 1, my + 1))
    area[:-1, :-1] += hx * hy / 4.0
    area[1:, :-1] += hx * hy / 4.0
    area[:-1, 1:] += hx * hy / 4.0
    area[1:, 1:] += hx * hy / 4.0
    load = (problem.forces * area[..., None]).swapaxes(0, 1).reshape(-1, 3)
    ell = np.concatenate([load[:, :2].ravel(), load[:, 2]])
    return k, ell[ops.dof_free], ops.dof_free, ops.flat_free


def band_layout(problem: PlateProblem, flat_free: np.ndarray
                ) -> tuple[tuple[str, np.ndarray], ...]:
    """The blocks of the free dofs (w1, w2 of free node f at 2f, 2f + 1 and
    v at 2 nf + f, free nodes in flat order) that ``minimize_plate`` solves
    one after another: (name, band order) pairs.

    Nodes run with the faster index along the side that has fewer free
    nodes. When no cell form couples membrane and bending, K has no entry
    between w and v: a "membrane" block of the w dofs, w1 and w2 together
    per node, about 2 n sub-diagonals for n free nodes along the shorter
    side, and a "bending" block of the v dofs, about 3 n. Otherwise one
    "coupled" block keeps w1, w2, v together per node, about 9 n.
    """
    mx, my = problem.mx, problem.my
    free = flat_free.reshape(my + 1, mx + 1)
    nodes = band_order(int(free.any(axis=1).sum()), int(free.any(axis=0).sum()))
    nf = nodes.size
    w = 2 * nodes[:, None] + np.arange(2)
    if np.any(problem.forms[..., :3, 3:]) or np.any(problem.forms[..., 3:, :3]):
        return (("coupled", np.column_stack([w, 2 * nf + nodes]).ravel()),)
    return ("membrane", w.ravel()), ("bending", 2 * nf + nodes)


def csr_band(k, order: np.ndarray) -> np.ndarray:
    """Lower band of K[order][:, order] in ``BandedCholesky``'s storage,
    filled straight from K's CSR: pos[i] is dof i's position in ``order``
    (-1 off it), and each stored entry (i, j) with pos[i] >= pos[j] >= 0
    goes to band[pos[i] - pos[j], pos[j]]. One pass over the block's rows
    of K finds the bandwidth, a second fills the band, ``BAND_FILL_ROWS``
    rows at a time, so no permuted copy of K is built."""
    pos = np.full(k.shape[0], -1, dtype=np.intp)
    pos[order] = np.arange(order.size)

    def entries():
        """Per row chunk: each entry's band offset (-1 for no band entry),
        its column and its slice of K's CSR arrays."""
        stop = int(order.max()) + 1
        for lo in range(int(order.min()), stop, BAND_FILL_ROWS):
            hi = min(lo + BAND_FILL_ROWS, stop)
            a, b = k.indptr[lo], k.indptr[hi]
            j = pos[k.indices[a:b]]
            d = np.repeat(pos[lo:hi], np.diff(k.indptr[lo:hi + 1])) - j
            d[j < 0] = -1
            yield d, j, slice(a, b)

    width = max(int(d.max()) for d, _, _ in entries())
    band = np.zeros((width + 1, order.size), order="F")
    for d, j, rows in entries():
        keep = d >= 0
        band[d[keep], j[keep]] = k.data[rows][keep]
    return band


def _solve_block(k, ell: np.ndarray, name: str, order: np.ndarray, tol: float):
    """CG on K itself for one block's load (``ell`` on the block, zero off
    it), preconditioned by the block's banded Cholesky factor. Returns the
    solution, its SolveInfo, the bandwidth and r.K_b^-1 r of the residual
    r = l_b - K u_b. The band is freed on return."""
    what = f"plate operator's {name} block"
    factor = BandedCholesky(csr_band(k, order), order, what)
    ell_b = np.zeros_like(ell)
    ell_b[order] = ell[order]
    try:
        u, info = pcg(k, ell_b, precond=factor.solve, tol=tol)
    except SolverError as exc:
        raise SolverError(f"{what}: {exc}") from exc
    r = ell_b - k @ u
    return u, info, factor.bandwidth, float(r @ factor.solve(r))


def minimize_plate(problem: PlateProblem, tol: float = 1e-12) -> PlateSolution:
    """Discrete minimizer of the limit plate functional, block by block
    (``band_layout``). Each block the load reaches goes to CG on K itself,
    preconditioned by the banded Cholesky factor of K's block
    (``fem3d.BandedCholesky``), and converges in one or two iterations.
    Only one block's band is alive at a time. With no membrane-bending
    coupling K has no entry between the blocks, so the sum of the block
    solutions minimizes the whole functional, and a block with no load has
    the minimizer 0: it gets no band, no factor and no CG, and a plate with
    no load factors nothing. The solve record lists the solved blocks.

    Raises ``SolverError``, naming the block, when a solved block of K is
    singular: when its factorization or CG breaks down, or when the
    relative energy error estimate |sum_b r_b.K_b^-1 r_b| / |l.u| of the
    result, r = l - K u, r_b its part on block b and K_b the computed
    factor of b, exceeds ``tol`` (the CG recursion cannot see a zero-energy
    mode that the factor amplifies); the estimate names the block with the
    largest term. A singular block the load does not reach raises nothing.
    """
    k, ell, dof_free, flat_free = assemble_plate(problem)
    blocks = [(name, order) for name, order in band_layout(problem, flat_free)
              if ell[order].any()]
    u = np.zeros_like(ell)
    solves = []
    for name, order in blocks:
        u_b, *solve = _solve_block(k, ell, name, order, tol)
        u += u_b
        solves.append(solve)
    infos, widths, terms = zip(*solves) if solves else ((), (), ())
    names = [name for name, _ in blocks]
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
    mx, my = problem.mx, problem.my
    full = np.zeros(dof_free.size)
    full[dof_free] = u
    nn = (mx + 1) * (my + 1)
    w = full[:2 * nn].reshape(my + 1, mx + 1, 2).swapaxes(0, 1)
    v = full[2 * nn:].reshape(my + 1, mx + 1).T
    energy = float(0.5 * u @ (k @ u) - load_value)
    return PlateSolution(w=w, v=v, energy=energy, load_value=load_value,
                         solve=info)


def cell_strains(problem: PlateProblem, sol: PlateSolution) -> np.ndarray:
    """(mx, my, 6) membrane/curvature pair at cell centers of a solution."""
    mx, my = problem.mx, problem.my
    ops = _curvature_stencils(mx, my, tuple(problem.clamped))
    full = np.concatenate([sol.w.swapaxes(0, 1).ravel(), sol.v.T.ravel()])
    return (ops.center @ full).reshape(my, mx, 6).swapaxes(0, 1)


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
    """One row per node, x fastest: x, y, w1, w2, v."""
    mx, my = sol.v.shape[0] - 1, sol.v.shape[1] - 1
    x, y = np.meshgrid(np.arange(mx + 1) / mx, np.arange(my + 1) / my)
    rows = np.column_stack([a.ravel() for a in (
        x, y, sol.w[..., 0].T, sol.w[..., 1].T, sol.v.T)]).tolist()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "w1", "w2", "v"])
        w.writerows(rows)
