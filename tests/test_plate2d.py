"""Limit plate solver: decoupling, energy identity, coupling, stability."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from platehom import plate2d
from platehom.algebra import SQRT2, isotropic_hooke, plane_stress_form
from platehom.cell import kl_limit_form
from platehom.fem3d import (BandedCholesky, SolverError, energy_error,
                            free_nodes, pcg)
from platehom.microstructure import make_laminate
from platehom.plate2d import (GAUSS, GROUP_ROWS, PlateProblem, PlateSolution,
                              assemble_plate, cell_strains, dump_solution_csv,
                              load_problem, minimize_plate,
                              perturbation_stability)

Q0 = plane_stress_form(isotropic_hooke(1.0, 1.0))


def cantilever(mx=12, my=12, forms=None, f=(0.0, 0.0, 1.0)):
    return PlateProblem(mx=mx, my=my,
                        forms=Q0.a if forms is None else forms,
                        forces=np.asarray(f, dtype=float), clamped=("left",))


def spy_solves(monkeypatch):
    """The orders ``minimize_plate`` factors a band for and the number of
    its CG calls."""
    seen = {"bands": [], "pcg": 0}

    def factor(*args):
        out = BandedCholesky(*args)
        seen["bands"].append(out.order)
        return out

    def cg(*args, **kwargs):
        seen["pcg"] += 1
        return pcg(*args, **kwargs)

    monkeypatch.setattr(plate2d, "BandedCholesky", factor)
    monkeypatch.setattr(plate2d, "pcg", cg)
    return seen


def full_operator(problem):
    """K with every block, whatever the load: ``assemble_plate``'s K under
    a load that reaches every free dof."""
    return assemble_plate(dataclasses.replace(problem, forces=np.ones(3)))[0]


def block_order(k, name):
    """The band order of K's block ``name``, read from its factor."""
    return BandedCholesky(k.band(name), k.free, k.dofs(name)).order


def dof_mask(problem):
    """The free dofs among all node dofs, w1, w2 per node, then v."""
    flat_free = free_nodes(problem.my + 1, problem.mx + 1,
                           problem.clamped).ravel()
    return np.concatenate([np.repeat(flat_free, 2), flat_free])


def test_zero_force_zero_solution(monkeypatch):
    # no block is loaded, so none gets a band or a CG, split or coupled
    seen = spy_solves(monkeypatch)
    for forms in (Q0.a, coupled_form()):
        sol = minimize_plate(cantilever(forms=forms, f=(0.0, 0.0, 0.0)))
        assert sol.energy == sol.load_value == 0.0
        assert_allclose(sol.w, 0.0)
        assert_allclose(sol.v, 0.0)
        assert (sol.solve.iterations, sol.solve.residual) == (0, 0.0)
        assert sol.solve.energy_error == 0.0
        assert sol.solve.preconditioner["blocks"] == []
    assert seen == {"bands": [], "pcg": 0}


def test_decoupled_pure_bending():
    sol = minimize_plate(cantilever())
    # no membrane-curvature coupling: in-plane displacement stays zero
    assert np.max(np.abs(sol.w)) <= 1e-8
    assert sol.energy < 0.0
    assert abs(sol.energy + 0.5 * sol.load_value) < 1e-10 * abs(sol.energy)


def test_clamped_edge_exactly_zero():
    sol = minimize_plate(cantilever())
    assert np.max(np.abs(sol.v[0, :])) == 0.0
    assert np.max(np.abs(sol.w[0, :, :])) == 0.0


def test_coupling_activates_membrane():
    a = Q0.a.copy()
    a[0, 3] = a[3, 0] = 0.05  # artificial membrane-bending coupling
    assert np.linalg.eigvalsh(a)[0] > 0
    sol = minimize_plate(cantilever(forms=a))
    assert np.max(np.abs(sol.w)) > 1e-6


def test_elastic_energy_decreases_under_refinement():
    # empirical property of the nonconforming v space: the elastic energy
    # |F| = -F at the minimizer shrinks monotonically toward the limit
    e = [minimize_plate(cantilever(mx=m, my=m)).energy for m in (8, 16, 32)]
    assert abs(e[1]) < abs(e[0])
    assert abs(e[2]) < abs(e[1])


def test_in_plane_membrane_only_solution():
    # pure in-plane load: v stays zero for a decoupled form
    sol = minimize_plate(cantilever(f=(1.0, 0.0, 0.0)))
    assert np.max(np.abs(sol.v)) <= 1e-9
    assert np.max(np.abs(sol.w)) > 1e-3
    assert abs(sol.energy + 0.5 * sol.load_value) < 1e-10 * abs(sol.energy)


def test_validation_errors():
    with pytest.raises(ValueError):
        PlateProblem(mx=8, my=8, forms=Q0.a, forces=np.zeros(3), clamped=())
    with pytest.raises(ValueError):
        PlateProblem(mx=1, my=8, forms=Q0.a, forces=np.zeros(3),
                     clamped=("left",))
    with pytest.raises(ValueError):
        PlateProblem(mx=4, my=4, forms=np.zeros((6, 6)), forces=np.zeros(3),
                     clamped=("left",))
    with pytest.raises(ValueError):
        PlateProblem(mx=4, my=4, forms=Q0.a, forces=np.zeros(3),
                     clamped=("diagonal",))


@pytest.mark.parametrize("entry,value", [((0, 3), 0.3), ((0, 1), 0.05)])
def test_asymmetric_cell_form_rejected(entry, value):
    # one cell's form with an upper-only entry: the membrane-bending one
    # broke the coupled factor, the membrane one solved silently; both are
    # now rejected, naming the first such cell in (ci, cj) order
    forms = np.broadcast_to(Q0.a, (8, 8, 6, 6)).copy()
    forms[2, 5][entry] += value
    forms[6, 1][entry] += value
    with pytest.raises(ValueError, match=r"cell form \(2, 5\) is not symmetric"):
        PlateProblem(mx=8, my=8, forms=forms, forces=np.zeros(3),
                     clamped=("left",))


@pytest.mark.parametrize("entry", [(0, 0), (3, 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_cell_form_rejected(entry, value):
    # NaN passes the symmetry test and the Cholesky check; a NaN in the
    # membrane slot of a transversely loaded plate solved silently, one in
    # the bending slot failed the solve. Both are input errors, naming the
    # first such cell in (ci, cj) order
    forms = np.broadcast_to(Q0.a, (8, 8, 6, 6)).copy()
    forms[2, 5][entry] = value
    forms[6, 1][entry] = value
    with pytest.raises(ValueError, match=r"cell form \(2, 5\) is not finite"):
        PlateProblem(mx=8, my=8, forms=forms, forces=(0.0, 0.0, 1.0),
                     clamped=("left",))


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_force_rejected(value):
    forces = np.zeros((9, 9, 3))
    forces[..., 2] = 1.0
    forces[4, 7, 0] = value
    forces[5, 2, 2] = value
    with pytest.raises(ValueError, match=r"nodal force \(4, 7\) is not finite"):
        PlateProblem(mx=8, my=8, forms=Q0.a, forces=forces, clamped=("left",))


def test_nearly_symmetric_cell_form_is_symmetrized():
    # an asymmetry within 1e-12 of the largest entry is stored as the
    # mean of A and A^T; a symmetric form is stored bit for bit
    a = Q0.a.copy()
    a[0, 1] *= 1.0 + 1e-13
    prob = PlateProblem(mx=4, my=4, forms=a, forces=np.zeros(3),
                        clamped=("left",))
    assert np.array_equal(prob.forms, prob.forms.swapaxes(-1, -2))
    assert prob.forms[0, 0, 0, 1] == 0.5 * (a[0, 1] + a[1, 0])
    assert np.array_equal(cantilever().forms[3, 2], Q0.a)


def test_perturbation_stability_linear_in_eta():
    prob = cantilever()
    rep = perturbation_stability(prob, etas=(1e-3, 1e-4))
    assert rep.energy_gaps[0] > 0
    # first-order perturbation: gap ratio ~ eta ratio = 10, within factor 2
    assert 5.0 <= rep.gap_ratio <= 20.0
    assert rep.strain_gaps[0] > 0


def test_perturbation_zero_eta_zero_gap():
    # a zero eta solves the base problem again: both gaps are exactly 0,
    # and the ratio and the slope come from the nonzero etas only
    prob = cantilever(mx=8, my=8)
    rep = perturbation_stability(prob, etas=(0.0, 1e-3))
    assert rep.energy_gaps[0] == 0.0
    assert rep.strain_gaps[0] == 0.0
    assert rep.gap_ratio is None
    assert rep.slope_estimate == rep.energy_gaps[1] / 1e-3
    rep = perturbation_stability(prob, etas=(1e-3, 0.0, 1e-4))
    want = perturbation_stability(prob, etas=(1e-3, 1e-4))
    assert rep.energy_gaps[1] == rep.strain_gaps[1] == 0.0
    assert (rep.gap_ratio, rep.slope_estimate) == (want.gap_ratio,
                                                   want.slope_estimate)


def test_perturbation_indefinite_rejected():
    with pytest.raises(ValueError, match="indefinite"):
        perturbation_stability(cantilever(mx=8, my=8), etas=(-2.0,))


def test_cell_strains_constant_membrane_field():
    # prescribe a linear w via the load-free system is awkward; instead check
    # the strain extractor on a manufactured solution object
    prob = cantilever(mx=4, my=4)
    sol = minimize_plate(prob)
    x = np.linspace(0.0, 1.0, 5)
    wlin = np.zeros((5, 5, 2))
    wlin[..., 0] = 0.3 * x[:, None]          # e11 = 0.3 everywhere
    sol.w[:] = wlin
    sol.v[:] = 0.0
    z = cell_strains(prob, sol)
    assert_allclose(z[..., 0], 0.3, atol=1e-13)
    assert_allclose(z[..., 1:], 0.0, atol=1e-13)


def test_problem_file_roundtrip(tmp_path):
    import json

    doc = {"mx": 4, "my": 4, "form": Q0.a.ravel().tolist(),
           "forces": [0.0, 0.0, 1.0], "clamped": ["left"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    sol = minimize_plate(prob)
    assert sol.energy < 0.0
    out = tmp_path / "sol.csv"
    dump_solution_csv(sol, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,w1,w2,v"
    assert len(lines) == 1 + 5 * 5


def test_problem_file_per_cell_forms_and_nodal_forces(tmp_path):
    import json

    a_soft = Q0.a.copy()
    a_stiff = 5.0 * Q0.a
    per_cell = np.zeros((4, 4, 36))
    per_cell[:2, :, :] = a_soft.ravel()
    per_cell[2:, :, :] = a_stiff.ravel()
    forces = np.zeros((5, 5, 3))
    forces[..., 2] = 1.0
    doc = {"mx": 4, "my": 4, "form": {"per_cell": per_cell.tolist()},
           "forces": forces.reshape(-1, 3).tolist(), "clamped": ["left"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    sol = minimize_plate(prob)
    assert sol.energy < 0.0
    # the soft half deflects more than a uniformly stiff plate would
    stiff = PlateProblem(mx=4, my=4, forms=a_stiff, forces=forces,
                         clamped=("left",))
    assert abs(sol.energy) > abs(minimize_plate(stiff).energy)


# ---------------------------------------------------------------------------
# reference: the Kronecker CSR assembly that the cell-by-cell one replaced
# ---------------------------------------------------------------------------

def _two_point(n, lo, hi):
    """(n, n+1): row c holds ``lo`` at node c and ``hi`` at node c + 1."""
    m = np.zeros((n, n + 1))
    c = np.arange(n)
    m[c, c], m[c, c + 1] = lo, hi
    return m


def _second_difference(n, clamped_lo, clamped_hi):
    """(n, n+1), unscaled: per cell, the mean of the 3-point nodal second
    differences at those of its two end nodes that have one."""
    d2 = np.zeros((n + 1, n + 1))
    c = np.arange(1, n)
    d2[c, c - 1], d2[c, c], d2[c, c + 1] = 1.0, -2.0, 1.0
    d2[0, 1] = 2.0 if clamped_lo else 0.0
    d2[n, n - 1] = 2.0 if clamped_hi else 0.0
    have = np.ones(n + 1)
    have[0], have[n] = clamped_lo, clamped_hi
    pick = _two_point(n, have[:-1], have[1:])
    return (pick / pick.sum(axis=1, keepdims=True)) @ d2


def _slot(r, c, ncomp, scale=1.0):
    """(6, ncomp): places component c of a node field in strain row r."""
    m = np.zeros((6, ncomp))
    m[r, c] = scale
    return m


class KroneckerOperators:
    """The strain rows of one grid and clamped set as Kronecker products of
    1-D operators, rows 6 c + r for cell c = ci + mx cj, dofs w1, w2 of
    node n = i + (mx+1) j at 2n, 2n+1 and v at 2 nn + n. ``center`` holds
    the cell-center strains on all dofs; ``gauss`` stacks, on the free
    dofs, the center rows, then GAUSS B_xi and GAUSS B_eta on their rows
    of ``GROUP_ROWS``, cell by cell."""

    def __init__(self, mx, my, clamped):
        self.flat_free = free_nodes(my + 1, mx + 1, clamped).ravel()
        self.dof_free = np.concatenate([np.repeat(self.flat_free, 2),
                                        self.flat_free])
        dx, dy = _two_point(mx, -mx, mx), _two_point(my, -my, my)
        avg_x, avg_y = _two_point(mx, 0.5, 0.5), _two_point(my, 0.5, 0.5)
        tilt_x, tilt_y = _two_point(mx, -0.5, 0.5), _two_point(my, -0.5, 0.5)
        d2x = _second_difference(mx, "left" in clamped, "right" in clamped)
        d2y = _second_difference(my, "bottom" in clamped, "top" in clamped)

        def strains(gx, gy, vxx, vyy, vxy):
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


def _form_blocks(forms):
    """The CSR block diagonal, over the rows of ``gauss``, of each cell's
    block of the (ncell, 6, 6) ``forms`` on each Gauss group's rows."""
    ncell = forms.shape[0]
    data, cols, counts, start = [], [], [], 0
    for rows in map(list, GROUP_ROWS):
        s = len(rows)
        data.append(forms[:, rows][:, :, rows].ravel())
        first = start + np.arange(ncell * s) // s * s
        cols.append((first[:, None] + np.arange(s)).ravel())
        counts.append(np.full(ncell * s, s))
        start += ncell * s
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                         shape=(start, start))


def kronecker_k(prob):
    """K on the free dofs as the CSR product G^T (D G) of the stacked Gauss
    groups' rows, every block."""
    mx, my = prob.mx, prob.my
    ops = KroneckerOperators(mx, my, tuple(prob.clamped))
    dg = _form_blocks(prob.forms.swapaxes(0, 1).reshape(mx * my, 6, 6)
                      * (2.0 * (1.0 / mx) * (1.0 / my))) @ ops.gauss
    return ops.gauss.T.tocsr() @ dg


def random_plate(mx, my, clamped, coupled, seed):
    """Per-cell random positive definite forms, decoupled or not, and
    random nodal forces."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((mx, my, 6, 6))
    forms = g @ g.swapaxes(-1, -2) + 0.5 * np.eye(6)
    if not coupled:
        forms[..., :3, 3:] = forms[..., 3:, :3] = 0.0
    return PlateProblem(mx=mx, my=my, forms=forms,
                        forces=rng.standard_normal((mx + 1, my + 1, 3)),
                        clamped=clamped)


# ---------------------------------------------------------------------------
# reference: the per-cell element loop the Kronecker assembly replaced
# ---------------------------------------------------------------------------

def _loop_membrane_b(hx, hy):
    """(4 gp, 3, 8) Mandel-2 strain matrices of the bilinear quad."""
    signs = 2.0 * np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float) - 1.0
    b = np.zeros((4, 3, 8))
    for g, (xi, eta) in enumerate(signs / np.sqrt(3.0)):
        for a, (xa, ya) in enumerate(signs):
            dx = xa * (1 + ya * eta) / 4.0 * (2.0 / hx)
            dy = ya * (1 + xa * xi) / 4.0 * (2.0 / hy)
            b[g, 0, 2 * a + 0] = dx
            b[g, 1, 2 * a + 1] = dy
            b[g, 2, 2 * a + 0] = dy / SQRT2
            b[g, 2, 2 * a + 1] = dx / SQRT2
    return b


def _loop_second_differences(m, clamped_lo, clamped_hi):
    cols = [None] * (m + 1)
    for c in range(1, m):
        cols[c] = ([c - 1, c, c + 1], [1.0, -2.0, 1.0])
    if clamped_lo:
        cols[0] = ([1], [2.0])
    if clamped_hi:
        cols[m] = ([m - 1], [2.0])
    return cols


def _loop_curvature_rows(mx, my, clamped):
    """(ci, cj) -> (nodes, (3, n) coefficients of the cell-center Hessian in
    Mandel coordinates: v_xx, v_yy, sqrt2 v_xy)."""
    hx, hy = 1.0 / mx, 1.0 / my
    d2x = _loop_second_differences(mx, "left" in clamped, "right" in clamped)
    d2y = _loop_second_differences(my, "bottom" in clamped, "top" in clamped)
    out = {}
    for ci in range(mx):
        for cj in range(my):
            entries = {}

            def add(i, j, row, val):
                entries.setdefault((i, j), np.zeros(3))[row] += val

            avail_x = [c for c in (ci, ci + 1) if d2x[c] is not None]
            for c in avail_x:
                for n, cf in zip(*d2x[c]):
                    for j in (cj, cj + 1):
                        add(n, j, 0, cf / (hx * hx) / (2 * len(avail_x)))
            avail_y = [r for r in (cj, cj + 1) if d2y[r] is not None]
            for r in avail_y:
                for n, cf in zip(*d2y[r]):
                    for i in (ci, ci + 1):
                        add(i, n, 1, cf / (hy * hy) / (2 * len(avail_y)))
            cross = SQRT2 / (hx * hy)
            add(ci, cj, 2, cross)
            add(ci + 1, cj + 1, 2, cross)
            add(ci + 1, cj, 2, -cross)
            add(ci, cj + 1, 2, -cross)
            nodes = sorted(entries)
            out[(ci, cj)] = (nodes, np.stack([entries[n] for n in nodes], 1))
    return out


def _loop_assemble(problem):
    """(K, load, free dof mask) of the element loop."""
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    nn = (mx + 1) * (my + 1)

    def nid(i, j):
        return i + (mx + 1) * j

    bm = _loop_membrane_b(hx, hy)
    curv = _loop_curvature_rows(mx, my, problem.clamped)
    rows, cols, vals = [], [], []
    for ci in range(mx):
        for cj in range(my):
            a = problem.forms[ci, cj]
            wnodes = [nid(ci, cj), nid(ci + 1, cj), nid(ci, cj + 1),
                      nid(ci + 1, cj + 1)]
            wdofs = [2 * n + c for n in wnodes for c in (0, 1)]
            vnodes, ccoef = curv[(ci, cj)]
            dofs = np.array(wdofs + [2 * nn + nid(i, j) for i, j in vnodes])
            ke = np.zeros((dofs.size, dofs.size))
            for g in range(4):
                z = np.zeros((6, dofs.size))
                z[:3, :8] = bm[g]
                z[3:, 8:] = -ccoef
                ke += 2.0 * (hx * hy / 4.0) * (z.T @ a @ z)
            rows.append(np.repeat(dofs, dofs.size))
            cols.append(np.tile(dofs, dofs.size))
            vals.append(ke.ravel())
    k = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(3 * nn, 3 * nn))
    area = np.zeros((mx + 1, my + 1))
    for di in (0, 1):
        for dj in (0, 1):
            area[di:mx + di, dj:my + dj] += hx * hy / 4.0
    ell = np.zeros(3 * nn)
    free = np.ones(nn, dtype=bool)
    edges = {"left": lambda i, j: i == 0, "right": lambda i, j: i == mx,
             "bottom": lambda i, j: j == 0, "top": lambda i, j: j == my}
    for i in range(mx + 1):
        for j in range(my + 1):
            n = nid(i, j)
            ell[[2 * n, 2 * n + 1, 2 * nn + n]] = problem.forces[i, j] * area[i, j]
            free[n] = not any(edges[e](i, j) for e in problem.clamped)
    dof_free = np.concatenate([np.repeat(free, 2), free])
    return k[dof_free][:, dof_free], ell[dof_free], dof_free


def _loop_cell_strains(problem, w, v):
    mx, my = problem.mx, problem.my
    hx, hy = 1.0 / mx, 1.0 / my
    curv = _loop_curvature_rows(mx, my, problem.clamped)
    out = np.zeros((mx, my, 6))
    for ci in range(mx):
        for cj in range(my):
            du = w[ci + 1, cj] + w[ci + 1, cj + 1] - w[ci, cj] - w[ci, cj + 1]
            dv = w[ci, cj + 1] + w[ci + 1, cj + 1] - w[ci, cj] - w[ci + 1, cj]
            gx, gy = du / (2 * hx), dv / (2 * hy)
            out[ci, cj, :3] = gx[0], gy[1], (gx[1] + gy[0]) / SQRT2
            vnodes, ccoef = curv[(ci, cj)]
            out[ci, cj, 3:] = -(ccoef @ np.array([v[i, j] for i, j in vnodes]))
    return out


@pytest.mark.parametrize("mx,my", [(5, 4), (4, 6)])
@pytest.mark.parametrize("clamped", [("left",), ("left", "right"),
                                     ("bottom", "top"),
                                     ("left", "right", "bottom", "top")])
def test_kronecker_assembly_matches_element_loop(mx, my, clamped):
    # the reference K, the program's load and cell strains
    rng = np.random.default_rng(mx * 10 + my + len(clamped))
    g = rng.standard_normal((mx, my, 6, 6))
    forms = g @ g.swapaxes(-1, -2) + 0.5 * np.eye(6)
    forces = rng.standard_normal((mx + 1, my + 1, 3))
    prob = PlateProblem(mx=mx, my=my, forms=forms, forces=forces,
                        clamped=clamped)
    k, (_, ell) = kronecker_k(prob), assemble_plate(prob)
    k_ref, ell_ref, free_ref = _loop_assemble(prob)
    assert np.array_equal(dof_mask(prob), free_ref)
    scale = abs(k_ref).max()
    assert abs(k - k_ref).max() <= 1e-14 * scale
    assert_allclose(ell, ell_ref, rtol=1e-14, atol=1e-14 * abs(ell_ref).max())
    w = rng.standard_normal((mx + 1, my + 1, 2))
    v = rng.standard_normal((mx + 1, my + 1))
    sol = PlateSolution(w=w, v=v, energy=0.0, load_value=0.0, solve=None)
    want = _loop_cell_strains(prob, w, v)
    assert_allclose(cell_strains(prob, sol), want, rtol=0,
                    atol=1e-13 * abs(want).max())


@pytest.mark.parametrize("clamped", [("left",), ("bottom",)])
def test_cell_strains_of_quadratic_deflections(clamped):
    # -hess v in the Mandel coordinates of algebra.mandel_pair: v = xy has
    # twist slot -sqrt2 v_xy = -sqrt2; v = x^2 and y^2 have curvature -2 in
    # their own slot and no twist. The second differences are exact on
    # quadratics, and so is the ghost row of a clamped left (bottom) edge on
    # x^2 (y^2), which vanishes there with its normal slope.
    prob = PlateProblem(mx=5, my=4, forms=Q0.a, forces=np.zeros(3),
                        clamped=clamped)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 5),
                       indexing="ij")

    def strains(v):
        sol = PlateSolution(w=np.zeros((6, 5, 2)), v=v, energy=0.0,
                            load_value=0.0, solve=None)
        return cell_strains(prob, sol)

    z = strains(x * y)
    assert_allclose(z[..., 5], -SQRT2, rtol=1e-13)
    assert_allclose(z[..., :3], 0.0, atol=1e-13)
    z = strains(x ** 2)
    assert_allclose(z[..., 3], -2.0, rtol=1e-12)
    assert_allclose(z[..., 5], 0.0, atol=1e-12)
    z = strains(y ** 2)
    assert_allclose(z[..., 4], -2.0, rtol=1e-12)
    assert_allclose(z[..., 5], 0.0, atol=1e-12)


def coupled_form() -> np.ndarray:
    """Limit form of an unsymmetric x3 laminate: membrane and bending
    couple."""
    grid = make_laminate("x3", [0.3, 0.7], (2, 2, 8), domain="plate")
    form = kl_limit_form(grid, {1: isotropic_hooke(1.0, 1.0),
                                2: isotropic_hooke(10.0, 10.0)}).a
    assert np.abs(form[:3, 3:]).max() > 0.1
    return form


def strip(m, forms=Q0.a, clamped=("left", "right")):
    return PlateProblem(mx=m, my=m, forms=forms,
                        forces=np.array([0.0, 0.0, 1.0]), clamped=clamped)


@pytest.mark.parametrize("clamped", [("left", "right"), ("bottom", "top")])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("m", [6, 8, 16])
def test_singular_even_strip_raises_solver_error(m, coupled, clamped):
    # an even cell count between two clamped edges leaves the zero-energy
    # deflection v = 0, 1, 0, 1, ... across node lines: it has no strain,
    # so no form, coupled or not, gives it energy
    forms = coupled_form() if coupled else Q0.a
    with pytest.raises(SolverError):
        minimize_plate(strip(m, forms, clamped))


def test_odd_strip_solves_with_banded_cholesky():
    # 9 x 9 between clamped left and right edges: 8 free nodes along x,
    # 10 along y, so x runs fastest, and the bending block's band is
    # 3 * 8 + 1
    sol = minimize_plate(strip(9))
    assert sol.energy < 0.0
    assert sol.solve.iterations <= 3
    assert sol.solve.energy_error <= 1e-12
    # the transverse load leaves the membrane block unloaded, so only the
    # bending block is solved, and the record is a one-column solve's
    assert sol.solve.preconditioner == {
        "name": "banded-cholesky", "blocks": ["bending"], "bandwidths": [25]}
    rec = sol.solve.record()
    assert 1 <= rec["iterations"] <= 3
    assert rec["residual"] <= 1e-12


def test_banded_cholesky_cantilever_converges_in_few_iterations():
    sol = minimize_plate(cantilever(mx=16, my=16))
    assert sol.solve.iterations <= 3
    assert sol.solve.energy_error <= 1e-12


@pytest.mark.parametrize("mx,my", [(12, 5), (5, 12)])
@pytest.mark.parametrize("clamped", [("left",), ("bottom",)])
@pytest.mark.parametrize("coupled", [False, True])
def test_banded_factor_matches_dense_solve(mx, my, clamped, coupled):
    # each block's factor solves its block of K exactly and is zero off
    # it, and its band follows the side with fewer free nodes: x-fastest
    # order would give 111 sub-diagonals on the coupled 12 x 5 plate with
    # its left edge clamped
    prob = PlateProblem(mx=mx, my=my, forms=coupled_form() if coupled else Q0.a,
                        forces=np.array([0.0, 0.0, 1.0]), clamped=clamped)
    k = full_operator(prob)
    n = min(k.free.any(axis=0).sum(), k.free.any(axis=1).sum())
    widths = {"coupled": 9 * n + 3, "membrane": 2 * n + 3, "bending": 3 * n + 1}
    assert list(k.ke) == (["coupled"] if coupled else ["membrane", "bending"])
    factors = {name: BandedCholesky(k.band(name), k.free, k.dofs(name))
               for name in k.ke}
    assert np.array_equal(np.sort(np.concatenate(
        [f.order for f in factors.values()])), np.arange(k.shape[0]))
    b = np.random.default_rng(mx).standard_normal((k.shape[0], 2))
    dense = k @ np.eye(k.shape[0])
    for name, factor in factors.items():
        order = factor.order
        assert factor.bandwidth == widths[name]
        want = np.linalg.solve(dense[order][:, order], b[order])
        got = factor.solve(b)
        assert np.linalg.norm(got[order] - want) <= 1e-12 * np.linalg.norm(want)
        off = np.ones(k.shape[0], dtype=bool)
        off[order] = False
        assert not got[off].any()


def tril_band(k, order):
    """The band of a CSR K's block ``order``, scattered from the COO of the
    permuted K's lower triangle."""
    low = sp.tril(k[order][:, order], format="coo")
    band = np.zeros((int((low.row - low.col).max()) + 1, order.size),
                    order="F")
    band[low.row - low.col, low.col] = low.data
    return band


@pytest.mark.parametrize("mx,my", [(12, 5), (5, 12)])
@pytest.mark.parametrize("clamped", [("left",), ("bottom",),
                                     ("left", "right", "bottom", "top")])
@pytest.mark.parametrize("coupled", [False, True])
def test_csr_band_is_the_permuted_tril_band(mx, my, clamped, coupled):
    # every block of either layout (membrane and bending, or coupled), its
    # pairs added cell by cell, is the band of the permuted lower triangle
    # of the reference CSR K, per-cell forms: same width, entries within
    # 1e-14 of the largest (they sum in another order)
    prob = random_plate(mx, my, clamped, coupled, mx * my + len(clamped))
    k, k_ref = full_operator(prob), kronecker_k(prob)
    for name in k.ke:
        got, want = k.band(name), tril_band(k_ref, block_order(k, name))
        assert got.flags.f_contiguous
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mx,my", [(5, 4), (4, 6), (2, 7), (16, 16)])
@pytest.mark.parametrize("clamped", [("left",), ("left", "right"),
                                     ("top", "right"),
                                     ("left", "right", "bottom", "top")])
@pytest.mark.parametrize("coupled", [False, True])
def test_cell_by_cell_products_are_the_kronecker_products(mx, my, clamped,
                                                          coupled):
    # K p by gathered slices, one vector or a block of them, each block of
    # K alone, and the cell-center strains, against the reference CSR
    # products: within 1e-14 of the largest entry
    prob = random_plate(mx, my, clamped, coupled, mx + 10 * my + len(clamped))
    k, k_ref = full_operator(prob), kronecker_k(prob)
    rng = np.random.default_rng(mx)
    p = rng.standard_normal((k.shape[0], 3))
    want = k_ref @ p
    assert np.abs(k @ p - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(k @ p[:, 0], (k @ p[:, :1])[:, 0])
    assert np.array_equal(sum(k.block(name) @ p for name in k.ke), k @ p)
    w = rng.standard_normal((mx + 1, my + 1, 2))
    v = rng.standard_normal((mx + 1, my + 1))
    sol = PlateSolution(w=w, v=v, energy=0.0, load_value=0.0, solve=None)
    want = (KroneckerOperators(mx, my, clamped).center @ np.concatenate(
        [w.swapaxes(0, 1).ravel(), v.T.ravel()])).reshape(my, mx, 6).swapaxes(0, 1)
    assert np.abs(cell_strains(prob, sol) - want).max() <= (
        1e-14 * np.abs(want).max())


def whole_band_minimize(problem, tol=1e-12):
    """``minimize_plate`` as it was before its block solves: one factor of
    K's whole band (w before v in the split layout: the blocks' bands side
    by side, as K has no entry between them), one CG on every block of K
    and the energy error estimate r.K_c^-1 r / |l.u| of the whole
    residual."""
    _, ell = assemble_plate(problem)
    k = full_operator(problem)
    bands = [k.band(name) for name in k.ke]
    band = np.zeros((max(b.shape[0] for b in bands), k.shape[0]), order="F")
    start = 0
    for b in bands:
        band[:b.shape[0], start:start + b.shape[1]] = b
        start += b.shape[1]
    # the blocks' orders side by side, as the dofs of a 1 x n node line
    order = np.concatenate([block_order(k, name) for name in k.ke])
    factor = BandedCholesky(band, np.ones((1, order.size), dtype=bool),
                            order[:, None])
    u, info = pcg(k, ell, precond=factor.solve, tol=tol)
    ku = k @ u
    info.energy_error = energy_error(ell, u, ku, factor.solve)
    if not info.energy_error <= tol:
        raise SolverError("singular")
    mx, my = problem.mx, problem.my
    dof_free = dof_mask(problem)
    full = np.zeros(dof_free.size)
    full[dof_free] = u
    nn = (mx + 1) * (my + 1)
    load_value = float(ell @ u)
    return PlateSolution(
        w=full[:2 * nn].reshape(my + 1, mx + 1, 2).swapaxes(0, 1),
        v=full[2 * nn:].reshape(my + 1, mx + 1).T,
        energy=float(0.5 * u @ ku - load_value), load_value=load_value,
        solve=info)


def assert_same_solution(got, want):
    assert got.energy == want.energy
    assert got.load_value == want.load_value
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.v, want.v)
    assert got.solve.iterations == want.solve.iterations
    assert got.solve.residual == want.solve.residual
    assert got.solve.energy_error == want.solve.energy_error


def ortho_form() -> np.ndarray:
    """A bending-decoupled orthotropic form: membrane block m, bending
    diag(m) / 12."""
    a = np.zeros((6, 6))
    a[:3, :3] = [[1.0, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.35]]
    a[3:, 3:] = np.diag(np.diag(a[:3, :3])) / 12.0
    return a


@pytest.mark.parametrize("prob", [
    cantilever(mx=64, my=64, forms=ortho_form()), cantilever(mx=32, my=20),
    strip(9), strip(9, clamped=("bottom", "top"))],
    ids=["cantilever64", "cantilever32x20", "strip-x", "strip-y"])
def test_transverse_block_solves_are_the_whole_band_solve(prob):
    # with the membrane block unloaded, every product and dot of the
    # bending block's solve rounds as the whole band's did. So does its
    # factor where LAPACK's blocked band factorization, in blocks of 32
    # columns, split the whole band's v columns as it splits the bending
    # band's: here, the membrane block has a multiple of 32 dofs (8320,
    # 1344 and 160), as on the benchmark's 64 x 64 and 32 x 32 cantilevers
    sol = minimize_plate(prob)
    assert_same_solution(sol, whole_band_minimize(prob))
    assert not sol.w.any()


def test_coupled_plate_energy_is_the_whole_band_solve():
    # theorem1's F0 on an unsymmetric laminate: one interleaved block, the
    # whole band, in plane and transverse loads alike
    for f in ((0.0, 0.0, 1.0), (0.4, -0.2, 1.0)):
        prob = cantilever(mx=16, my=12, forms=coupled_form(), f=f)
        assert_same_solution(minimize_plate(prob), whole_band_minimize(prob))


def test_perturbation_report_is_the_whole_band_report(monkeypatch):
    prob = cantilever(mx=32, my=32)
    got = perturbation_stability(prob)
    monkeypatch.setattr(plate2d, "minimize_plate", whole_band_minimize)
    assert got == perturbation_stability(prob)


@pytest.mark.parametrize("prob,rel", [
    (cantilever(mx=32, my=32, forms=ortho_form(), f=(0.3, -0.2, 1.0)), 1e-12),
    (cantilever(mx=20, my=32, f=(1.0, 0.5, 0.0)), 1e-12),
    (PlateProblem(mx=9, my=9, forms=Q0.a, forces=np.array([0.2, 0.4, 1.0]),
                  clamped=("left", "right")), 1e-12),
    (cantilever(mx=40, my=40), 5e-11), (cantilever(mx=50, my=30), 5e-11)],
    ids=["cantilever-both", "cantilever-in-plane", "strip-both",
         "cantilever40", "cantilever50x30"])
def test_block_solves_stay_near_the_whole_band_solve(prob, rel):
    # with the membrane block loaded, its CG's dot products and its band
    # (narrower than the whole band) round otherwise, and CG may stop one
    # iteration sooner; with 3280 and 3100 membrane dofs, LAPACK's blocks
    # of 32 columns split the whole band's v columns otherwise than the
    # bending band's. Measured relative gaps in energy, w and v:
    # cantilever-both 3.1e-13, 2.0e-14, 1.5e-16; cantilever-in-plane
    # 2.9e-14, 9.5e-15, 0; strip-both 7.4e-16, 1.3e-15, 3.8e-16;
    # cantilever40 9.3e-12, 0, 1.3e-11; cantilever50x30 8.9e-12, 0, 4.1e-12
    sol, want = minimize_plate(prob), whole_band_minimize(prob)
    assert abs(sol.energy - want.energy) <= rel * abs(want.energy)
    for got, ref in ((sol.w, want.w), (sol.v, want.v)):
        assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("clamped", [("left", "right"), ("bottom", "top")])
def test_even_strip_with_in_plane_load_names_the_bending_block(clamped):
    # the membrane block solves; the bending block's zero-energy mode
    # still raises, and the error names it
    prob = PlateProblem(mx=8, my=8, forms=Q0.a,
                        forces=np.array([0.3, 0.2, 1.0]), clamped=clamped)
    with pytest.raises(SolverError, match="bending block"):
        minimize_plate(prob)


@pytest.mark.parametrize("clamped", [("left", "right"), ("bottom", "top")])
@pytest.mark.parametrize("m", [6, 8, 16])
def test_even_strip_with_in_plane_load_solves_the_membrane_block(m, clamped):
    # the load does not reach the singular bending block, whose minimizer
    # is 0: it is not solved, so its zero-energy mode raises for no m, and
    # w is the membrane block's own solve bit for bit
    prob = PlateProblem(mx=m, my=m, forms=Q0.a,
                        forces=np.array([0.3, 0.2, 0.0]), clamped=clamped)
    sol = minimize_plate(prob)
    assert not sol.v.any()
    assert sol.solve.preconditioner["blocks"] == ["membrane"]
    _, ell = assemble_plate(prob)
    k = full_operator(prob)
    factor = BandedCholesky(k.band("membrane"), k.free, k.dofs("membrane"))
    u, _ = pcg(k, ell, precond=factor.solve, tol=1e-12)
    dof_free = dof_mask(prob)
    full = np.zeros(dof_free.size)
    full[dof_free] = u
    w = full[:2 * (m + 1) ** 2].reshape(m + 1, m + 1, 2).swapaxes(0, 1)
    assert np.array_equal(sol.w, w)
    assert sol.energy == float(0.5 * u @ (k @ u) - ell @ u)


def test_transverse_load_bands_only_the_bending_block(monkeypatch):
    prob = cantilever(mx=64, my=64, forms=ortho_form())
    bending = block_order(full_operator(prob), "bending")
    seen = spy_solves(monkeypatch)
    sol = minimize_plate(prob)
    assert len(seen["bands"]) == seen["pcg"] == 1
    assert np.array_equal(seen["bands"][0], bending)
    assert sol.solve.preconditioner["blocks"] == ["bending"]
    assert not sol.w.any()


def old_dump_solution_csv(sol, path):
    """``dump_solution_csv`` as it wrote the file, one scalar at a time."""
    import csv

    mx, my = sol.v.shape[0] - 1, sol.v.shape[1] - 1
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "w1", "w2", "v"])
        for j in range(my + 1):
            for i in range(mx + 1):
                w.writerow([i / mx, j / my, sol.w[i, j, 0], sol.w[i, j, 1],
                            sol.v[i, j]])


def test_solution_csv_is_the_per_scalar_writer(tmp_path):
    # a non-square grid whose values take every float format: signed zero,
    # a subnormal, exponents at and above 1e16 and below 1e-4
    mx, my = 5, 3
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((mx + 1, my + 1, 3))
    vals *= 10.0 ** rng.integers(-12, 20, size=vals.shape)
    vals.flat[:8] = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 9.999999999999998e15,
                     1e-4, 9.99e-5]
    sol = PlateSolution(w=vals[..., :2], v=vals[..., 2], energy=0.0,
                        load_value=0.0, solve=None)
    dump_solution_csv(sol, tmp_path / "new.csv")
    old_dump_solution_csv(sol, tmp_path / "old.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    for text in (b"-0.0", b"5e-324", b"1e+16", b"9.99e-05"):
        assert text in got


def eighteen_row_k(prob):
    """K as the one product over all 18 strain rows per cell, the three
    Gauss groups' zero rows included, with the 18 ncell-square block
    diagonal of the forms: the reference ``kronecker_k`` sums by its
    nonzero rows only."""
    ops = KroneckerOperators(prob.mx, prob.my, tuple(prob.clamped))
    ncell = prob.mx * prob.my
    # row r of cell c of group q goes to row 6 (q ncell + c) + r
    rows = np.concatenate([(6 * (q * ncell + np.arange(ncell)[:, None])
                            + np.array(r)).ravel()
                           for q, r in enumerate(GROUP_ROWS)])
    spread = sp.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))),
                           shape=(18 * ncell, rows.size))
    gauss = spread @ ops.gauss
    forms = prob.forms.swapaxes(0, 1).reshape(ncell, 6, 6)
    blocks = np.tile(forms * (2.0 / ncell), (3, 1, 1))
    d = sp.bsr_matrix((blocks, np.arange(3 * ncell), np.arange(3 * ncell + 1)),
                      shape=(18 * ncell, 18 * ncell)).tocsr()
    return gauss.T.tocsr() @ (d @ gauss)


@pytest.mark.parametrize("mx,my", [(5, 4), (4, 6), (16, 16)])
@pytest.mark.parametrize("clamped", [("left",), ("left", "right", "bottom", "top")])
@pytest.mark.parametrize("coupled", [False, True])
def test_group_rows_sum_k_bitwise(mx, my, clamped, coupled):
    # the reference's check on itself: the groups' nonzero rows, stacked,
    # sum each entry's terms in the order of the product over all 18 rows
    # per cell, so every entry of the reference K is its bit for bit, with
    # per-cell forms, coupled or not (compared by sorted indices: the
    # 18-row product stores a row's entries in another order)
    rng = np.random.default_rng(mx * my + len(clamped))
    g = rng.standard_normal((mx, my, 6, 6))
    forms = g @ g.swapaxes(-1, -2) + 0.5 * np.eye(6)
    if not coupled:
        forms[..., :3, 3:] = forms[..., 3:, :3] = 0.0
    prob = PlateProblem(mx=mx, my=my, forms=forms,
                        forces=np.array([0.0, 0.0, 1.0]), clamped=clamped)
    k, want = kronecker_k(prob).sorted_indices(), eighteen_row_k(prob)
    want.sort_indices()
    assert np.array_equal(k.indptr, want.indptr)
    assert np.array_equal(k.indices, want.indices)
    assert np.array_equal(k.data, want.data)


@pytest.mark.parametrize("forms", ["plane stress", "coupled"])
def test_warm_assembly_peak_is_a_small_multiple_of_k(forms):
    # a 32 x 32 assembly under a transverse load (the bending block of the
    # plane-stress form, the coupled block of the other) peaks at 1.36 and
    # 3.98 MB, 1.15 and 1.22 times its element matrices (1.18 and 3.28 MB);
    # the Kronecker CSR assembly was bounded by 4.5 times K's CSR bytes,
    # 3.42 and 6.86 MB, with its strain operators cached
    import tracemalloc

    prob = PlateProblem(mx=32, my=32,
                        forms=Q0.a if forms == "plane stress" else coupled_form(),
                        forces=np.array([0.0, 0.0, 1.0]), clamped=("left",))
    assemble_plate(prob)
    tracemalloc.start()
    try:
        k = assemble_plate(prob)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= {"plane stress": 1.5e6, "coupled": 4.4e6}[forms]
    assert peak <= 1.25 * 8 * k.nnz


def test_block_solve_peak_is_k_and_one_block_band():
    # a 64 x 64 decoupled solve under a transverse load holds the bending
    # block's element matrices (4.72 MB) and band (6.49 MB) and CG's
    # vectors: measured peak 13.14 MB. The Kronecker CSR solve was bounded
    # by K's CSR (3.0 MB) plus 1.2 times the membrane band (8.8 MB), 13.55
    # MB; the whole band and its permuted copy of K took it to 25.7 MB
    import tracemalloc

    prob = cantilever(mx=64, my=64, forms=ortho_form())
    minimize_plate(prob)    # the lazy imports, so that only the solve counts
    tracemalloc.start()
    try:
        minimize_plate(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.5e6
