"""Scaled-gradient FEM: element oracle, kernels, solver, clamped plates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from platehom import fem3d
from platehom.algebra import isotropic_hooke, soft_hooke
from platehom.fem3d import (assemble, body_load, element_kit,
                            element_stiffness, expand_field, pcg,
                            restrict_field, solve, solve_clamped)
from platehom.microstructure import VoxelGrid, make_laminate, refine


def uniform_grid(nx, ny, nz, domain="cell"):
    return VoxelGrid(nx, ny, nz, np.ones(nx * ny * nz, dtype=np.int32), domain)


# ---------------------------------------------------------------------------
# element-level oracle: energy by direct tensor quadrature, no B matrices
# ---------------------------------------------------------------------------

def oracle_element_energy(u24, lam, mu, hx, hy, hz, scale):
    """Scalar Gauss-loop energy of a trilinear element, from strain tensors."""
    g = 1.0 / np.sqrt(3.0)
    total = 0.0
    corners = [np.array([a & 1, (a >> 1) & 1, (a >> 2) & 1], dtype=float)
               for a in range(8)]
    for gx in (-g, g):
        for gy in (-g, g):
            for gz in (-g, g):
                grad = np.zeros((3, 3))
                for a, (xa, ya, za) in enumerate(2 * np.array(corners) - 1):
                    dn = np.array([
                        xa * (1 + ya * gy) * (1 + za * gz) / 8 * 2 / hx,
                        ya * (1 + xa * gx) * (1 + za * gz) / 8 * 2 / hy,
                        za * (1 + xa * gx) * (1 + ya * gy) / 8 * 2 / (hz * scale),
                    ])
                    for c in range(3):
                        grad[c] += u24[3 * a + c] * dn
                e = 0.5 * (grad + grad.T)
                q = mu * np.sum(e * e) + 0.5 * lam * np.trace(e) ** 2
                total += q * hx * hy * hz / 8.0
    return total


def test_element_matches_scalar_quadrature_oracle():
    lam, mu = 1.7, 0.6
    hx, hy, hz, scale = 1 / 5, 1 / 7, 1 / 3, 0.4
    kit = element_kit(hx, hy, hz, scale)
    ke = element_stiffness(kit, isotropic_hooke(lam, mu))
    ko = np.zeros((24, 24))
    basis = np.eye(24)
    singles = [oracle_element_energy(basis[i], lam, mu, hx, hy, hz, scale)
               for i in range(24)]
    for i in range(24):
        for j in range(i, 24):
            eij = oracle_element_energy(basis[i] + basis[j], lam, mu, hx, hy,
                                        hz, scale)
            ko[i, j] = ko[j, i] = eij - singles[i] - singles[j]
    # energy = 0.5 u.K u, and the polarization above returns K directly
    assert np.max(np.abs(ke - ko)) < 1e-13 * np.max(np.abs(ko))


def test_scale_one_equals_unscaled_assembly():
    kit_a = element_kit(0.25, 0.25, 0.25, 1.0)
    kit_b = element_kit(0.25, 0.25, 0.25, 1.0, ans_shear=False)
    h = isotropic_hooke(1.0, 1.0)
    assert_allclose(element_stiffness(kit_a, h), element_stiffness(kit_b, h))


def test_free_element_rigid_modes():
    h = isotropic_hooke(2.0, 1.0)
    for ans in (False, True):
        kit = element_kit(1 / 8, 1 / 8, 1 / 32, 0.1, ans_shear=ans)
        ev = np.linalg.eigvalsh(element_stiffness(kit, h))
        assert np.sum(ev < 1e-11 * ev[-1]) == 6


def test_cell_operator_kernel_translations():
    grid = uniform_grid(4, 4, 4)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0)
    for c in range(3):
        t = np.zeros(op.ndof)
        t[c::3] = 1.0
        assert np.max(np.abs(op.k @ t)) < 1e-12
        assert abs(op.energy(t)) < 1e-12 * op.ndof


def test_cell_energy_translation_invariant():
    rng = np.random.default_rng(4)
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 4))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(5.0, 3.0)}
    op = assemble(grid, phases, scale=0.7)
    u = rng.standard_normal(op.ndof)
    e0 = op.energy(u)
    shift = np.zeros(op.ndof)
    shift[0::3] = 1.3
    shift[1::3] = -0.4
    shift[2::3] = 2.2
    assert_allclose(op.energy(u + shift), e0, rtol=1e-10)


def test_noncoercive_phase_rejected_without_flag():
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 2))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: soft_hooke(0.0)}
    with pytest.raises(ValueError, match="not coercive"):
        assemble(grid, phases, scale=1.0)
    assemble(grid, phases, scale=1.0, allow_soft=True)


def test_solve_zero_rhs():
    grid = uniform_grid(3, 3, 3)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0)
    u, info = solve(op, np.zeros(op.ndof))
    assert info.converged and info.iterations == 0
    assert_allclose(u, 0.0)


def test_solve_manufactured_solution():
    rng = np.random.default_rng(8)
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 6))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(4.0, 2.0)}
    op = assemble(grid, phases, scale=1.5)
    u_star = op.project(rng.standard_normal(op.ndof))
    rhs = op.k @ u_star
    u, info = solve(op, rhs, tol=1e-12)
    assert info.converged
    assert np.linalg.norm(u - u_star) < 1e-8 * np.linalg.norm(u_star)


def test_pcg_block_jacobi_agrees():
    grid = uniform_grid(4, 4, 4, domain="plate")
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=0.2,
                  mode="plate", clamped=("left",))
    rng = np.random.default_rng(2)
    b = rng.standard_normal(op.ndof)
    xa, ia = pcg(op.k, b, precond="jacobi", tol=1e-12)
    xb, ib = pcg(op.k, b, precond="block", tol=1e-12)
    assert ia.converged and ib.converged
    assert np.linalg.norm(xa - xb) < 1e-8 * np.linalg.norm(xa)
    assert ib.iterations <= ia.iterations


def test_indefinite_operator_rejected():
    import scipy.sparse as sp

    k = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(fem3d.SolverError, match="positive definite"):
        pcg(k, np.array([1.0, 1.0, 1.0]), tol=1e-12)
    # a block right-hand side breaks down in the same way, per column
    with pytest.raises(fem3d.SolverError, match="in column 1"):
        pcg(k, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), tol=1e-12)


def test_solve_reports_iteration_cap_without_raising():
    # two phases: on a uniform cell the FFT preconditioner is the exact
    # inverse and one iteration converges
    grid = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0),
                         2: isotropic_hooke(10.0, 10.0)}, scale=1.0)
    rng = np.random.default_rng(0)
    rhs = op.project(rng.standard_normal(op.ndof))
    u, info = solve(op, rhs, tol=1e-14, max_iter=2)
    assert not info.converged
    assert info.iterations == 2
    assert info.residual > 0


def test_clamped_zero_force_zero_solution():
    grid = uniform_grid(4, 4, 2, domain="plate")
    op, u, energy, info = solve_clamped(grid, {1: isotropic_hooke(1.0, 1.0)},
                                        0.25, (0.0, 0.0, 0.0), ("left",))
    assert_allclose(u, 0.0)
    assert energy == 0.0


def test_clamped_energy_identity_and_sign():
    grid = uniform_grid(8, 8, 4, domain="plate")
    phases = {1: isotropic_hooke(1.0, 1.0)}
    op, u, energy, info = solve_clamped(grid, phases, 0.25, (0, 0, 1.0),
                                        ("left",), tol=1e-12)
    ell = body_load(op, (0, 0, 1.0))
    assert energy < 0.0
    assert abs(energy + 0.5 * float(ell @ u)) < 1e-10 * abs(energy)


def test_clamped_reflection_symmetry():
    # all edges clamped, constant transverse load: solution symmetric in x<->y
    grid = uniform_grid(8, 8, 4, domain="plate")
    phases = {1: isotropic_hooke(1.0, 1.0)}
    op, u, _, _ = solve_clamped(grid, phases, 0.25, (0, 0, 1.0),
                                ("left", "right", "bottom", "top"), tol=1e-12)
    f = expand_field(op, u)
    u3 = f[..., 2]
    assert np.max(np.abs(u3 - u3.transpose(1, 0, 2))) < 1e-9 * np.max(np.abs(u3))
    # and mirror-symmetric under x -> 1-x
    assert np.max(np.abs(u3 - u3[::-1, :, :])) < 1e-9 * np.max(np.abs(u3))


def test_plate_mode_requires_clamped_edge():
    grid = uniform_grid(2, 2, 2, domain="plate")
    with pytest.raises(ValueError):
        assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=0.5, mode="plate")


def test_expand_restrict_roundtrip():
    rng = np.random.default_rng(12)
    grid = uniform_grid(3, 4, 2)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0)
    u = rng.standard_normal(op.ndof)
    assert_allclose(restrict_field(op, expand_field(op, u)), u)
    gridp = uniform_grid(3, 4, 2, domain="plate")
    opp = assemble(gridp, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0,
                   mode="plate", clamped=("left", "top"))
    up = rng.standard_normal(opp.ndof)
    f = expand_field(opp, up)
    assert np.max(np.abs(f[0])) == 0.0   # clamped plane
    assert_allclose(restrict_field(opp, f), up)


def test_expand_field_periodic_wrap():
    grid = uniform_grid(3, 3, 2)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(op.ndof)
    f = expand_field(op, u)
    assert_allclose(f[0, :, :], f[3, :, :])
    assert_allclose(f[:, 0, :], f[:, 3, :])


def test_laminate_minimum_gamma_rescaling_invariance():
    # x3-laminate: minima at gamma and gamma' coincide after psi -> (g'/g) psi
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 16))
    minima = {}
    for gamma in (0.5, 2.0):
        op = assemble(grid, phases, scale=gamma)
        gmat, e0, = fem3d.corrector_loads(op)
        u, info = solve(op, -gmat[:, 0], tol=1e-12)
        assert info.converged
        minima[gamma] = 0.5 * (e0[0, 0] + 2 * gmat[:, 0] @ u + u @ (op.k @ u))
    assert_allclose(minima[0.5], minima[2.0], rtol=1e-9)


def test_refinement_monotonicity_of_minimum():
    # nested conforming spaces: refined discrete minimum cannot increase
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    base = make_laminate(30.0, [0.5, 0.5], (4, 4, 4))
    vals = []
    for grid in (base, refine(base, 2)):
        op = assemble(grid, phases, scale=1.0)
        gmat, e0 = fem3d.corrector_loads(op)
        u, info = solve(op, -gmat[:, 3], tol=1e-12)
        assert info.converged
        vals.append(0.5 * (e0[3, 3] + 2 * gmat[:, 3] @ u + u @ (op.k @ u)))
    assert vals[1] <= vals[0] + 1e-12


def test_vtk_dump_format(tmp_path):
    field = np.zeros((3, 2, 2, 3))
    field[1, 0, 1] = (1.0, 2.0, 3.0)
    path = tmp_path / "f.vtk"
    fem3d.dump_vtk(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 3 2 2"
    assert lines[7] == "POINT_DATA 12"
    assert lines[8].startswith("VECTORS")
    # x-fastest ordering: node (1,0,1) is line index 1 + 0*3 + 1*6 = 7
    assert lines[9 + 7] == "1 2 3"


def test_clamped_pcg_matches_direct_solve():
    import scipy.sparse.linalg as spla

    phases = {1: isotropic_hooke(1.0, 1.0)}
    grid = uniform_grid(6, 6, 3, domain="plate")
    op = assemble(grid, phases, scale=0.2, mode="plate", clamped=("left",))
    ell = body_load(op, (0.3, -0.1, 1.0))
    u_cg, info = pcg(op.k, ell, precond="block", tol=1e-13)
    assert info.converged
    u_direct = spla.spsolve(op.k.tocsc(), ell)
    assert np.linalg.norm(u_cg - u_direct) < 1e-10 * np.linalg.norm(u_direct)


# ---------------------------------------------------------------------------
# FFT reference-medium preconditioner and block CG
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_reference_symbol_inverts_homogeneous_cell(gamma):
    # on a cell of the reference tensor itself the preconditioner is the
    # pseudo-inverse: M K v = P v; nx != ny and odd nx catch a swapped axis,
    # and a sign or phase error in the symbol fails at every wavenumber
    c0 = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                 isotropic_hooke(10.0, 10.0)])
    grid = VoxelGrid(5, 4, 3, np.ones(60, dtype=np.int32), "cell")
    op = assemble(grid, {1: c0}, scale=gamma)
    m = fem3d.ReferencePreconditioner(op)
    v = np.random.default_rng(3).standard_normal((op.ndof, 2))
    pv = op.project(v)
    assert np.abs(m(op.k @ v) - pv).max() < 1e-10 * np.abs(pv).max()
    assert np.abs(m(op.k @ v[:, 0]) - pv[:, 0]).max() < 1e-10 * np.abs(pv).max()


def test_reference_tensor_log_euclidean_mean():
    # isotropic lambda = mu phases: the geometric mean
    c0 = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                 isotropic_hooke(100.0, 100.0)])
    assert_allclose(c0.c, isotropic_hooke(10.0, 10.0).c, rtol=1e-13)
    # a soft phase stays finite, a phase without stiffness is left out
    soft = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0), soft_hooke(1e-4)])
    assert np.all(np.isfinite(soft.c)) and soft.alpha > 0.0
    void = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0), soft_hooke(0.0)])
    assert_allclose(void.c, isotropic_hooke(1.0, 1.0).c, rtol=1e-13)


def test_block_pcg_zero_column_and_columnwise_projection():
    grid = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(grid, phases, scale=1.0)
    gmat, _ = fem3d.corrector_loads(op)
    b = np.zeros((op.ndof, 3))
    b[:, 0] = -gmat[:, 0]
    b[:, 2] = -gmat[:, 3] + 5.0        # a constant shift each column drops
    x, info = pcg(op.k, b, precond=fem3d.ReferencePreconditioner(op),
                  tol=1e-12, project=op.project)
    assert info.column_iterations[1] == 0 and info.column_residuals[1] == 0.0
    assert np.all(x[:, 1] == 0.0)
    assert info.iterations == sum(info.column_iterations)
    assert info.converged and max(info.column_residuals) <= 1e-12
    for j in (0, 2):
        for c in range(3):
            assert abs(x[c::3, j].mean()) < 1e-12
        ref, _ = pcg(op.k, b[:, j], tol=1e-12, project=op.project)  # Jacobi
        assert np.linalg.norm(x[:, j] - ref) < 1e-9 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# two-level preconditioner for clamped plates
# ---------------------------------------------------------------------------

def free_columns(nx, ny, clamped):
    """(nx+1, ny+1) mask of the node columns off the clamped edges."""
    free = np.ones((nx + 1, ny + 1), dtype=bool)
    for edge, index in (("left", np.s_[0, :]), ("right", np.s_[nx, :]),
                        ("bottom", np.s_[:, 0]), ("top", np.s_[:, ny])):
        if edge in clamped:
            free[index] = False
    return free


@pytest.mark.parametrize("clamped", [("left",), fem3d.EDGES])
def test_plate_coarse_basis_is_griso_elementary_part(clamped):
    # P c is hat + r ^ x3 e3 with hat and r read off c per free column; the
    # Griso decomposition returns them and leaves no residual. nx != ny
    # catches swapped axes, the rotations' signs are those of the paper.
    from platehom.convergence import griso_decompose

    nx, ny, nz = 5, 4, 3
    grid = make_laminate("x3", [0.5, 0.5], (nx, ny, nz), domain="plate")
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(grid, phases, scale=0.1, mode="plate", clamped=clamped)
    m = fem3d.PlatePreconditioner(op)
    free = free_columns(nx, ny, clamped)
    assert m.describe()["coarse_dofs"] == 5 * free.sum()
    c = np.random.default_rng(6).standard_normal(m.p.shape[1])
    parts = griso_decompose(expand_field(op, m.p @ c))
    coef = np.zeros((ny + 1, nx + 1, 5))
    coef[free.T] = c.reshape(-1, 5)       # free columns in flat (y, x) order
    coef = coef.transpose(1, 0, 2)
    assert np.abs(parts.bar).max() < 1e-13
    assert np.abs(parts.hat - coef[..., :3]).max() < 1e-13
    assert np.abs(parts.r - coef[..., 3:]).max() < 1e-13


@pytest.mark.parametrize("clamped", [("left",), fem3d.EDGES])
def test_two_level_clamped_solve_matches_direct_solve(clamped):
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(5)
    grid = VoxelGrid(8, 8, 4, rng.integers(1, 3, 256).astype(np.int32), "plate")
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    f = (0.3, -0.2, 1.0)
    op, u, energy, info = solve_clamped(grid, phases, 1.0 / 16, f, clamped,
                                        tol=1e-12)
    assert info.preconditioner == {
        "name": "two-level", "smoother": "block-jacobi",
        "coarse_dofs": 5 * int(free_columns(8, 8, clamped).sum())}
    ell = body_load(op, f)
    u_direct = spla.splu(op.k.tocsc()).solve(ell)
    e_direct = 0.5 * u_direct @ (op.k @ u_direct) - ell @ u_direct
    assert abs(energy - e_direct) <= 1e-10 * abs(e_direct)


def test_solve_picks_preconditioner_by_mode():
    cell_op = assemble(make_laminate("x1", [0.5, 0.5], (4, 4, 4)),
                       {1: isotropic_hooke(1.0, 1.0),
                        2: isotropic_hooke(10.0, 10.0)}, scale=1.0)
    gmat, _ = fem3d.corrector_loads(cell_op)
    _, info = solve(cell_op, -gmat[:, 0], tol=1e-10)
    assert info.converged and info.preconditioner["name"] == "fft-reference"
    plate_op = assemble(uniform_grid(6, 6, 3, domain="plate"),
                        {1: isotropic_hooke(1.0, 1.0)}, scale=0.1,
                        mode="plate", clamped=("left",))
    _, info = solve(plate_op, body_load(plate_op, (0, 0, 1.0)), tol=1e-10)
    assert info.converged and info.preconditioner["name"] == "two-level"
