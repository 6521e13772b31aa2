"""Scaled-gradient FEM: element oracle, kernels, solver, clamped plates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from platehom import fem3d
from platehom.algebra import _EMBED, HookeTensor3, isotropic_hooke, soft_hooke
from platehom.fem3d import (assemble, body_load, element_kit,
                            element_stiffness, expand_field, pcg,
                            restrict_field, solve_clamped)
from platehom.microstructure import VoxelGrid, make_laminate, refine


def uniform_grid(nx, ny, nz, domain="cell"):
    return VoxelGrid(nx, ny, nz, np.ones(nx * ny * nz, dtype=np.int32), domain)


def jacobi(k):
    """Point-Jacobi preconditioner: the reference the solvers are checked
    against."""
    d = k.diagonal().copy()
    d[d <= 0.0] = 1.0
    inv = 1.0 / d

    def apply(r):
        return inv[:, None] * r

    return apply


def reference(op):
    """The reference preconditioner of the cell operator ``op``."""
    return fem3d.ReferencePreconditioner(op.grid.shape, op.scale, op.tensors)


def cell_pcg(op, b, **kw):
    """CG on a cell operator as ``cell.homogenize`` runs it: the Fourier
    reference preconditioner, the translations projected out of the loads
    and the result."""
    x, info = pcg(op.k, op.project(b), reference(op), **kw)
    return op.project(x), info


def element_dofs(op):
    """(nelem, 24) reduced dof ids of every element's corners, -1 on a
    clamped node, elements in flat order: the numbering of an element loop,
    built from the grid shape and the clamped edges alone."""
    nx, ny, nz = op.grid.shape
    i, j, k = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                          np.arange(nz + 1), indexing="ij")
    if op.mode == "cell":
        node = i % nx + nx * (j % ny + ny * k)
    else:
        free = np.ones(i.shape, dtype=bool)
        for edge, on in (("left", i == 0), ("right", i == nx),
                         ("bottom", j == 0), ("top", j == ny)):
            if edge in op.clamped:
                free &= ~on
        # free nodes are numbered in flat order: x fastest, then y, then z
        flat = free.transpose(2, 1, 0)
        node = np.where(flat, np.cumsum(flat).reshape(flat.shape) - 1, -1)
        node = node.transpose(2, 1, 0)
    ez, ey, ex = (e.ravel() for e in np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"))
    nodes = np.stack([node[ex + (a & 1), ey + (a >> 1 & 1), ez + (a >> 2)]
                      for a in range(8)], axis=1)
    dofs = 3 * nodes[:, :, None] + np.arange(3)
    return np.where(nodes[:, :, None] >= 0, dofs, -1).reshape(-1, 24)


def element_loads(op, f):
    """(G, E0) of ``corrector_loads`` and the body load of ``f``, every
    element's values added into the dofs of ``element_dofs`` by np.add.at,
    element after element: the reference for the lattice scatter. Also
    the sums of |G|'s terms, which bound G's rounding."""
    nx, ny, nz = op.grid.shape
    edof = element_dofs(op)
    keep = edof >= 0
    layer = np.repeat(np.arange(nz), nx * ny)
    g_tab, e0_tab = fem3d._load_tables(op)
    gvals = g_tab[op.tensor_of_elem, layer][keep]
    gmat = np.zeros((op.ndof, 6))
    np.add.at(gmat, edof[keep], gvals)
    gabs = np.zeros((op.ndof, 6))
    np.add.at(gabs, edof[keep], np.abs(gvals))
    counts = np.zeros((len(op.tensors), nz), dtype=np.int64)
    np.add.at(counts, (op.tensor_of_elem, layer), 1)
    e0 = np.einsum("tk,tkab->ab", counts, e0_tab)
    nodal = op.kit.wdet * np.array([f[0], f[1], op.scale * f[2]])
    ell = np.zeros(op.ndof)
    np.add.at(ell, edof[keep],
              np.broadcast_to(np.tile(nodal, 8), edof.shape)[keep])
    return gmat, gabs, 0.5 * (e0 + e0.T), ell


def triplet_stiffness(op):
    """K from COO triplets of every element's 24x24 stiffness, summed by
    scipy's conversion to CSR: the reference for the element product and
    the test-side block fill."""
    kes = np.stack([element_stiffness(op.kit, t) for t in op.tensors])
    index = element_dofs(op).astype(np.int32)
    vals = kes[op.tensor_of_elem]
    rows = np.broadcast_to(index[:, :, None], vals.shape)
    cols = np.broadcast_to(index[:, None, :], vals.shape)
    keep = (rows >= 0) & (cols >= 0)
    k = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(op.ndof, op.ndof)).tocsr()
    k.sum_duplicates()
    return k


def csr_k(op):
    """The CSR K that no operator assembles, built test-side by
    ``block_fill_stiffness``: the reference of the product checks."""
    return block_fill_stiffness(op)


def random_grid(shape, domain, seed=0):
    n = int(np.prod(shape))
    data = np.random.default_rng(seed).integers(1, 3, n).astype(np.int32)
    return VoxelGrid(*shape, data, domain)


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


def loop_b_at(point, jac):
    """6x24 Mandel strain-displacement matrix at one reference point, corner
    after corner."""
    corners = 2.0 * fem3d._local_corners() - 1.0
    xi, eta, zeta = point
    s2 = np.sqrt(2.0)
    b = np.zeros((6, 24))
    for a, (xa, ya, za) in enumerate(corners):
        dx = xa * (1 + ya * eta) * (1 + za * zeta) / 8.0 * jac[0]
        dy = ya * (1 + xa * xi) * (1 + za * zeta) / 8.0 * jac[1]
        dz = za * (1 + xa * xi) * (1 + ya * eta) / 8.0 * jac[2]
        b[0, 3 * a + 0] = dx
        b[1, 3 * a + 1] = dy
        b[2, 3 * a + 2] = dz
        b[3, 3 * a + 1] = dz / s2
        b[3, 3 * a + 2] = dy / s2
        b[4, 3 * a + 0] = dz / s2
        b[4, 3 * a + 2] = dx / s2
        b[5, 3 * a + 0] = dy / s2
        b[5, 3 * a + 1] = dx / s2
    return b


def loop_element_b(hx, hy, hz, scale, ans_shear):
    """(8, 6, 24) strain-displacement matrices of ``element_kit``, Gauss
    point after Gauss point: the reference for its vectorized pass."""
    gps = fem3d.GAUSS * (2.0 * fem3d._local_corners() - 1.0)
    jac = np.array([2.0 / hx, 2.0 / hy, 2.0 / (hz * scale)])
    bmat = np.zeros((8, 6, 24))
    for g, (xi, eta, zeta) in enumerate(gps):
        bmat[g] = loop_b_at((xi, eta, zeta), jac)
        if ans_shear:
            bmat[g, 3, :] = loop_b_at((xi, 0.0, zeta), jac)[3, :]
            bmat[g, 4, :] = loop_b_at((0.0, eta, zeta), jac)[4, :]
    return bmat


@pytest.mark.parametrize("ans_shear", [False, True])
@pytest.mark.parametrize("sizes", [(1 / 8, 1 / 8, 1 / 8, 1.0),
                                   (1 / 5, 1 / 7, 1 / 3, 0.4),
                                   (1 / 32, 1 / 32, 1 / 8, 0.0625)])
def test_element_kit_matches_corner_loop(sizes, ans_shear):
    kit = element_kit(*sizes, ans_shear=ans_shear)
    assert np.array_equal(kit.b, loop_element_b(*sizes, ans_shear))


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
        assert abs(0.5 * t @ (op.k @ t)) < 1e-12 * op.ndof


def test_cell_energy_translation_invariant():
    rng = np.random.default_rng(4)
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 4))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(5.0, 3.0)}
    op = assemble(grid, phases, scale=0.7)
    u = rng.standard_normal(op.ndof)
    e0 = 0.5 * u @ (op.k @ u)
    shift = np.zeros(op.ndof)
    shift[0::3] = 1.3
    shift[1::3] = -0.4
    shift[2::3] = 2.2
    v = u + shift
    assert_allclose(0.5 * v @ (op.k @ v), e0, rtol=1e-10)


def test_noncoercive_phase_rejected_without_flag():
    grid = make_laminate("x3", [0.5, 0.5], (2, 2, 2))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: soft_hooke(0.0)}
    with pytest.raises(ValueError, match="not coercive"):
        assemble(grid, phases, scale=1.0)
    assemble(grid, phases, scale=1.0, allow_soft=True)


def test_solve_zero_rhs():
    grid = uniform_grid(3, 3, 3)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0)}, scale=1.0)
    u, info = cell_pcg(op, np.zeros(op.ndof))
    assert info.iterations == 0
    assert_allclose(u, 0.0)


def test_solve_manufactured_solution():
    rng = np.random.default_rng(8)
    grid = make_laminate("x3", [0.5, 0.5], (4, 4, 6))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(4.0, 2.0)}
    op = assemble(grid, phases, scale=1.5)
    u_star = op.project(rng.standard_normal(op.ndof))
    rhs = op.k @ u_star
    u, info = cell_pcg(op, rhs, tol=1e-12)
    assert np.linalg.norm(u - u_star) < 1e-8 * np.linalg.norm(u_star)


def test_indefinite_operator_rejected():
    k = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(fem3d.SolverError, match="positive definite"):
        pcg(k, np.array([1.0, 1.0, 1.0]), jacobi(k), tol=1e-12)
    # a block right-hand side breaks down in the same way, per column
    with pytest.raises(fem3d.SolverError, match="in column 1"):
        pcg(k, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            jacobi(k), tol=1e-12)


def test_pcg_raises_at_iteration_cap():
    # two phases: on a uniform cell the reference preconditioner is the exact
    # inverse and one iteration converges
    grid = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0),
                         2: isotropic_hooke(10.0, 10.0)}, scale=1.0)
    rng = np.random.default_rng(0)
    rhs = op.project(rng.standard_normal(op.ndof))
    with pytest.raises(fem3d.SolverError, match="after 2 iterations"):
        cell_pcg(op, rhs, tol=1e-14, max_iter=2)


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


@pytest.mark.parametrize("shape, clamped", [
    ((1, 4, 2), ("left", "right")), ((4, 1, 2), ("bottom", "top")),
    ((1, 1, 2), fem3d.EDGES)])
def test_plate_mode_without_free_node_rejected(shape, clamped):
    # clamped edges that leave no free node are a validation error of the
    # operator, before the preconditioner divides by its free rows
    grid = uniform_grid(*shape, domain="plate")
    phases = {1: isotropic_hooke(1.0, 1.0)}
    with pytest.raises(ValueError, match="leave no free node"):
        assemble(grid, phases, scale=0.25, mode="plate", clamped=clamped)
    with pytest.raises(ValueError, match="leave no free node"):
        solve_clamped(grid, phases, 0.25, (0, 0, 1.0), clamped)


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
        u, info = cell_pcg(op, -gmat[:, 0], tol=1e-12)
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
        u, info = cell_pcg(op, -gmat[:, 3], tol=1e-12)
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
    u_cg, info = pcg(op.k, ell, jacobi(csr_k(op)), tol=1e-13)
    u_direct = spla.spsolve(csr_k(op).tocsc(), ell)
    assert np.linalg.norm(u_cg - u_direct) < 1e-10 * np.linalg.norm(u_direct)


# ---------------------------------------------------------------------------
# stencil assembly against the element triplets
# ---------------------------------------------------------------------------

STENCIL_CASES = [((1, 3, 4), "cell", ()), ((2, 2, 2), "cell", ()),
                 ((4, 2, 2), "cell", ()), ((8, 8, 8), "cell", ()),
                 ((6, 6, 3), "plate", ("left",)),
                 ((6, 6, 3), "plate", ("left", "top")),
                 ((6, 6, 3), "plate", ("left", "right")),
                 ((6, 6, 3), "plate", fem3d.EDGES)]


@pytest.mark.parametrize("shape, mode, clamped", STENCIL_CASES)
def test_stencil_assembly_matches_triplets(shape, mode, clamped):
    # no operator assembles K: its element product, applied to every unit
    # vector, is the triplets' K to rounding, also on the cells of one or
    # two nodes along x or y, whose +-1 offsets alias onto one node. The
    # test-side block fill, the reference of the other checks, is the
    # triplets' K: the same pattern, and the values to rounding
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(7.0, 3.0)}
    op = assemble(random_grid(shape, mode, seed=sum(shape)), phases, scale=0.3,
                  mode=mode, clamped=clamped)
    ref = triplet_stiffness(op)
    dense = op.k @ np.eye(op.ndof)
    assert np.abs(dense - ref.toarray()).max() <= 1e-15 * np.abs(ref.data).max()
    k = csr_k(op)
    assert k.indptr.dtype == ref.indptr.dtype == np.int32
    assert k.indices.dtype == ref.indices.dtype == np.int32
    assert np.array_equal(k.indptr, ref.indptr)
    assert np.array_equal(k.indices, ref.indices)
    assert np.abs(k.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("shape, mode, clamped", STENCIL_CASES)
def test_stencil_corners_match_element_loop(shape, mode, clamped):
    # the stencil's one corner map, taken to the reduced nodes, numbers
    # every element's corners as the element loop does, on the aliased
    # cells (one or two nodes along x or y) and on the clamped plates
    op = assemble(uniform_grid(*shape, domain=mode),
                  {1: isotropic_hooke(1.0, 1.0)}, scale=0.3, mode=mode,
                  clamped=clamped)
    nx, ny, nz = shape
    assert op.stencil.corners.shape == (8, nz, ny, nx)
    node = np.full(op.stencil.rows.size, -1)
    node[op.stencil.rows] = np.arange(op.ndof // 3)
    assert np.array_equal(node[op.stencil.corners.reshape(8, -1)].T,
                          element_dofs(op)[:, ::3] // 3)


def block_fill_stiffness(op):
    """K (CSR) as the 64 local corner pairs fill it, pair after pair, into
    27 per-offset arrays of 3x3 node blocks over the node lattice, moved
    into CSR by scipy: the reference K that no operator assembles. Without
    aliased offsets each diagonal entry sums its corners a in ascending
    order, starting from zero."""
    nx, ny, nz = op.grid.shape
    corner = fem3d._local_corners().astype(int)
    d = corner[None, :, :] - corner[:, None, :]                  # (a, b, xyz)
    offset = 9 * (d[..., 2] + 1) + 3 * (d[..., 1] + 1) + d[..., 0] + 1
    kes = np.stack([element_stiffness(op.kit, t) for t in op.tensors])
    pair = kes.reshape(-1, 8, 3, 8, 3)
    elem_tensor = op.tensor_of_elem.reshape(nz, ny, nx)
    blocks = np.zeros((27,) + op.stencil.lattice + (3, 3))
    for a in range(8):
        ax, ay, az = corner[a]
        for b in range(8):
            vals = pair[:, a, :, b][elem_tensor]
            target = blocks[offset[a, b]]
            if op.mode == "cell":
                target[az:az + nz] += np.roll(vals, (ay, ax), axis=(1, 2))
            else:
                target[az:az + nz, ay:ay + ny, ax:ax + nx] += vals

    node = np.full(op.stencil.rows.size, -1)
    node[op.stencil.rows] = np.arange(op.ndof // 3)
    node = node.reshape(op.stencil.lattice)
    at = np.indices(op.stencil.lattice)
    size = np.array(op.stencil.lattice)[:, None, None, None]
    comp = np.arange(3)
    rows, cols, vals = [], [], []
    for o in range(27):
        step = np.array([o // 9 - 1, o // 3 % 3 - 1, o % 3 - 1])
        nbr = at + step[:, None, None, None]
        if op.mode == "cell":
            nbr[1:] %= size[1:]
        inside = np.all((nbr >= 0) & (nbr < size), axis=0)
        m = np.where(inside, node[tuple(np.where(inside, nbr, 0))], -1)
        keep = (node >= 0) & (m >= 0)
        rows.append(np.broadcast_to(3 * node[keep][:, None, None] + comp[:, None],
                                    (keep.sum(), 3, 3)).ravel())
        cols.append(np.broadcast_to(3 * m[keep][:, None, None] + comp,
                                    (keep.sum(), 3, 3)).ravel())
        vals.append(blocks[o][keep].ravel())
    k = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(op.ndof, op.ndof))
    k.sort_indices()
    return k


THREE_PHASES = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(7.0, 3.0),
                3: soft_hooke(0.0)}


@pytest.mark.parametrize("shape, mode, clamped, nphase", [
    case + (2,) for case in STENCIL_CASES
    if case[1] == "plate" or min(case[0][:2]) >= 3] + [
    ((16, 16, 16), "cell", (), 2), ((8, 8, 8), "cell", (), 1),
    ((32, 32, 8), "plate", ("left", "bottom"), 3)])
def test_stencil_assembly_matches_block_fill_bitwise(shape, mode, clamped,
                                                     nphase):
    # no operator assembles K; the diagonal that the element tables give,
    # added corner by corner in ascending a, is the pair-by-pair fill's bit
    # for bit, on a cell's wrapped lattice as on a clamped plate's (the
    # plates' smoother reads it)
    n = int(np.prod(shape))
    data = np.random.default_rng(n).integers(1, nphase + 1, n).astype(np.int32)
    phases = {p: THREE_PHASES[p] for p in range(1, nphase + 1)}
    op = assemble(VoxelGrid(*shape, data, mode), phases, scale=0.3, mode=mode,
                  clamped=clamped, allow_soft=True)
    assert np.array_equal(fem3d._diagonal(op),
                          block_fill_stiffness(op).diagonal())


# every plate of STENCIL_CASES, a 7x5x4 plate with its bottom edge clamped
# and a 5x7x4 plate with all four edges clamped, each in random voxels of
# three phases, one without stiffness; nx != ny catches swapped axes
PLATE_CASES = [case for case in STENCIL_CASES if case[1] == "plate"] + [
    ((7, 5, 4), "plate", ("bottom",)), ((5, 7, 4), "plate", fem3d.EDGES)]


def plate_case(shape, clamped, phases=THREE_PHASES):
    n = int(np.prod(shape))
    data = np.random.default_rng(n).integers(1, len(phases) + 1, n)
    return assemble(VoxelGrid(*shape, data.astype(np.int32), "plate"), phases,
                    scale=0.3, mode="plate", clamped=clamped, allow_soft=True)


@pytest.mark.parametrize("shape, mode, clamped", PLATE_CASES)
def test_block_diagonal_is_ks_diagonal_blocks(shape, mode, clamped):
    # the smoother's diagonal, summed from the element stiffnesses'
    # diagonals corner by corner, is the test-side K's bit for bit: both
    # add a node's corners in ascending a
    op = plate_case(shape, clamped)
    assert np.array_equal(fem3d._diagonal(op), csr_k(op).diagonal())


def coarse_basis(op):
    """(ndof, 5 ncol) dense coarse basis P, node by node: the translations
    and u1 += x3 r2, u2 -= x3 r1 of each free node column, numbered in
    flat order."""
    nx, ny, nz = op.grid.shape
    free = free_columns(nx, ny, op.clamped).T.ravel()     # flat (y, x) order
    column = np.where(free, np.cumsum(free) - 1, -1)
    p = np.zeros((op.ndof, 5 * int(free.sum())))
    node = 0
    for k in range(nz + 1):
        x3 = -0.5 + k / nz
        for c in column:
            if c < 0:
                continue
            for comp, field, value in ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
                                       (1, 3, -x3), (0, 4, x3)):
                p[3 * node + comp, 5 * c + field] = value
            node += 1
    return p


def unband(band, order):
    """The symmetric matrix whose lower band in ``order`` is ``band``."""
    width, n = band.shape
    low = np.zeros((n, n))
    for r in range(width):
        low[np.arange(r, n), np.arange(n - r)] = band[r, :n - r]
        assert not band[r, n - r:].any()
    full = low + np.tril(low, -1).T
    out = np.empty_like(full)
    out[np.ix_(order, order)] = full
    return out


def coarse_order(op):
    """The preconditioner's band order of a plate's coarse dofs: the free
    columns numbered x fastest, listed with the faster index along the side
    that has fewer free columns (x on a tie), five dofs each."""
    free = op.stencil.rows.reshape(op.stencil.lattice)[0]
    lines = np.arange(free.sum()).reshape(int(free.any(axis=1).sum()), -1)
    columns = (lines.T if lines.shape[0] < lines.shape[1] else lines).ravel()
    return (5 * columns[:, None] + np.arange(5)).ravel()


@pytest.mark.parametrize("shape, mode, clamped", PLATE_CASES)
def test_coarse_tables_match_ptkp(shape, mode, clamped):
    # Kc from the (tensor, layer) tables, written into the band, is P^T K P
    # with P and K built test-side, in the preconditioner's band order;
    # nothing lies outside the band
    op = plate_case(shape, clamped)
    p = coarse_basis(op)
    kc = p.T @ (csr_k(op) @ p)
    order = coarse_order(op)
    got = unband(fem3d._coarse_band(op), order)
    assert np.abs(got - kc).max() <= 1e-14 * np.abs(kc).max()


def one_shot_coarse_band(op, order):
    """The coarse band as one ``bincount`` over every in-plane element's
    20x20 block, its tables, positions and masks built for the whole plate
    at once: the reference that ``_coarse_band`` streams slab by slab."""
    nx, ny, nz = op.grid.shape
    ntens = len(op.tensors)
    z = np.linspace(-0.5, 0.5, nz + 1)
    pk = np.zeros((nz, 8, 3, 4, 5))
    for a, (ax, ay, az) in enumerate(fem3d._local_corners().astype(int)):
        for j, (c, w0, w1) in enumerate(fem3d._COARSE_FIELDS):
            pk[:, a, c, ax + 2 * ay, j] = w0 + w1 * z[az:az + nz]
    pk = pk.reshape(nz, 24, 20)
    tables = pk.transpose(0, 2, 1) @ op.kes[:, None] @ pk
    index = op.tensor_of_elem.reshape(nz, -1) * nz + np.arange(nz)[:, None]
    layers = np.zeros((nx * ny, ntens * nz))
    layers[np.arange(nx * ny), index] = 1.0
    tables = (layers @ tables.reshape(ntens * nz, 400)).reshape(-1, 20, 20)
    free = op.stencil.rows.reshape(op.stencil.lattice)[0]
    column = np.where(free, np.cumsum(free).reshape(free.shape) - 1, -1)
    quad = np.stack([column[ay:ay + ny, ax:ax + nx].ravel()
                     for ay in (0, 1) for ax in (0, 1)], axis=1)
    pos = np.empty(order.size, dtype=np.int64)
    pos[order] = np.arange(order.size)
    pe = np.where(quad[:, :, None] >= 0,
                  pos[5 * quad[:, :, None] + np.arange(5)], -1).reshape(-1, 20)
    width = int((pe.max(axis=1)
                 - np.where(pe >= 0, pe, order.size).min(axis=1)).max()) + 1
    lower = (pe[:, :, None] >= pe[:, None, :]) & (pe[:, None, :] >= 0)
    flat = (pe[:, None, :] * (width - 1) + pe[:, :, None])[lower]
    return np.bincount(flat, tables[lower],
                       minlength=width * order.size).reshape(-1, width).T


@pytest.mark.parametrize("shape, mode, clamped", PLATE_CASES + [
    ((32, 32, 8), "plate", ("left", "bottom"))])
def test_coarse_band_rows_match_one_shot_bincount(shape, mode, clamped):
    # slab by slab, the band fill adds each band entry's terms in the order
    # of the one-shot bincount, so the band is its bit for bit, in a Fortran
    # array of the same shape
    op = plate_case(shape, clamped)
    order = coarse_order(op)
    band = fem3d._coarse_band(op)
    want = one_shot_coarse_band(op, order)
    assert band.shape == want.shape and band.flags.f_contiguous
    assert np.array_equal(band, want)


# local dof sets of the band fill, (component, x, y offset), in descending
# y offset: the limit plate's coupled block, w on the corners and v on the
# cross that reaches past the cell, and the coarse operator's 20 dofs,
# listed last first
FILL_LOCALS = (
    sorted([(c, i, j) for c in (0, 1) for i in (0, 1) for j in (0, 1)]
           + [(2, i, j) for i in (-1, 0, 1, 2) for j in (0, 1)]
           + [(2, i, j) for i in (0, 1) for j in (-1, 2)],
           key=lambda d: -d[2]),
    [(c, i, j) for j in (0, 1) for i in (0, 1) for c in range(5)][::-1])
CLAMP_SETS = [tuple(e for n, e in enumerate(fem3d.EDGES) if bits >> n & 1)
              for bits in range(16)]


def dense_fill(free, local, ke):
    """The symmetric matrix of the element matrices ``ke`` (n, n, my, mx)
    on the free nodes of ``free``, k dofs each, numbered test-side in band
    order: x fastest on a tie or when the free rows are not fewer, else y
    fastest. Each cell adds ke[a, b] at its two local dofs' nodes when both
    are free."""
    comp, i, j = np.array(local).T
    k = comp.max() + 1
    ys, xs = np.flatnonzero(free.any(axis=1)), np.flatnonzero(free.any(axis=0))
    nfy, nfx = ys.size, xs.size
    cy, cx = np.meshgrid(np.arange(ke.shape[2]), np.arange(ke.shape[3]),
                         indexing="ij")
    ny, nx = cy[..., None] + j, cx[..., None] + i        # (my, mx, n) nodes
    on = ((ny >= ys[0]) & (ny <= ys[-1]) & (nx >= xs[0]) & (nx <= xs[-1]))
    node = ((nx - xs[0]) * nfy + ny - ys[0] if nfy < nfx
            else (ny - ys[0]) * nfx + nx - xs[0])
    dof = k * node + comp
    both = on[..., :, None] & on[..., None, :]
    rows = np.broadcast_to(dof[..., :, None], both.shape)[both]
    cols = np.broadcast_to(dof[..., None, :], both.shape)[both]
    out = np.zeros((k * nfy * nfx,) * 2)
    np.add.at(out, (rows, cols), ke.transpose(2, 3, 0, 1)[both])
    return out


@pytest.mark.parametrize("clamped", CLAMP_SETS)
def test_band_fill_is_slab_invariant_and_dense(clamped):
    # random symmetric per-cell element matrices on node rectangles whose
    # free nodes are fewer along y, fewer along x and as many: with the
    # local dofs in descending y offset, every band entry adds its terms
    # in cell-row order, so filled in slabs of 1, 2, 3 and all cell rows
    # the band is one call's bit for bit; it is the lower band of a dense
    # assembly in band order
    rng = np.random.default_rng(len(clamped))
    for nfy, nfx in ((3, 5), (5, 3), (4, 4)):
        my = nfy - 1 + ("bottom" in clamped) + ("top" in clamped)
        mx = nfx - 1 + ("left" in clamped) + ("right" in clamped)
        free = fem3d.free_nodes(my + 1, mx + 1, clamped)
        for local in FILL_LOCALS:
            ke = rng.standard_normal((len(local),) * 2 + (my, mx))
            ke += ke.transpose(1, 0, 2, 3)
            band = fem3d.fill_band(free, local, [(0, ke)])
            for rows in (1, 2, 3):
                slabs = [(y, ke[:, :, y:y + rows]) for y in range(0, my, rows)]
                got = fem3d.fill_band(free, local, iter(slabs))
                assert got.flags.f_contiguous and np.array_equal(got, band)
            want = dense_fill(free, local, ke)
            order = np.arange(want.shape[0])
            assert np.abs(unband(band, order) - want).max() <= (
                1e-14 * np.abs(want).max())


@pytest.mark.parametrize("clamped", CLAMP_SETS)
def test_factor_order_runs_along_the_shorter_side(clamped):
    # on node rectangles whose free nodes are fewer along y, fewer along x
    # and as many, a factor's order is a permutation of its dofs table,
    # node by node, k dofs each in table order, the node index running
    # fastest along the side with fewer free nodes, x on a tie
    rng = np.random.default_rng(len(clamped))
    for nfy, nfx in ((3, 5), (5, 3), (4, 4)):
        my = nfy - 1 + ("bottom" in clamped) + ("top" in clamped)
        mx = nfx - 1 + ("left" in clamped) + ("right" in clamped)
        free = fem3d.free_nodes(my + 1, mx + 1, clamped)
        for k in (1, 2, 5):
            dofs = rng.permutation(nfy * nfx * k).reshape(-1, k)
            factor = fem3d.BandedCholesky(np.ones((1, dofs.size), order="F"),
                                          free, dofs)
            # each position's entry of the table: free node (y, x), component
            node, comp = np.divmod(np.argsort(dofs.ravel())[factor.order], k)
            y, x = np.divmod(node, nfx)
            step = np.arange(dofs.size) // k
            fast, slow = (y, x) if nfy < nfx else (x, y)
            short = min(nfy, nfx)
            assert np.array_equal(comp, np.arange(dofs.size) % k)
            assert np.array_equal(fast, step % short)
            assert np.array_equal(slow, step // short)


@pytest.mark.parametrize("shape, mode, clamped", PLATE_CASES)
def test_lattice_transfer_is_csr_p_bitwise(shape, mode, clamped):
    # restrict and prolong on the column lattice round as the CSR product
    # of P's nonzeros does (each row's entries in ascending column order),
    # on one field and on a block; prolong adds onto what it is given. Two
    # stiff phases, so that the preconditioner has a coarse factor
    op = plate_case(shape, clamped, PLATE_PHASES)
    m = fem3d.PlatePreconditioner(op)
    assert np.array_equal(m.coarse.order, coarse_order(op))
    p = sp.csr_matrix(coarse_basis(op))
    pt = p.T.tocsr()
    rng = np.random.default_rng(op.ndof)
    for cols in ((), (3,)):
        r = rng.standard_normal((op.ndof, *cols))
        y = rng.standard_normal((p.shape[1], *cols))
        s = rng.standard_normal(r.shape)
        assert np.array_equal(m.restrict(r), pt @ r)
        assert np.array_equal(m.prolong(y, np.zeros_like(r)), p @ y)
        want = s + p @ y
        assert m.prolong(y, s) is s and np.array_equal(s, want)


@pytest.mark.parametrize("shape, mode, clamped", STENCIL_CASES)
def test_lattice_loads_match_element_loop(shape, mode, clamped):
    # the lattice scatter adds a node's corners in the element loop's order
    # except on a cell's x = 0 and y = 0 node planes, where the loop meets
    # the wrapped elements last; a sum of at most 8 terms in another order
    # is within 7 eps of the sum of their magnitudes
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(7.0, 3.0)}
    op = assemble(random_grid(shape, mode, seed=sum(shape)), phases, scale=0.3,
                  mode=mode, clamped=clamped)
    f = (0.3, -0.1, 1.0)
    g_ref, g_abs, e0_ref, ell_ref = element_loads(op, f)
    gmat, e0 = fem3d.corrector_loads(op)
    assert np.array_equal(e0, e0_ref)
    assert np.array_equal(body_load(op, f), ell_ref)
    if mode == "plate":
        assert np.array_equal(gmat, g_ref)
    else:
        assert np.all(np.abs(gmat - g_ref) <= 7 * np.finfo(float).eps * g_abs)
        inner = np.s_[:, 1:, 1:]
        assert np.array_equal(gmat.reshape(op.stencil.lattice + (18,))[inner],
                              g_ref.reshape(op.stencil.lattice + (18,))[inner])


def csr_corner_sum(op):
    """The (nrow, 8 nelem) 0/1 CSR map of the corner sums: column 8 e + a
    is corner a of element e, in flat order, and each row lists its
    corners from a = 7 down to 0; its product adds them in that order from
    zero. The byte-level reference of the loads' corner sums."""
    st = op.stencil
    nelem = st.corners[0].size
    corner = np.arange(8, dtype=np.int32)[:, None]
    inverse = np.full((st.rows.size, 8), -1, dtype=np.int32)
    inverse[st.corners.reshape(8, -1), 7 - corner] = (
        8 * np.arange(nelem, dtype=np.int32) + corner)
    inverse = inverse[st.rows]
    keep = inverse >= 0
    indptr = np.zeros(inverse.shape[0] + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((np.ones(indptr[-1]), inverse[keep], indptr),
                         shape=(inverse.shape[0], 8 * nelem))


@pytest.mark.parametrize("shape, mode, clamped, nphase", [
    case + (n,) for case in STENCIL_CASES + [((5, 7, 4), "cell", ())]
    for n in (1, 3)] + [((4, 4, 4), "cell", (), "x3")])
def test_corner_sums_match_csr_map_byte_for_byte(shape, mode, clamped, nphase):
    # G and the body load are the CSR map's products byte for byte, signed
    # zeros included (which np.array_equal cannot see): on the cell of one
    # node along x an element meets a node as two corners, and a node that
    # is no element's corner a adds nothing, not even a +0.0 to a -0.0
    if nphase == "x3":
        grid = make_laminate("x3", [0.5, 0.5], shape)
    else:
        n = int(np.prod(shape))
        data = np.random.default_rng(n).integers(1, nphase + 1, n)
        grid = VoxelGrid(*shape, data.astype(np.int32), mode)
    op = assemble(grid, THREE_PHASES, scale=0.3, mode=mode, clamped=clamped,
                  allow_soft=True)
    nx, ny, nz = shape
    g_tab, _ = fem3d._load_tables(op)
    index = (op.tensor_of_elem.reshape(nz, ny, nx)
             * nz + np.arange(nz)[:, None, None])
    csr = csr_corner_sum(op)
    g_ref = csr @ g_tab.reshape(-1, 8, 3, 6)[index].reshape(-1, 18)
    assert (fem3d.corrector_loads(op)[0].tobytes()
            == g_ref.reshape(-1, 6).tobytes())
    for f in ((0.3, -0.1, 1.0), (0.3, -0.0, 1.0), (-0.0, -0.0, -0.0)):
        nodal = op.kit.wdet * np.array([f[0], f[1], op.scale * f[2]])
        ell_ref = csr @ np.broadcast_to(nodal, (nz * ny * nx * 8, 3))
        assert body_load(op, f).tobytes() == ell_ref.reshape(-1).tobytes()


def loop_load_tables(op):
    """``_load_tables`` as 48 small einsums, tensor after tensor and Gauss
    point after Gauss point: the reference for its batched products."""
    kit = op.kit
    nz = op.grid.shape[2]
    x3 = (-0.5 + np.arange(nz) * kit.hz)[:, None] + kit.zeta_frac * kit.hz
    eps = np.zeros((nz, 8, 6, 6))
    for a in range(3):
        eps[:, :, :, a] = _EMBED[:, a]
        eps[:, :, :, 3 + a] = x3[:, :, None] * _EMBED[:, a]
    g_tab = np.zeros((len(op.tensors), nz, 24, 6))
    e0_tab = np.zeros((len(op.tensors), nz, 6, 6))
    for t, hooke in enumerate(op.tensors):
        for g in range(8):
            ce = np.einsum("ij,kjl->kil", hooke.c, eps[:, g])
            g_tab[t] += kit.wdet * np.einsum("ia,kil->kal", kit.b[g], ce)
            e0_tab[t] += kit.wdet * np.einsum("kia,kil->kal", eps[:, g], ce)
    return g_tab, e0_tab


@pytest.mark.parametrize("shape, mode, nphase", [
    ((8, 8, 8), "cell", 2), ((5, 4, 3), "cell", 1), ((4, 4, 16), "cell", 3),
    ((6, 6, 3), "plate", 2), ((32, 32, 8), "plate", 3)])
def test_load_tables_match_einsum_loop(shape, mode, nphase):
    n = int(np.prod(shape))
    data = np.random.default_rng(n).integers(1, nphase + 1, n).astype(np.int32)
    phases = {p: THREE_PHASES[p] for p in range(1, nphase + 1)}
    for scale in (0.0625, 1.0, 10.0):
        op = assemble(VoxelGrid(*shape, data, mode), phases, scale=scale,
                      mode=mode, clamped=("left",) if mode == "plate" else (),
                      allow_soft=True)
        for got, ref in zip(fem3d._load_tables(op), loop_load_tables(op)):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("shape, mode, clamped",
                         STENCIL_CASES + [((16, 16, 16), "cell", ())])
def test_stencil_k_is_bitwise_symmetric(shape, mode, clamped):
    # the element product applies element stiffnesses that are bitwise
    # symmetric, and adds the elements that two nodes share in one order
    # from either side, so (K e_j)_i is (K e_i)_j bit for bit. On a cell of
    # one node along x an element's corners a and a ^ 1 are one node, whose
    # unit vector puts two ones in the element's row: the GEMM sums the two
    # rows of K_e, and the entries agree to rounding only. The 16^3 cell is
    # probed on the 3x3x3 node block around one node
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(7.0, 3.0)}
    op = assemble(random_grid(shape, mode, seed=sum(shape)), phases, scale=0.3,
                  mode=mode, clamped=clamped)
    assert np.array_equal(op.kes, op.kes.transpose(0, 2, 1))
    if op.ndof > 3000:
        z, y, x = np.meshgrid(*[np.arange(7, 10)] * 3, indexing="ij")
        node = ((z * shape[1] + y) * shape[0] + x).ravel()
        dofs = (3 * node[:, None] + np.arange(3)).ravel()
    else:
        dofs = np.arange(op.ndof)
    unit = np.zeros((op.ndof, dofs.size))
    unit[dofs, np.arange(dofs.size)] = 1.0
    block = (op.k @ unit)[dofs]
    if shape[0] == 1:
        assert np.abs(block - block.T).max() <= (np.finfo(float).eps
                                                 * np.abs(block).max())
    else:
        assert np.array_equal(block, block.T)


def test_stencil_pattern_is_shared_and_read_only():
    # two cells at two scales share one lattice record, and so do two
    # plates whose clamped edges differ in order only; its arrays, the
    # inverse corner map built on first use among them, are read-only
    phases = {1: isotropic_hooke(1.0, 1.0)}
    cells = [assemble(uniform_grid(4, 3, 2), phases, scale=s)
             for s in (0.5, 0.25)]
    grid = uniform_grid(4, 3, 2, domain="plate")
    plates = [assemble(grid, phases, scale=s, mode="plate", clamped=edges)
              for s, edges in ((0.5, ("top", "left")), (0.25, ("left", "top")))]
    for a, b in (cells, plates):
        assert a.stencil is b.stencil
        assert a.stencil.inverse_corners is b.stencil.inverse_corners
        for array in (a.stencil.corners, a.stencil.rows,
                      a.stencil.inverse_corners):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1


def traced(fn):
    """fn() with the bytes it holds at its return and at its peak, as
    traced by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def csr_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


PLATE_PHASES = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(4.0, 4.0)}


def lattice_fields(stencil):
    """The field names of a lattice record: no CSR pattern among them."""
    return [f.name for f in dataclasses.fields(stencil)]


def build_plate(shape):
    return assemble(random_grid(shape, "plate"), PLATE_PHASES, scale=0.0625,
                    mode="plate", clamped=("left",))


def test_assembly_peak_memory_is_a_small_multiple_of_k():
    # a cell's assembly builds no K: cold (with its lattice record) and warm
    # it holds about 0.08 and 0.07 of a CSR K's bytes and peaks at 0.17 and
    # 0.16, where filling K held 1.36 cold and peaked at 1.72
    fem3d._stencil.cache_clear()
    op, held_cold, cold = traced(lambda: assemble(
        random_grid((16, 16, 4), "cell"), PLATE_PHASES, scale=0.0625))
    k_bytes = csr_bytes(csr_k(op))
    assert lattice_fields(op.stencil) == ["lattice", "corners", "rows"]
    del op
    _, held_warm, warm = traced(lambda: assemble(
        random_grid((16, 16, 4), "cell"), PLATE_PHASES, scale=0.0625))
    assert max(held_cold, held_warm) <= 0.1 * k_bytes
    assert max(cold, warm) <= 0.2 * k_bytes

    # the element product of a clamped solve keeps its gather index, one
    # intp per element corner and component: 0.064 of a CSR K's bytes on
    # the benchmark's 32x32x8 plate, and its set-up peaks at 0.12
    op = build_plate((32, 32, 8))
    k_bytes = csr_bytes(csr_k(op))
    product, held, peak = traced(lambda: fem3d.ElementProduct(op))
    assert product.dofs.nbytes <= held <= 0.1 * k_bytes
    assert peak <= 0.2 * k_bytes


def test_corrector_loads_peak_is_a_small_multiple_of_g():
    # the corner sums gather from the per-(tensor, layer) load table, one
    # corner at a time, so no per-element load array is built: a warm call
    # on a 16^3 two-phase cell peaks at about 2.7 times G's bytes, where
    # the per-element array and its CSR product peaked at 8.7
    op = assemble(random_grid((16, 16, 16), "cell"), PLATE_PHASES, scale=1.0)
    gmat, _ = fem3d.corrector_loads(op)
    _, _, peak = traced(lambda: fem3d.corrector_loads(op))
    assert peak <= 4 * gmat.nbytes


def test_plate_setup_peak_stays_under_k_bytes():
    # a clamped solve's set-up (the operator with its element product, and
    # the two-level preconditioner) assembles no K and builds no CSR
    # pattern, and the coarse band is built a slab of element rows at a
    # time: on the benchmark's 32x32x8 plate it peaks at 0.47 of the bytes
    # a CSR K would take (0.41 row by row), where assembling K and P^T K P
    # peaked at 2.2 times and the band's whole-plate tables at 0.78;
    # scipy.linalg is loaded first, so that its import is not traced
    import scipy.linalg  # noqa: F401

    fem3d._stencil.cache_clear()

    def set_up():
        op = build_plate((32, 32, 8))
        return op, fem3d.PlatePreconditioner(op)

    (op, _), _, peak = traced(set_up)
    assert isinstance(op.k, fem3d.ElementProduct)
    cached = fem3d._stencil((32, 32, 8), "plate", ("left",))
    assert cached is op.stencil and fem3d._stencil.cache_info().currsize == 1
    assert lattice_fields(cached) == ["lattice", "corners", "rows"]
    assert peak <= 0.5 * csr_bytes(csr_k(op))


def test_plate_transients_are_block_sized():
    # on the benchmark's 32x32x8 plate nothing plate-sized is built next to
    # the coarse band, which the one-shot band doubled (2.05 times): a slab
    # of 512 elements' blocks takes it to 1.28 (1.08 row by row); a warm
    # product allocates its padded input, its output and a block's work
    # rows, 2.9 vectors, where whole-array work rows took it to 16.8
    op = build_plate((32, 32, 8))
    band, _, peak = traced(lambda: fem3d._coarse_band(op))
    assert peak <= 1.3 * band.nbytes
    p = np.random.default_rng(0).standard_normal(op.ndof)
    op.k(p)
    _, _, peak = traced(lambda: op.k(p))
    assert peak <= 3 * p.nbytes


ELEMENT_PRODUCT_CASES = [case for case in STENCIL_CASES if case[1] == "plate"]


@pytest.mark.parametrize("shape, mode, clamped", ELEMENT_PRODUCT_CASES + [
    ((7, 5, 4), "plate", ("bottom",)),
    ((6, 6, 3), "cell", ())])
def test_element_product_matches_k(shape, mode, clamped):
    # three phases in random voxels, one of them without any stiffness: the
    # gather index orders the elements by tensor, so a wrong tensor bound
    # shows; nx != ny catches swapped axes and the cell case the in-plane
    # wrap. A block of columns is multiplied column by column
    n = int(np.prod(shape))
    data = np.random.default_rng(n).integers(1, 4, n).astype(np.int32)
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(7.0, 3.0),
              3: soft_hooke(0.0)}
    op = assemble(VoxelGrid(*shape, data, mode), phases, scale=0.3, mode=mode,
                  clamped=clamped, allow_soft=True)
    product = fem3d.ElementProduct(op)
    assert product.dofs.shape == (24 * n,)
    # a clamped corner reads the three zeros past the last dof
    assert product.dofs.max() == (op.ndof + 2 if clamped else op.ndof - 1)
    # what pcg and its tracer read from a K: one entry per free corner
    assert product.shape == (op.ndof, op.ndof)
    assert product.nnz == (product.dofs < op.ndof).sum() // 3
    assert product.indices is product.dofs
    k = csr_k(op)
    rng = np.random.default_rng(2)
    p = rng.standard_normal((op.ndof, 6))
    assert np.array_equal(product(p)[:, 4], product(p[:, 4]))
    for p in (p[:, 0], p[:, :3], p):
        kp = k @ p
        got = product(p)
        assert got.shape == p.shape
        assert np.abs(got - kp).max() <= 1e-14 * np.abs(kp).max()


def whole_array_product(op, p):
    """K p as one gather of every element's rows, one GEMM per tensor range
    and one ``bincount`` per column over the whole gather index: the
    reference that the blocked product streams. Elements [bounds[t],
    bounds[t + 1]) of the gather's order carry tensor t."""
    product = op.k
    bounds = np.concatenate(([0], np.cumsum(np.bincount(
        op.tensor_of_elem, minlength=len(op.tensors)))))
    n = product.shape[0]
    x = np.zeros((p.size // n, n + 3))
    x[:, :n] = p.reshape(n, -1).T
    out = np.empty((n, x.shape[0]))
    for j, xj in enumerate(x):
        rows = xj[product.dofs].reshape(-1, 24)
        u = np.empty_like(rows)
        for ke, lo, hi in zip(product.kes, bounds[:-1], bounds[1:]):
            u[lo:hi] = rows[lo:hi] @ ke
        out[:, j] = np.bincount(product.dofs, u.ravel(), minlength=n + 3)[:n]
    return out.reshape(p.shape)


def mostly_one_phase(shape, mode):
    """Random voxels of two phases, nine in ten of phase 1."""
    n = int(np.prod(shape))
    rng = np.random.default_rng(n)
    data = np.where(rng.random(n) < 0.9, 1, 2).astype(np.int32)
    return VoxelGrid(*shape, data, mode)


@pytest.mark.parametrize("shape, mode, clamped", STENCIL_CASES + [
    ((16, 16, 6), "plate", ("left",)), ((16, 16, 6), "cell", ())])
def test_blocked_product_is_the_whole_array_product(shape, mode, clamped):
    # blocks of at most _CHUNK elements, column by column, add each dof's
    # corners in the order of one bincount over the whole gather index, and
    # a GEMM over part of a tensor range gives its rows as one over all of
    # it: the product is the whole-array one bit for bit for one, three and
    # six columns. The 16x16x6 grids have a block boundary inside phase 1's
    # range and a block that covers both phases
    op = assemble(mostly_one_phase(shape, mode), PLATE_PHASES, scale=0.3,
                  mode=mode, clamped=clamped)
    product = op.k
    rng = np.random.default_rng(3)
    for cols in ((), (3,), (6,)):
        p = rng.standard_normal((op.ndof, *cols))
        got = product(p)
        assert got.shape == p.shape and got.flags.c_contiguous
        assert np.array_equal(got, whole_array_product(op, p))
    if shape == (16, 16, 6):
        assert np.bincount(op.tensor_of_elem)[0] > fem3d._CHUNK
        assert [len(ranges) for _, ranges in product._blocks] == [1, 1, 2]


def test_clamped_solve_on_element_product_keeps_counts_and_energies():
    # the benchmark's thin plate: 32x32x8 x3 laminate, contrast 10, left
    # edge clamped. Every K product of solve_clamped goes through the
    # element product; a pcg on the CSR product of a test-side K takes the
    # same iterations and finds the same minimizer. The two products are
    # two roundings of one operator: K sums the element stiffnesses into its
    # entries, which at h = 1/16 moves 0.5 u.K u - l.u by 9e-10 relative,
    # so each comparison evaluates both minimizers with one product. Even
    # with one product, each energy alone rounds at about 1e-10 relative
    # there (relative changes of 1e-12 in u spread the CSR product's value
    # over 1.8e-10), so the gap E(u) - E(ref) is taken from the difference,
    # as (u - ref).(K (u + ref) / 2 - l); it reads about 1e-18 relative
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    grid = make_laminate("x3", [0.5, 0.5], (32, 32, 8), domain="plate")
    f = (0.0, 0.0, 1.0)
    for h, count in ((0.25, 119), (0.125, 91), (0.0625, 115)):
        op, u, energy, info = solve_clamped(grid, phases, h, f, ("left",),
                                            tol=1e-11)
        ell = body_load(op, f)
        k = csr_k(op)
        ref, ref_info = pcg(k, ell, fem3d.PlatePreconditioner(op), tol=1e-11)
        assert info.iterations == ref_info.iterations == count
        product = fem3d.ElementProduct(op)
        assert energy == 0.5 * u @ product(u) - ell @ u
        for apply in (product, k.dot):
            gap = (u - ref) @ (0.5 * apply(u + ref) - ell)
            assert abs(gap) <= 1e-14 * abs(energy)


def test_project_needs_a_cell_operator():
    op = assemble(uniform_grid(2, 2, 2, domain="plate"),
                  {1: isotropic_hooke(1.0, 1.0)}, scale=0.5, mode="plate",
                  clamped=("left",))
    with pytest.raises(ValueError, match="cell operator"):
        op.project(np.zeros(op.ndof))


# ---------------------------------------------------------------------------
# reference-medium preconditioner and block CG
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_reference_symbol_inverts_homogeneous_cell(gamma):
    # on a cell of the reference tensor itself the preconditioner is the
    # pseudo-inverse: M K v = P v; nx != ny and odd nx catch a swapped axis,
    # and a sign or phase error in the symbol fails at every wavenumber
    c0, _ = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                    isotropic_hooke(10.0, 10.0)])
    grid = VoxelGrid(5, 4, 3, np.ones(60, dtype=np.int32), "cell")
    op = assemble(grid, {1: c0}, scale=gamma)
    m = reference(op)
    v = np.random.default_rng(3).standard_normal((op.ndof, 2))
    pv = op.project(v)
    assert np.abs(m(op.k @ v) - pv).max() < 1e-10 * np.abs(pv).max()
    assert np.abs(m(op.k @ v[:, 0]) - pv[:, 0]).max() < 1e-10 * np.abs(pv).max()


def fft_reference_apply(m, r):
    """The preconditioner's apply through numpy's FFT: rfft2 over (y, x),
    the per-wavenumber inverses, irfft2."""
    nz1, ny, nx = m.shape
    rh = np.fft.rfft2(r.reshape(nz1, ny, nx, 3, -1), axes=(1, 2))
    rh = rh.transpose(1, 2, 0, 3, 4).reshape(ny, nx // 2 + 1, 3 * nz1, -1)
    zh = (m.inv @ rh).reshape(ny, nx // 2 + 1, nz1, 3, -1)
    z = np.fft.irfft2(zh.transpose(2, 0, 1, 3, 4), s=(ny, nx), axes=(1, 2))
    return z.reshape(r.shape)


@pytest.mark.parametrize("shape", [(1, 3, 4), (2, 2, 2), (5, 4, 3), (8, 8, 8)])
def test_reference_dft_matrices_match_fft(shape):
    # in-plane sizes of one, two, odd and even nodes, nx != ny: the zero and
    # Nyquist bins, the sine rows' sign and the axes all show
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(random_grid(shape, "cell", seed=sum(shape)), phases, scale=0.5)
    m = reference(op)
    r = np.random.default_rng(4).standard_normal((op.ndof, 6))
    for rr in (r, r[:, 0]):
        ref = fft_reference_apply(m, rr)
        z = m(rr)
        assert z.shape == rr.shape
        assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def einsum_layer_symbol(ke, phase):
    """The layer symbol as one four-operand einsum over the element
    stiffness, the phase factors and both corners' z-plane selectors: the
    reference for the plane-folded table."""
    plane = np.eye(2)[fem3d._local_corners()[:, 2].astype(int)]
    return np.einsum("acbd,yxab,az,bw->yxzcwd", ke, phase, plane, plane)


@pytest.mark.parametrize("shape", [(5, 4, 3), (8, 8, 8), (16, 16, 16)])
def test_reference_symbol_matches_four_operand_einsum(shape, monkeypatch):
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(random_grid(shape, "cell", seed=sum(shape)), phases, scale=0.5)
    inv = reference(op).inv
    monkeypatch.setattr(fem3d, "_layer_symbol", einsum_layer_symbol)
    assert np.array_equal(reference(op).inv, inv)


def plane_table_layer_symbol(ke, phase):
    """The layer symbol through a table that places each corner pair's
    block at the node planes (z, w) of its corners, contracted with the
    phase factors over all 64 pairs, three quarters of them on zero blocks:
    the reference for the contraction over each plane pair's own block."""
    plane = np.eye(2)[fem3d._local_corners()[:, 2].astype(int)]
    table = np.einsum("acbd,az,bw->abzcwd", ke, plane, plane)
    return np.einsum("abzcwd,yxab->yxzcwd", table, phase)


@pytest.mark.parametrize("shape", [(1, 3, 4), (2, 2, 2), (5, 4, 3), (8, 8, 8),
                                   (16, 16, 16)])
def test_layer_symbol_matches_plane_table(shape):
    nx, ny, nz = shape
    kit = element_kit(1.0 / nx, 1.0 / ny, 1.0 / nz, 0.5)
    corner = fem3d._local_corners().astype(int)
    dxy = corner[None, :, :2] - corner[:, None, :2]
    tx = 2.0 * np.pi * np.fft.rfftfreq(nx)
    ty = 2.0 * np.pi * np.fft.fftfreq(ny)
    phase = np.exp(1j * (ty[:, None, None, None] * dxy[..., 1]
                         + tx[None, :, None, None] * dxy[..., 0]))
    for hooke in (isotropic_hooke(1.0, 1.0), isotropic_hooke(3.2, 1.7)):
        ke = element_stiffness(kit, hooke).reshape(8, 3, 8, 3)
        assert np.array_equal(fem3d._layer_symbol(ke, phase),
                              plane_table_layer_symbol(ke, phase))


def test_reference_tensor_log_euclidean_mean():
    # isotropic lambda = mu phases: the geometric mean, and m = 1/10, the
    # softer phase's ratio to it
    c0, m = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                    isotropic_hooke(100.0, 100.0)])
    assert_allclose(c0.c, isotropic_hooke(10.0, 10.0).c, rtol=1e-13)
    assert m == pytest.approx(0.1, rel=1e-13)
    # a soft phase stays finite, a phase without stiffness is left out of
    # the mean and turns the bound off
    soft, m = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                      soft_hooke(1e-4)])
    assert np.all(np.isfinite(soft.c)) and soft.alpha > 0.0 and m > 0.0
    void, m = fem3d.reference_tensor([isotropic_hooke(1.0, 1.0),
                                      soft_hooke(0.0)])
    assert_allclose(void.c, isotropic_hooke(1.0, 1.0).c, rtol=1e-13)
    assert m == 0.0
    # an anisotropic phase: m is the generalized eigenvalue of the pencil
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    aniso = HookeTensor3.from_mandel(g @ g.T + np.eye(6))
    tensors = [isotropic_hooke(1.0, 2.0), aniso]
    c0, m = fem3d.reference_tensor(tensors)
    import scipy.linalg

    want = min(scipy.linalg.eigh(t.c, c0.c, eigvals_only=True)[0]
               for t in tensors)
    assert m == pytest.approx(want, rel=1e-10)


def test_block_pcg_zero_column_and_projected_loads():
    grid = make_laminate("x1", [0.5, 0.5], (4, 4, 4))
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(grid, phases, scale=1.0)
    gmat, _ = fem3d.corrector_loads(op)
    b = np.zeros((op.ndof, 3))
    b[:, 0] = -gmat[:, 0]
    b[:, 2] = -gmat[:, 3] + 5.0        # a constant shift the caller removes
    x, info = cell_pcg(op, b, tol=1e-12)
    k = csr_k(op)                  # the reference CG multiplies a CSR K
    assert info.column_iterations[1] == 0 and info.column_residuals[1] == 0.0
    assert np.all(x[:, 1] == 0.0)
    assert info.iterations == sum(info.column_iterations)
    assert max(info.column_residuals) <= 1e-12
    for j in (0, 2):
        for c in range(3):
            assert abs(x[c::3, j].mean()) < 1e-12
        ref, _ = pcg(k, op.project(b[:, j]), jacobi(k), tol=1e-12)
        ref = op.project(ref)
        assert np.linalg.norm(x[:, j] - ref) < 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("gamma", [1.0, 10.0])
def test_reference_preconditioner_keeps_cg_mean_free(gamma):
    # pcg projects nothing: with the loads projected once, the
    # preconditioner's pseudo-inverse at wavenumber (0, 0) alone keeps the
    # translations out of every search direction, even on a soft-phase cell
    # whose solve takes hundreds of iterations
    phases = {1: isotropic_hooke(1.0, 1.0), 2: soft_hooke(1e-4)}
    op = assemble(random_grid((8, 8, 8), "cell", seed=0), phases, scale=gamma,
                  allow_soft=True)
    gmat, _ = fem3d.corrector_loads(op)
    b = op.project(-gmat)
    x, _ = pcg(op.k, b, reference(op))
    r = b - op.k @ x
    for c in range(3):
        assert np.abs(x[c::3].mean(axis=0)).max() <= 1e-14 * np.abs(x).max()
        assert np.abs(r[c::3].mean(axis=0)).max() <= 1e-14 * np.abs(b).max()


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
    p = coarse_basis(op)
    c = np.random.default_rng(6).standard_normal(p.shape[1])
    parts = griso_decompose(expand_field(op, p @ c))
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
        "name": "two-level", "smoother": "jacobi",
        "coarse_dofs": 5 * int(free_columns(8, 8, clamped).sum()),
        "coarse_solver": "banded-cholesky",
        "bandwidth": {("left",): 49, fem3d.EDGES: 44}[clamped]}
    ell = body_load(op, f)
    k = csr_k(op)
    u_direct = spla.splu(k.tocsc()).solve(ell)
    e_direct = 0.5 * u_direct @ (k @ u_direct) - ell @ u_direct
    assert abs(energy - e_direct) <= 1e-10 * abs(e_direct)


@pytest.mark.parametrize("shape", [(7, 4, 3), (4, 7, 3)])
@pytest.mark.parametrize("clamped", [("left",), ("bottom",), fem3d.EDGES])
def test_banded_coarse_solve_matches_dense_solve(shape, clamped):
    # the coarse solve is an exact solve with Kc = P^T K P; nx != ny in both
    # orientations catches a band order along the wrong side
    nx, ny, nz = shape
    rng = np.random.default_rng(nx + 3 * len(clamped))
    grid = VoxelGrid(nx, ny, nz, rng.integers(1, 3, nx * ny * nz).astype(np.int32),
                     "plate")
    phases = {1: isotropic_hooke(1.0, 1.0), 2: isotropic_hooke(10.0, 10.0)}
    op = assemble(grid, phases, scale=0.25, mode="plate", clamped=clamped)
    m = fem3d.PlatePreconditioner(op)
    assert m.describe()["coarse_solver"] == "banded-cholesky"
    assert m.coarse.bandwidth == m.describe()["bandwidth"] <= 5 * (min(nx, ny) + 3)
    p = coarse_basis(op)
    kc = p.T @ (csr_k(op) @ p)
    b = rng.standard_normal((kc.shape[0], 2))
    want = np.linalg.solve(kc, b)
    got = m.coarse.solve(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_indefinite_coarse_operator_raises_solver_error():
    # an indefinite phase (accepted with allow_soft) makes Kc indefinite;
    # the banded Cholesky factorization reports it as a solver failure
    grid = make_laminate("x1", [0.5, 0.5], (6, 4, 2), domain="plate")
    negative = HookeTensor3.from_mandel(-isotropic_hooke(1.0, 1.0).c)
    op = assemble(grid, {1: isotropic_hooke(1.0, 1.0), 2: negative},
                  scale=0.25, mode="plate", clamped=("left",), allow_soft=True)
    with pytest.raises(fem3d.SolverError, match="not positive definite"):
        fem3d.PlatePreconditioner(op)
