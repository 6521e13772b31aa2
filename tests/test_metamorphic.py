"""Metamorphic properties of voxel solves: a mirrored, flipped, rolled,
rotated or transposed voxel grid is the same discrete problem, so its
solution is the same up to rounding, on random grids too.

Clamped plates: each relation maps the plate, its clamped edges and its
load, and keeps the minimum energy:

- x-mirror: voxel column x goes to nx - 1 - x, "left" and "right" swap,
  f1 and u1 change sign;
- x3-flip: voxel layer z goes to nz - 1 - z, f3 and u3 change sign;
- x<->y swap: the grid is transposed, "left" <-> "bottom" and "right" <->
  "top", f1 <-> f2 and u1 <-> u2.

The bound is rounding, scaled by the sizes of the terms the energy adds:
eps (0.5 |u|.|K| |u| + |l|.|u|). At h = 1/16 a plate's bending energy is a
small difference of large entries, so the solved energies of two mirrored
plates differ by 1e-11 relative at any CG tolerance, yet stay under a
quarter of that scale.

Each plate property alone catches one wrong corner map in
``fem3d._stencil``, where operator and loads read their nodes (checked on
a copy of the code, 20 examples each):

- x-mirror: the corner offsets' x and y exchanged, ``for ay, ax, az in
  corner``;
- x3-flip: each element's corners flipped in z, ``ez + 1 - az`` for
  ``ez + az``: the flipped plate's CG stalls. Placing the top face's
  corners in mirrored x order, ``ex + (ax ^ az)``, fails its energy
  bound, and the other two properties' too;
- x<->y swap: the plate's y wrapped as on a cell, ``(ey + ay) % ny``.

Mutations of the coarse tables move only the preconditioner, and so the
iteration count, not the energy: numbering an element's columns
``q = 2 ax + ay`` passes these properties and fails
``test_coarse_tables_match_ptkp``.

Periodic cells: each relation maps the homogenized form A (mandel-pair
slots: membrane e11, e22, sqrt2 e12, then the same curvatures) of
``cell.homogenize``:

- in-plane roll: the voxels shift periodically, A stays;
- x-mirror: the twist slots 2 and 5 change sign against the others;
- x<->y swap: slots 0 <-> 1 and 3 <-> 4;
- x3-flip: the membrane-curvature coupling block changes sign;
- 90-degree rotation: A goes to R A R^T, R = ``algebra.rotation90_pair``.

The forms are stationary in the correctors, so the CG tolerance enters
them squared: two solves of one problem agree to rounding (at most 5.4 eps
of max |A| over 80 random cells), and the bound is 32 eps of max |A|.
These properties guard the element product (every cell CG and the form's
K u) on random cells. Each catches the mutation named for it (checked on
a copy of the code, 20 examples each):

- roll: the x wrap of ``fem3d._stencil``'s corners clamped at the last
  node column, ``np.minimum(ex + ax, nxl - 1)`` for ``(ex + ax) % nxl``;
- x-mirror: ``ElementProduct``'s tensor ``bounds`` off by one, ``1 +
  np.cumsum(...)``, so that the first element of each tensor but the
  first is multiplied by the previous tensor's stiffness;
- x<->y swap and rotation: x's voxel width on the y derivatives in
  ``element_kit``'s ``jac``, ``2 / hx`` for ``2 / hy``, a cell stretched
  in y when nx != ny;
- x3-flip: the loads' x3 measured from a shifted mid-plane, ``z0 = -0.5
  + hz / 4 + ...`` in ``fem3d._load_tables``.

The first two fail all five properties; the third fails only the swap
and the rotation, the fourth only the flip. Swapping x and y in ``jac``
altogether fails none: it makes the cell a rectangle, which every one of
these symmetries maps onto the rectangle of the mapped grid.

Limit plates: each relation maps the grid, the per-cell forms, the nodal
forces and the clamped edges of ``plate2d.minimize_plate``, and keeps the
minimum energy and the mapped minimizer:

- x-mirror: cell column ci goes to mx - 1 - ci, "left" and "right" swap,
  the forms' twist slots 2 and 5 change sign against the others, f1 and
  w1 change sign;
- x<->y swap: the grid is transposed, "left" <-> "bottom" and "right" <->
  "top", form slots 0 <-> 1 and 3 <-> 4, f1 <-> f2 and w1 <-> w2.

The mapped plate is solved in another band order, so the two solutions
agree to the solve's rounding: over 400 random plates (up to 8 x 8,
coupled forms or not), at most 8.1e-14 relative in the energy and 3.1e-13
of the largest displacement in the fields, against a bound of 1e-12.
``perturbation_stability``'s report keeps the swap too (over 100 random
plates its gaps moved by at most 6.0e-14 of the base energy or strain
scale); its perturbation direction weighs all six slots alike, so it is
not mirror-invariant. Each relation catches the mutation of a cell's
strain rows in ``plate2d`` named for it (checked on a copy of the code):

- x-mirror: the average row of ``_cell_rows`` weighted to a cell's first
  node, ``[0.0, 1.0, 0.0, 0.0]`` for ``[0.0, 0.5, 0.5, 0.0]``, on x and y;
- x<->y swap, of the solve and of the report: the scale of the membrane
  shear row's dw2/dx term in ``STRAIN_TERMS``, 1.0 for ``1 / SQRT2``.

The first is the same on x and y and fails only the mirror; the second
changes the sign of no term under the mirror and fails only the swaps. A
sign flip of the tilt row can fail nothing: it flips both rows of each
Gauss group, which enter K only through their products, so K stays
bitwise the same, and the cell-center strains do not read it.
"""

import copy

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platehom import cell, fem3d, plate2d
from platehom.algebra import isotropic_hooke, rotation90_pair
from platehom.microstructure import VoxelGrid

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None)


@st.composite
def clamped_plates(draw):
    """(data (nz, ny, nx), phases, h, f, clamped) of a small random plate."""
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    nz = draw(st.integers(2, 4))
    nphase = draw(st.integers(1, 3))
    moduli = st.floats(0.5, 10.0)
    phases = {p: isotropic_hooke(draw(moduli), draw(moduli))
              for p in range(1, nphase + 1)}
    data = draw(st.lists(st.integers(1, nphase), min_size=nx * ny * nz,
                         max_size=nx * ny * nz))
    h = draw(st.sampled_from([0.25, 0.0625]))
    f = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda f: max(map(abs, f)) >= 0.1))
    clamped = draw(st.sets(st.sampled_from(fem3d.EDGES), min_size=1))
    return (np.array(data).reshape(nz, ny, nx), phases, h, np.array(f),
            tuple(sorted(clamped)))


def solve(data, phases, h, f, clamped):
    nz, ny, nx = data.shape
    grid = VoxelGrid(nx, ny, nz, np.ascontiguousarray(data).ravel()
                     .astype(np.int32), "plate")
    return fem3d.solve_clamped(grid, phases, h, f, clamped, tol=1e-12)


def rounding_scale(op, u, f):
    """eps (0.5 |u|.|K| |u| + |l|.|u|): the rounding of the energy's terms."""
    abs_k = copy.copy(op.k)
    abs_k.kes = np.abs(op.k.kes)
    ell = fem3d.body_load(op, f)
    u = np.abs(u)
    return np.finfo(float).eps * (0.5 * u @ (abs_k @ u) + np.abs(ell) @ u)


def check_relation(plate, data, f, clamped, field_map):
    """The mapped plate's solved energy, and its energy at the mapped
    minimizer, equal the original's within the rounding scale."""
    data0, phases, h, f0, clamped0 = plate
    op, u, energy, _ = solve(data0, phases, h, f0, clamped0)
    bound = 2.0 * rounding_scale(op, u, f0)
    op1, _, energy1, _ = solve(data, phases, h, f, clamped)
    assert abs(energy1 - energy) <= bound
    v = fem3d.restrict_field(op1, np.ascontiguousarray(
        field_map(fem3d.expand_field(op, u))))
    mapped = 0.5 * v @ (op1.k @ v) - fem3d.body_load(op1, f) @ v
    assert abs(mapped - energy) <= bound


@PROPERTY
@given(clamped_plates())
def test_x_mirror_keeps_clamped_energy(plate):
    data, _, _, f, clamped = plate
    mirror = {"left": "right", "right": "left"}
    check_relation(plate, data[:, :, ::-1], f * [-1, 1, 1],
                   tuple(mirror.get(e, e) for e in clamped),
                   lambda u: u[::-1] * [-1, 1, 1])


@PROPERTY
@given(clamped_plates())
def test_x3_flip_keeps_clamped_energy(plate):
    data, _, _, f, clamped = plate
    check_relation(plate, data[::-1], f * [1, 1, -1], clamped,
                   lambda u: u[:, :, ::-1] * [1, 1, -1])


@PROPERTY
@given(clamped_plates())
def test_xy_swap_keeps_clamped_energy(plate):
    data, _, _, f, clamped = plate
    swap = {"left": "bottom", "bottom": "left", "right": "top", "top": "right"}
    check_relation(plate, data.transpose(0, 2, 1), f[[1, 0, 2]],
                   tuple(swap[e] for e in clamped),
                   lambda u: u.transpose(1, 0, 2, 3)[..., [1, 0, 2]])


@st.composite
def random_cells(draw):
    """(data (nz, ny, nx), phases, gamma) of a small random cell."""
    nx, ny = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    nz = draw(st.integers(2, 4))
    nphase = draw(st.integers(1, 3))
    moduli = st.floats(0.5, 10.0)
    phases = {p: isotropic_hooke(draw(moduli), draw(moduli))
              for p in range(1, nphase + 1)}
    data = draw(st.lists(st.integers(1, nphase), min_size=nx * ny * nz,
                         max_size=nx * ny * nz))
    gamma = draw(st.floats(0.3, 4.0))
    return np.array(data).reshape(nz, ny, nx), phases, gamma


def cell_form(data, phases, gamma):
    nz, ny, nx = data.shape
    grid = VoxelGrid(nx, ny, nz, np.ascontiguousarray(data).ravel()
                     .astype(np.int32), "cell")
    return cell.homogenize(grid, phases, gamma).a


def check_form_relation(cell_, data, form_map):
    """The mapped cell's form is ``form_map`` of the original's, within a
    32 eps of its largest entry."""
    data0, phases, gamma = cell_
    a = cell_form(data0, phases, gamma)
    got = cell_form(data, phases, gamma)
    bound = 32 * np.finfo(float).eps * np.abs(a).max()
    assert np.abs(got - form_map(a)).max() <= bound


def slot_signs(*slots):
    """A form map that changes the sign of the given slots."""
    s = np.ones(6)
    s[list(slots)] = -1.0
    return lambda a: s[:, None] * a * s


@PROPERTY
@given(random_cells(), st.data())
def test_in_plane_roll_keeps_cell_form(cell_, data):
    grid = cell_[0]
    shift = (data.draw(st.integers(1, grid.shape[1] - 1)),
             data.draw(st.integers(1, grid.shape[2] - 1)))
    check_form_relation(cell_, np.roll(grid, shift, axis=(1, 2)),
                        lambda a: a)


@PROPERTY
@given(random_cells())
def test_x_mirror_negates_cell_twist_slots(cell_):
    check_form_relation(cell_, cell_[0][:, :, ::-1], slot_signs(2, 5))


@PROPERTY
@given(random_cells())
def test_xy_swap_permutes_cell_slots(cell_):
    perm = [1, 0, 2, 4, 3, 5]
    check_form_relation(cell_, cell_[0].transpose(0, 2, 1),
                        lambda a: a[np.ix_(perm, perm)])


@PROPERTY
@given(random_cells())
def test_x3_flip_negates_cell_coupling(cell_):
    check_form_relation(cell_, cell_[0][::-1], slot_signs(3, 4, 5))


@PROPERTY
@given(random_cells())
def test_rotation_90_acts_on_cell_form(cell_):
    r = rotation90_pair()
    check_form_relation(cell_, np.rot90(cell_[0], axes=(1, 2)),
                        lambda a: r @ a @ r.T)


@st.composite
def limit_plates(draw):
    """A small random ``plate2d.PlateProblem``: positive definite per-cell
    forms, coupled or not, random nodal forces. The even strips, whose
    bending block is singular, are left out."""
    mx, my = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    clamped = draw(st.sets(st.sampled_from(fem3d.EDGES), min_size=1))
    assume(clamped != {"left", "right"} or mx % 2)
    assume(clamped != {"bottom", "top"} or my % 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((mx, my, 6, 6))
    forms = g @ g.swapaxes(-1, -2) + 0.5 * np.eye(6)
    if draw(st.booleans()):
        forms[..., :3, 3:] = forms[..., 3:, :3] = 0.0
    return plate2d.PlateProblem(mx=mx, my=my, forms=forms,
                                forces=rng.standard_normal((mx + 1, my + 1, 3)),
                                clamped=tuple(sorted(clamped)))


def check_plate_relation(problem, mapped, field_map):
    """The mapped plate's minimum equals the original's within 1e-12
    relative, and its minimizer is ``field_map`` of the original's within
    1e-12 of the largest displacement."""
    sol = plate2d.minimize_plate(problem)
    got = plate2d.minimize_plate(mapped)
    assert abs(got.energy - sol.energy) <= 1e-12 * abs(sol.energy)
    w, v = field_map(sol.w, sol.v)
    bound = 1e-12 * max(np.abs(sol.w).max(), np.abs(sol.v).max())
    assert np.abs(got.w - w).max() <= bound
    assert np.abs(got.v - v).max() <= bound


def mirror_plate(problem):
    mirror = {"left": "right", "right": "left"}
    s = np.array([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    return plate2d.PlateProblem(
        mx=problem.mx, my=problem.my,
        forms=problem.forms[::-1] * s[:, None] * s,
        forces=problem.forces[::-1] * [-1, 1, 1],
        clamped=tuple(mirror.get(e, e) for e in problem.clamped))


def swap_plate(problem):
    swap = {"left": "bottom", "bottom": "left", "right": "top", "top": "right"}
    perm = [1, 0, 2, 4, 3, 5]
    return plate2d.PlateProblem(
        mx=problem.my, my=problem.mx,
        forms=problem.forms.swapaxes(0, 1)[..., perm, :][..., perm],
        forces=problem.forces.swapaxes(0, 1)[..., [1, 0, 2]],
        clamped=tuple(swap[e] for e in problem.clamped))


@PROPERTY
@given(limit_plates())
def test_x_mirror_keeps_limit_plate(problem):
    check_plate_relation(problem, mirror_plate(problem),
                         lambda w, v: (w[::-1] * [-1, 1], v[::-1]))


@PROPERTY
@given(limit_plates())
def test_xy_swap_keeps_limit_plate(problem):
    check_plate_relation(problem, swap_plate(problem),
                         lambda w, v: (w.swapaxes(0, 1)[..., [1, 0]], v.T))


@PROPERTY
@given(limit_plates())
def test_xy_swap_keeps_perturbation_report(problem):
    # the perturbation direction is invariant under the slot permutation,
    # so the whole report is; the gaps are bounded on the scale of the
    # base energy and of the base strains' root mean square
    rep = plate2d.perturbation_stability(problem)
    got = plate2d.perturbation_stability(swap_plate(problem))
    scale = abs(rep.base_energy)
    assert abs(got.base_energy - rep.base_energy) <= 1e-12 * scale
    assert np.abs(np.subtract(got.energy_gaps, rep.energy_gaps)).max() <= (
        1e-12 * scale)
    z = plate2d.cell_strains(problem, plate2d.minimize_plate(problem))
    rms = np.sqrt((z ** 2).sum() / (problem.mx * problem.my))
    assert np.abs(np.subtract(got.strain_gaps, rep.strain_gaps)).max() <= (
        1e-12 * rms)
