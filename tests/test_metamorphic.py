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
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from platehom import cell, fem3d
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
