"""Scaled-gradient linear elasticity on voxel grids with trilinear hexahedra.

The plate/cell geometry is always the fixed unit domain: in-plane the unit
square (cell mode: unit torus), thickness I = [-1/2, 1/2]. Thinness enters
only through the scaled gradient (d1, d2, (1/s) d3): the element
strain-displacement matrix carries the 1/s on its z-derivative column, so one
mesh serves every scale.

Dof layout is node-major with interleaved components (ux, uy, uz per node).
Cell mode identifies the x=0/x=1 and y=0/y=1 node planes (periodic in-plane,
natural top/bottom) and its operator kernel is the three translations:
``Operator.project`` removes them from the cell's loads and correctors, and
the reference preconditioner keeps them out of every CG search direction.
Plate mode eliminates all components on the clamped edge planes.

``_stencil`` builds the lattice record of a grid shape, mode and clamped
edges once (the last one cached): the one corner map of the lattice,
``corners``, the lattice node of local corner a of every element, wrapped
in-plane in cell mode, and the nodes that carry dofs. The smoother's
diagonal and the element product index it; the corner sums of loads
index its inverse, the elements of each dof node corner by corner, which
the record builds on first use. Only a plate's preconditioner imports
scipy: scipy.linalg, for its coarse band.

A voxel operator has one 24x24 element stiffness per tensor, so K applies
element by element (``ElementProduct``): block by block of elements, a dof
index gathers their dofs, one GEMM multiplies them by their tensor's
stiffness, and ``np.add.at`` adds the results back over the same index.
No operator has an assembled K: a cell's and a clamped plate's ``k`` are
their element products. A plate's preconditioner reads what it needs from
the element stiffnesses too: the smoother's diagonal corner by corner,
and the coarse operator from one table per (tensor, layer), banded and
factored (``fill_band``, ``BandedCholesky``) as the limit plate's blocks
are; its coarse basis is applied on the node-column lattice. A cell's
reference preconditioner needs only the element stiffness of its
reference tensor, so it is built from the grid shape, gamma and the phase
tensors, and cells that share those share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import _EMBED, HookeTensor3
from .microstructure import VoxelGrid

GAUSS = 1.0 / np.sqrt(3.0)
EDGES = ("left", "right", "bottom", "top")


class SolverError(RuntimeError):
    """Iterative solver failed to reach the requested tolerance."""


@dataclass
class ElementKit:
    """Reference-element quantities for one voxel size and gradient scale."""

    b: np.ndarray       # (8 gp, 6, 24) Mandel strain-displacement matrices
    wdet: float         # quadrature weight * |J| (same for all gp)
    zeta_frac: np.ndarray  # (8 gp,) z position of gp as fraction of hz in [0,1]
    hz: float


def _local_corners() -> np.ndarray:
    # local node order: x fastest, then y, then z
    out = np.zeros((8, 3))
    for a in range(8):
        out[a] = (a & 1, (a >> 1) & 1, (a >> 2) & 1)
    return out


def _b_at(points: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """(n, 6, 24) Mandel strain-displacement matrices at n reference points."""
    xa, ya, za = (2.0 * _local_corners() - 1.0).T           # (8,) each
    xi, eta, zeta = (points[:, i, None] for i in range(3))  # (n, 1) each
    s2 = np.sqrt(2.0)
    dx = xa * (1 + ya * eta) * (1 + za * zeta) / 8.0 * jac[0]
    dy = ya * (1 + xa * xi) * (1 + za * zeta) / 8.0 * jac[1]
    dz = za * (1 + xa * xi) * (1 + ya * eta) / 8.0 * jac[2]
    b = np.zeros((len(points), 6, 8, 3))
    b[:, 0, :, 0] = dx
    b[:, 1, :, 1] = dy
    b[:, 2, :, 2] = dz
    b[:, 3, :, 1] = dz / s2
    b[:, 3, :, 2] = dy / s2
    b[:, 4, :, 0] = dz / s2
    b[:, 4, :, 2] = dx / s2
    b[:, 5, :, 0] = dy / s2
    b[:, 5, :, 1] = dx / s2
    return b.reshape(-1, 6, 24)


def element_kit(hx: float, hy: float, hz: float, scale: float,
                ans_shear: bool = False) -> ElementKit:
    """Strain-displacement matrices at the 2x2x2 Gauss points.

    With ``ans_shear`` the two transverse-shear rows are sampled on the
    element midplanes (e13 at xi = 0, e23 at eta = 0), the assumed-natural-
    strain treatment that removes parasitic shear under bending. Quadrature
    stays full 2x2x2; constant strains are reproduced exactly and a free
    element keeps exactly the six rigid-body zero-energy modes. Strain fields
    without in-plane variation are untouched, so an x3 laminate cell gets
    the plain trilinear element's form. Other cells do not: on random
    two-phase 8^3 cells (contrast 10) the forms move by about 4e-2 / 1e-2 /
    2e-4 of max|A| at gamma = 0.1 / 1 / 10, as the correctors vary in-plane.
    """
    corners = 2.0 * _local_corners() - 1.0  # (+-1)^3
    gps = GAUSS * corners                   # 2x2x2 Gauss points, same ordering
    jac = np.array([2.0 / hx, 2.0 / hy, 2.0 / (hz * scale)])
    if ans_shear:
        # the Gauss points, then them on eta = 0 (e23) and on xi = 0 (e13)
        points = np.concatenate((gps, gps * [1.0, 0.0, 1.0],
                                 gps * [0.0, 1.0, 1.0]))
        bmat, b23, b13 = _b_at(points, jac).reshape(3, 8, 6, 24)
        bmat[:, 3] = b23[:, 3]
        bmat[:, 4] = b13[:, 4]
    else:
        bmat = _b_at(gps, jac)
    zeta_frac = (gps[:, 2] + 1.0) / 2.0
    return ElementKit(b=bmat, wdet=hx * hy * hz / 8.0, zeta_frac=zeta_frac,
                      hz=hz)


def element_stiffness(kit: ElementKit, hooke: HookeTensor3) -> np.ndarray:
    ke = np.zeros((24, 24))
    for g in range(8):
        bg = kit.b[g]
        ke += kit.wdet * (bg.T @ hooke.c @ bg)
    return 0.5 * (ke + ke.T)


@dataclass
class Operator:
    """Stiffness operator with its dof bookkeeping.

    ``k`` acts on the reduced dof vector (periodic dofs in cell mode, free
    dofs in plate mode); the quadratic energy of a field u is 0.5 u.K u.
    It is the operator's ``ElementProduct`` in both modes, and multiplies
    one field or a block of them as ``k @ p``. The reduced dofs are those
    of the stencil's ``rows`` nodes of the node lattice, in flat order,
    three per node.
    """

    k: ElementProduct
    mode: str
    scale: float
    grid: VoxelGrid
    kit: ElementKit
    tensors: list[HookeTensor3]
    tensor_of_elem: np.ndarray  # (nelem,) index into tensors
    ndof: int
    stencil: _Stencil           # the node lattice
    kes: np.ndarray             # (ntens, 24, 24) element stiffness per tensor
    clamped: tuple[str, ...] = ()

    def project(self, x: np.ndarray) -> np.ndarray:
        """Remove the translation kernel of a cell operator: a 2-D ``x``
        holds one field per column, and each loses its own mean. A plate
        operator has no kernel and raises ``ValueError``.
        """
        if self.mode != "cell":
            raise ValueError("only a cell operator has a translation kernel")
        nodes = x.reshape(-1, 3, *x.shape[1:])
        return (nodes - nodes.mean(axis=0)).reshape(x.shape)


@dataclass(frozen=True)
class _Stencil:
    """One voxel node lattice: its corner map and dof nodes; its arrays are
    read-only, because every operator on the lattice shares them.
    ``corners[a]`` is the node of local corner a of every element, wrapped
    in-plane on a cell; no node is corner a twice.
    """

    lattice: tuple[int, int, int]  # (nz + 1, ny', nx') nodes
    corners: np.ndarray   # (8, nz, ny, nx) int32 lattice node of each corner
    rows: np.ndarray      # (nnode,) nodes that carry dofs (plate: the free ones)

    @functools.cached_property
    def inverse_corners(self) -> np.ndarray:
        """(nrow, 8) int32 inverse corner map of the dof nodes: column c
        holds the element, in flat order, whose corner 7 - c the node is,
        or nelem if there is none. Built from ``corners`` on first use and
        kept with the stencil, read-only."""
        nelem = self.corners[0].size
        inverse = np.full((self.rows.size, 8), nelem, dtype=np.int32)
        inverse[self.corners.reshape(8, -1), 7 - np.arange(8)[:, None]] = (
            np.arange(nelem, dtype=np.int32))
        inverse = inverse[self.rows]
        inverse.flags.writeable = False
        return inverse


def free_nodes(ny: int, nx: int, clamped: tuple[str, ...]) -> np.ndarray:
    """(ny, nx) mask of the nodes of a node rectangle, x fastest, that the
    ``clamped`` edges leave free: "left" and "right" are its first and last
    columns (x), "bottom" and "top" its first and last rows (y). Raises
    ``ValueError`` on an edge name not in ``EDGES``."""
    bad = [e for e in clamped if e not in EDGES]
    if bad:
        raise ValueError(f"unknown edge names {bad}")
    free = np.ones((ny, nx), dtype=bool)
    for edge, line in zip(EDGES, (np.s_[:, 0], np.s_[:, -1], np.s_[0], np.s_[-1])):
        if edge in clamped:
            free[line] = False
    return free


def free_rectangle(free: np.ndarray) -> tuple[int, int, int, int]:
    """(j0, j1, i0, i1): the nonempty rectangle [j0, j1) x [i0, i1) of the
    nodes that the mask ``free`` marks."""
    (j0, ny), (i0, nx) = ((int(a.argmax()), int(a.sum()))
                          for a in (free.any(1), free.any(0)))
    return j0, j0 + ny, i0, i0 + nx


@functools.lru_cache(maxsize=1)
def _stencil(shape: tuple[int, int, int], mode: str,
             clamped: tuple[str, ...]) -> _Stencil:
    """The lattice record of the last grid shape, mode and clamped edges
    (sorted), so that operators on one grid at several scales build it
    once."""
    nx, ny, nz = shape
    lattice = (nz + 1, ny, nx) if mode == "cell" else (nz + 1, ny + 1, nx + 1)
    _, nyl, nxl = lattice
    ez, ey, ex = np.ogrid[:nz, :ny, :nx]
    corners = np.stack([((ez + az) * nyl + (ey + ay) % nyl) * nxl
                        + (ex + ax) % nxl
                        for ax, ay, az in _local_corners().astype(np.int64)]
                       ).astype(np.int32)
    rows = np.broadcast_to(free_nodes(nyl, nxl, clamped), lattice).ravel()
    for a in (corners, rows):
        a.flags.writeable = False
    return _Stencil(lattice=lattice, corners=corners, rows=rows)


def phase_tensors(grid: VoxelGrid, phases: dict[int, HookeTensor3],
                  allow_soft: bool = False
                  ) -> tuple[list[int], list[HookeTensor3]]:
    """The sorted ids of the phases present in ``grid`` and their tensors.
    An id not in ``phases`` is a ``ValueError``, and so is a non-coercive
    phase unless ``allow_soft``."""
    ids = sorted(int(p) for p in grid.phase_ids())
    missing = [p for p in ids if p not in phases]
    if missing:
        raise ValueError(f"grid references unknown phase ids {missing}")
    tensors = [phases[p] for p in ids]
    for p, t in zip(ids, tensors):
        if t.alpha <= 0.0 and not allow_soft:
            raise ValueError(
                f"phase {p} is not coercive (alpha={t.alpha:.3e}); "
                "pass allow_soft=True to accept it"
            )
    return ids, tensors


def assemble(grid: VoxelGrid, phases: dict[int, HookeTensor3], scale: float,
             mode: str | None = None, clamped: tuple[str, ...] = (),
             allow_soft: bool = False) -> Operator:
    """Assemble the scaled-gradient stiffness operator for a voxel grid.

    ``scale`` is gamma (cell mode) or h (plate mode). Plate mode requires
    one or more clamped edges of ``EDGES`` that leave a free node.
    No K is assembled: the operator's ``k`` is its ``ElementProduct``,
    built from the element stiffness of each tensor.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    mode = mode or grid.domain
    nx, ny, nz = grid.shape

    ids, tensors = phase_tensors(grid, phases, allow_soft)
    tensor_of_elem = np.searchsorted(np.array(ids), grid.data).astype(np.int32)

    # plate mode uses assumed-natural-strain transverse shear: the thin-limit
    # bending response at coarse in-plane resolution is otherwise polluted by
    # parasitic shear. Cells keep the plain element: ANS would leave only an
    # x3 laminate's form unchanged (element_kit).
    kit = element_kit(1.0 / nx, 1.0 / ny, 1.0 / nz, scale,
                      ans_shear=(mode == "plate"))

    if mode not in ("cell", "plate"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "plate" and not clamped:
        raise ValueError("plate mode requires at least one clamped edge")
    stencil = _stencil(grid.shape, mode,
                       tuple(sorted(set(clamped))) if mode == "plate" else ())
    ndof = 3 * int(stencil.rows.sum())
    if ndof == 0:
        raise ValueError(f"the clamped edges {tuple(clamped)} leave no free node")
    kes = np.stack([element_stiffness(kit, t) for t in tensors])
    op = Operator(k=None, mode=mode, scale=scale, grid=grid, kit=kit,
                  tensors=tensors, tensor_of_elem=tensor_of_elem, ndof=ndof,
                  stencil=stencil, kes=kes, clamped=tuple(clamped))
    op.k = ElementProduct(op)
    return op


# elements per block of the element product's loop: its gathered rows and
# their products, 24 doubles per element each, stay in cache between steps
# and take under a vector of the 32x32x8 plate
_CHUNK = 512


class ElementProduct:
    """K p element by element, through the operator's element stiffnesses:
    an operator's ``k``, and the product every solve uses.

    ``dofs``, (24 nelem,), lists the reduced dof of each element corner and
    component; it runs over the elements ordered by tensor (flat order
    within one), eight corners of three components each, and a clamped
    corner reads the three zeros past the last dof. K p = A^T diag(K_e) A p,
    with A the 0/1 map that ``dofs`` indexes. The elements go in blocks of
    at most ``_CHUNK`` in that order, and each block, column by column,
    gathers its elements' 24 dofs into rows (A p), multiplies the rows of
    each tensor's range in it by that tensor's symmetric element stiffness
    in one GEMM, and adds the results onto the column's dofs (A^T): the
    first block by one ``bincount``, each later one by ``np.add.at`` onto
    those sums. Each dof thus adds its corners in ``dofs`` order, starting
    from zero, in whatever blocks they fall, and each row's product is the
    one a GEMM over its whole tensor range gives. ``p`` is one field or an
    (ndof, m) block, and the result has its shape. No call allocates
    per-element arrays: a call's work arrays hold one block's rows and
    their products, and the operator keeps none between calls. ``kes`` is
    read at every call.

    It multiplies as a sparse K does, ``k @ p``. ``shape`` is K's; ``nnz``
    counts the free element corners, under a tenth of a CSR K's entries,
    and ``indices`` is ``dofs``. ``dofs`` reads its nodes from the
    stencil's corner map, ``corners``.
    """

    def __init__(self, op: Operator):
        rows = op.stencil.rows
        nnode = op.ndof // 3
        node = np.full(rows.size, nnode)
        node[rows] = np.arange(nnode)
        order = np.argsort(op.tensor_of_elem, kind="stable")
        col = node[op.stencil.corners.reshape(8, -1).T[order]]
        self.nnz = int((col < nnode).sum())
        self.dofs = self.indices = (3 * col[..., None] + np.arange(3)).ravel()
        self.kes = op.kes
        self.shape = (op.ndof, op.ndof)
        # elements [bounds[t], bounds[t + 1]) of the gather's order carry
        # tensor t
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(op.tensor_of_elem,
                                        minlength=len(op.tensors)))))
        # the blocks of _CHUNK elements: their dofs, and the (tensor, first
        # row, end row) of each tensor range they cover
        nelem = col.shape[0]
        self._blocks = []
        for lo in range(0, nelem, _CHUNK):
            hi = min(lo + _CHUNK, nelem)
            ranges = [(t, max(a, lo) - lo, min(b, hi) - lo)
                      for t, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
                      if a < hi and b > lo]
            self._blocks.append((self.dofs[24 * lo:24 * hi], ranges))

    def __call__(self, p: np.ndarray) -> np.ndarray:
        n = self.shape[0]
        m = p.size // n
        # one row per column, its dofs then the three zeros of clamped corners
        x = np.zeros((m, n + 3))
        x[:, :n] = p.reshape(n, m).T
        sums = []       # per column: its dofs, then the clamped corners'
        work = np.empty((2, self._blocks[0][0].size))
        for i, (dofs, ranges) in enumerate(self._blocks):
            g, u = work[:, :dofs.size]
            rows, prods = g.reshape(-1, 24), u.reshape(-1, 24)
            for j in range(m):
                # "clip" gathers straight into g, where "raise" would buffer;
                # every index is in range by construction
                np.take(x[j], dofs, out=g, mode="clip")
                for t, a, b in ranges:
                    np.matmul(rows[a:b], self.kes[t], out=prods[a:b])
                # the first block's sums start from zero, as bincount's do,
                # which is faster than np.add.at onto zeros on a small cell
                if i == 0:
                    sums.append(np.bincount(dofs, u, minlength=n + 3))
                else:
                    np.add.at(sums[j], dofs, u)
        if m == 1:
            return sums[0][:n].reshape(p.shape)
        out = np.empty((n, m))
        for j, column in enumerate(sums):
            out[:, j] = column[:n]
        return out

    __matmul__ = __call__


# ---------------------------------------------------------------------------
# reference-medium preconditioner for cell operators
# ---------------------------------------------------------------------------

def reference_tensor(tensors: list[HookeTensor3]) -> tuple[HookeTensor3, float]:
    """Log-Euclidean mean C0 = expm(mean(logm(c_p))) of the phase
    stiffnesses, and m = min_p lambda_min(C0^-1/2 C_p C0^-1/2), the largest
    m with C_p >= m C0 for every phase.

    Each phase's eigenvalues are clamped from below at 1e-12 times its
    largest in the mean, so soft phases stay finite; a phase with no
    stiffness at all is left out of it, and gives m = 0. For isotropic
    phases with lambda = mu, C0 is the geometric mean.
    """
    logs = []
    for t in tensors:
        w, v = np.linalg.eigh(t.c)
        if w[-1] > 0.0:
            logs.append((v * np.log(np.maximum(w, 1e-12 * w[-1]))) @ v.T)
    w, v = np.linalg.eigh(np.mean(logs, axis=0))
    s = (v * np.exp(-0.5 * w)) @ v.T                       # C0^-1/2
    m = min(np.linalg.eigvalsh(s @ t.c @ s)[0] for t in tensors)
    return HookeTensor3.from_mandel((v * np.exp(w)) @ v.T), float(m)


def _layer_symbol(ke: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(ny, nx//2+1, 2, 3, 2, 3) symbol of one element layer between its two
    node planes, from the (8, 3, 8, 3) element stiffness and the in-plane
    phase factor (ny, nx//2+1, 8, 8) of each local corner pair (a, b)."""
    # corner a = 4 z + a' lies on node plane z, so the pairs between planes
    # z and w are one 4x4 block of (a, b): each plane pair sums its own
    ny, nk = phase.shape[:2]
    return np.einsum("zacwbd,yxzawb->yxzcwd", ke.reshape(2, 4, 3, 2, 4, 3),
                     phase.reshape(ny, nk, 2, 4, 2, 4))


class ReferencePreconditioner:
    """Inverse of the cell operator of one homogeneous reference tensor.

    For a homogeneous tensor the periodic cell operator is block-circulant
    in-plane: a 2-D Fourier transform over (y, x) splits it into one
    3(nz+1)-square system per wavenumber, which couples neighbouring node
    planes only. Their inverses are stored, complex, (nx//2+1) * ny *
    (3(nz+1))^2 * 16 bytes; at wavenumber (0, 0), which carries the three
    translations, the pseudo-inverse (Moulinec & Suquet 1998; Ladecky et
    al. 2023).

    The in-plane transform is a pair of small dense DFT matrices over the
    symbol's own angles, not an FFT: a real x matrix to the half spectrum
    (cos rows over -sin rows), a complex y matrix, and their inverses. One
    application is a transpose, a real product over x, a complex product
    over y, the batched product with the inverses over all columns, the two
    inverse products and a transpose back: a few BLAS calls, where an FFT
    transforms one short line at a time. The work per point grows like n in
    place of log n, so the gain narrows as the cell widens: six columns on
    one thread took 0.26-0.29 / 3.4-3.5 / 16-18 ms at 8^3 / 16^3 / 24^3,
    against 0.5-0.9 / 5.3-6.4 / 19-24 ms through numpy's FFT.

    It depends on the grid ``shape`` (nx, ny, nz), ``gamma`` and the
    ``tensors`` of the phases present, in sorted id order, alone: every cell
    operator with the same three gets the same preconditioner, bit for bit,
    so one instance serves them all (``cell.homogenize``'s ``precond``).
    """

    name = "fft-reference"

    def __init__(self, shape: tuple[int, int, int], gamma: float,
                 tensors: list[HookeTensor3]):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        nx, ny, nz = shape
        self.shape = (nz + 1, ny, nx)
        self.gamma, self.tensors = gamma, tuple(tensors)
        # every element stiffness sum_g w B^T C B is monotone in C, so
        # K >= m K0 on the mean-free fields: pcg's bound on the energy error
        self.c0, self.m = reference_tensor(tensors)
        # the cell element at scale gamma, as ``assemble`` builds it
        kit = element_kit(1.0 / nx, 1.0 / ny, 1.0 / nz, gamma)
        ke = element_stiffness(kit, self.c0).reshape(8, 3, 8, 3)
        corner = _local_corners().astype(int)
        # K u for u = exp(i theta.(x, y)) u_hat picks up exp(i theta.(b - a))
        # between local corners a (row) and b (column)
        tx = 2.0 * np.pi * np.fft.rfftfreq(nx)
        ty = 2.0 * np.pi * np.fft.fftfreq(ny)
        dxy = corner[None, :, :2] - corner[:, None, :2]            # (a, b, 2)
        phase = np.exp(1j * (ty[:, None, None, None] * dxy[..., 1]
                             + tx[None, :, None, None] * dxy[..., 0]))
        layer = _layer_symbol(ke, phase).reshape(ny, nx // 2 + 1, 6, 6)
        m = 3 * (nz + 1)
        khat = np.zeros((ny, nx // 2 + 1, m, m), dtype=complex)
        for k in range(nz):
            khat[:, :, 3 * k:3 * k + 6, 3 * k:3 * k + 6] += layer
        # wavenumber (0, 0): the pseudo-inverse on the complement of the
        # translations t, as P inv(P K P + s t t^T) P; the rounding of K on t
        # is too large, relative to the z-stiffness at large gamma, for a
        # cut-off on eigenvalues
        t = np.tile(np.eye(3), (nz + 1, 1)) / np.sqrt(nz + 1)
        proj = np.eye(m) - t @ t.T
        k00 = khat[0, 0]
        khat[0, 0] = proj @ k00 @ proj + np.trace(k00).real / m * (t @ t.T)
        self.inv = np.linalg.inv(khat)
        del khat
        self.inv[0, 0] = proj @ self.inv[0, 0] @ proj
        # the in-plane DFT over the same angles: x real to half-spectrum, as
        # the cos rows over the -sin rows; y complex; the inverse x keeps the
        # real part, the paired bins counted twice
        ax = np.outer(tx, np.arange(nx))
        self.fx = np.concatenate((np.cos(ax), -np.sin(ax)))
        w = np.full(nx // 2 + 1, 2.0 / nx)
        w[0] = 1.0 / nx
        if nx % 2 == 0:
            w[-1] = 1.0 / nx
        self.gx = self.fx.T * np.concatenate((w, w))
        self.fy = np.exp(-1j * np.outer(ty, np.arange(ny)))
        self.gy = self.fy.conj().T / ny

    def describe(self) -> dict:
        """Name and reference tensor: (lambda0, mu0) when isotropic, else a digest."""
        c = self.c0.c
        lam, mu = c[0, 1], 0.5 * c[3, 3]
        iso = 2.0 * mu * np.eye(6)
        iso[:3, :3] += lam
        if np.abs(c - iso).max() <= 1e-12 * np.abs(c).max():
            return {"name": self.name, "lambda0": float(lam), "mu0": float(mu)}
        return {"name": self.name, "c0_digest": self.c0.digest()}

    def __call__(self, r: np.ndarray) -> np.ndarray:
        nz1, ny, nx = self.shape
        nk = nx // 2 + 1
        # (z, y, x, 3 m) -> (y, x, z 3 m): the x product is one GEMM per y,
        # and the y product's result is in the inverses' (ky, kx, z 3, m) order
        rt = r.reshape(nz1, ny, nx, -1).transpose(1, 2, 0, 3).reshape(ny, nx, -1)
        s = self.fx @ rt                                  # (y, re|im kx, ...)
        rh = np.empty((ny, nk, s.shape[2]), dtype=complex)
        rh.real, rh.imag = s[:, :nk], s[:, nk:]
        rh = (self.fy @ rh.reshape(ny, -1)).reshape(ny, nk, 3 * nz1, -1)
        zh = (self.gy @ (self.inv @ rh).reshape(ny, -1)).reshape(ny, nk, -1)
        z = self.gx @ np.concatenate((zh.real, zh.imag), axis=1)   # (y, x, ...)
        return z.reshape(ny, nx, nz1, -1).transpose(2, 0, 1, 3).reshape(r.shape)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------

@dataclass
class SolveInfo:
    """What a CG solve did; a 2-D right-hand side sums over its columns, and
    a solve block by block (``plate2d.minimize_plate``) over the blocks it
    solved, one column each."""

    ndof: int                # size of K
    nnz: int                 # k.nnz: an ElementProduct's free element corners
    column_iterations: tuple[int, ...]
    column_residuals: tuple[float, ...]  # relative residuals ||r|| / ||b||
    preconditioner: dict | None = None  # its describe(), set by the caller
    energy_error: float | None = None   # |r.M^-1 r| / |l.u|, set by the caller
    lower_bound: float | None = None    # pcg's m, K >= m M, with a bound
    column_bounds: tuple[float, ...] | None = None  # r.z / (m (c - E)), m > 0

    @property
    def iterations(self) -> int:
        """Iterations, summed over the columns."""
        return sum(self.column_iterations)

    @property
    def residual(self) -> float:
        """The largest relative residual of a column, 0.0 with none."""
        return max(self.column_residuals, default=0.0)

    def record(self) -> dict:
        """The solve's entry in a run manifest: ndof, nnz, preconditioner,
        then ``iterations`` and ``residual`` of a one-column solve or
        per-column (per-block) ``iterations`` and ``residuals`` lists, then
        the ``energy_error`` when the caller set one, then pcg's ``m`` and
        per-column ``energy_bounds`` of a solve with a bound."""
        rec = {"ndof": self.ndof, "nnz": self.nnz,
               "preconditioner": self.preconditioner}
        if len(self.column_iterations) == 1:
            rec.update(iterations=self.iterations, residual=self.residual)
        else:
            rec.update(iterations=list(self.column_iterations),
                       residuals=list(self.column_residuals))
        if self.energy_error is not None:
            rec["energy_error"] = self.energy_error
        if self.lower_bound is not None:
            rec["m"] = self.lower_bound
        if self.column_bounds is not None:
            rec["energy_bounds"] = list(self.column_bounds)
        return rec


def energy_error(ell: np.ndarray, u: np.ndarray, ku: np.ndarray,
                 precond) -> float:
    """Relative energy error estimate |r.M^-1 r| / |l.u| of an approximate
    solution u of K u = l, with r = l - K u and M the preconditioner. When
    M^-1 is close to K^-1 it is the squared energy-norm error of u over
    u.K u."""
    r = ell - ku
    return float(abs(r @ precond(r)) / max(abs(ell @ u), np.finfo(float).tiny))


def _node_view(a: np.ndarray, free: np.ndarray, k: int) -> np.ndarray:
    """(nfy, nfx, k) view of ``a``, k dofs at each node of the nfy x nfx
    rectangle ``free`` marks, in band order: the faster index along the
    side with fewer nodes, x on a tie. The one order of every band and
    factor: for an operator that couples neighbouring nodes, a band."""
    nfy, nfx = free.any(1).sum(), free.any(0).sum()
    if nfy < nfx:
        return a.reshape(nfx, nfy, k).swapaxes(0, 1)
    return a.reshape(nfy, nfx, k)


def fill_band(free: np.ndarray, local, slabs) -> np.ndarray:
    """Lower band, in ``BandedCholesky``'s storage and band order, of a
    symmetric operator assembled cell by cell on the nonempty rectangle of
    nodes ``free`` (my + 1, mx + 1) marks, k dofs each: local dof (c, i, j)
    of cell (cy, cx) is dof c - min c of node (cy + j, cx + i). ``slabs``
    yields (y, ke), ke (n, n, rows, mx) the element matrices of cell rows
    [y, y + rows) on the n dofs ``local``. Each local pair (a, b) sits at
    one offset in band order; at offset >= 0 it adds ke[a, b] by one 2-D
    slice add over the slab's cells whose two nodes are free, so a band
    entry adds its terms from zero, slab by slab, pair by pair. With
    ``local`` in descending y offset that is cell-row order, whatever the
    slabs."""
    comp, i, j = np.asarray(local, dtype=np.intp).T
    comp, k = comp - comp.min(), np.ptp(comp) + 1
    j0, j1, i0, i1 = free_rectangle(free)
    nfy, nfx = j1 - j0, i1 - i0
    pos = _node_view(np.arange(nfy * nfx * k), free, k)
    sy, sx, _ = np.array(pos.strides) // pos.itemsize
    offset = ((j[:, None] - j) * sy + (i[:, None] - i) * sx
              + comp[:, None] - comp)
    x0 = np.maximum(0, i0 - np.minimum.outer(i, i))
    x1 = np.minimum(free.shape[1] - 1, i1 - np.maximum.outer(i, i))
    y0 = np.maximum(0, j0 - np.minimum.outer(j, j))
    y1 = np.minimum(free.shape[0] - 1, j1 - np.maximum.outer(j, j))
    a, b = np.nonzero((offset >= 0) & (x0 < x1) & (y0 < y1))
    x0, x1, y0, y1, offset = (e[a, b] for e in (x0, x1, y0, y1, offset))
    pairs = list(zip(*(e.tolist() for e in (
        offset, comp[b], x0, x1, y0, y1, i[b] - i0, j[b] - j0, a, b))))
    band = np.zeros((offset.max() + 1, nfy * nfx * k), order="F")
    rows = {d: _node_view(band[d], free, k) for d in set(offset.tolist())}
    for y, ke in slabs:
        for d, cb, xa, xb, ya, yb, xc, yc, ka, kb in pairs:
            ya, yb = max(ya, y), min(yb, y + ke.shape[2])
            if ya < yb:
                rows[d][ya + yc:yb + yc, xa + xc:xb + xc, cb] += ke[
                    ka, kb, ya - y:yb - y, xa:xb]
    return band


class BandedCholesky:
    """Banded Cholesky factor of a symmetric positive definite matrix K, or
    of its principal block on k dofs at each node that ``free`` marks.

    ``dofs`` (free nodes, k) gives K's dof of each component at each free
    node, flat order, x fastest; ``order`` lists them in band order, as
    ``fill_band`` does. ``band`` is the lower band of K[order][:, order] in
    LAPACK's lower storage, band[i - j, j] holding entry (i, j) of its
    ``bandwidth`` sub-diagonals, in Fortran order; LAPACK factors it in
    place. ``solve`` takes and returns vectors in K's own order, zero on
    the dofs outside ``order``. A block that is not positive definite in
    working precision raises ``SolverError``, naming it ``what``.
    """

    def __init__(self, band: np.ndarray, free: np.ndarray, dofs: np.ndarray,
                 what: str = "matrix"):
        # scipy.linalg is imported where it is used, so that a command that
        # builds no matrix does not pay for it at start
        from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

        self.bandwidth = band.shape[0] - 1
        try:
            self.band = cholesky_banded(band, overwrite_ab=True, lower=True,
                                        check_finite=False)
        except LinAlgError as exc:
            raise SolverError(f"{what} is not positive definite: {exc}") from exc
        self.order = np.empty(dofs.size, dtype=np.intp)
        view = _node_view(self.order, free, dofs.shape[1])
        view[...] = dofs.reshape(view.shape)
        self._cho_solve = cho_solve_banded

    def solve(self, y: np.ndarray) -> np.ndarray:
        """K_b^-1 y_b for one vector or an (n, m) block of them, K_b and
        y_b the block's part of K and y."""
        x = np.zeros_like(y)
        x[self.order] = self._cho_solve((self.band, True), y[self.order],
                                        overwrite_b=True, check_finite=False)
        return x


def _diagonal(op: Operator) -> np.ndarray:
    """(ndof,) K's diagonal, from the operator's element stiffnesses: from
    zero, each node adds the diagonal entries of the element block
    kes[t, 3a:3a+3, 3a:3a+3] of the corners a it is, in ascending a, as
    adding K's corner pairs one after another would, so the diagonal is K's
    bit for bit. A node is corner a of one element at most, so no ``+=``
    repeats an index."""
    table = np.diagonal(op.kes, axis1=1, axis2=2).reshape(-1, 8, 3)  # (t, a)
    diagonal = np.zeros((op.stencil.rows.size, 3))
    for a in range(8):
        diagonal[op.stencil.corners[a].ravel()] += table[op.tensor_of_elem, a]
    return diagonal[op.stencil.rows].ravel()


# the five coarse fields of a free node column, hat + r ^ x3 e3: the
# displacement component each moves, its weight at x3 = 0 and per unit x3
_COARSE_FIELDS = ((0, 1.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 0.0),  # translations
                  (1, 0.0, -1.0), (0, 0.0, 1.0))      # u2 -= x3 r1, u1 += x3 r2


def _coarse_band(op: Operator) -> np.ndarray:
    """Lower band of a plate's coarse operator Kc = P^T K P (see
    ``BandedCholesky``), from element tables, through ``fill_band``.

    P_k, (24, 20), maps an element's dofs in layer k to the 5 coarse fields
    (``_COARSE_FIELDS``) of its 4 node columns q = ax + 2 ay, at the
    layer's two node-plane z values. It builds one table P_k^T K_e P_k per
    (tensor, layer). Then, a slab of whole element rows (at most
    ``_CHUNK`` elements, or one row) at a time, in reused buffers, it sums
    each element's layers by a one-hot GEMM and hands the 20x20 blocks to
    ``fill_band`` with the coarse dofs listed last first, so each band entry
    adds its terms in element order, from zero.
    """
    nx, ny, nz = op.grid.shape
    ntens = len(op.tensors)
    z = np.linspace(-0.5, 0.5, nz + 1)
    pk = np.zeros((nz, 8, 3, 4, 5))
    for a, (ax, ay, az) in enumerate(_local_corners().astype(int)):
        for j, (c, w0, w1) in enumerate(_COARSE_FIELDS):
            pk[:, a, c, ax + 2 * ay, j] = w0 + w1 * z[az:az + nz]
    pk = pk.reshape(nz, 24, 20)
    tables = (pk.transpose(0, 2, 1) @ op.kes[:, None] @ pk   # (ntens, nz, 20, 20)
              ).reshape(ntens * nz, 400)
    # the (tensor, layer) table of every element, (nz, ny, nx)
    index = (op.tensor_of_elem.reshape(nz, ny, nx) * nz
             + np.arange(nz)[:, None, None])
    local = [(j, ax, ay) for ay in (0, 1) for ax in (0, 1) for j in range(5)]
    rows = min(ny, max(1, _CHUNK // nx))

    def slabs():
        layers = np.empty((rows * nx, ntens * nz))
        blocks = np.empty((rows * nx, 400))
        for y in range(0, ny, rows):
            n = min(rows, ny - y) * nx
            layers[:n] = 0.0
            layers[np.arange(n), index[:, y:y + rows].reshape(nz, n)] = 1.0
            ke = np.matmul(layers[:n], tables, out=blocks[:n])
            yield y, ke.reshape(-1, nx, 20, 20).transpose(2, 3, 0, 1)[::-1, ::-1]

    free = op.stencil.rows.reshape(op.stencil.lattice)[0]
    return fill_band(free, local[::-1], slabs())


class PlatePreconditioner:
    """Two-level additive preconditioner M = D^-1 + P Kc^-1 P^T for a
    clamped plate operator (two-level additive Schwarz; Toselli & Widlund
    2005, ch. 2-3).

    D is K's diagonal, the Jacobi smoother, applied as a product with its
    stored inverse; a dof of zero diagonal, on a node that touches only
    zero-stiffness elements (``allow_soft``), gets 1. The coarse space is
    the part of the Griso decomposition that is linear in x3,
    hat + r ^ x3 e3: per free node column (one whose bottom node is free)
    three translations and the two rotation components, u1 += x3 r2 and
    u2 -= x3 r1, the sign convention of
    ``convergence.GrisoParts.elementary``. These fields are the near-kernel
    that makes the scaled operator ill-conditioned as h -> 0; the coarse
    operator Kc = P^T K P is factored once. The plate has no assembled K:
    D (``_diagonal``) and Kc (``_coarse_band``) both come from the element
    stiffnesses, D first.

    P is no matrix either. Free nodes are numbered in flat order and every
    node layer has the same free columns, so a field is an (nz + 1, ncol, 3)
    lattice of layers, columns and components, and coarse dof 5 c + j is
    field j (``_COARSE_FIELDS``) of free column c, numbered in flat order,
    x fastest. ``restrict`` (P^T) sums the layers in ascending order for
    the translations and the z-weighted u1 and u2 for the rotations;
    ``prolong`` (P) adds each column's fields onto its nodes. Both round as
    the CSR product of P's nonzeros would.

    Kc couples neighbouring columns only, so in band order it is a band
    matrix of about 5 (min(nx, ny) + 2) sub-diagonals; its
    ``BandedCholesky`` factor is stored in that order, and a Kc that is not
    positive definite (an indefinite phase) raises ``SolverError``.
    """

    name = "two-level"

    def __init__(self, op: Operator):
        if op.mode != "plate":
            raise ValueError("the two-level preconditioner needs a plate operator")
        nz = op.grid.shape[2]
        free = op.stencil.rows.reshape(op.stencil.lattice)[0]
        self.ncol = int(free.sum())                              # bottom layer
        self.z = np.linspace(-0.5, 0.5, nz + 1)
        d = _diagonal(op)
        d[d == 0.0] = 1.0
        self.inverse_diagonal = 1.0 / d
        self.coarse = BandedCholesky(_coarse_band(op), free,
                                     np.arange(5 * self.ncol).reshape(-1, 5),
                                     "coarse plate operator")

    def describe(self) -> dict:
        """Name, smoother, coarse dof count, coarse solver and its bandwidth."""
        return {"name": self.name, "smoother": "jacobi",
                "coarse_dofs": 5 * self.ncol,
                "coarse_solver": "banded-cholesky",
                "bandwidth": self.coarse.bandwidth}

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """P^T r of one field or an (ndof, m) block of them."""
        layers = r.reshape(self.z.size, -1)
        # sum_k u_k and sum_k z_k u_k over whole layers, in ascending k; the
        # z = 0 layer of an even nz adds exact zeros
        moved = layers.sum(axis=0).reshape(self.ncol, 3, -1)
        tilted = np.einsum("k,kn->n", self.z, layers).reshape(self.ncol, 3, -1)
        y = np.empty((self.ncol, 5, moved.shape[2]))
        y[:, :3] = moved
        y[:, 3] = -tilted[:, 1]
        y[:, 4] = tilted[:, 0]
        return y.reshape(5 * self.ncol, *r.shape[1:])

    def prolong(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` + P y, in place, for one coarse vector or a (5 ncol, m)
        block of them."""
        c = y.reshape(self.ncol, 5, -1)
        # layer k of P y is moved + z_k tilt, per column (c0 + z c4,
        # c1 - z c3, c2)
        tilt = np.zeros((self.ncol, 3, c.shape[2]))
        tilt[:, 0] = c[:, 4]
        tilt[:, 1] = -c[:, 3]
        field = self.z[:, None] * tilt.reshape(1, -1)
        field += c[:, :3].reshape(1, -1)
        out.reshape(self.z.size, -1)[...] += field
        return out

    def __call__(self, r: np.ndarray) -> np.ndarray:
        d = self.inverse_diagonal
        return self.prolong(self.coarse.solve(self.restrict(r)),
                            r * (d if r.ndim == 1 else d[:, None]))


def pcg(k, b: np.ndarray, precond, tol: float = 1e-10,
        max_iter: int | None = None,
        bound: tuple[float, np.ndarray] | None = None
        ) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned conjugate gradients on one or several right-hand sides.

    ``k`` is a symmetric K that multiplies as ``k @ p``: an
    ``ElementProduct``, a ``plate2d.PlateOperator`` or a sparse matrix.
    ``precond`` is a callable
    applying the preconditioner to an (n, m) block, such as a
    preconditioner object. A 2-D ``b`` is solved column by column with
    column-wise step lengths, one product with K per iteration for all
    unconverged columns; a column stops once its relative residual reaches
    ``tol`` or after ``max_iter`` iterations. The column updates work in
    place, through one work block that shrinks when columns leave. A
    singular K, such as a cell operator, needs ``b`` and the
    preconditioner's range orthogonal to its kernel: every search
    direction, and so the result, then stays off the kernel with no
    projection here. Raises ``SolverError`` when the
    operator is not positive definite on the search space, and when a
    column stalls: it stops at ``max_iter`` having met no stop rule.
    The returned ``SolveInfo`` records ``k.nnz``.

    ``bound = (m, c)`` adds a second stop rule. It needs K >= m M on the
    search space, M the operator ``precond`` inverts, and m > 0 (m <= 0
    turns the rule off). Then the energy-norm error e of column i obeys
    ||e||_K^2 = r.K^-1 r <= r.M^-1 r / m = r.z / m, from the r.z that CG
    computes anyway. With E = sum_j alpha_j r_j.z_j, the column's energy
    b.x so far, the column also stops once r.z / m <= tau (c_i - E),
    tau = tol / 1000, so one tolerance sets both rules. For a cell's
    correctors c is the diagonal of the zero-corrector energies e0: then
    c_i - E tends to twice the form's diagonal entry A_ii, and as the
    form's error is e_i.K e_j / 2, the rule bounds it by tau max|A| up to
    rounding. The info records m and each column's r.z / (m (c_i - E)) at
    its stop.
    """
    n = k.shape[0]
    if max_iter is None:
        max_iter = max(200, int(50 * np.sqrt(n)))
    # column-wise products and norms go through np.vecdot, which rounds a
    # single column exactly as the 1-D dot product and norm do
    r = np.array(b.reshape(n, -1), dtype=float)
    ncol = r.shape[1]
    bnorm = np.sqrt(np.vecdot(r, r, axis=0))
    res = np.where(bnorm > 0.0, 1.0, 0.0)      # r = b; a zero column is solved
    its = np.zeros(ncol, dtype=np.int64)
    met = np.zeros(ncol, dtype=bool)            # a stop rule, not max_iter
    m = bound[0] if bound is not None else 0.0
    if m > 0.0:
        c = np.asarray(bound[1], dtype=float)
        rel = np.zeros(ncol)                    # r.z / (m (c - E)) at the stop
        tau_m = 1e-3 * tol * m
    out = np.zeros((n, ncol))
    # x, r, p, rz and energy hold the columns still iterating, ``cols``; a
    # column leaves them once it meets a stop rule or reaches max_iter
    cols = np.arange(ncol)
    x = np.zeros((n, ncol))
    work = np.empty((n, ncol))
    z = precond(r)
    p = z.copy()
    rz = np.vecdot(r, z, axis=0)
    energy = np.zeros(ncol)
    it = 0
    while True:
        stop = res[cols] <= tol
        if m > 0.0:
            slack = c[cols] - energy
            stop |= rz <= tau_m * slack
        # a NaN residual stops the column too, unmet
        going = ~stop & (res[cols] > tol) & (it < max_iter)
        if not going.all():
            done = cols[~going]
            out[:, done] = x[:, ~going]
            its[done] = it
            met[done] = stop[~going]
            if m > 0.0:
                rel[done] = rz[~going] / (m * slack[~going])
            cols, x, r, p, rz, energy = (cols[going], x[:, going], r[:, going],
                                         p[:, going], rz[going], energy[going])
            if not cols.size:
                break
            work = np.empty_like(x)
        ap = k @ p
        pap = np.vecdot(p, ap, axis=0)
        if (pap <= 0.0).any():
            j = int(np.argmin(pap))
            raise SolverError(
                "operator is not positive definite on the search space "
                f"(p.Ap = {pap[j]:.3e} in column {cols[j]} at iteration {it})"
            )
        alpha = rz / pap
        energy += alpha * rz
        # in place, bitwise as x += alpha * p, r -= alpha * ap and
        # p = z + beta * p, without a temporary block per update
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(ap, alpha, out=work)
        it += 1
        z = precond(r)
        rz_new = np.vecdot(r, z, axis=0)
        p *= rz_new / rz
        p += z
        rz = rz_new
        res[cols] = np.sqrt(np.vecdot(r, r, axis=0)) / bnorm[cols]
    if not met.all():
        j = int(np.argmax(np.where(met, 0.0, res)))
        raise SolverError(
            f"CG column {j} stalled at residual {res[j]:.3e} "
            f"after {its[j]} iterations"
        )
    info = SolveInfo(ndof=n, nnz=k.nnz, column_iterations=tuple(its.tolist()),
                     column_residuals=tuple(res.tolist()))
    if bound is not None:
        info.lower_bound = float(m)
        if m > 0.0:
            info.column_bounds = tuple(rel.tolist())
    return (out[:, 0] if b.ndim == 1 else out), info


# ---------------------------------------------------------------------------
# cell corrector loads
# ---------------------------------------------------------------------------

def _corner_sum(op: Operator, table: np.ndarray,
                of_elem: np.ndarray) -> np.ndarray:
    """Reduced dof array of the corner sums of element loads: element e
    has row ``of_elem[e]`` of ``table``, (ntab, 8, 3, ...), at its corners.

    Each dof node adds the values of the elements it is a corner of,
    through the stencil's ``inverse_corners``: from zero, corner after
    corner from 7 down to 0, the order in which a loop over the elements
    in flat order meets them, so away from a periodic wrap the sums round
    exactly as that loop's. A node that is no element's corner a adds the
    zero row past the table's last, which leaves its sum as it is: a sum
    from +0.0 is never -0.0.
    """
    ntab, rest = table.shape[0], table.shape[3:]
    tab = np.zeros((8, ntab + 1, table[0, 0].size))  # corner-major, padded
    tab[:, :ntab] = table.reshape(ntab, 8, -1).transpose(1, 0, 2)
    rows = np.append(of_elem, ntab)[op.stencil.inverse_corners.T]
    out = np.zeros((rows.shape[1], tab.shape[2]))
    for c in range(8):
        out += np.take(tab[7 - c], rows[c], axis=0)
    return out.reshape(op.ndof, *rest)


def _load_tables(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Per (tensor, layer) element loads of the six basis strains:
    (ntens, nz, 24, 6) integrals of B^T C eps and (ntens, nz, 6, 6)
    integrals of eps . C eps."""
    kit = op.kit
    nz = op.grid.shape[2]

    # load vectors at the 8 gauss points for each layer: (nz, 8, 6, 6)
    z0 = -0.5 + np.arange(nz) * kit.hz
    x3 = z0[:, None] + kit.zeta_frac[None, :] * kit.hz   # (nz, 8)
    eps = np.zeros((nz, 8, 6, 6))                        # [k, gp, :, load]
    for a in range(3):
        eps[:, :, :, a] = _EMBED[:, a]
        eps[:, :, :, 3 + a] = x3[:, :, None] * _EMBED[:, a]

    # (tensor, layer, gp, 6, 6) stresses, one product per table over all
    # tensors, layers and Gauss points, then the Gauss sum in gp order
    ce = np.stack([t.c for t in op.tensors])[:, None, None] @ eps
    g_tab = (kit.wdet * (kit.b.transpose(0, 2, 1) @ ce)).sum(axis=2)
    e0_tab = (kit.wdet * (eps.transpose(0, 1, 3, 2) @ ce)).sum(axis=2)
    return g_tab, e0_tab


def corrector_loads(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Load couplings for the six membrane/curvature basis strains.

    Returns (G, E0): G[:, a] = integral of B^T C eps_a over the grid
    (so the corrector equation reads K psi_a = -G[:, a]) and
    E0[a, b] = integral of eps_a . C eps_b (twice the zero-corrector energy).
    The basis strain is eps_a(x3) = mandel3(iota(M1_a + x3 M2_a)).
    """
    g_tab, e0_tab = _load_tables(op)
    nx, ny, nz = op.grid.shape
    # (tensor, layer) table index of every element
    index = (op.tensor_of_elem.reshape(nz, ny, nx)
             * nz + np.arange(nz)[:, None, None]).ravel()
    counts = np.bincount(index, minlength=len(g_tab) * nz)
    e0 = np.einsum("tk,tkab->ab", counts.reshape(-1, nz), e0_tab)
    return (_corner_sum(op, g_tab.reshape(-1, 8, 3, 6), index),
            0.5 * (e0 + e0.T))


# ---------------------------------------------------------------------------
# clamped plate solves with body force
# ---------------------------------------------------------------------------

def body_load(op: Operator, f) -> np.ndarray:
    """Load vector of the force functional integral f . (u1, u2, h u3)."""
    f = np.asarray(f, dtype=float).reshape(3)
    nodal = op.kit.wdet * np.array([f[0], f[1], op.scale * f[2]])
    return _corner_sum(op, np.broadcast_to(nodal, (1, 8, 3)),
                       np.zeros(op.tensor_of_elem.size, dtype=np.int32))


def solve_clamped(grid: VoxelGrid, phases: dict[int, HookeTensor3], h: float,
                  f, clamped: tuple[str, ...], tol: float = 1e-12,
                  allow_soft: bool = False):
    """Minimize the force-loaded scaled energy over the clamped plate, by CG
    with the two-level ``PlatePreconditioner``. Every product with K, in CG
    and after it, goes through the operator's ``ElementProduct``, its ``k``.

    Returns (operator, free-dof minimizer, energy value, solver info); the
    energy is the discrete functional value 0.5 u.K u - l.u. The info
    carries the relative ``energy_error`` estimate of the minimizer, which
    is reported, not checked: the residual tolerance stops bounding the
    energy error as the operator's condition number grows.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    op = assemble(grid, phases, scale=h, mode="plate", clamped=clamped,
                  allow_soft=allow_soft)
    ell = body_load(op, f)
    precond = PlatePreconditioner(op)
    u, info = pcg(op.k, ell, precond=precond, tol=tol)
    info.preconditioner = precond.describe()
    ku = op.k @ u
    info.energy_error = energy_error(ell, u, ku, precond)
    energy = float(0.5 * u @ ku - ell @ u)
    return op, u, energy, info


def expand_field(op: Operator, u: np.ndarray) -> np.ndarray:
    """Reduced dof vector -> full nodal field (nx+1, ny+1, nz+1, 3); a cell's
    x = 1 and y = 1 node planes repeat its x = 0 and y = 0 ones."""
    full = np.zeros((op.stencil.rows.size, 3))
    full[op.stencil.rows] = u.reshape(-1, 3)
    full = full.reshape(op.stencil.lattice + (3,))
    if op.mode == "cell":
        full = np.pad(full, ((0, 0), (0, 1), (0, 1), (0, 0)), mode="wrap")
    return full.transpose(2, 1, 0, 3)


def restrict_field(op: Operator, field: np.ndarray) -> np.ndarray:
    """Full nodal field -> reduced dof vector (inverse of expand on its range)."""
    _, ny, nx = op.stencil.lattice
    nodes = field[:nx, :ny].transpose(2, 1, 0, 3).reshape(-1, 3)
    return nodes[op.stencil.rows].ravel()


# ---------------------------------------------------------------------------
# legacy VTK structured-points dump
# ---------------------------------------------------------------------------

def dump_vtk(field: np.ndarray, path, name: str = "displacement") -> None:
    """Write a nodal 3-vector field as legacy ASCII VTK STRUCTURED_POINTS.

    Point order is x-fastest, then y, then z; one VECTORS record; numbers
    printed with %.17g. The points span the unit domain, origin (0, 0, -1/2).
    """
    npx, npy, npz, _ = field.shape
    sx = 1.0 / max(npx - 1, 1)
    sy = 1.0 / max(npy - 1, 1)
    sz = 1.0 / max(npz - 1, 1)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("platehom field\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {npx} {npy} {npz}\n")
        fh.write("ORIGIN 0 0 -0.5\n")
        fh.write(f"SPACING {sx:.17g} {sy:.17g} {sz:.17g}\n")
        fh.write(f"POINT_DATA {npx * npy * npz}\n")
        fh.write(f"VECTORS {name} double\n")
        for k in range(npz):
            for j in range(npy):
                for i in range(npx):
                    v = field[i, j, k]
                    fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
