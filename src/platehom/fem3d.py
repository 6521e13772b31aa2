"""Scaled-gradient linear elasticity on voxel grids with trilinear hexahedra.

The plate/cell geometry is always the fixed unit domain: in-plane the unit
square (cell mode: unit torus), thickness I = [-1/2, 1/2]. Thinness enters
only through the scaled gradient (d1, d2, (1/s) d3): the element
strain-displacement matrix carries the 1/s on its z-derivative column, so one
mesh serves every scale.

Dof layout is node-major with interleaved components (ux, uy, uz per node).
Cell mode identifies the x=0/x=1 and y=0/y=1 node planes (periodic in-plane,
natural top/bottom) and its operator kernel is the three translations,
handled by mean-projection inside CG. Plate mode eliminates all components
on the clamped edge planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    n: np.ndarray       # (8 gp, 8) shape function values
    zeta_frac: np.ndarray  # (8 gp,) z position of gp as fraction of hz in [0,1]
    hx: float
    hy: float
    hz: float
    scale: float


def _local_corners() -> np.ndarray:
    # local node order: x fastest, then y, then z
    out = np.zeros((8, 3))
    for a in range(8):
        out[a] = (a & 1, (a >> 1) & 1, (a >> 2) & 1)
    return out


def _b_at(point, jac: np.ndarray) -> np.ndarray:
    """6x24 Mandel strain-displacement matrix at a reference point."""
    corners = 2.0 * _local_corners() - 1.0
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


def element_kit(hx: float, hy: float, hz: float, scale: float,
                ans_shear: bool = False) -> ElementKit:
    """Strain-displacement matrices at the 2x2x2 Gauss points.

    With ``ans_shear`` the two transverse-shear rows are sampled on the
    element midplanes (e13 at xi = 0, e23 at eta = 0), the assumed-natural-
    strain treatment that removes parasitic shear under bending. Quadrature
    stays full 2x2x2; constant strains are reproduced exactly and a free
    element keeps exactly the six rigid-body zero-energy modes. Strain fields
    without in-plane variation are untouched, so cell problems with uniform
    loads are identical to the plain trilinear element.
    """
    corners = 2.0 * _local_corners() - 1.0  # (+-1)^3
    gps = GAUSS * corners                   # 2x2x2 Gauss points, same ordering
    nmat = np.zeros((8, 8))
    bmat = np.zeros((8, 6, 24))
    jac = np.array([2.0 / hx, 2.0 / hy, 2.0 / (hz * scale)])
    for g, (xi, eta, zeta) in enumerate(gps):
        for a, (xa, ya, za) in enumerate(corners):
            nmat[g, a] = (1 + xa * xi) * (1 + ya * eta) * (1 + za * zeta) / 8.0
        bmat[g] = _b_at((xi, eta, zeta), jac)
        if ans_shear:
            bmat[g, 3, :] = _b_at((xi, 0.0, zeta), jac)[3, :]
            bmat[g, 4, :] = _b_at((0.0, eta, zeta), jac)[4, :]
    zeta_frac = (gps[:, 2] + 1.0) / 2.0
    return ElementKit(b=bmat, wdet=hx * hy * hz / 8.0, n=nmat,
                      zeta_frac=zeta_frac, hx=hx, hy=hy, hz=hz, scale=scale)


def element_stiffness(kit: ElementKit, hooke: HookeTensor3) -> np.ndarray:
    ke = np.zeros((24, 24))
    for g in range(8):
        bg = kit.b[g]
        ke += kit.wdet * (bg.T @ hooke.c @ bg)
    return 0.5 * (ke + ke.T)


@dataclass
class Operator:
    """Assembled stiffness with its dof bookkeeping.

    ``k`` acts on the reduced dof vector (periodic dofs in cell mode, free
    dofs in plate mode); the quadratic energy of a field u is 0.5 u.K u.
    """

    k: sp.csr_matrix
    mode: str
    scale: float
    grid: VoxelGrid
    kit: ElementKit
    edof: np.ndarray          # (nelem, 24) reduced dof ids (-1 = eliminated)
    tensors: list[HookeTensor3]
    tensor_of_elem: np.ndarray  # (nelem,) index into tensors
    ndof: int
    clamped: tuple[str, ...] = ()
    node_free: np.ndarray | None = None  # plate mode: free flag per full node

    def project(self, x: np.ndarray) -> np.ndarray:
        """Remove the translation kernel (cell mode); identity in plate mode.

        A 2-D ``x`` holds one field per column; each loses its own mean.
        """
        if self.mode != "cell":
            return x
        nodes = x.reshape(-1, 3, *x.shape[1:])
        return (nodes - nodes.mean(axis=0)).reshape(x.shape)

    def energy(self, u: np.ndarray) -> float:
        return float(0.5 * u @ (self.k @ u))


def _cell_node_ids(nx: int, ny: int, nz: int) -> np.ndarray:
    """(nx+1, ny+1, nz+1) periodic node ids (x/y wrapped)."""
    i = np.arange(nx + 1) % nx
    j = np.arange(ny + 1) % ny
    k = np.arange(nz + 1)
    return (i[:, None, None] + nx * (j[None, :, None] + ny * k[None, None, :]))


def _plate_node_ids(nx: int, ny: int, nz: int) -> np.ndarray:
    i = np.arange(nx + 1)
    j = np.arange(ny + 1)
    k = np.arange(nz + 1)
    return (i[:, None, None] + (nx + 1) * (j[None, :, None] + (ny + 1) * k[None, None, :]))


def _element_dofs(node_ids: np.ndarray, nx: int, ny: int, nz: int) -> np.ndarray:
    """(nelem, 24) dof ids from a (nx+1, ny+1, nz+1) node-id lattice."""
    corners = _local_corners().astype(int)
    ii = np.arange(nx)
    jj = np.arange(ny)
    kk = np.arange(nz)
    ei, ej, ek = np.meshgrid(ii, jj, kk, indexing="ij")
    # element order must match VoxelGrid flat order: x fastest, then y, then z
    ei = ei.transpose(2, 1, 0).ravel()
    ej = ej.transpose(2, 1, 0).ravel()
    ek = ek.transpose(2, 1, 0).ravel()
    nodes = np.empty((ei.size, 8), dtype=np.int64)
    for a, (dx, dy, dz) in enumerate(corners):
        nodes[:, a] = node_ids[ei + dx, ej + dy, ek + dz]
    dofs = (3 * nodes[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 24)
    return dofs


def assemble(grid: VoxelGrid, phases: dict[int, HookeTensor3], scale: float,
             mode: str | None = None, clamped: tuple[str, ...] = (),
             allow_soft: bool = False) -> Operator:
    """Assemble the scaled-gradient stiffness operator for a voxel grid.

    ``scale`` is gamma (cell mode) or h (plate mode). Plate mode requires a
    nonempty set of clamped edges from {"left", "right", "bottom", "top"}.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    mode = mode or grid.domain
    nx, ny, nz = grid.shape

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
    tensor_of_elem = np.searchsorted(np.array(ids), grid.data).astype(np.int32)

    # plate mode uses assumed-natural-strain transverse shear: the thin-limit
    # bending response at coarse in-plane resolution is otherwise polluted by
    # parasitic shear; cell problems see uniform loads and are unaffected.
    kit = element_kit(1.0 / nx, 1.0 / ny, 1.0 / nz, scale,
                      ans_shear=(mode == "plate"))
    kes = np.stack([element_stiffness(kit, t) for t in tensors])

    if mode == "cell":
        node_ids = _cell_node_ids(nx, ny, nz)
        ndof = 3 * nx * ny * (nz + 1)
        edof = _element_dofs(node_ids, nx, ny, nz)
        node_free = None
    elif mode == "plate":
        if not clamped:
            raise ValueError("plate mode requires at least one clamped edge")
        bad = [e for e in clamped if e not in EDGES]
        if bad:
            raise ValueError(f"unknown edge names {bad}")
        node_ids = _plate_node_ids(nx, ny, nz)
        edof_full = _element_dofs(node_ids, nx, ny, nz)
        free_node = np.ones(((nx + 1), (ny + 1), (nz + 1)), dtype=bool)
        if "left" in clamped:
            free_node[0, :, :] = False
        if "right" in clamped:
            free_node[nx, :, :] = False
        if "bottom" in clamped:
            free_node[:, 0, :] = False
        if "top" in clamped:
            free_node[:, ny, :] = False
        free_flat = np.zeros((nx + 1) * (ny + 1) * (nz + 1), dtype=bool)
        free_flat[node_ids[free_node]] = True
        dof_free = np.repeat(free_flat, 3)
        new_id = -np.ones(dof_free.size, dtype=np.int64)
        new_id[dof_free] = np.arange(dof_free.sum())
        edof = new_id[edof_full]
        ndof = int(dof_free.sum())
        node_free = free_flat
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # the triplets set the peak memory of a solve; scipy narrows 64-bit
    # indices to 32 bits with a copy, so they are built 32-bit
    index = edof.astype(np.int32)
    vals = kes[tensor_of_elem]  # (nelem, 24, 24)
    rows = np.broadcast_to(index[:, :, None], vals.shape)
    cols = np.broadcast_to(index[:, None, :], vals.shape)
    if mode == "plate":
        keep = (rows >= 0) & (cols >= 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    k = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(ndof, ndof)).tocsr()
    k.sum_duplicates()

    return Operator(k=k, mode=mode, scale=scale, grid=grid, kit=kit, edof=edof,
                    tensors=tensors, tensor_of_elem=tensor_of_elem, ndof=ndof,
                    clamped=tuple(clamped), node_free=node_free)


# ---------------------------------------------------------------------------
# FFT reference-medium preconditioner for cell operators
# ---------------------------------------------------------------------------

def reference_tensor(tensors: list[HookeTensor3]) -> HookeTensor3:
    """Log-Euclidean mean expm(mean(logm(c_p))) of the phase stiffnesses.

    Each phase's eigenvalues are clamped from below at 1e-12 times its
    largest, so soft phases stay finite; a phase with no stiffness at all
    is left out. For isotropic phases with lambda = mu this is the
    geometric mean.
    """
    logs = []
    for t in tensors:
        w, v = np.linalg.eigh(t.c)
        if w[-1] > 0.0:
            logs.append((v * np.log(np.maximum(w, 1e-12 * w[-1]))) @ v.T)
    w, v = np.linalg.eigh(np.mean(logs, axis=0))
    return HookeTensor3.from_mandel((v * np.exp(w)) @ v.T)


class ReferencePreconditioner:
    """Inverse of the cell operator of one homogeneous reference tensor.

    For a homogeneous tensor the periodic cell operator is block-circulant
    in-plane: a 2-D Fourier transform over (y, x) splits it into one
    3(nz+1)-square system per wavenumber, which couples neighbouring node
    planes only. Their inverses are stored, complex, (nx//2+1) * ny *
    (3(nz+1))^2 * 16 bytes; at wavenumber (0, 0), which carries the three
    translations, the pseudo-inverse. Applying it is rfft2, one batched
    product over all columns, irfft2 (Moulinec & Suquet 1998; Ladecky et
    al. 2023).
    """

    name = "fft-reference"

    def __init__(self, op: Operator):
        if op.mode != "cell":
            raise ValueError("the FFT reference preconditioner needs a cell operator")
        nx, ny, nz = op.grid.shape
        self.shape = (nz + 1, ny, nx)
        self.c0 = reference_tensor(op.tensors)
        ke = element_stiffness(op.kit, self.c0).reshape(8, 3, 8, 3)
        corner = _local_corners().astype(int)
        # K u for u = exp(i theta.(x, y)) u_hat picks up exp(i theta.(b - a))
        # between local corners a (row) and b (column)
        tx = 2.0 * np.pi * np.fft.rfftfreq(nx)
        ty = 2.0 * np.pi * np.fft.fftfreq(ny)
        dxy = corner[None, :, :2] - corner[:, None, :2]            # (a, b, 2)
        phase = np.exp(1j * (ty[:, None, None, None] * dxy[..., 1]
                             + tx[None, :, None, None] * dxy[..., 0]))
        plane = np.eye(2)[corner[:, 2]]                            # (a, z-plane)
        layer = np.einsum("acbd,yxab,az,bw->yxzcwd", ke, phase, plane, plane)
        layer = layer.reshape(ny, nx // 2 + 1, 6, 6)
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
        rh = np.fft.rfft2(r.reshape(nz1, ny, nx, 3, -1), axes=(1, 2))
        rh = rh.transpose(1, 2, 0, 3, 4).reshape(ny, nx // 2 + 1, 3 * nz1, -1)
        zh = (self.inv @ rh).reshape(ny, nx // 2 + 1, nz1, 3, -1)
        z = np.fft.irfft2(zh.transpose(2, 0, 1, 3, 4), s=(ny, nx), axes=(1, 2))
        return z.reshape(r.shape)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients with kernel projection
# ---------------------------------------------------------------------------

@dataclass
class SolveInfo:
    """Outcome of a CG solve; a 2-D right-hand side sums over its columns."""

    iterations: int          # iterations, summed over the columns
    residual: float          # largest relative residual ||r|| / ||b||
    converged: bool          # every column reached the tolerance
    column_iterations: tuple[int, ...]
    column_residuals: tuple[float, ...]
    preconditioner: dict | None = None  # its describe(), set by ``solve``


def _jacobi(k: sp.csr_matrix):
    d = k.diagonal().copy()
    d[d <= 0.0] = 1.0
    inv = 1.0 / d

    def apply(r):
        return inv[:, None] * r

    return apply


def _block_jacobi(k: sp.csr_matrix):
    n = k.shape[0]
    if n % 3:
        return _jacobi(k)
    nb = n // 3
    coo = k.tocoo()
    same = (coo.row // 3) == (coo.col // 3)
    blocks = np.zeros((nb, 3, 3))
    np.add.at(blocks, (coo.row[same] // 3, coo.row[same] % 3, coo.col[same] % 3),
              coo.data[same])
    # guard empty blocks (fully eliminated nodes never appear here)
    sing = np.abs(np.linalg.det(blocks)) < 1e-300
    blocks[sing] = np.eye(3)
    inv = np.linalg.inv(blocks)

    def apply(r):
        return np.einsum("nij,njc->nic", inv, r.reshape(nb, 3, -1)).reshape(r.shape)

    return apply


class PlatePreconditioner:
    """Two-level additive preconditioner M = BJ + P Kc^-1 P^T for a clamped
    plate operator (two-level additive Schwarz; Toselli & Widlund 2005,
    ch. 2-3).

    BJ is the 3x3 block-Jacobi smoother. The coarse space is the part of the
    Griso decomposition that is linear in x3, hat + r ^ x3 e3: per free node
    column (one whose bottom node is free) three translations and the two
    rotation components, u1 += x3 r2 and u2 -= x3 r1, the sign convention of
    ``convergence.GrisoParts.elementary``. These fields are the near-kernel
    that makes the scaled operator ill-conditioned as h -> 0; the coarse
    operator Kc = P^T K P is factored once.
    """

    name = "two-level"

    def __init__(self, op: Operator):
        if op.mode != "plate":
            raise ValueError("the two-level preconditioner needs a plate operator")
        nx, ny, nz = op.grid.shape
        ncol = int(op.node_free[:(nx + 1) * (ny + 1)].sum())   # bottom layer
        # free nodes are numbered in flat order and every layer has the same
        # free columns, so layer k's node of coarse column c is k * ncol + c
        node = np.arange(nz + 1)[:, None] * ncol + np.arange(ncol)[None, :]
        z = np.broadcast_to(np.linspace(-0.5, 0.5, nz + 1)[:, None], node.shape)
        col = np.broadcast_to(5 * np.arange(ncol)[None, :], node.shape)
        rows = np.concatenate([3 * node + c for c in (0, 1, 2, 1, 0)], axis=None)
        cols = np.concatenate([col + j for j in range(5)], axis=None)
        vals = np.concatenate([np.ones((3,) + node.shape), [-z, z]], axis=None)
        self.p = sp.csr_matrix((vals, (rows, cols)), shape=(op.ndof, 5 * ncol))
        self.p.eliminate_zeros()
        # imported here: it adds about 0.1 s and 10 MB to every program start
        from scipy.sparse.linalg import splu

        kc = (self.p.T @ (op.k @ self.p)).tocsc()
        self.coarse = splu(kc, permc_spec="MMD_AT_PLUS_A")
        self.smoother = _block_jacobi(op.k)

    def describe(self) -> dict:
        """Name, smoother and coarse dof count."""
        return {"name": self.name, "smoother": "block-jacobi",
                "coarse_dofs": self.p.shape[1]}

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.smoother(r) + self.p @ self.coarse.solve(self.p.T @ r)


def pcg(k: sp.csr_matrix, b: np.ndarray, precond="jacobi",
        tol: float = 1e-10, max_iter: int | None = None,
        project=None) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned conjugate gradients on one or several right-hand sides.

    ``precond`` is "jacobi", "block" (3x3 block-Jacobi) or a callable
    applying the preconditioner to an (n, m) block. A 2-D ``b`` is solved
    column by column with column-wise step lengths, one sparse product per
    iteration for all unconverged columns; a column stops once its relative
    residual reaches ``tol`` or after ``max_iter`` iterations. If ``project``
    is given it must be the orthogonal projector onto the complement of the
    operator kernel; it is applied to the right-hand side, to K p, to the
    preconditioned residual and to the result. Raises ``SolverError`` when
    the operator is not positive definite on the search space.
    """
    n = k.shape[0]
    if max_iter is None:
        max_iter = max(200, int(50 * np.sqrt(n)))
    if callable(precond):
        apply_m = precond
    elif precond == "block":
        apply_m = _block_jacobi(k)
    else:
        apply_m = _jacobi(k)

    def precondition(res_block):
        z = apply_m(res_block)
        return z if project is None else project(z)

    if project is not None:
        b = project(b)
    # column-wise products and norms go through np.vecdot, which rounds a
    # single column exactly as the 1-D dot product and norm do
    r = np.array(b.reshape(n, -1), dtype=float)
    ncol = r.shape[1]
    bnorm = np.sqrt(np.vecdot(r, r, axis=0))
    res = np.where(bnorm > 0.0, 1.0, 0.0)      # r = b; a zero column is solved
    its = np.zeros(ncol, dtype=np.int64)
    out = np.zeros((n, ncol))
    # x, r, p and rz hold the columns still iterating, ``cols``; a column
    # leaves them once it converges or reaches max_iter
    cols = np.arange(ncol)
    x = np.zeros((n, ncol))
    z = precondition(r)
    p = z.copy()
    rz = np.vecdot(r, z, axis=0)
    it = 0
    while True:
        going = (res[cols] > tol) & (it < max_iter)
        if not going.all():
            done = cols[~going]
            out[:, done] = x[:, ~going]
            its[done] = it
            cols, x, r, p, rz = (cols[going], x[:, going], r[:, going],
                                 p[:, going], rz[going])
            if not cols.size:
                break
        ap = k @ p
        if project is not None:
            ap = project(ap)
        pap = np.vecdot(p, ap, axis=0)
        if (pap <= 0.0).any():
            j = int(np.argmin(pap))
            raise SolverError(
                "operator is not positive definite on the search space "
                f"(p.Ap = {pap[j]:.3e} in column {cols[j]} at iteration {it})"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        it += 1
        z = precondition(r)
        rz_new = np.vecdot(r, z, axis=0)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res[cols] = np.sqrt(np.vecdot(r, r, axis=0)) / bnorm[cols]
    if project is not None:
        out = project(out)
    info = SolveInfo(iterations=int(its.sum()), residual=float(res.max()),
                     converged=bool(np.all(res <= tol)),
                     column_iterations=tuple(its.tolist()),
                     column_residuals=tuple(res.tolist()))
    return (out[:, 0] if b.ndim == 1 else out), info


def solve(op: Operator, rhs: np.ndarray, tol: float = 1e-10,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveInfo]:
    """Solve K u = rhs; a cell is preconditioned by its
    ``ReferencePreconditioner``, its kernel handled by projection, a plate by
    its ``PlatePreconditioner``.

    Never raises on slow convergence: the achieved residual is reported and
    the caller decides.
    """
    if op.mode == "cell":
        precond, project = ReferencePreconditioner(op), op.project
    else:
        precond, project = PlatePreconditioner(op), None
    u, info = pcg(op.k, rhs, precond=precond, tol=tol, max_iter=max_iter,
                  project=project)
    info.preconditioner = precond.describe()
    return u, info


# ---------------------------------------------------------------------------
# cell corrector loads
# ---------------------------------------------------------------------------

def corrector_loads(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Load couplings for the six membrane/curvature basis strains.

    Returns (G, E0): G[:, a] = integral of B^T C eps_a over the grid
    (so the corrector equation reads K psi_a = -G[:, a]) and
    E0[a, b] = integral of eps_a . C eps_b (twice the zero-corrector energy).
    The basis strain is eps_a(x3) = mandel3(iota(M1_a + x3 M2_a)).
    """
    grid, kit = op.grid, op.kit
    nx, ny, nz = grid.shape
    ntens = len(op.tensors)

    # load vectors at the 8 gauss points for each layer: (nz, 8, 6, 6)
    z0 = -0.5 + np.arange(nz) * kit.hz
    x3 = z0[:, None] + kit.zeta_frac[None, :] * kit.hz   # (nz, 8)
    eps = np.zeros((nz, 8, 6, 6))                        # [k, gp, :, load]
    for a in range(3):
        eps[:, :, :, a] = _EMBED[:, a]
        eps[:, :, :, 3 + a] = x3[:, :, None] * _EMBED[:, a]

    g_tab = np.zeros((ntens, nz, 24, 6))
    e0_tab = np.zeros((ntens, nz, 6, 6))
    for t, hooke in enumerate(op.tensors):
        for g in range(8):
            ce = np.einsum("ij,kjl->kil", hooke.c, eps[:, g])     # (nz, 6, 6)
            g_tab[t] += kit.wdet * np.einsum("ia,kil->kal", kit.b[g], ce)
            e0_tab[t] += kit.wdet * np.einsum("kia,kil->kal", eps[:, g], ce)

    layer_of_elem = np.repeat(np.arange(nz), nx * ny)
    gvals = g_tab[op.tensor_of_elem, layer_of_elem]   # (nelem, 24, 6)
    gmat = np.zeros((op.ndof, 6))
    if op.mode == "plate":
        keep = op.edof >= 0
        np.add.at(gmat, op.edof[keep], gvals[keep])
    else:
        np.add.at(gmat, op.edof, gvals)

    counts = np.zeros((ntens, nz), dtype=np.int64)
    np.add.at(counts, (op.tensor_of_elem, layer_of_elem), 1)
    e0 = np.einsum("tk,tkab->ab", counts, e0_tab)
    return gmat, 0.5 * (e0 + e0.T)


# ---------------------------------------------------------------------------
# clamped plate solves with body force
# ---------------------------------------------------------------------------

def body_load(op: Operator, f) -> np.ndarray:
    """Load vector of the force functional integral f . (u1, u2, h u3)."""
    f = np.asarray(f, dtype=float).reshape(3)
    nodal = op.kit.wdet * np.array([f[0], f[1], op.scale * f[2]])
    ell = np.zeros(op.ndof)
    vals = np.broadcast_to(np.tile(nodal, 8), (op.edof.shape[0], 24))
    if op.mode == "plate":
        keep = op.edof >= 0
        np.add.at(ell, op.edof[keep], vals[keep])
    else:
        np.add.at(ell, op.edof, vals)
    return ell


def solve_clamped(grid: VoxelGrid, phases: dict[int, HookeTensor3], h: float,
                  f, clamped: tuple[str, ...], tol: float = 1e-12,
                  max_iter: int | None = None, allow_soft: bool = False):
    """Minimize the force-loaded scaled energy over the clamped plate, by CG
    with the two-level ``PlatePreconditioner``.

    Returns (operator, free-dof minimizer, energy value, solver info); the
    energy is the discrete functional value 0.5 u.K u - l.u.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    op = assemble(grid, phases, scale=h, mode="plate", clamped=clamped,
                  allow_soft=allow_soft)
    ell = body_load(op, f)
    u, info = solve(op, ell, tol=tol, max_iter=max_iter)
    if not info.converged:
        raise SolverError(
            f"clamped solve stalled at residual {info.residual:.3e} "
            f"after {info.iterations} iterations"
        )
    energy = float(0.5 * u @ (op.k @ u) - ell @ u)
    return op, u, energy, info


def expand_field(op: Operator, u: np.ndarray) -> np.ndarray:
    """Reduced dof vector -> full nodal field (nx+1, ny+1, nz+1, 3)."""
    nx, ny, nz = op.grid.shape
    if op.mode == "cell":
        node_ids = _cell_node_ids(nx, ny, nz)
        vals = u.reshape(-1, 3)
        return vals[node_ids]
    full = np.zeros(((nx + 1) * (ny + 1) * (nz + 1), 3))
    full[op.node_free] = u.reshape(-1, 3)
    node_ids = _plate_node_ids(nx, ny, nz)
    return full[node_ids]


def restrict_field(op: Operator, field: np.ndarray) -> np.ndarray:
    """Full nodal field -> reduced dof vector (inverse of expand on its range)."""
    nx, ny, nz = op.grid.shape
    if op.mode == "cell":
        vals = field[:nx, :ny, :, :]
        # transpose to [k, j, i, comp]: flat node order i + nx*(j + ny*k)
        return np.ascontiguousarray(vals.transpose(2, 1, 0, 3)).reshape(-1)
    flat = np.ascontiguousarray(field.transpose(2, 1, 0, 3)).reshape(-1, 3)
    return flat[op.node_free].ravel()


# ---------------------------------------------------------------------------
# legacy VTK structured-points dump
# ---------------------------------------------------------------------------

def dump_vtk(field: np.ndarray, path, name: str = "displacement",
             origin=(0.0, 0.0, -0.5), title: str = "platehom field") -> None:
    """Write a nodal 3-vector field as legacy ASCII VTK STRUCTURED_POINTS.

    Point order is x-fastest, then y, then z; one VECTORS record; numbers
    printed with %.17g.
    """
    npx, npy, npz, _ = field.shape
    sx = 1.0 / max(npx - 1, 1)
    sy = 1.0 / max(npy - 1, 1)
    sz = 1.0 / max(npz - 1, 1)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {npx} {npy} {npz}\n")
        fh.write(f"ORIGIN {origin[0]:.17g} {origin[1]:.17g} {origin[2]:.17g}\n")
        fh.write(f"SPACING {sx:.17g} {sy:.17g} {sz:.17g}\n")
        fh.write(f"POINT_DATA {npx * npy * npz}\n")
        fh.write(f"VECTORS {name} double\n")
        for k in range(npz):
            for j in range(npy):
                for i in range(npx):
                    v = field[i, j, k]
                    fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
