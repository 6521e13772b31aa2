"""Direct-factorization reference forms for the ``cell-sweep`` workload.

The corrector systems are solved with scipy's sparse LU (``splu``, MMD
ordering on A^T + A) after the three translation dofs of node 0 are removed:
the cell operator's kernel is the three translations and the loads are
orthogonal to it, so pinning one node changes no form. The forms are then
reduced with the same formula the program uses.

The reference is the unshifted cell at unit stiffness scale; a seed's cell is
a periodic shift of it with stiffness scaled by s, so its forms are s times
the reference. To make the stored file anew (about 8 s)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import common

common.pin_threads()

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import inputs  # noqa: E402

STORE = common.HERE / "reference_cell_sweep.json"


def layout_digest() -> str:
    return hashlib.sha256(inputs.sweep_base().tobytes()).hexdigest()


def cell_forms(platehom, grid, phases, gammas) -> list[np.ndarray]:
    """6x6 forms of ``grid`` at each gamma, correctors by sparse LU."""
    fem3d = platehom.fem3d
    forms = []
    for gamma in gammas:
        op = fem3d.assemble(grid, phases, scale=gamma, mode="cell")
        gmat, e0 = fem3d.corrector_loads(op)
        keep = np.arange(3, op.ndof)
        lu = spla.splu(op.k[keep][:, keep].tocsc(), permc_spec="MMD_AT_PLUS_A")
        u = np.zeros((op.ndof, 6))
        u[keep] = lu.solve(-gmat[keep])
        a = 0.5 * (e0 + gmat.T @ u + u.T @ gmat + u.T @ (op.k @ u))
        forms.append(0.5 * (a + a.T))
    return forms


def stored() -> list[np.ndarray]:
    """The stored reference forms, one per ``inputs.SWEEP_GAMMAS``."""
    doc = json.loads(STORE.read_text())
    if (doc["layout_sha256"] != layout_digest()
            or doc["gammas"] != list(inputs.SWEEP_GAMMAS)):
        raise ValueError(f"{STORE.name} is stale: run perfbench/reference.py")
    return [np.array(m).reshape(6, 6) for m in doc["forms"]]


def main() -> int:
    try:
        platehom = common.import_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = inputs.SWEEP_RES
    grid = platehom.microstructure.VoxelGrid(
        nx=n, ny=n, nz=n, data=inputs.sweep_base().ravel())
    hooke = platehom.algebra.isotropic_hooke
    phases = {i + 1: hooke(lam, mu) for i, (lam, mu)
              in enumerate(inputs.phase_params(inputs.phases_doc(1.0)))}
    forms = cell_forms(platehom, grid, phases, inputs.SWEEP_GAMMAS)
    STORE.write_text(json.dumps({
        "gammas": list(inputs.SWEEP_GAMMAS),
        "layout_sha256": layout_digest(),
        "forms": [a.ravel().tolist() for a in forms],
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
