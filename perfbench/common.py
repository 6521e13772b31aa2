"""Checkout location, thread pinning and program import for the benchmark.

Import this module before numpy: ``pin_threads`` only takes effect when the
BLAS library has not been loaded yet.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent            # root of the checkout that holds the program
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"     # every file the benchmark writes goes here

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread for this process and its
    children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


class MissingProgram(RuntimeError):
    """The checkout does not contain the program's sources."""


def import_program():
    """Import ``platehom`` and its command line from this checkout's ``src``
    and nowhere else."""
    init = SRC / "platehom" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no program sources at {init}")
    sys.path.insert(0, str(SRC))
    import platehom
    import platehom.cli  # noqa: F401  (not imported by the package)

    if Path(platehom.__file__).resolve() != init.resolve():
        raise MissingProgram(f"platehom imported from {platehom.__file__}, "
                             f"expected {init}")
    return platehom
