"""The two LAPACK solves of ``mdp.BorderChain``, from numpy's own OpenBLAS.

``dtbtrs`` solves with a banded triangular matrix (the age ladder) and
``dtrtrs`` with a triangular one (the border).  The numpy wheels ship
OpenBLAS, LAPACK included, next to the package: in ``numpy.libs/`` on Linux
and ``numpy/.dylibs/`` on macOS.  ``import numpy`` has already loaded it, so
calling its Fortran symbols through ``ctypes`` costs neither import time nor
memory, where ``scipy.linalg`` would take most of the package's import time
and half of its resident memory.  A numpy without such a library (conda or
MKL builds, Accelerate on macOS) gets ``scipy.linalg.lapack``'s functions.
So does one whose OpenBLAS exports another spelling than the 64-bit-integer
``scipy_dtbtrs_64_`` of the numpy 2 wheels: the integer width of a Fortran
symbol cannot be checked, and a wrong one corrupts memory silently.

Both take the arguments of their ``scipy.linalg.lapack`` namesakes and
return ``(x, info)`` as those do.  ``x`` is a new column-major array, or ``b``
itself when ``dtbtrs`` may overwrite a column-major float64 ``b``.  A negative
``info``, an illegal argument, raises ``ValueError``.  The integer arguments
are kept per thread and reused, since building ``ctypes`` objects costs
about as much as a small solve.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path

import numpy as np

_SYMBOLS = ("scipy_dtbtrs_64_", "scipy_dtrtrs_64_")


def _fortran(a) -> np.ndarray:
    """``a`` as a writable column-major float64 array, copied only if it is not one."""
    a = np.asfortranarray(a, dtype=np.float64)
    return a if a.flags.writeable else a.copy(order="F")


def _columns(x: np.ndarray) -> int:
    if x.ndim not in (1, 2):
        raise ValueError(f"b must be a vector or a matrix, got {x.ndim} dimensions")
    return x.shape[1] if x.ndim == 2 else 1


def _ptr(a: np.ndarray):
    # The transpose of a column-major array is row-major, which is what from_buffer takes.
    return ctypes.byref(ctypes.c_double.from_buffer(a.T))


def _checked(name: str, x: np.ndarray, info: int) -> tuple[np.ndarray, int]:
    if info < 0:
        raise ValueError(f"{name}: argument {-info} has an illegal value")
    return x, info


def _bind(tbtrs, trtrs):
    # No argtypes: every argument is a ctypes object of the width LAPACK reads,
    # each size comes off the arrays passed, and checking each argument would
    # cost more than a small solve.
    tbtrs.restype = trtrs.restype = None
    one = ctypes.c_size_t(1)  # hidden length of each character argument
    char = {c: ctypes.c_char_p(c.encode()) for c in "ULNTC"}
    local = threading.local()

    def ints(*values):
        """This thread's integer arguments, set to ``values``, and a reference to each."""
        try:
            cells, refs = local.ints
        except AttributeError:
            cells = (ctypes.c_int64 * 6)()
            cells, refs = local.ints = cells, [ctypes.byref(cells, 8 * i) for i in range(6)]
        cells[: len(values)] = values
        return cells, refs

    def dtbtrs(ab, b, uplo="U", trans="N", diag="N", overwrite_b=0):
        ab = _fortran(ab)
        in_place = overwrite_b and isinstance(b, np.ndarray) and b.dtype == np.float64
        if in_place and b.flags.f_contiguous and b.flags.writeable:
            x = b
        else:
            x = np.array(b, dtype=np.float64, order="F")
        (ldab, n), nrhs = ab.shape, _columns(x)
        if n == 0 or nrhs == 0:
            return x, 0
        cells, (r_info, r_n, r_kd, r_nrhs, r_ldab, r_ldb) = ints(0, n, ldab - 1, nrhs, ldab, len(x))
        tbtrs(char[uplo], char[trans], char[diag], r_n, r_kd, r_nrhs, _ptr(ab), r_ldab,
              _ptr(x), r_ldb, r_info, one, one, one)
        return _checked("dtbtrs", x, cells[0])

    def dtrtrs(a, b, lower=0, trans=0, unitdiag=0):
        a = _fortran(a)
        x = np.array(b, dtype=np.float64, order="F")
        (lda, n), nrhs = a.shape, _columns(x)
        if n == 0 or nrhs == 0:
            return x, 0
        cells, (r_info, r_n, r_nrhs, r_lda, r_ldb, _) = ints(0, n, nrhs, lda, len(x))
        trtrs(char["UL"[bool(lower)]], char["NTC"[trans]], char["NU"[bool(unitdiag)]], r_n, r_nrhs,
              _ptr(a), r_lda, _ptr(x), r_ldb, r_info, one, one, one)
        return _checked("dtrtrs", x, cells[0])

    return dtbtrs, dtrtrs


def load(candidates):
    """``(dtbtrs, dtrtrs)`` from the first of the library paths ``candidates`` that has both.

    Without one, scipy's.
    """
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
            symbols = [getattr(lib, name) for name in _SYMBOLS]
        except (OSError, AttributeError):
            continue
        return _bind(*symbols)
    from scipy.linalg.lapack import dtbtrs, dtrtrs

    return dtbtrs, dtrtrs


def numpy_libraries() -> list[Path]:
    """The OpenBLAS libraries bundled with the imported numpy."""
    root = Path(np.__file__).parent
    return sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*"))


dtbtrs, dtrtrs = load(numpy_libraries())
