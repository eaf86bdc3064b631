"""Delta coding (PFPL building block).

PFPL chains an efficient quantiser with delta coding so that smooth data
turns into long runs of zeros before bit-shuffle + zero elimination.  The
forward transform is a backward difference over the flattened stream; the
inverse is an inclusive scan — both single vectorised passes.
"""

from __future__ import annotations

import numpy as np

from ..runtime.memory import SANITIZER


def delta_forward(values: np.ndarray, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """First-order backward difference over the flattened array (int64).

    ``out`` (``int64``, at least ``values.size`` elements, distinct from
    ``values``) receives the differences, making the call allocation-free.
    """
    if SANITIZER.enabled:
        SANITIZER.check_no_alias("delta_forward", out, values=values,
                                 allow_identical=False)
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    out = np.empty_like(flat) if out is None else out.reshape(-1)[:flat.size]
    if flat.size:
        out[0] = flat[0]
        np.subtract(flat[1:], flat[:-1], out=out[1:])
    return out


def delta_inverse(deltas: np.ndarray, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`delta_forward` (an inclusive scan).

    ``out=deltas`` scans in place (clobbering the input).
    """
    if SANITIZER.enabled:
        SANITIZER.check_no_alias("delta_inverse", out, deltas=deltas)
    flat = np.asarray(deltas, dtype=np.int64).reshape(-1)
    if out is None:
        return np.cumsum(flat)
    out = out.reshape(-1)[:flat.size]
    return np.cumsum(flat, out=out)


def delta2_forward(values: np.ndarray) -> np.ndarray:
    """Second-order difference (delta applied twice); used by PFPL variants
    on very smooth fields where first differences are still correlated."""
    return delta_forward(delta_forward(values))


def delta2_inverse(deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta2_forward`."""
    return delta_inverse(delta_inverse(deltas))
