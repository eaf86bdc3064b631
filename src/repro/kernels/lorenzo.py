"""Multidimensional Lorenzo predictor (cuSZ construction, vectorised).

cuSZ's Lorenzo kernel combines *pre-quantization* with the Lorenzo
finite-difference operator: the input is first snapped to the integer grid
``2*eb`` (see :mod:`repro.kernels.quantize`), then the d-dimensional Lorenzo
residual is taken **on the integers**.  Because the d-dimensional Lorenzo
operator factorises into a composition of 1-D backward differences along
each axis, the forward transform is ``d`` vectorised ``diff`` passes and the
inverse is ``d`` ``cumsum`` passes — both embarrassingly parallel /
scan-parallel, exactly the property the GPU kernel exploits.

The identity used::

    L_d = D_0 ∘ D_1 ∘ ... ∘ D_{d-1}          (D_a = backward diff along axis a)
    L_d^{-1} = S_{d-1} ∘ ... ∘ S_0           (S_a = inclusive scan along axis a)

Expanding ``D_0∘D_1`` for 2-D gives the familiar
``x[i,j] - x[i-1,j] - x[i,j-1] + x[i-1,j-1]`` Lorenzo stencil, and the 3-D
expansion yields the 7-point cuSZ stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..obs.spans import span
from ..runtime.memory import SANITIZER
from . import quantize as q


def lorenzo_forward(grid: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Apply the d-D Lorenzo difference operator to an integer grid.

    Boundary semantics: values outside the array are treated as zero, so the
    first element along each axis keeps its value (matching cuSZ's
    "first element predicts from 0" behaviour).

    ``out`` receives the residuals (``out=grid`` differentiates in place,
    clobbering the input); one grid-sized buffer carries the shifted copy
    every axis pass needs.
    """
    if SANITIZER.enabled:
        SANITIZER.check_no_alias("lorenzo_forward", out, grid=grid)
    grid = np.asarray(grid)
    if grid.dtype != np.int64:
        grid = grid.astype(np.int64)
    if out is None:
        out = grid.copy()
    elif out is not grid:
        out[...] = grid
    shifted = np.empty_like(out)
    for axis in range(out.ndim):
        src = [slice(None)] * out.ndim
        dst = [slice(None)] * out.ndim
        first = [slice(None)] * out.ndim
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
        first[axis] = slice(0, 1)
        shifted[tuple(dst)] = out[tuple(src)]
        shifted[tuple(first)] = 0
        np.subtract(out, shifted, out=out)
    return out


def lorenzo_inverse(deltas: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Invert :func:`lorenzo_forward` via successive inclusive scans.

    ``out=deltas`` scans in place (clobbering the input); the default
    allocates one working copy and scans inside it, instead of one fresh
    array per axis.
    """
    if SANITIZER.enabled:
        SANITIZER.check_no_alias("lorenzo_inverse", out, deltas=deltas)
    deltas = np.asarray(deltas, dtype=np.int64)
    if out is None:
        out = deltas.copy()
    elif out is not deltas:
        out[...] = deltas
    for axis in range(out.ndim - 1, -1, -1):
        np.cumsum(out, axis=axis, out=out)
    return out


@dataclass(frozen=True)
class LorenzoResult:
    """Artifacts produced by the Lorenzo predictor stage.

    Attributes
    ----------
    codes:
        dense unsigned quant-code array (``uint16``/``uint32``), shape of the
        input; alphabet ``[0, 2*radius)`` with ``radius`` == zero residual.
    outliers:
        sparse unpredictable residuals.
    radius:
        the code radius used.
    eb_abs:
        the absolute error bound actually applied.
    shape / dtype:
        original field geometry, needed for reconstruction.
    """

    codes: np.ndarray
    outliers: q.OutlierSet
    radius: int
    eb_abs: float
    shape: tuple[int, ...]
    dtype: np.dtype


def compress(data: np.ndarray, eb_abs: float, radius: int = q.DEFAULT_RADIUS
             ) -> LorenzoResult:
    """Predict + quantise a field with the Lorenzo scheme.

    The returned artifacts reconstruct the field to within ``eb_abs``
    (guaranteed: pre-quantization bounds the error; prediction on integers
    is exact).
    """
    data = np.asarray(data)
    with span("kernel.lorenzo.compress", elements=int(data.size),
              bytes_in=int(data.nbytes)) as sp:
        grid = q.prequantize(data, eb_abs)
        deltas = lorenzo_forward(grid, out=grid)
        codes, outliers = q.split_outliers(deltas, radius, in_place=True)
        sp.set(bytes_out=int(codes.nbytes))
        return LorenzoResult(codes=codes, outliers=outliers, radius=radius,
                             eb_abs=float(eb_abs), shape=data.shape,
                             dtype=data.dtype)


def decompress(result: LorenzoResult, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the field from Lorenzo artifacts.

    ``out`` receives the dequantised field when given (shape/dtype
    matching the artifacts) and is returned; otherwise exactly one
    writable array is materialised for the caller.
    """
    shape = tuple(result.shape)
    recon = np.empty(shape, dtype=result.dtype) if out is None else out
    with span("kernel.lorenzo.decompress", elements=int(recon.size),
              bytes_in=int(result.codes.nbytes),
              bytes_out=int(recon.nbytes)):
        deltas = q.merge_outliers(result.codes, result.outliers,
                                  result.radius)
        if deltas.shape != shape:
            deltas = deltas.reshape(shape)
        grid = lorenzo_inverse(deltas, out=deltas)
        return q.dequantize(grid, result.eb_abs, result.dtype, out=recon)


def decompress_parts(codes: np.ndarray, outliers: q.OutlierSet, radius: int,
                     eb_abs: float, shape: tuple[int, ...], dtype: np.dtype,
                     *, out: np.ndarray | None = None) -> np.ndarray:
    """Positional-artifact variant of :func:`decompress`, for the Lorenzo
    predictor module's decode and the SZ3 baseline."""
    return decompress(LorenzoResult(codes=codes, outliers=outliers, radius=radius,
                                    eb_abs=eb_abs, shape=tuple(shape),
                                    dtype=np.dtype(dtype)), out=out)


def offset1d_forward(grid: np.ndarray) -> np.ndarray:
    """1-D offset (previous-value) prediction over the *flattened* field.

    This is cuSZp2's predictor: regardless of the logical rank, the field is
    treated as a flat sequence and each value is predicted by its
    predecessor.  Cheap (one pass, fuses trivially) but weaker than the
    dimension-aware Lorenzo stencil — which is exactly the
    throughput-vs-ratio trade the paper discusses.
    """
    flat = np.asarray(grid, dtype=np.int64).reshape(-1)
    out = np.empty_like(flat)
    out[0] = flat[0]
    np.subtract(flat[1:], flat[:-1], out=out[1:])
    return out


def offset1d_inverse(deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`offset1d_forward` (an inclusive scan)."""
    return np.cumsum(np.asarray(deltas, dtype=np.int64))


def validate_radius(radius: int) -> int:
    """Shared radius validation for modules exposing it as a knob."""
    if not (1 <= radius <= 2**20):
        raise CodecError(f"quant-code radius {radius} outside supported range")
    return int(radius)
