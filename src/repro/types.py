"""Common enums and small value types shared across the framework.

These are deliberately dependency-free so that every subsystem (kernels,
runtime, core, baselines) can import them without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: dtypes the compression pipelines accept as input fields.
SUPPORTED_DTYPES: tuple[np.dtype, ...] = (np.dtype(np.float32), np.dtype(np.float64))


class EbMode(str, enum.Enum):
    """Error-bound interpretation.

    ABS
        The user bound is an absolute tolerance: ``max|x - x'| <= eb``.
    REL
        Value-range relative: the effective absolute bound is
        ``eb * (max(x) - min(x))``.  This is the mode used throughout the
        paper's evaluation ("value-range-based relative error bound";
        PFPL calls it point-wise normalized absolute error, NOA).
    """

    ABS = "abs"
    REL = "rel"


class Stage(str, enum.Enum):
    """The four pipeline stages of §3.3 of the paper."""

    PREPROCESS = "preprocess"
    PREDICTOR = "predictor"
    STATISTICS = "statistics"
    ENCODER = "encoder"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class ErrorBound:
    """A fully-specified error bound.

    Attributes
    ----------
    value:
        The user-provided bound (must be positive and finite).
    mode:
        How ``value`` is interpreted (:class:`EbMode`).
    """

    value: float
    mode: EbMode = EbMode.REL

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value <= 0.0:
            raise ConfigError(f"error bound must be positive and finite, got {self.value!r}")
        if not isinstance(self.mode, EbMode):
            object.__setattr__(self, "mode", EbMode(self.mode))

    def absolute(self, data_min: float, data_max: float) -> float:
        """Resolve to an absolute tolerance given the data range.

        In REL mode a constant field (zero range) degenerates to the raw
        value so that compression of constant data still works.
        """
        if self.mode is EbMode.ABS:
            return float(self.value)
        rng = float(data_max) - float(data_min)
        if rng <= 0.0 or not np.isfinite(rng):
            return float(self.value)
        return float(self.value) * rng


def check_field(data: np.ndarray) -> np.ndarray:
    """Validate an input field for compression.

    Returns a C-contiguous view/copy of ``data``.  Raises
    :class:`~repro.errors.ConfigError` for unsupported dtypes, empty arrays
    or rank > 3 (the predictors implement 1-D, 2-D and 3-D stencils, as in
    cuSZ).
    """
    arr = np.asarray(data)
    if arr.dtype not in SUPPORTED_DTYPES:
        raise ConfigError(f"unsupported dtype {arr.dtype}; expected one of {SUPPORTED_DTYPES}")
    if arr.size == 0:
        raise ConfigError("cannot compress an empty array")
    if arr.ndim < 1 or arr.ndim > 3:
        raise ConfigError(f"only 1-D/2-D/3-D fields are supported, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ConfigError("input field contains NaN or Inf; error-bounded lossy "
                          "compression of non-finite values is undefined")
    return np.ascontiguousarray(arr)
