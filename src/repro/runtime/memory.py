"""The runtime contract sanitizer.

The :class:`Sanitizer` is the runtime mirror of fzlint's ``out=``
aliasing rule (FZL016): kernels that take an ``out=`` destination check
it against their inputs before writing.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import SanitizerError
from ..obs.metrics import GLOBAL_METRICS, MetricsRegistry


class Sanitizer:
    """Runtime mirror of the fzlint ``out=`` aliasing contract (FZL016).

    Enabled with ``FZMOD_SANITIZE=1`` (or :func:`set_sanitizing` in
    tests), it enforces at execution time what the static pass proves
    at lint time: kernels call :meth:`check_no_alias`, and an ``out=``
    destination that overlaps an input per ``np.shares_memory`` raises
    :class:`~repro.errors.SanitizerError`, except the documented
    in-place form where input and ``out`` are the *same object*.

    Violations are also counted in the observability registry
    (``sanitizer.aliasing``), so a service can alert on them even where
    the exception is swallowed by a job boundary.  When disabled, every
    check is a single attribute load and boolean test — the hot path
    stays unaffected.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._override: bool | None = None
        registry = metrics if metrics is not None else GLOBAL_METRICS
        self._alias = registry.counter("sanitizer.aliasing")

    @property
    def enabled(self) -> bool:
        """True when contract checks are active (env or override)."""
        if self._override is not None:
            return self._override
        return os.environ.get("FZMOD_SANITIZE", "0") == "1"

    def set_enabled(self, enabled: bool | None) -> None:
        """Force on/off (``None`` returns control to the env var)."""
        self._override = enabled

    def check_no_alias(self, context: str, dest, allow_identical: bool = True,
                       **inputs) -> None:
        """Raise when ``dest`` overlaps an input it is not identical to.

        Identical objects (``arr is dest``) are the documented visible
        in-place idiom (``lorenzo_forward(grid, out=grid)``) and pass
        unless ``allow_identical=False`` (kernels like ``delta_forward``
        whose write order makes even full in-place illegal); any other
        overlap per ``np.shares_memory`` is the hidden aliasing FZL016
        flags statically.
        """
        if not self.enabled or dest is None:
            return
        if not isinstance(dest, np.ndarray):
            return
        for name, arr in inputs.items():
            if arr is None or not isinstance(arr, np.ndarray):
                continue
            if arr is dest and allow_identical:
                continue
            if np.shares_memory(dest, arr):
                self._alias.inc()
                raise SanitizerError(
                    f"{context}: out= destination aliases input "
                    f"`{name}` ({arr.dtype}{arr.shape}); the kernel "
                    f"would read values it already overwrote (static "
                    f"counterpart: FZL016)")


#: Process-wide sanitizer; the hot-path kernels all consult it.
SANITIZER = Sanitizer()


def sanitizing_enabled() -> bool:
    """True when the runtime contract sanitizer is active."""
    return SANITIZER.enabled


def set_sanitizing(enabled: bool | None) -> None:
    """Process-wide switch (tests / harnesses); ``None`` re-reads env."""
    SANITIZER.set_enabled(enabled)
