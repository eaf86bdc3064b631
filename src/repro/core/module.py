"""The FZModules module interface: one small ABC per pipeline stage.

§3.3 of the paper decomposes a compressor into **preprocessing →
prediction → lossless encoding → secondary lossless encoding**, with
*statistics* modules (histograms) feeding encoders that need global data
statistics.  Each stage here is an abstract class with a narrow, typed
contract, so new modules are added by implementing a handful of methods and
registering the instance (see :mod:`repro.core.registry`), which is the
framework's extensibility story.

Modules must be stateless between calls (everything flows through the
artifacts), which is what lets the compiled plan call any module as a
step and lets shard and slab threads share one instance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..kernels.histogram import HistogramResult
from ..kernels.quantize import OutlierSet
from ..types import ErrorBound, Stage


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of the preprocessing stage.

    ``eb_abs`` is the resolved absolute bound the rest of the pipeline
    enforces; ``meta`` carries anything decompression needs (nothing, for
    the current modules: the bound itself is stored in the header).
    """

    data: np.ndarray
    eb_abs: float
    meta: dict = field(default_factory=dict)


@dataclass
class PredictorArtifacts:
    """What a predictor hands to the encoding stages.

    Attributes
    ----------
    codes:
        dense unsigned quant codes (uint16/uint32), flattened stream.
    outliers:
        sparse unpredictable residuals.
    anchors:
        raw anchor values (interpolation predictors) or ``None``.
    aux:
        additional named integer/float side-channel arrays the predictor
        needs back verbatim at decode time (e.g. the regression
        predictor's quantised coefficient stream).  Serialised losslessly
        by the container layer.
    meta:
        predictor-specific scalars needed for decoding (e.g. max_level).
    """

    codes: np.ndarray
    outliers: OutlierSet
    anchors: np.ndarray | None = None
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EncodedStream:
    """Encoder output: named binary sections plus scalar metadata."""

    sections: dict[str, bytes]
    meta: dict = field(default_factory=dict)

    def nbytes(self) -> int:
        """Total bytes across all sections."""
        return sum(len(v) for v in self.sections.values())


class Module(abc.ABC):
    """Base for every pipeline module."""

    #: which pipeline stage the module belongs to
    stage: Stage
    #: registry key (unique within the stage)
    name: str

    def describe(self) -> str:
        """One-line human description (used by the CLI module listing)."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.stage.value}:{self.name}>"


class PreprocessModule(Module):
    """Resolves the user error bound (and any data normalisation)."""

    stage = Stage.PREPROCESS

    @abc.abstractmethod
    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        """Resolve ``eb`` against ``data`` and return the working field."""

    def backward(self, data: np.ndarray, meta: dict) -> np.ndarray:
        """Invert any value transform applied by :meth:`forward`.

        Identity by default (the abs/rel modules only resolve the bound);
        transforming preprocessors (e.g. the log transform behind the
        point-wise-relative mode) override this.  ``meta`` is the dict the
        forward pass stored in the container.
        """
        return data


class PredictorModule(Module):
    """Prediction + error-controlled quantisation (the lossy stage)."""

    stage = Stage.PREDICTOR

    @abc.abstractmethod
    def encode(self, data: np.ndarray, eb_abs: float, radius: int
               ) -> PredictorArtifacts:
        """Produce quant codes + outliers for ``data``."""

    @abc.abstractmethod
    def decode(self, artifacts: PredictorArtifacts, shape: tuple[int, ...],
               dtype: np.dtype, eb_abs: float, radius: int) -> np.ndarray:
        """Reconstruct the field from artifacts (within ``eb_abs``)."""


class StatisticsModule(Module):
    """Global data analysis feeding encoders (histograms)."""

    stage = Stage.STATISTICS

    @abc.abstractmethod
    def collect(self, codes: np.ndarray, num_bins: int) -> HistogramResult:
        """Histogram the quant codes."""


class EncoderModule(Module):
    """Primary lossless codec over the quant-code stream."""

    stage = Stage.ENCODER

    #: whether this encoder requires a statistics stage result
    needs_statistics: bool = False

    @abc.abstractmethod
    def encode(self, codes: np.ndarray, num_bins: int,
               hist: HistogramResult | None) -> EncodedStream:
        """Losslessly encode the dense code stream."""

    @abc.abstractmethod
    def decode(self, stream: EncodedStream, count: int, num_bins: int
               ) -> np.ndarray:
        """Exactly invert :meth:`encode`; returns the uint code stream."""


class SecondaryModule(Module):
    """Optional generic lossless pass over the assembled container body."""

    stage = Stage.SECONDARY

    @abc.abstractmethod
    def encode(self, body: bytes) -> bytes:
        """Compress the container body (must never corrupt; may expand)."""

    @abc.abstractmethod
    def decode(self, body: bytes) -> bytes:
        """Exactly invert :meth:`encode`."""
