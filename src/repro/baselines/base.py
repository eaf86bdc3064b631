"""Common interface for the baseline compressors (§4.1 "Baselines").

Every baseline implements the same two-method contract as the FZModules
pipelines (compress -> self-describing blob + stats, decompress from blob),
on top of the same kernel substrate, so benches treat pipelines and
baselines uniformly.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..core.header import ContainerHeader, assemble, parse, split_sections
from ..core.pipeline import CompressedField, CompressionStats
from ..errors import CodecError, HeaderError
from ..types import EbMode, ErrorBound, check_field


def _checked_ints(meta: dict, who: str, **ranges: tuple[int, int]
                 ) -> dict[str, int]:
    """The named ``meta`` fields, each a plain (non-``bool``) ``int`` in
    its inclusive ``(lo, hi)`` range, or :class:`CodecError`.

    Baseline metadata comes straight from the container, so none of it
    may reach a division, a reshape or an allocation unchecked.
    """
    fields = {}
    for key, (lo, hi) in ranges.items():
        value = meta.get(key)
        if type(value) is not int or not lo <= value <= hi:
            raise CodecError(f"{who} meta {key}={value!r} is not an int "
                             f"in [{lo}, {hi}]")
        fields[key] = value
    return fields


def _checked_sections(sections: dict[str, bytes], who: str,
                     *names: str) -> None:
    """:class:`CodecError` unless every named section is present."""
    missing = [name for name in names if name not in sections]
    if missing:
        raise CodecError(f"{who} container lacks sections {missing}")


class Compressor(abc.ABC):
    """A complete error-bounded compressor."""

    #: canonical name (matches :data:`repro.perf.estimator.COMPRESSORS`)
    name: str

    def resolve_eb(self, data: np.ndarray, eb: ErrorBound | float,
                   mode: EbMode | str = EbMode.REL) -> tuple[ErrorBound, float]:
        """Normalise the bound argument and resolve it to absolute."""
        if not isinstance(eb, ErrorBound):
            eb = ErrorBound(float(eb), EbMode(mode))
        if eb.mode is EbMode.REL:
            eb_abs = eb.absolute(float(data.min()), float(data.max()))
        else:
            eb_abs = eb.value
        return eb, float(eb_abs)

    @abc.abstractmethod
    def _encode(self, data: np.ndarray, eb_abs: float
                ) -> tuple[dict[str, bytes], dict]:
        """Produce (sections, meta) for ``data``; meta must round-trip JSON."""

    @abc.abstractmethod
    def _decode(self, sections: dict[str, bytes], meta: dict,
                header: ContainerHeader) -> np.ndarray:
        """Exactly invert :meth:`_encode` (within the stored bound)."""

    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL) -> CompressedField:
        """Compress ``data`` into a self-describing container."""
        data = check_field(data)
        eb, eb_abs = self.resolve_eb(data, eb, mode)
        t0 = time.perf_counter()
        sections, meta = self._encode(data, eb_abs)
        elapsed = time.perf_counter() - t0
        header = ContainerHeader(
            shape=data.shape, dtype=data.dtype.str, eb_value=eb.value,
            eb_mode=eb.mode.value, eb_abs=eb_abs, radius=0,
            modules={"baseline": self.name},
            stage_meta={"baseline": meta})
        header_bytes, body = assemble(header, sections)
        blob = header_bytes + body
        stats = CompressionStats(
            input_bytes=data.nbytes, output_bytes=len(blob),
            element_count=data.size, eb_abs=eb_abs,
            code_fraction=float(meta.get("code_fraction", 0.5)),
            outlier_fraction=0.0, outlier_count=0,
            section_sizes={k: len(v) for k, v in sections.items()},
            stage_seconds={self.name: elapsed})
        return CompressedField(blob=blob, stats=stats, header=header)

    def decompress(self, blob: bytes | CompressedField) -> np.ndarray:
        """Reconstruct the field from a container produced by this compressor."""
        if isinstance(blob, CompressedField):
            blob = blob.blob
        header, body = parse(blob)
        if header.modules.get("baseline") != self.name:
            raise HeaderError(
                f"blob was produced by {header.modules!r}, not by {self.name!r}")
        sections = split_sections(header, body)
        return self._decode(sections, header.stage_meta.get("baseline", {}),
                            header)
