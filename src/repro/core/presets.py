"""The three highlighted pipelines of §3.3.

* **FZMod-Default** — Lorenzo predictor + standard histogram + CPU Huffman:
  balances throughput, ratio and quality.
* **FZMod-Speed** — Lorenzo + FZ-GPU bitshuffle/dictionary encoding: trades
  ratio for encoder throughput.
* **FZMod-Quality** — G-Interp predictor + top-k histogram + Huffman:
  trades predictor throughput for rate-distortion.

Each preset is a frozen :class:`~repro.core.spec.PipelineSpec` in
:data:`PRESET_SPECS`; the factory functions are thin delegates that
customise the spec (secondary module, radius) and hand it to
:meth:`Pipeline.from_spec` against the chosen registry.  The paper's
secondary encoder is zstd; here it is ``"deflate"`` (stdlib ``zlib``).
"""

from __future__ import annotations

from .pipeline import DEFAULT_RADIUS, Pipeline
from .registry import DEFAULT_REGISTRY, ModuleRegistry
from .spec import PipelineSpec

#: The canonical spec of each highlighted pipeline.
PRESET_SPECS: dict[str, PipelineSpec] = {
    "fzmod-default": PipelineSpec(
        preprocess="rel-eb", predictor="lorenzo", statistics="histogram",
        encoder="huffman", name="fzmod-default"),
    "fzmod-speed": PipelineSpec(
        preprocess="rel-eb", predictor="lorenzo", statistics=None,
        encoder="bitshuffle", name="fzmod-speed"),
    "fzmod-quality": PipelineSpec(
        preprocess="rel-eb", predictor="interp", statistics="histogram-topk",
        encoder="huffman", name="fzmod-quality"),
}

PRESET_NAMES = tuple(PRESET_SPECS)


def get_preset_spec(name: str, secondary: str | None = None,
                    radius: int = DEFAULT_RADIUS) -> PipelineSpec:
    """Look up a preset's spec (customised but not yet built)."""
    try:
        spec = PRESET_SPECS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {PRESET_NAMES}") from None
    return spec.replace(secondary=secondary, radius=radius)


def get_preset(name: str, secondary: str | None = None,
               radius: int = DEFAULT_RADIUS,
               registry: ModuleRegistry = DEFAULT_REGISTRY) -> Pipeline:
    """Build a preset pipeline by its canonical name.

    ``registry`` is honoured throughout, so presets can be constructed
    against a custom :class:`ModuleRegistry` (e.g. one with a replacement
    histogram) without touching the process-wide default.
    """
    return Pipeline.from_spec(get_preset_spec(name, secondary, radius),
                              registry=registry)


def fzmod_default(secondary: str | None = None, radius: int = DEFAULT_RADIUS,
                  registry: ModuleRegistry = DEFAULT_REGISTRY) -> Pipeline:
    """Lorenzo + histogram + Huffman (the framework default)."""
    return get_preset("fzmod-default", secondary, radius, registry)


def fzmod_speed(secondary: str | None = None, radius: int = DEFAULT_RADIUS,
                registry: ModuleRegistry = DEFAULT_REGISTRY) -> Pipeline:
    """Lorenzo + bitshuffle/dictionary (throughput-oriented)."""
    return get_preset("fzmod-speed", secondary, radius, registry)


def fzmod_quality(secondary: str | None = None, radius: int = DEFAULT_RADIUS,
                  registry: ModuleRegistry = DEFAULT_REGISTRY) -> Pipeline:
    """G-Interp + top-k histogram + Huffman (quality-oriented)."""
    return get_preset("fzmod-quality", secondary, radius, registry)
