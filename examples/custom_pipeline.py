#!/usr/bin/env python3
"""Building custom pipelines — the framework's core workflow (§3.3).

Shows the ways to get a pipeline, all of which meet at the same place —
a frozen :class:`PipelineSpec` resolved by ``Pipeline.from_spec``:

1. the shipped presets (FZMod-Default / Speed / Quality);
2. a :class:`PipelineSpec` written directly, or built with the fluent
   :class:`PipelineBuilder`;
3. registering a *new* module (via the ``@registry.module`` decorator)
   and composing with it — the extensibility story of the paper.

    python examples/custom_pipeline.py
"""

from __future__ import annotations

from repro import (DEFAULT_REGISTRY, Pipeline, PipelineBuilder, PipelineSpec,
                   decompress, fzmod_default, fzmod_quality, fzmod_speed,
                   unregister)
from repro.core.modules_std import NoSecondary
from repro.data import load_field
from repro.metrics import psnr
from repro.types import Stage


def compare(pipes, field, eb: float) -> None:
    print(f"{'pipeline':<24} {'CR':>8} {'bits/val':>9} {'PSNR dB':>8}")
    for pipe in pipes:
        cf = pipe.compress(field, eb)
        recon = decompress(cf.blob)
        print(f"{pipe.name:<24} {cf.stats.cr:>8.2f} "
              f"{cf.stats.bit_rate:>9.3f} {psnr(field, recon):>8.2f}")


@DEFAULT_REGISTRY.module
class ByteRotateSecondary(NoSecondary):
    """A (deliberately silly) custom secondary module: rotate every byte.

    Real modules would wrap an actual codec; the point is the interface —
    implement ``encode``/``decode``, set ``name``, decorate with
    ``@registry.module`` (which registers an instance), done.  The
    container header records the name, so decompression finds the module
    automatically in any process that registered it.
    """

    name = "byte-rotate"

    def encode(self, body: bytes) -> bytes:
        return bytes((b + 13) % 256 for b in body)

    def decode(self, body: bytes) -> bytes:
        return bytes((b - 13) % 256 for b in body)


def main() -> None:
    field = load_field("hurr", "TC", scale=0.15)
    eb = 1e-3
    print(f"field: HURR/TC {field.shape}, eb={eb:g} (rel)\n")

    # 1. presets
    print("-- presets " + "-" * 40)
    compare([fzmod_default(), fzmod_speed(), fzmod_quality()], field, eb)

    # 2. specs: mix stages freely — e.g. the quality predictor with the
    #    fast encoder, or Huffman plus a secondary pass.  A spec written
    #    out and the equivalent builder chain produce the same pipeline.
    print("\n-- spec / builder combinations " + "-" * 20)
    interp_fast = Pipeline.from_spec(PipelineSpec(
        predictor="interp", encoder="bitshuffle",
        name="interp+bitshuffle"))
    lorenzo_packed = (PipelineBuilder("lorenzo+huffman+deflate")
                      .with_predictor("lorenzo")
                      .with_statistics("histogram")
                      .with_encoder("huffman")
                      .with_secondary("deflate")
                      .build())
    assert lorenzo_packed.spec == PipelineSpec(
        statistics="histogram", secondary="deflate",
        name="lorenzo+huffman+deflate")
    compare([interp_fast, lorenzo_packed], field, eb)

    # 3. custom module (registered by the @DEFAULT_REGISTRY.module
    #    decorator on the class definition above)
    print("\n-- custom registered module " + "-" * 23)
    custom = Pipeline.from_spec(PipelineSpec(
        predictor="lorenzo", encoder="huffman", secondary="byte-rotate",
        name="lorenzo+huffman+rotate"))
    compare([custom], field, eb)
    print("\ncustom module round-trips via the generic decompress() — the")
    print("container header names it, the registry resolves it.")

    # leave the process-wide registry the way we found it
    unregister(Stage.SECONDARY, "byte-rotate")


if __name__ == "__main__":
    main()
