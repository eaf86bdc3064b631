"""Fluent pipeline builder.

A small convenience layer over :class:`~repro.core.pipeline.Pipeline` for
the "rapid testing of multiple pipelines" workflow the paper advertises::

    pipe = (PipelineBuilder("my-pipe")
            .with_preprocess("rel-eb")
            .with_predictor("interp")
            .with_statistics("histogram-topk")
            .with_encoder("huffman")
            .with_secondary("deflate")
            .with_radius(512)
            .build())
"""

from __future__ import annotations

from ..errors import PipelineError
from .pipeline import DEFAULT_RADIUS, Pipeline
from .registry import DEFAULT_REGISTRY, ModuleRegistry
from .spec import PipelineSpec


class PipelineBuilder:
    """Accumulates stage choices, validates, and builds a Pipeline."""

    def __init__(self, name: str = "custom",
                 registry: ModuleRegistry = DEFAULT_REGISTRY) -> None:
        self.name = name
        self.registry = registry
        self._preprocess = "rel-eb"
        self._predictor: str | None = None
        self._statistics: str | None = None
        self._encoder: str | None = None
        self._secondary: str | None = None
        self._radius = DEFAULT_RADIUS

    @classmethod
    def from_spec(cls, spec: PipelineSpec,
                  registry: ModuleRegistry = DEFAULT_REGISTRY
                  ) -> "PipelineBuilder":
        """Seed a builder from an existing spec (tweak-and-rebuild flows)."""
        b = cls(spec.name, registry=registry)
        b._preprocess = spec.preprocess
        b._predictor = spec.predictor
        b._statistics = spec.statistics
        b._encoder = spec.encoder
        b._secondary = spec.secondary
        b._radius = spec.radius
        return b

    def with_preprocess(self, name: str) -> "PipelineBuilder":
        """Select the preprocessing module by name."""
        self._preprocess = name
        return self

    def with_predictor(self, name: str) -> "PipelineBuilder":
        """Select the predictor module by name."""
        self._predictor = name
        return self

    def with_statistics(self, name: str | None) -> "PipelineBuilder":
        """Select the statistics module (None lets Huffman pick the default)."""
        self._statistics = name
        return self

    def with_encoder(self, name: str) -> "PipelineBuilder":
        """Select the primary lossless encoder by name."""
        self._encoder = name
        return self

    def with_secondary(self, name: str | None) -> "PipelineBuilder":
        """Select the secondary lossless module (None = identity)."""
        self._secondary = name
        return self

    def with_radius(self, radius: int) -> "PipelineBuilder":
        """Set the quant-code radius (alphabet = 2*radius)."""
        if radius < 1:
            raise PipelineError(f"radius must be >= 1, got {radius}")
        self._radius = int(radius)
        return self

    def spec(self) -> PipelineSpec:
        """Validate the stage choices and freeze them as a PipelineSpec."""
        if self._predictor is None:
            raise PipelineError("a predictor module is required "
                                "(call .with_predictor)")
        if self._encoder is None:
            raise PipelineError("an encoder module is required "
                                "(call .with_encoder)")
        return PipelineSpec(
            preprocess=self._preprocess, predictor=self._predictor,
            statistics=self._statistics, encoder=self._encoder,
            secondary=self._secondary, radius=self._radius, name=self.name)

    def build(self) -> Pipeline:
        """Assemble the Pipeline (a thin delegate over ``from_spec``)."""
        return Pipeline.from_spec(self.spec(), registry=self.registry)
