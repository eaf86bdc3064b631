"""The canonical pipeline description: :class:`PipelineSpec`.

Every way of naming a pipeline — the fluent builder, the §3.3 presets,
``Pipeline.from_names``, the CLI flags, the container header, and the
sharded parallel executor — reduces to one frozen, JSON-serialisable
value object: stage module *names* plus the quant-code radius and a
display name.  Specs are what travels across process boundaries (the
parallel executor ships specs, never module instances) and what the
container header stores, so any process with the same modules registered
can reassemble the exact pipeline that produced a blob.

The spec is deliberately dependency-light (names only, no module or
registry imports) so every subsystem can import it without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import HeaderError, PipelineError

#: Default quant-code radius (cuSZ's 1024-symbol dictionary).
DEFAULT_RADIUS = 512


@dataclass(frozen=True)
class PipelineSpec:
    """A complete, immutable description of a compression pipeline.

    Attributes
    ----------
    preprocess / predictor / statistics / encoder / secondary:
        Registry names of the stage modules.  ``statistics`` and
        ``secondary`` may be ``None`` (no statistics stage / identity
        secondary).
    radius:
        Quant-code radius; the code alphabet is ``2 * radius`` symbols.
    name:
        Display name (stored in archives and reports, not semantic).
    """

    preprocess: str = "rel-eb"
    predictor: str = "lorenzo"
    statistics: str | None = None
    encoder: str = "huffman"
    secondary: str | None = None
    radius: int = DEFAULT_RADIUS
    name: str = "custom"

    def __post_init__(self) -> None:
        for stage in ("preprocess", "predictor", "encoder"):
            value = getattr(self, stage)
            if not isinstance(value, str) or not value:
                raise PipelineError(
                    f"spec field {stage!r} must be a non-empty module name, "
                    f"got {value!r}")
        for stage in ("statistics", "secondary"):
            value = getattr(self, stage)
            if value is not None and (not isinstance(value, str) or not value):
                raise PipelineError(
                    f"spec field {stage!r} must be None or a module name, "
                    f"got {value!r}")
        if not isinstance(self.radius, int) or isinstance(self.radius, bool):
            raise PipelineError(f"radius must be an int, got {self.radius!r}")
        if self.radius < 1:
            raise PipelineError(f"radius must be >= 1, got {self.radius}")

    # ------------------------------------------------------------------ #
    def replace(self, **changes) -> "PipelineSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def stage_names(self) -> dict[str, str]:
        """``{stage: module-name}`` for the stages that are present."""
        names = {"preprocess": self.preprocess, "predictor": self.predictor,
                 "encoder": self.encoder}
        if self.statistics is not None:
            names["statistics"] = self.statistics
        if self.secondary is not None:
            names["secondary"] = self.secondary
        return names

    # ------------------------------------------------------------------ #
    def to_json(self) -> dict:
        """JSON-serialisable form (round-trips through :meth:`from_json`)."""
        return {
            "preprocess": self.preprocess,
            "predictor": self.predictor,
            "statistics": self.statistics,
            "encoder": self.encoder,
            "secondary": self.secondary,
            "radius": self.radius,
            "name": self.name,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineSpec":
        """Rebuild a spec from :meth:`to_json` output (header payloads)."""
        if not isinstance(obj, dict):
            raise HeaderError(f"malformed pipeline spec: {obj!r}")
        try:
            return cls(
                preprocess=str(obj["preprocess"]),
                predictor=str(obj["predictor"]),
                statistics=(None if obj.get("statistics") is None
                            else str(obj["statistics"])),
                encoder=str(obj["encoder"]),
                secondary=(None if obj.get("secondary") is None
                           else str(obj["secondary"])),
                radius=int(obj.get("radius", DEFAULT_RADIUS)),
                name=str(obj.get("name", "custom")),
            )
        except (KeyError, TypeError, ValueError, PipelineError) as exc:
            raise HeaderError(f"malformed pipeline spec: {exc}") from exc

    def describe(self) -> str:
        """One-line human rendering (CLI/report output)."""
        stages = [self.preprocess, self.predictor]
        if self.statistics is not None:
            stages.append(self.statistics)
        stages.append(self.encoder)
        if self.secondary is not None:
            stages.append(self.secondary)
        return f"{self.name}: " + " -> ".join(stages) + f" (radius={self.radius})"

    def compile(self, registry=None):
        """Assemble this spec and compile it into its execution plan.

        Returns the content-cached :class:`~repro.compile.CompiledPlan`
        (so repeated calls are cheap).  ``registry`` defaults to the
        process-wide module registry.
        """
        from .pipeline import Pipeline
        from .registry import DEFAULT_REGISTRY
        return Pipeline.from_spec(
            self, registry=registry if registry is not None
            else DEFAULT_REGISTRY).compile()
