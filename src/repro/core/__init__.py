"""Core framework: modules, registry, pipelines, presets, container format."""

from .archive import Archive, ArchiveEntry, ArchiveWriter
from .builder import PipelineBuilder
from .chunked import TiledField, compress_tiled
from .header import ContainerHeader, parse
from .target import TargetResult, compress_to_target
from .temporal import TemporalCompressor, TemporalDecompressor
from .verify import VerificationReport, verify_pipeline
from .module import (EncodedStream, EncoderModule, Module, PredictorArtifacts,
                     PredictorModule, PreprocessModule, PreprocessResult,
                     SecondaryModule, StatisticsModule)
from .pipeline import (DEFAULT_RADIUS, CompressedField, CompressionStats,
                       Pipeline, decompress)
from .presets import (PRESET_NAMES, PRESET_SPECS, fzmod_default,
                      fzmod_quality, fzmod_speed, get_preset, get_preset_spec)
from .registry import (DEFAULT_REGISTRY, ModuleRegistry, get_module, register,
                       unregister)
from .spec import PipelineSpec

__all__ = [
    "Archive", "ArchiveEntry", "ArchiveWriter", "TargetResult",
    "compress_to_target", "TiledField", "compress_tiled",
    "TemporalCompressor", "TemporalDecompressor",
    "VerificationReport", "verify_pipeline",
    "PipelineBuilder", "ContainerHeader", "parse", "EncodedStream",
    "EncoderModule", "Module", "PredictorArtifacts", "PredictorModule",
    "PreprocessModule", "PreprocessResult", "SecondaryModule",
    "StatisticsModule", "DEFAULT_RADIUS", "CompressedField",
    "CompressionStats", "Pipeline", "PipelineSpec", "decompress",
    "PRESET_NAMES", "PRESET_SPECS", "fzmod_default", "fzmod_quality",
    "fzmod_speed", "get_preset", "get_preset_spec",
    "DEFAULT_REGISTRY", "ModuleRegistry", "get_module", "register",
    "unregister",
]
