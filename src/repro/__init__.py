"""FZModules reproduction: customizable scientific-data compression pipelines.

A pure-Python, NumPy-vectorised reproduction of *"FZModules: A Heterogeneous
Computing Framework for Customizable Scientific Data Compression Pipelines"*
(SC Workshops '25), including:

* :mod:`repro.core` — the modular pipeline framework (preprocess /
  predictor / statistics / encoder / secondary stages, registry, presets,
  container format, STF-backed pipeline, auto-tuner);
* :mod:`repro.kernels` — the data-parallel kernel library every compressor
  is built from;
* :mod:`repro.stf` — the CUDASTF-analogue asynchronous task engine;
* :mod:`repro.runtime` — the simulated heterogeneous device runtime;
* :mod:`repro.baselines` — cuSZp2, FZ-GPU, PFPL and SZ3 from scratch;
* :mod:`repro.data` — SDRBench-style synthetic datasets;
* :mod:`repro.metrics` / :mod:`repro.perf` — evaluation metrics and the
  calibrated platform cost model behind the throughput/speedup figures.

Quickstart::

    import numpy as np
    import repro

    field = np.fromfile("velocity.f32", dtype=np.float32).reshape(512, 512, 512)
    compressed = repro.compress(field, "fzmod-default", eb=1e-4)  # rel. bound
    restored = repro.decompress(compressed.blob)
    print(compressed.stats.cr, compressed.stats.bit_rate)

:func:`repro.compress` / :func:`repro.decompress` (the :mod:`repro.api`
facade) are the one-call front door: they dispatch between the single,
shard-parallel and out-of-core streaming engines by argument shape
(``workers=``, ``stream=``, sources, paths), and every engine runs the
pipeline's compiled execution plan (:mod:`repro.compile`).
"""

from .api import compress, decompress
from .core import (DEFAULT_REGISTRY, CompressedField, CompressionStats,
                   Pipeline, PipelineBuilder, PipelineSpec, fzmod_default,
                   fzmod_quality, fzmod_speed, get_preset, get_preset_spec,
                   register, unregister)
from .types import EbMode, ErrorBound

__version__ = "1.2.0"

__all__ = [
    "CompressedField", "CompressionStats", "DEFAULT_REGISTRY", "Pipeline",
    "PipelineBuilder", "PipelineSpec", "compress", "decompress",
    "fzmod_default", "fzmod_quality", "fzmod_speed", "get_preset",
    "get_preset_spec", "register", "unregister", "EbMode", "ErrorBound",
    "__version__",
]
