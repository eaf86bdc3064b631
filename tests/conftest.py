"""Shared fixtures for the test suite.

Fields are deliberately small (tests must run in milliseconds) but cover
the structural variety the codecs care about: smooth, noisy, constant,
spiky, 1-D/2-D/3-D, float32/float64.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.modules_std import InterpPredictor, LorenzoPredictor
from repro.core.pipeline import Pipeline
from repro.core.registry import DEFAULT_REGISTRY, ModuleRegistry
from repro.types import Stage


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_1d() -> np.ndarray:
    x = np.linspace(0, 6 * np.pi, 4000)
    return (np.sin(x) + 0.2 * np.sin(5.1 * x)).astype(np.float32)


@pytest.fixture
def smooth_2d() -> np.ndarray:
    y, x = np.mgrid[0:96, 0:80]
    return (np.sin(x / 9.0) * np.cos(y / 7.0) * 40.0 + 250.0).astype(np.float32)


@pytest.fixture
def smooth_3d() -> np.ndarray:
    z, y, x = np.mgrid[0:20, 0:24, 0:28]
    f = np.sin(x / 5.0) + np.cos(y / 4.0) + np.sin(z / 3.0) * 0.5
    return (f * 10.0).astype(np.float32)


@pytest.fixture
def noisy_2d(rng) -> np.ndarray:
    base = np.cumsum(rng.standard_normal((64, 64)), axis=1)
    return base.astype(np.float32)


@pytest.fixture
def spiky_1d(rng) -> np.ndarray:
    data = rng.standard_normal(5000).astype(np.float32) * 0.01
    idx = rng.integers(0, data.size, 25)
    data[idx] = rng.standard_normal(25).astype(np.float32) * 1e4
    return data


@pytest.fixture
def constant_3d() -> np.ndarray:
    return np.full((12, 13, 14), 3.25, dtype=np.float32)


@pytest.fixture(params=["f4", "f8"], ids=["float32", "float64"])
def dtype(request) -> np.dtype:
    return np.dtype(request.param)


def eb_abs_for(data: np.ndarray, rel: float) -> float:
    """Absolute bound for a relative target (test helper)."""
    rng_v = float(data.max() - data.min())
    return rel * rng_v if rng_v > 0 else rel


# The plan compiler fuses preprocess/predictor/statistics only when their
# types are exactly the standard ones (``type() is``).  A do-nothing
# subclass keeps the registry name -- header and spec JSON are unchanged --
# but fails that gate, so its pipeline runs the module-call steps: the
# reference the fused steps are compared against.
class _PlainLorenzo(LorenzoPredictor):
    pass


class _PlainInterp(InterpPredictor):
    pass


_PLAIN = {LorenzoPredictor: _PlainLorenzo, InterpPredictor: _PlainInterp}


def _module_call_twin(pipe: Pipeline) -> Pipeline:
    twin = copy.copy(pipe)
    twin.predictor = _PLAIN[type(pipe.predictor)]()
    return twin


@pytest.fixture
def module_call_twin():
    """``twin(pipe)``: the same pipeline on module-call steps only."""
    return _module_call_twin


@pytest.fixture(scope="session")
def module_call_registry() -> ModuleRegistry:
    """The default registry with the plain predictors registered over the
    standard ones: containers decoded against it take module-call steps."""
    reg = ModuleRegistry()
    for stage in Stage:
        for name in DEFAULT_REGISTRY.names(stage):
            reg.register(DEFAULT_REGISTRY.get(stage, name))
    for plain in _PLAIN.values():
        reg.register(plain(), replace=True)
    return reg
