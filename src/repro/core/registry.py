"""Module registry: name -> module instance, per stage.

Pipelines are described by module *names* (which is what the container
header stores), so decompression can reassemble the exact pipeline that
produced a blob.  Users extend the framework by registering their own
module instances; see ``examples/custom_module.py``.
"""

from __future__ import annotations

from ..errors import ModuleNotFoundInRegistry, PipelineError
from ..types import Stage
from .module import Module
from .modules_extra import (AbsAndRelPreprocess, AutoTransposePreprocess,
                            FixedLenEncoder, PwRelPreprocess,
                            RegressionPredictor)
from .modules_std import (AbsEbPreprocess, BitshuffleEncoder, DeflateSecondary,
                          HuffmanEncoder, InterpPredictor, LorenzoPredictor,
                          NoSecondary, RelEbPreprocess, StandardHistogram,
                          TopKHistogram)


class ModuleRegistry:
    """A per-stage name -> instance table."""

    def __init__(self) -> None:
        self._modules: dict[Stage, dict[str, Module]] = {s: {} for s in Stage}

    def register(self, module: Module, *, replace: bool = False) -> Module:
        """Add a module instance under its (stage, name) key."""
        table = self._modules[module.stage]
        if module.name in table and not replace:
            raise PipelineError(
                f"module {module.name!r} already registered for stage "
                f"{module.stage.value}; pass replace=True to override")
        table[module.name] = module
        return module

    def unregister(self, stage: Stage, name: str) -> Module:
        """Remove and return a module (raises if absent).

        The counterpart of :meth:`register`, so tests and examples that
        temporarily extend a registry can restore it instead of leaking
        modules into the process-wide default.
        """
        try:
            return self._modules[stage].pop(name)
        except KeyError:
            raise ModuleNotFoundInRegistry(
                f"no module {name!r} for stage {stage.value}; have "
                f"{sorted(self._modules[stage])}") from None

    def module(self, cls: type | None = None, *, replace: bool = False):
        """Class decorator: instantiate and register a module class.

        Usage::

            reg = ModuleRegistry()

            @reg.module
            class MySecondary(SecondaryModule):
                name = "my-codec"
                ...

        The class itself is returned (undecorated), so it stays usable and
        testable; the registry holds one instance.  Pass ``replace=True``
        to override an existing name: ``@reg.module(replace=True)``.
        """
        def deco(c: type) -> type:
            self.register(c(), replace=replace)
            return c
        if cls is None:
            return deco
        return deco(cls)

    def get(self, stage: Stage, name: str) -> Module:
        """Look a module up by stage and name (raises if absent)."""
        try:
            return self._modules[stage][name]
        except KeyError:
            raise ModuleNotFoundInRegistry(
                f"no module {name!r} for stage {stage.value}; have "
                f"{sorted(self._modules[stage])}") from None

    def names(self, stage: Stage) -> list[str]:
        """Registered module names for one stage, sorted."""
        return sorted(self._modules[stage])

    def catalog(self) -> dict[str, list[tuple[str, str]]]:
        """``{stage: [(name, description), ...]}`` for the CLI listing."""
        return {s.value: [(n, m.describe()) for n, m in sorted(t.items())]
                for s, t in self._modules.items()}


def _build_default() -> ModuleRegistry:
    reg = ModuleRegistry()
    for mod in (AbsEbPreprocess(), RelEbPreprocess(), PwRelPreprocess(),
                AbsAndRelPreprocess(), AutoTransposePreprocess(),
                LorenzoPredictor(), InterpPredictor(), RegressionPredictor(),
                StandardHistogram(), TopKHistogram(),
                HuffmanEncoder(), BitshuffleEncoder(), FixedLenEncoder(),
                DeflateSecondary(), NoSecondary()):
        reg.register(mod)
    return reg


#: The process-wide default registry with the standard module library.
DEFAULT_REGISTRY = _build_default()


def register(module: Module, *, replace: bool = False) -> Module:
    """Register a custom module into the default registry."""
    return DEFAULT_REGISTRY.register(module, replace=replace)


def unregister(stage: Stage, name: str) -> Module:
    """Remove a module from the default registry (returns it)."""
    return DEFAULT_REGISTRY.unregister(stage, name)


def get_module(stage: Stage, name: str) -> Module:
    """Look a module up in the process-wide default registry."""
    return DEFAULT_REGISTRY.get(stage, name)
