"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the framework derives from :class:`FZModError` so that
callers can catch framework failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class FZModError(Exception):
    """Base class for every error raised by the framework."""


class ConfigError(FZModError):
    """An invalid configuration value was supplied (bad error bound, unknown
    error-bound mode, unsupported dtype, ...)."""


class PipelineError(FZModError):
    """Pipeline composition or execution failed (incompatible module stages,
    missing required artifact, ...)."""


class ModuleNotFoundInRegistry(FZModError):
    """A module name passed to the registry/builder is not registered."""


class CodecError(FZModError):
    """A lossless codec failed to encode or decode a payload."""


class HeaderError(FZModError):
    """A compressed container header is malformed or version-incompatible."""


class DeviceError(FZModError):
    """A runtime resource was misused (an ordered work queue given a
    bound below one or fed after a failed job)."""


class DataError(FZModError):
    """A dataset loader/generator was asked for something it cannot
    produce (unknown dataset name, bad field, corrupt file, ...)."""


class SanitizerError(FZModError):
    """The runtime contract sanitizer (``FZMOD_SANITIZE=1``) caught a
    memory-contract violation at a kernel boundary: an ``out=``
    destination that aliases an input array."""
