"""The six workloads and the fresh-field generator.

A workload fixes a preset, a call shape and an input class.  Every op of a
workload gets a field the process has never seen: two base fields ``A``
and ``B`` come once from the ``repro.data`` generator and op *i* compresses
``float32(cos θ_i · A + sin θ_i · B)``, with the θ sequence drawn from
``numpy.random.default_rng(seed)``.

The base fields are the same for every seed (generator seeds 1000 and
2000).  Drawn per seed, one realisation's large-scale modes set the value
range and with it the ratio and the Huffman code lengths: between seeds,
on identical code, the ratio moved 3.6% and the throughputs 6 to 8% —
wider than a bound worth gating on.  The seed still decides every field
the program sees.

θ is drawn from ``π/4 ± π/8``, not from the whole circle.  The generators
put the same deterministic mean flow (the vortex, the zonal bands) into
``A`` and ``B``, so its amplitude in the mix is ``cos θ + sin θ``; over the
whole circle that swings the value range, and with it ``eb_abs``, the code
entropy, the ratio (5.2 to 12.8 on the hurricane field) and the decode time
(0.18 s to 1.4 s).  Inside ``π/4 ± π/8`` the amplitude stays within 8%, so
ops are the same class of work while the turbulent part — ten error bounds
wide — still moves every quantisation code.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

EB = 1e-3
EB_MODE = "rel"

#: generator seeds of the two base fields
BASE_SEEDS = (1000, 2000)

#: how many θ are drawn up front; op *i* uses ``thetas[i]``
THETA_COUNT = 1 << 16


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    dataset: str
    #: ``get_dataset(...).load(scale=...)``; ignored when ``elements`` is set
    scale: float
    #: exact 1-D element count (the generator's scale is solved for it)
    elements: int | None
    #: ``"1"`` or ``"nproc"``
    threads: str
    #: ``"memory"`` (array in, blob out) or ``"stream_file"`` (file to file)
    kind: str
    why: str

    def thread_count(self) -> int:
        return (os.cpu_count() or 1) if self.threads == "nproc" else 1


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "default_3d", "fzmod-default", "hurr", 0.34, None, "1", "memory",
        "fzmod-default on a 3.9 MB hurricane-like 3-D field at threads=1: "
        "Huffman encode/decode is most of the wall, so entropy-coding work "
        "shows here."),
    Workload(
        "speed_3d", "fzmod-speed", "hurr", 0.34, None, "1", "memory",
        "fzmod-speed on the same fields: no histogram, codebook or Huffman; "
        "fused Lorenzo, bitshuffle and dictionary are the wall. Control for "
        "every Huffman change."),
    Workload(
        "quality_3d", "fzmod-quality", "hurr", 0.34, None, "1", "memory",
        "fzmod-quality on the same fields: only user of kernels.interp and "
        "histogram-topk, and the only preset the plan compiler declines, so "
        "it is the interpreter path's workload."),
    Workload(
        "default_3d_threads", "fzmod-default", "hurr", 0.34, None, "nproc",
        "memory",
        "default_3d at threads=nproc through runtime.threads slab "
        "parallelism; its ratio to default_3d is the thread scaling, "
        "recorded with the core count."),
    Workload(
        "default_small", "fzmod-default", "cesm", 0.045, None, "1", "memory",
        "Many 0.42 MB CESM-like fields: per-call fixed cost (dispatch, plan "
        "lookup, codebook build, header/CRC, pool leases) dominates and the "
        "bulk kernels do little."),
    Workload(
        "stream_1d_file", "fzmod-default", "hacc", 0.0, 2_097_152, "1",
        "stream_file",
        "File to file through streaming.engine, FZMS v3 and shard framing "
        "on 8.4 MB of 1-D high-entropy HACC-like data, where Huffman codes "
        "are long and decode is slowest."),
)}


def _base_field(wl: Workload, seed: int) -> np.ndarray:
    from repro.data import get_dataset
    spec = get_dataset(wl.dataset)
    if wl.elements is None:
        return spec.load(scale=wl.scale, seed=seed)
    # the generator sizes 1-D data as int(full_count * scale): aim half an
    # element high so float rounding cannot land one short, then trim
    scale = (wl.elements + 0.5) / spec.elements
    field = spec.load(scale=scale, seed=seed)
    if field.size < wl.elements:
        raise RuntimeError(
            f"{wl.dataset} generator gave {field.size} elements, "
            f"need {wl.elements}")
    return np.ascontiguousarray(field[:wl.elements])


class FieldStream:
    """Deterministic source of never-repeated fields for one workload."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.a, self.b = (_base_field(wl, s) for s in BASE_SEEDS)
        u = np.random.default_rng(seed).random(THETA_COUNT)
        self.thetas = np.pi / 4 + (u - 0.5) * (np.pi / 4)
        self._next = 0

    @property
    def field_bytes(self) -> int:
        return int(self.a.nbytes)

    def field(self, i: int) -> np.ndarray:
        theta = self.thetas[i]
        return (np.cos(theta) * self.a
                + np.sin(theta) * self.b).astype(np.float32)

    def next(self) -> tuple[int, np.ndarray]:
        """The next unused ``(index, field)``."""
        i = self._next
        if i >= THETA_COUNT - 1:
            raise RuntimeError("field stream exhausted")
        self._next = i + 1
        return i, self.field(i)

    def throwaway(self) -> np.ndarray:
        """A field no op ever uses (the set-up children compress it)."""
        return self.field(THETA_COUNT - 1)

    def input_sha256(self) -> str:
        h = hashlib.sha256()
        h.update(self.field(0).tobytes())
        h.update(self.thetas.tobytes())
        return h.hexdigest()
