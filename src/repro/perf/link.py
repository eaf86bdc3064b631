"""Shared-link contention model (progressive filling).

The paper measures host<->device bandwidth "when all four GPUs on the node
are reading/writing data" (multi-gpu-bwtest) and uses that *loaded* number
as Eq. (1)'s BW.  This module provides the underlying model: concurrent
transfers share the host's aggregate ingest capacity fairly, each transfer
additionally capped by its own per-GPU link peak.

:func:`simulate_transfers` is an exact event-driven simulation of
max-min-fair (progressive-filling) sharing: between events every active
transfer progresses at ``min(link_peak, agg_bw / n_active)``; events are
transfer arrivals and completions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .platform import PlatformSpec


@dataclass(frozen=True)
class TransferRequest:
    """One host<->device transfer."""

    start: float      # seconds, arrival time
    nbytes: float
    link_peak: float  # per-GPU cap, bytes/s

    def __post_init__(self) -> None:
        if self.nbytes <= 0 or self.link_peak <= 0 or self.start < 0:
            raise ConfigError("invalid transfer request")


def simulate_transfers(requests: list[TransferRequest],
                       agg_bw: float) -> list[float]:
    """Completion time of each request under max-min fair sharing.

    ``agg_bw`` is the host's aggregate capacity (bytes/s).  Returns the
    completion times in the order of ``requests``.
    """
    if agg_bw <= 0:
        raise ConfigError("aggregate bandwidth must be positive")
    n = len(requests)
    remaining = [float(r.nbytes) for r in requests]
    done = [0.0] * n
    active: set[int] = set()
    pending = sorted(range(n), key=lambda i: requests[i].start)
    t = 0.0
    pi = 0
    while pi < n or active:
        # next arrival
        next_arrival = requests[pending[pi]].start if pi < n else float("inf")
        if not active:
            t = next_arrival
            while pi < n and requests[pending[pi]].start <= t:
                active.add(pending[pi])
                pi += 1
            continue
        # current fair rates (equal split of the aggregate, per-link cap)
        share = agg_bw / len(active)
        rates = {i: min(requests[i].link_peak, share) for i in active}
        # time until the first completion at these rates
        t_complete = min(t + remaining[i] / rates[i] for i in active)
        t_next = min(t_complete, next_arrival)
        dt = t_next - t
        finished = []
        if dt <= 0.0:
            # float-precision guard: residual bytes too small to advance the
            # clock; retire the nearest-to-done transfer at the current time
            finished.append(min(active, key=lambda i: remaining[i]))
        else:
            for i in active:
                remaining[i] -= rates[i] * dt
                # completion tolerance relative to the transfer size
                if remaining[i] <= 1e-9 * max(requests[i].nbytes, 1.0):
                    finished.append(i)
        t = t_next
        for i in finished:
            active.discard(i)
            done[i] = t
        while pi < n and requests[pending[pi]].start <= t:
            active.add(pending[pi])
            pi += 1
    return done


def loaded_bandwidth(link_peak: float, agg_bw: float, ngpus: int) -> float:
    """Steady-state per-GPU bandwidth with ``ngpus`` saturating transfers.

    This is what multi-gpu-bwtest measures: ``min(link_peak, agg/ngpus)``.
    """
    if ngpus < 1:
        raise ConfigError("ngpus must be >= 1")
    return min(link_peak, agg_bw / ngpus)


def measured_bandwidth(platform: PlatformSpec, ngpus: int | None = None
                       ) -> float:
    """Per-GPU loaded bandwidth — reproduces Table 1's 'Measured
    Bandwidth' row when ``ngpus`` equals the node's GPU count."""
    if ngpus is None:
        ngpus = platform.node_gpus
    return loaded_bandwidth(platform.gpu_link_peak, platform.host_agg_bw,
                            ngpus)
