"""Fairness metrics: Jain index, Astraea's R_fair, and max-min shares.

Also home to :class:`FairnessAccumulator`, the mergeable
sufficient-statistics form of the Jain index used by the sharded fleet
runner: each shard reduces its flows to ``(count, sum, peak-scaled sum
of squares, peak, capacity)`` and the parent merges those tuples instead
of shipping raw per-tick traces between processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


def jain_index(throughputs) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Equals 1 for perfectly equal allocations and ``1/n`` when one flow
    takes everything.  An all-zero allocation is defined as perfectly fair
    (index 1), matching the convention used when flows are idle.
    """
    x = np.asarray(throughputs, dtype=float)
    if x.size == 0:
        raise ConfigError("jain index of an empty allocation is undefined")
    if np.any(x < 0):
        raise ConfigError("throughputs must be non-negative")
    peak = x.max()
    if peak == 0:
        return 1.0
    # Normalising by the peak makes the (scale-invariant) index immune to
    # overflow/underflow of the squared sums at extreme magnitudes.
    x = x / peak
    return float(x.sum() ** 2 / (x.size * np.sum(x ** 2)))


@dataclass
class FairnessAccumulator:
    """Mergeable sufficient statistics for Jain fairness and utilization.

    The Jain index ``(sum x)^2 / (n * sum x^2)`` and link utilization
    ``sum x / capacity`` are both functions of ``(n, sum x, sum x^2,
    capacity)`` only, and every component is additive.  Shards therefore
    reduce their flows locally and the parent merges fixed-size tuples:
    merging in a deterministic order (plain float adds, shard index
    order) makes the aggregate bit-identical for any worker count.

    ``sum_sq`` is ``sum (x / peak)^2`` over the running ``peak``, as in
    :func:`jain_index`: raw squares of subnormal or huge throughputs
    would underflow or overflow.  ``merge`` rescales to the larger peak.

    ``batches`` counts ``add``/non-empty ``merge`` contributions — one
    per shard in fleet runs — purely for diagnostics.
    """

    count: int = 0
    total: float = 0.0
    sum_sq: float = 0.0
    peak: float = 0.0
    capacity: float = 0.0
    batches: int = 0

    def add(self, throughputs, capacity: float = 0.0) -> "FairnessAccumulator":
        """Fold one batch of per-flow throughputs (plus their shared
        ``capacity``, in the same unit) into the statistics."""
        x = np.asarray(throughputs, dtype=float)
        if x.size and (not np.all(np.isfinite(x)) or np.any(x < 0)):
            raise ConfigError(
                "throughputs must be finite and non-negative")
        if not math.isfinite(capacity) or capacity < 0:
            raise ConfigError(
                f"capacity must be finite and non-negative, got {capacity!r}")
        peak = float(x.max()) if x.size else 0.0
        scaled = x / peak if peak > 0.0 else x
        return self.merge(FairnessAccumulator(
            int(x.size), float(x.sum()), float(np.sum(scaled * scaled)),
            peak, float(capacity), batches=1))

    def merge(self, other: "FairnessAccumulator") -> "FairnessAccumulator":
        """Fold another accumulator in (plain float adds; order matters
        for bit-identical aggregates, so callers merge in shard order)."""
        peak = max(self.peak, other.peak)
        if peak > 0.0:
            self.sum_sq = (self.sum_sq * (self.peak / peak) ** 2
                           + other.sum_sq * (other.peak / peak) ** 2)
        self.peak = peak
        self.count += other.count
        self.total += other.total
        self.capacity += other.capacity
        self.batches += other.batches
        return self

    def jain(self) -> float:
        """Jain index over every flow folded in so far.

        Matches :func:`jain_index` on the concatenated allocation (both
        normalise by the peak).
        """
        if self.count == 0:
            raise ConfigError("jain index of an empty allocation is undefined")
        if self.peak == 0.0:
            return 1.0
        return float((self.total / self.peak) ** 2
                     / (self.count * self.sum_sq))

    def utilization(self) -> float:
        """Aggregate throughput over aggregate capacity."""
        if self.capacity <= 0.0:
            raise ConfigError(
                "utilization undefined without positive capacity")
        return float(self.total / self.capacity)

    def as_dict(self) -> dict:
        """JSON/pickle-friendly form (inverse of :meth:`from_dict`)."""
        return {"count": self.count, "total": self.total,
                "sum_sq": self.sum_sq, "peak": self.peak,
                "capacity": self.capacity, "batches": self.batches}

    @classmethod
    def from_dict(cls, payload: dict) -> "FairnessAccumulator":
        try:
            return cls(count=int(payload["count"]),
                       total=float(payload["total"]),
                       sum_sq=float(payload["sum_sq"]),
                       peak=float(payload["peak"]),
                       capacity=float(payload["capacity"]),
                       batches=int(payload["batches"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed FairnessAccumulator payload: {exc!r}") from exc


def astraea_fairness_metric(avg_throughputs) -> float:
    """The paper's R_fair (Eq. 6): normalised std-dev of flow throughputs.

    Zero at the fair equilibrium; unlike the Jain index it stays sensitive
    as flows approach equality (Fig. 4).  Computed over per-flow *average*
    throughputs (the paper averages over the last ``w`` MTPs).
    """
    x = np.asarray(avg_throughputs, dtype=float)
    if x.size == 0:
        raise ConfigError("fairness metric of an empty allocation is undefined")
    total = x.sum()
    if total == 0:
        return 0.0
    mean = total / x.size
    return float(np.sqrt(np.sum((x - mean) ** 2) / (x.size * total ** 2)))


def max_min_fair_shares(demands, capacity: float) -> np.ndarray:
    """Max-min fair allocation of ``capacity`` among flows with demands.

    ``demands`` may contain ``inf`` for elastic flows.  Classic water-filling.
    """
    d = np.asarray(demands, dtype=float)
    if capacity < 0:
        raise ConfigError("capacity must be non-negative")
    if np.any(d < 0):
        raise ConfigError("demands must be non-negative")
    alloc = np.zeros_like(d)
    remaining = capacity
    unsatisfied = np.ones_like(d, dtype=bool)
    while unsatisfied.any() and remaining > 1e-12:
        share = remaining / unsatisfied.sum()
        limited = unsatisfied & (d - alloc <= share)
        if limited.any():
            grant = d[limited] - alloc[limited]
            alloc[limited] = d[limited]
            remaining -= grant.sum()
            unsatisfied &= ~limited
        else:
            alloc[unsatisfied] += share
            remaining = 0.0
    return alloc
