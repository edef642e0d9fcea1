"""Fragmentation and modeled-throughput measurement.

A fragment is a maximal physically-contiguous run within an object's layout:
one extent of its record, whose consecutive extents never touch.  Throughput
figures come from the volume's seek/band cost model, never wall clock, and
are labeled as such in the harness output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .store import ObjectRecord, ObjectStore


def fragments_of(record: "ObjectRecord") -> int:
    """The record's fragment count: its extent count, since no two consecutive extents touch."""
    return len(record.layout) // 2


def nearest_rank(sorted_values: list[int], percentile: float) -> int:
    """Nearest-rank percentile over pre-sorted values; 0 for an empty list."""
    if not sorted_values:
        return 0
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


@dataclass
class FragReport:
    """One measurement row: layout quality at a given storage age."""

    storage_age: float
    n_objects: int
    frag_mean: float
    frag_p50: int
    frag_p99: int
    frag_max: int
    free_runs: dict[int, int]          # run length -> count, committed free only
    free_runs_count: int
    free_bytes: int
    est_read_throughput: float         # modeled bytes/second over all live objects
    est_write_throughput: float        # modeled bytes/second over the last interval
    policy: str
    seed: int
    config_echo: dict = field(default_factory=dict)
    reads: dict | None = None          # observed read stats, only when reads ran

    def to_dict(self) -> dict:
        d = asdict(self)
        d["free_runs"] = {str(k): v for k, v in sorted(self.free_runs.items())}
        if self.reads is None:
            del d["reads"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FragReport":
        return cls(**{**d, "free_runs": {int(k): v for k, v in d["free_runs"].items()}})


def build_report(
    store: "ObjectStore",
    *,
    interval_write_bytes: int = 0,
    interval_model_seconds: float = 0.0,
    seed: int = 0,
    config_echo: dict | None = None,
    reads: dict | None = None,
) -> FragReport:
    """Aggregate fragment statistics and modeled throughput for the store now.

    Read throughput is total live bytes over the modeled cost of reading
    every live object once; write throughput is the supplied interval's
    bytes over its modeled seconds (0 when the interval is empty).
    """
    volume = store.volume
    frags = []
    total_bytes = 0
    total_read_seconds = 0.0
    for rec in store.records():
        frags.append(fragments_of(rec))
        total_bytes += rec.size
        total_read_seconds += rec.read_seconds
    frags.sort()
    n = len(frags)
    hist = volume.free_extent_histogram()
    clock = store.clock
    return FragReport(
        storage_age=clock.age if clock.live_bytes > 0 else 0.0,
        n_objects=n,
        frag_mean=(sum(frags) / n) if n else 0.0,
        frag_p50=nearest_rank(frags, 50),
        frag_p99=nearest_rank(frags, 99),
        frag_max=frags[-1] if n else 0,
        free_runs=hist,
        free_runs_count=sum(hist.values()),
        free_bytes=volume.free_clusters * volume.cluster_size,
        est_read_throughput=(total_bytes / total_read_seconds) if total_read_seconds > 0 else 0.0,
        est_write_throughput=(
            interval_write_bytes / interval_model_seconds if interval_model_seconds > 0 else 0.0
        ),
        policy=store.config.policy.kind,
        seed=seed,
        config_echo=dict(config_echo or {}),
        reads=reads,
    )
