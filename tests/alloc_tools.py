"""Allocator tools that only tests use: the log cleaner's entry point and
Robson's worst-case bound for contiguous first fit."""

import math
from dataclasses import dataclass, field

from fraglab.errors import InvariantViolationError, NoSpaceError, UsageError
from fraglab.volume import Extent


def clean_log(store, target_clusters=None):
    """Run the log cleaner; returns clusters relocated.

    target_clusters, when given, is the contiguous free space the caller
    needs at the head; the cleaner compacts fully and raises if even that
    cannot produce the target.
    """
    policy = store.config.policy
    if policy.kind != "log_append":
        raise UsageError("clean_log requires the log_append policy")
    moved = policy.clean(store)
    if target_clusters is not None and policy._head_plan(store.volume, target_clusters) is None:
        raise NoSpaceError(f"cleaning left no room for {target_clusters} clusters at the head",
                           requested=target_clusters, available=store.volume.free_clusters)
    return moved


@dataclass
class RobsonTracker:
    """Worst-case address-space watermark check for contiguous first fit.

    Tracks peak live bytes (M), the largest single request in bytes (n),
    and the high-water mark of the address space ever touched.  For a
    contiguous-only first-fit allocator the watermark never exceeds
    M * log2(n).  All byte figures use allocated (cluster-rounded) sizes,
    since those are the requests the allocator actually sees.
    """

    cluster_size: int
    peak_live_bytes: int = 0
    max_request_bytes: int = 0
    high_water_bytes: int = 0
    live_bytes: int = field(default=0, repr=False)

    def observe_alloc(self, extents: list[Extent]) -> None:
        request = sum(e.length for e in extents) * self.cluster_size
        self.live_bytes += request
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.max_request_bytes = max(self.max_request_bytes, request)
        top = max(e.end for e in extents) * self.cluster_size
        self.high_water_bytes = max(self.high_water_bytes, top)

    def observe_free(self, extents: list[Extent]) -> None:
        self.live_bytes -= sum(e.length for e in extents) * self.cluster_size

    @property
    def bound_bytes(self) -> float:
        if self.max_request_bytes < 2:
            return float(self.peak_live_bytes)
        return self.peak_live_bytes * math.log2(self.max_request_bytes)

    @property
    def within_bound(self) -> bool:
        return self.high_water_bytes <= self.bound_bytes

    def check(self) -> None:
        if not self.within_bound:
            raise InvariantViolationError(
                f"first-fit watermark {self.high_water_bytes} exceeded"
                f" {self.peak_live_bytes} * log2({self.max_request_bytes})"
            )
