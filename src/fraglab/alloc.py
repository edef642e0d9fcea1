"""Pluggable allocation policies over a Volume.

Every policy answers one question: given a request for k clusters, which
extents come out of the free set?  Policies are strategies, not owners; the
volume still holds all state except the small amount each policy needs to
model its allocator (buddy order bookkeeping, a run cache, a log head).

Common contracts:
  * returned extents are removed from the free set before returning, are
    pairwise disjoint, and are in the object's logical order;
  * a policy with fragmenting=False either returns one extent or raises;
  * ties are broken toward the lowest offset so runs replay identically.

Split order when a request must fragment is part of each policy's contract:
first_fit splits in address order, ntfs_like and the best/worst-fit
fallback split largest-run-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConfigurationError, InvariantViolationError, NoSpaceError, UsageError
from .schema import FIELDS, default
from .volume import Extent, Volume

if TYPE_CHECKING:
    from .store import ObjectStore

class AllocPolicy:
    """Base policy: holds the fragmenting flag and the store-facing hooks."""

    kind = "?"
    requires_deferred_free = False

    def __init__(self, fragmenting: bool = False):
        self.fragmenting = fragmenting

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        raise NotImplementedError

    def prepare(self, store: "ObjectStore", clusters: int) -> None:
        """Called by the store before it starts allocating an object."""

    def note_checkpoint(self) -> None:
        """Called by the store after deferred frees commit."""

    def check_volume(self, volume: Volume) -> None:
        """Called when a store is built; raises if the policy cannot run on the volume."""

    def _check_request(self, clusters: int) -> None:
        if clusters < 1:
            raise UsageError("allocation request must be >= 1 cluster")


def _take_plan(volume: Volume, plan: list[tuple[int, int]]) -> list[Extent]:
    """Apply a (offset, length) plan against the free set, prefix-taking each run."""
    out = []
    for offset, length in plan:
        idx = volume.free.index_of_run_containing(offset)
        if idx is None:
            raise InvariantViolationError(f"planned run at {offset} vanished")
        volume.free.take(idx, offset, length)
        out.append(Extent(offset, length))
    return out


def _no_space(volume: Volume, clusters: int) -> NoSpaceError:
    return NoSpaceError(
        f"cannot allocate {clusters} clusters ({volume.free_clusters} free,"
        f" {volume.deferred_clusters} awaiting checkpoint)",
        requested=clusters,
        available=volume.free_clusters,
    )


def _fragment_plan_by_size(volume: Volume, clusters: int) -> list[tuple[int, int]]:
    """Split plan taking whole runs largest-first (ties toward low offsets)."""
    runs = sorted(
        zip(volume.free.lengths, volume.free.offsets),
        key=lambda r: (-r[0], r[1]),
    )
    plan = []
    need = clusters
    for length, offset in runs:
        take = min(need, length)
        plan.append((offset, take))
        need -= take
        if need == 0:
            return plan
    raise _no_space(volume, clusters)


class FirstFitPolicy(AllocPolicy):
    """Lowest-offset run that fits; address-order splitting when fragmenting."""

    kind = "first_fit"

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        lengths = volume.free.lengths
        offsets = volume.free.offsets
        for i, length in enumerate(lengths):
            if length >= clusters:
                offset = offsets[i]
                volume.free.take(i, offset, clusters)
                return [Extent(offset, clusters)]
        if not self.fragmenting or volume.free.total_free < clusters:
            raise _no_space(volume, clusters)
        plan = []
        need = clusters
        for offset, length in zip(offsets, lengths):
            take = min(need, length)
            plan.append((offset, take))
            need -= take
            if need == 0:
                break
        return _take_plan(volume, plan)


class BestFitPolicy(AllocPolicy):
    """Smallest run that fits; falls back to largest-first splits if allowed."""

    kind = "best_fit"

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        best_i = -1
        best_len = 0
        for i, length in enumerate(volume.free.lengths):
            if length >= clusters and (best_i < 0 or length < best_len):
                best_i, best_len = i, length
                if length == clusters:
                    break
        if best_i >= 0:
            offset = volume.free.offsets[best_i]
            volume.free.take(best_i, offset, clusters)
            return [Extent(offset, clusters)]
        if not self.fragmenting:
            raise _no_space(volume, clusters)
        return _take_plan(volume, _fragment_plan_by_size(volume, clusters))


class WorstFitPolicy(AllocPolicy):
    """Largest run wins; included for the exact-fit experiment's third arm."""

    kind = "worst_fit"

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        worst_i = -1
        worst_len = 0
        for i, length in enumerate(volume.free.lengths):
            if length >= clusters and length > worst_len:
                worst_i, worst_len = i, length
        if worst_i >= 0:
            offset = volume.free.offsets[worst_i]
            volume.free.take(worst_i, offset, clusters)
            return [Extent(offset, clusters)]
        if not self.fragmenting:
            raise _no_space(volume, clusters)
        return _take_plan(volume, _fragment_plan_by_size(volume, clusters))


class BuddyPolicy(AllocPolicy):
    """Power-of-two blocks aligned to their own size.

    Blocks live inside the volume's ordinary coalesced free set, so sibling
    merging falls out of run coalescing; allocation just searches for the
    lowest self-aligned block of the rounded-up order.  The padding between
    a request and its block is internal fragmentation, tracked here and
    carried in the returned extent (callers see the whole block).
    """

    kind = "buddy"

    def __init__(self, min_order: int = default("store.policy.params.min_order")):
        super().__init__(fragmenting=False)
        if min_order < 0:
            raise ConfigurationError("buddy min_order must be >= 0")
        self.min_order = min_order
        self.internal_frag_clusters = 0

    def check_volume(self, volume: Volume) -> None:
        n = volume.total_clusters
        if n & (n - 1):
            raise ConfigurationError("buddy policy needs a power-of-two volume size")

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        order = max((clusters - 1).bit_length(), self.min_order)
        block = 1 << order
        if block > volume.total_clusters:
            raise _no_space(volume, clusters)
        for i, (offset, length) in enumerate(zip(volume.free.offsets, volume.free.lengths)):
            aligned = -(-offset // block) * block
            if aligned + block <= offset + length:
                volume.free.take(i, aligned, block)
                self.internal_frag_clusters += block - clusters
                return [Extent(aligned, block)]
        raise NoSpaceError(
            f"no free buddy block of {block} clusters",
            requested=block,
            available=volume.free_clusters,
        )


class NtfsLikePolicy(AllocPolicy):
    """Three-stage allocation through a stale run cache.

    The cache holds the top `cache_depth` free runs at the time it was last
    built, ordered by decreasing size then decreasing offset.  It refreshes
    only when both cached stages miss, so space freed since the last refresh
    is invisible to the allocator until then; that lag, like the real
    commit-gated reuse it models, is what shapes long-term layout.

    Stage 1: lowest-offset cached run lying wholly inside the outer band.
    Stage 2: the largest cached run that fits (large extents in the cache
             are preferred; ties go to the lower offset).
    Stage 3: fragment, taking whole runs largest-first from the full free
             set; the cache is rebuilt afterwards.

    Cache entries are validated against the live free set on every use: an
    entry whose run has shrunk, moved, or vanished is dropped; an entry
    whose run has grown keeps its cached (smaller) size, since the cache
    does not see frees.  Frees under this policy must be deferred (reuse
    waits for the commit); the store enforces that.
    """

    kind = "ntfs_like"
    requires_deferred_free = True

    def __init__(self, cache_depth: int = default("store.policy.params.cache_depth")):
        super().__init__(fragmenting=True)
        if cache_depth < 1:
            raise ConfigurationError("ntfs_like cache depth must be >= 1")
        self.cache_depth = cache_depth
        self._cache: list[list[int]] = []  # mutable [offset, length] entries

    def _refresh_cache(self, volume: Volume) -> None:
        runs = sorted(
            zip(volume.free.offsets, volume.free.lengths),
            key=lambda r: (-r[1], -r[0]),
        )
        self._cache = [[off, length] for off, length in runs[: self.cache_depth]]

    def _validated_entries(self, volume: Volume) -> list[list[int]]:
        """Live cache entries; prunes any whose run no longer starts there."""
        live = []
        for entry in list(self._cache):
            idx = volume.free.index_of_run_containing(entry[0])
            if idx is None or volume.free.offsets[idx] != entry[0]:
                self._cache.remove(entry)
                continue
            entry[1] = min(entry[1], volume.free.lengths[idx])
            live.append(entry)
        return live

    def _take_from_entry(self, volume: Volume, entry: list[int], clusters: int) -> Extent:
        idx = volume.free.index_of_run_containing(entry[0])
        volume.free.take(idx, entry[0], clusters)
        ext = Extent(entry[0], clusters)
        entry[0] += clusters
        entry[1] -= clusters
        if entry[1] <= 0:
            self._cache.remove(entry)
        return ext

    def _stage1(self, volume: Volume, clusters: int) -> Extent | None:
        outer_end = volume.bands[0].end_cluster
        best = None
        for entry in self._validated_entries(volume):
            if entry[1] >= clusters and entry[0] + entry[1] <= outer_end:
                if best is None or entry[0] < best[0]:
                    best = entry
        if best is None:
            return None
        return self._take_from_entry(volume, best, clusters)

    def _stage2(self, volume: Volume, clusters: int) -> Extent | None:
        best = None
        for entry in self._validated_entries(volume):
            if entry[1] < clusters:
                continue
            if best is None or entry[1] > best[1] or (entry[1] == best[1] and entry[0] < best[0]):
                best = entry
        if best is None:
            return None
        return self._take_from_entry(volume, best, clusters)

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        hit = self._stage1(volume, clusters) or self._stage2(volume, clusters)
        if hit is None:
            self._refresh_cache(volume)
            hit = self._stage1(volume, clusters) or self._stage2(volume, clusters)
        if hit is not None:
            return [hit]
        if volume.free.total_free < clusters:
            raise _no_space(volume, clusters)
        extents = _take_plan(volume, _fragment_plan_by_size(volume, clusters))
        self._refresh_cache(volume)
        return extents


class LogAppendPolicy(AllocPolicy):
    """Chronological layout: every allocation lands at the log head.

    The head only advances through the contiguous free region in front of
    it, wrapping to cluster 0 when that region touches the end of the
    volume and the start is free.  It never threads through interior holes;
    reclaiming those requires a cleaner pass (see clean_log).
    """

    kind = "log_append"

    def __init__(self):
        super().__init__(fragmenting=True)
        self.head = 0
        self.clusters_moved = 0  # lifetime cleaner cost

    def _head_plan(self, volume: Volume, clusters: int) -> list[tuple[int, int]] | None:
        total = volume.total_clusters
        head = self.head % total
        idx = volume.free.index_of_run_containing(head)
        if idx is None:
            return None
        run_off = volume.free.offsets[idx]
        run_end = run_off + volume.free.lengths[idx]
        ahead = run_end - head
        if ahead >= clusters:
            return [(head, clusters)]
        plan = []
        if ahead:
            plan.append((head, ahead))
        if run_end != total:
            return None
        remaining = clusters - ahead
        # wrap: usable only if the region at cluster 0 is free
        if volume.free.offsets and volume.free.offsets[0] == 0:
            wrap_len = volume.free.lengths[0]
            if run_off == 0:  # one run spans the whole volume; do not cross the head
                wrap_len = head
            if wrap_len >= remaining:
                plan.append((0, remaining))
                return plan
        return None

    def alloc(self, volume: Volume, clusters: int) -> list[Extent]:
        self._check_request(clusters)
        plan = self._head_plan(volume, clusters)
        if plan is None:
            raise NoSpaceError(
                f"log head has no room for {clusters} clusters before the next"
                " live extent; a cleaner pass is required",
                requested=clusters,
                available=volume.free_clusters,
            )
        extents = _take_plan(volume, plan)
        self.head = extents[-1].end % volume.total_clusters
        return extents

    def prepare(self, store: "ObjectStore", clusters: int) -> None:
        """Make room at the head for a whole object before any of it is written."""
        if self._head_plan(store.volume, clusters) is not None:
            return
        store.checkpoint_now()
        if self._head_plan(store.volume, clusters) is not None:
            return
        self.clean(store)
        if self._head_plan(store.volume, clusters) is None:
            raise _no_space(store.volume, clusters)

    def clean(self, store: "ObjectStore") -> int:
        """Compact all owner runs toward cluster 0, preserving address order.

        Commits deferred frees first (the cleaner only reclaims committed
        space), moves every owner run and object record along with the data,
        and leaves the head at the start of the single remaining free run.
        Returns the number of clusters relocated.
        """
        volume = store.volume
        store.checkpoint_now()
        moved = 0
        write_ptr = 0
        compacted: dict[int, tuple] = {}
        placements: dict = {}
        for offset, (length, key, seq) in sorted(volume.owners.items()):
            if offset != write_ptr:
                moved += length
            compacted[write_ptr] = (length, key, seq)
            placements.setdefault(key, []).append((seq, write_ptr, length))
            write_ptr += length
        volume.owners = compacted
        volume.free.clear()
        if write_ptr < volume.total_clusters:
            volume.free.add(write_ptr, volume.total_clusters - write_ptr)
        store.rewrite_layout(placements)
        self.head = write_ptr % volume.total_clusters
        self.clusters_moved += moved
        return moved


_POLICIES = {cls.kind: cls for cls in (FirstFitPolicy, BestFitPolicy, WorstFitPolicy,
                                       BuddyPolicy, NtfsLikePolicy, LogAppendPolicy)}
POLICY_KINDS = tuple(_POLICIES)


def make_policy(kind: str, fragmenting: bool = False, params: dict | None = None) -> AllocPolicy:
    """Build a policy from its config name and the params the schema gives its kind."""
    cls = _POLICIES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")
    params = params or {}
    unused = params.keys() - {f.path.rsplit(".", 1)[1] for f in FIELDS if f.kind == kind}
    if unused:
        raise ConfigurationError(f"unused {kind} params: {sorted(unused)}")
    # the fits take the flag; every other kind fixes it
    if cls.__init__ is AllocPolicy.__init__:
        return cls(fragmenting=fragmenting)
    return cls(**params)


def clean_log(store: "ObjectStore", target_clusters: int | None = None) -> int:
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
        raise _no_space(store.volume, target_clusters)
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
