"""Pluggable allocation policies over a Volume.

Every policy answers one question: given a request for k clusters, which
extents come out of the free set?  Policies are strategies only: they reach
the free set through its FreeExtentIndex queries (the fits, which take what
they find, the split plans, top(), run lookups and take()), never touch owner
runs or records (log_append's cleaner calls ObjectStore.compact), and keep
only their allocator's state (buddy's internal fragmentation, a run cache, a log head).

Common contracts:
  * alloc(volume, requests) is the one call per object write: it serves the
    write's (clusters, count) groups of equal write requests in order and
    returns the coalesced pieces that one call per request would give, leaving
    the free set, the deferred set and the policy's state as those calls
    would; the fits serve all the requests one run can hold in one index
    step, the other policies serve them one by one;
  * if a request finds no space, every piece the write has taken goes back
    to the free set and the NoSpaceError is that request's own, with the free
    count at that moment; the policy's state keeps what the requests before
    it did;
  * returned extents are removed from the free set before returning, are
    pairwise disjoint, and are in the object's logical order;
  * a policy with fragmenting=False gives each request one extent or raises
    (buddy's flag is fixed false, ntfs_like's and log_append's true);
  * ties are broken toward the lowest offset so runs replay identically.

Split order when a request must fragment is part of each policy's contract:
first_fit splits in address order, ntfs_like and the best/worst-fit
fallback split largest-run-first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ConfigurationError, NoSpaceError, UsageError
from .schema import FIELDS, check_bounds, default, fixed_value
from .volume import Extent, Volume, coalesce

if TYPE_CHECKING:
    from .store import ObjectStore, StoreConfig

Pieces = list[tuple[int, int]]   # (offset, length) pieces, until alloc's coalesce makes Extents of them


class AllocPolicy:
    """Base policy: the fragmenting flag and the store-facing hooks."""

    kind = "?"
    fragmenting = False

    def alloc(self, volume: Volume, requests: list[tuple[int, int]]) -> list[Extent]:
        """Serve one object write's (clusters, count) requests (see the module's contracts)."""
        if any(clusters < 1 or count < 1 for clusters, count in requests):
            raise UsageError("allocation request must be >= 1 cluster, and its count >= 1")
        pieces: Pieces = []
        try:
            for clusters, count in requests:
                while count:
                    more, served = self._serve(volume, clusters, count)
                    pieces += more
                    count -= served
        except NoSpaceError:
            volume.release(pieces, "immediate")
            raise
        return coalesce(pieces)

    def _serve(self, volume: Volume, clusters: int, count: int) -> tuple[Pieces, int]:
        """Serve the next 1..count requests; return their pieces and how many were served."""
        raise NotImplementedError

    def prepare(self, store: "ObjectStore", clusters: int) -> None:
        """Called by the store before it starts allocating an object."""

    def check(self, config: "StoreConfig", volume: Volume) -> None:
        """Called when a store is built; raises if the policy cannot run with its config or volume."""


def _take_plan(volume: Volume, plan: Pieces) -> Pieces:
    """Take each (offset, length) piece of a plan out of the free set; return the plan."""
    for offset, length in plan:
        volume.free.take(offset, length)
    return plan


def _no_space(volume: Volume, clusters: int, why: str | None = None) -> NoSpaceError:
    return NoSpaceError(
        why or f"cannot allocate {clusters} clusters ({volume.free_clusters} free,"
        f" {volume.deferred_clusters} awaiting checkpoint)",
        requested=clusters,
        available=volume.free_clusters,
    )


class FitPolicy(AllocPolicy):
    """The requests one run holds, from the index's fit query; else (when fragmenting)
    one request in the pieces of its split plan."""

    fit = plan = ""   # FreeExtentIndex method names

    def __init__(self, fragmenting: bool = False):
        self.fragmenting = fragmenting

    def _serve(self, volume: Volume, clusters: int, count: int) -> tuple[Pieces, int]:
        got = getattr(volume.free, self.fit)(clusters, count)
        if got is not None:
            offset, n = got
            return [(offset, n * clusters)], n
        if not self.fragmenting or volume.free.total_free < clusters:
            raise _no_space(volume, clusters)
        return _take_plan(volume, getattr(volume.free, self.plan)(clusters)), 1


class FirstFitPolicy(FitPolicy):
    """Lowest-offset run that fits; address-order splitting when fragmenting."""

    kind, fit, plan = "first_fit", "first_fit", "address_plan"


class BestFitPolicy(FitPolicy):
    """Smallest run that fits; falls back to largest-first splits if allowed."""

    kind, fit, plan = "best_fit", "best_fit", "largest_first_plan"


class WorstFitPolicy(FitPolicy):
    """Largest run wins, one request at a time; no bundled config runs it, only the golden all-policy grids."""

    kind, fit, plan = "worst_fit", "worst_fit", "largest_first_plan"


class BuddyPolicy(AllocPolicy):
    """Power-of-two blocks aligned to their own size.

    Blocks live inside the volume's ordinary coalesced free set, so sibling
    merging falls out of run coalescing; allocation just asks the index for
    the lowest self-aligned block of the rounded-up order.  The padding
    between a request and its block is internal fragmentation, tracked here
    and carried in the returned extent (callers see the whole block).
    """

    kind = "buddy"

    def __init__(self, min_order: int = default("store.policy.params.min_order")):
        check_bounds("store.policy.params", min_order=min_order)
        self.min_order = min_order
        self.internal_frag_clusters = 0

    def check(self, config: "StoreConfig", volume: Volume) -> None:
        n = volume.total_clusters
        if n & (n - 1):
            raise ConfigurationError("buddy policy needs a power-of-two volume size")
        if self.min_order >= n.bit_length():   # orders compared, so no 2**min_order is built
            raise ConfigurationError(f"buddy min_order {self.min_order} exceeds the volume's"
                                     f" largest block order {n.bit_length() - 1}")

    def _serve(self, volume: Volume, clusters: int, count: int) -> tuple[Pieces, int]:
        order = max((clusters - 1).bit_length(), self.min_order)
        block = 1 << order
        offset = volume.free.aligned_block(block)
        if offset is None:
            raise _no_space(volume, block, f"no free buddy block of {block} clusters")
        self.internal_frag_clusters += block - clusters
        return [(offset, block)], 1


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

    Cache entries are validated against the live free set once per alloc
    call (one object write): an entry whose run has moved or vanished is
    dropped, one whose run shrank is cut to it, and one whose run has grown
    keeps its cached (smaller) size, since the cache does not see frees.
    Frees under this policy must be deferred (reuse waits for the commit);
    check enforces that.
    """

    kind = "ntfs_like"
    fragmenting = True

    def __init__(self, cache_depth: int = default("store.policy.params.cache_depth")):
        check_bounds("store.policy.params", cache_depth=cache_depth)
        self.cache_depth = cache_depth
        self._cache: list[list[int]] = []  # mutable [offset, length] entries

    def check(self, config: "StoreConfig", volume: Volume) -> None:
        if config.free_mode != "deferred":
            raise ConfigurationError(f"{self.kind} requires free_mode='deferred'")

    def _refresh_cache(self, volume: Volume) -> None:
        self._cache = [[offset, length] for length, offset in volume.free.top(self.cache_depth)]

    def _pick(self, volume: Volume, clusters: int) -> list[int] | None:
        """The cache entry stage 1, else stage 2, takes from; None if both miss.  One key orders
        both stages: (0, offset) for an entry wholly inside the outer band, else (1, -length, offset)."""
        outer_end = volume.bands[0].end_cluster
        return min((entry for entry in self._cache if entry[1] >= clusters), default=None,
                   key=lambda e: (0, e[0]) if e[0] + e[1] <= outer_end else (1, -e[1], e[0]))

    def alloc(self, volume: Volume, requests: list[tuple[int, int]]) -> list[Extent]:
        """Validate the cache once, cutting each entry to its live run and dropping the empty ones; then
        serve the requests: within one call only their own takes, off their runs' fronts, change the free set."""
        self._cache = [[offset, live] for offset, length in self._cache
                       if (live := min(length, volume.free.length_at(offset)))]
        return super().alloc(volume, requests)

    def _serve(self, volume: Volume, clusters: int, count: int) -> tuple[Pieces, int]:
        entry = self._pick(volume, clusters)
        if entry is None:
            self._refresh_cache(volume)   # fresh from the free set: nothing to validate
            entry = self._pick(volume, clusters)
        if entry is not None:
            offset = volume.free.take(entry[0], clusters)
            entry[0] += clusters
            entry[1] -= clusters
            if entry[1] == 0:
                self._cache.remove(entry)
            return [(offset, clusters)], 1
        if volume.free.total_free < clusters:
            raise _no_space(volume, clusters)
        extents = _take_plan(volume, volume.free.largest_first_plan(clusters))
        self._refresh_cache(volume)
        return extents, 1


class LogAppendPolicy(AllocPolicy):
    """Chronological layout: every allocation lands at the log head.

    The head only advances through the contiguous free region in front of
    it, wrapping to cluster 0 when that region touches the end of the
    volume and the start is free.  It never threads through interior holes;
    reclaiming those requires a cleaner pass (see clean), which the store runs.
    """

    kind = "log_append"
    fragmenting = True

    def __init__(self):
        self.head = 0
        self.clusters_moved = 0  # lifetime cleaner cost

    def _head_plan(self, volume: Volume, clusters: int) -> list[tuple[int, int]] | None:
        total = volume.total_clusters
        head = self.head % total
        run = volume.free.run_containing(head)
        if run is None:
            return None
        ahead = run.end - head
        if ahead >= clusters:
            return [(head, clusters)]
        # wrap: usable only if the run reaches the end and the region at cluster 0
        # is free; when one run spans the whole volume, do not cross the head
        wrap_len = head if run.offset == 0 else volume.free.length_at(0)
        if run.end == total and wrap_len >= clusters - ahead:
            return [(head, ahead), (0, clusters - ahead)]
        return None

    def _serve(self, volume: Volume, clusters: int, count: int) -> tuple[Pieces, int]:
        plan = self._head_plan(volume, clusters)
        if plan is None:
            raise _no_space(volume, clusters, f"log head has no room for {clusters} clusters before"
                            " the next live extent; a cleaner pass is required")
        pieces = _take_plan(volume, plan)
        self.head = sum(pieces[-1]) % volume.total_clusters   # the end of the last piece
        return pieces, 1

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
        """Compact the store and put the head at its one free run; returns clusters relocated."""
        moved = store.compact()
        self.head = store.volume.allocated_clusters % store.volume.total_clusters
        self.clusters_moved += moved
        return moved


_POLICIES = {cls.kind: cls for cls in (FirstFitPolicy, BestFitPolicy, WorstFitPolicy,
                                       BuddyPolicy, NtfsLikePolicy, LogAppendPolicy)}
POLICY_KINDS = tuple(_POLICIES)


def make_policy(kind: str, fragmenting: bool | None = None, params: dict | None = None) -> AllocPolicy:
    """A policy from its config name, its kind's params and its fragmenting flag
    (None: the kind's fixed value, or False for the fits; any other is an error)."""
    cls = _POLICIES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")
    params = params or {}
    unused = params.keys() - {f.path.rsplit(".", 1)[1] for f in FIELDS if f.kind == kind}
    if unused:
        raise ConfigurationError(f"unused {kind} params: {sorted(unused)}")
    policy = cls(**params)
    policy.fragmenting = fixed_value("store.policy.fragmenting", kind, fragmenting, False)
    return policy
