"""The linear allocators that the free-run index replaced, and the store's
one-group-per-write-request append plan that batching replaced, kept as oracles.

LinearFreeIndex is the old free set: coalesced runs in two parallel lists
sorted by offset.  The Linear*Policy classes keep the old policy bodies,
which scan those lists front to back and serve one request per alloc_one
call; OneRequestAtATime gives them their own loop over an object write's
requests, with their own rollback and coalesce, so the loop in
AllocPolicy.alloc is checked against code it does not share.
linear_volume() builds a volume whose free set is a LinearFreeIndex, and a
PerRequestStore hands its policy one (clusters, 1) group per write request,
so the two together allocate exactly as fraglab did before the index and
before batched appends; tests/test_free_index.py checks that the indexed,
batched policies still agree with these, extent for extent.
"""

from bisect import bisect_right
from itertools import starmap

from fraglab.alloc import (
    BestFitPolicy,
    BuddyPolicy,
    FirstFitPolicy,
    LogAppendPolicy,
    NtfsLikePolicy,
    WorstFitPolicy,
    _no_space,
)
from fraglab.errors import InvariantViolationError, NoSpaceError, UsageError
from fraglab.store import ObjectStore
from fraglab.volume import Extent, create_volume


def per_request_plan(size_bytes, cluster_size, write_request_size, size_hint):
    """The clusters each write request of one object allocates, request by request."""
    total = -(-size_bytes // cluster_size)
    if size_hint:
        return [total]
    plan = []
    allocated = 0
    written = 0
    while written < size_bytes:
        written = min(written + write_request_size, size_bytes)
        need = -(-written // cluster_size)
        if need > allocated:
            plan.append(need - allocated)
            allocated = need
    return plan


class PerRequestStore(ObjectStore):
    """An ObjectStore that makes one policy call per write request."""

    def _append_plan(self, size_bytes):
        config = self.config
        return [(k, 1) for k in per_request_plan(size_bytes, self.volume.cluster_size,
                                                 config.write_request_size, config.size_hint)]


class OneRequestAtATime:
    """alloc(volume, requests) as a loop of alloc_one calls, one per write request."""

    def alloc(self, volume, requests):
        if any(clusters < 1 or count < 1 for clusters, count in requests):
            raise UsageError("allocation request must be >= 1 cluster, and its count >= 1")
        pieces = []
        try:
            for clusters, count in requests:
                for _ in range(count):
                    pieces.extend(self.alloc_one(volume, clusters))
        except NoSpaceError:
            for ext in pieces:
                volume.free.add(ext.offset, ext.length)
            raise
        extents = []
        for ext in pieces:
            if extents and extents[-1].end == ext.offset:
                extents[-1] = Extent(extents[-1].offset, extents[-1].length + ext.length)
            else:
                extents.append(ext)
        return extents

    def alloc_one(self, volume, clusters):
        raise NotImplementedError


class LinearFreeIndex:
    """Coalesced free runs in two parallel lists sorted by offset."""

    def __init__(self):
        self.offsets = []
        self.lengths = []
        self.total_free = 0

    def __len__(self):
        return len(self.offsets)

    def __iter__(self):
        return zip(self.offsets, self.lengths)

    def runs(self):
        return starmap(Extent, self)

    def check(self):
        if sum(self.lengths) != self.total_free:
            raise InvariantViolationError("free-set total drifted from its runs")

    def intersects(self, offset, length):
        i = bisect_right(self.offsets, offset) - 1
        if i >= 0 and self.offsets[i] + self.lengths[i] > offset:
            return True
        i += 1
        return i < len(self.offsets) and self.offsets[i] < offset + length

    def index_of_run_containing(self, cluster):
        i = bisect_right(self.offsets, cluster) - 1
        if i >= 0 and self.offsets[i] + self.lengths[i] > cluster:
            return i
        return None

    def add(self, offset, length):
        if length < 1 or offset < 0:
            raise InvariantViolationError(f"bad free run ({offset},{length})")
        i = bisect_right(self.offsets, offset)
        left = i - 1
        if left >= 0 and self.offsets[left] + self.lengths[left] > offset:
            raise InvariantViolationError(f"double free: ({offset},{length})")
        if i < len(self.offsets) and offset + length > self.offsets[i]:
            raise InvariantViolationError(f"double free: ({offset},{length})")
        merge_left = left >= 0 and self.offsets[left] + self.lengths[left] == offset
        merge_right = i < len(self.offsets) and offset + length == self.offsets[i]
        if merge_left and merge_right:
            self.lengths[left] += length + self.lengths[i]
            del self.offsets[i]
            del self.lengths[i]
        elif merge_left:
            self.lengths[left] += length
        elif merge_right:
            self.offsets[i] = offset
            self.lengths[i] += length
        else:
            self.offsets.insert(i, offset)
            self.lengths.insert(i, length)
        self.total_free += length

    def take_at(self, index, offset, length):
        """Remove [offset, offset+length) from inside the run at position index."""
        run_off = self.offsets[index]
        run_end = run_off + self.lengths[index]
        if offset < run_off or offset + length > run_end:
            raise InvariantViolationError("take() outside the chosen run")
        before = offset - run_off
        after = run_end - (offset + length)
        if before == 0 and after == 0:
            del self.offsets[index]
            del self.lengths[index]
        elif before == 0:
            self.offsets[index] = offset + length
            self.lengths[index] = after
        elif after == 0:
            self.lengths[index] = before
        else:
            self.lengths[index] = before
            self.offsets.insert(index + 1, offset + length)
            self.lengths.insert(index + 1, after)
        self.total_free -= length

    def clear(self):
        self.offsets.clear()
        self.lengths.clear()
        self.total_free = 0


def linear_volume(*args, **kwargs):
    """create_volume(...), with its free set held in a LinearFreeIndex."""
    volume = create_volume(*args, **kwargs)
    volume.free = LinearFreeIndex()
    volume.free.add(0, volume.total_clusters)
    return volume


def _take_plan(volume, plan):
    out = []
    for offset, length in plan:
        idx = volume.free.index_of_run_containing(offset)
        if idx is None:
            raise InvariantViolationError(f"planned run at {offset} vanished")
        volume.free.take_at(idx, offset, length)
        out.append(Extent(offset, length))
    return out


def _fragment_plan_by_size(volume, clusters):
    runs = sorted(zip(volume.free.lengths, volume.free.offsets), key=lambda r: (-r[0], r[1]))
    plan = []
    need = clusters
    for length, offset in runs:
        take = min(need, length)
        plan.append((offset, take))
        need -= take
        if need == 0:
            return plan
    raise _no_space(volume, clusters)


class LinearFirstFitPolicy(OneRequestAtATime, FirstFitPolicy):
    def alloc_one(self, volume, clusters):
        lengths = volume.free.lengths
        offsets = volume.free.offsets
        for i, length in enumerate(lengths):
            if length >= clusters:
                offset = offsets[i]
                volume.free.take_at(i, offset, clusters)
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


class LinearBestFitPolicy(OneRequestAtATime, BestFitPolicy):
    def alloc_one(self, volume, clusters):
        best_i = -1
        best_len = 0
        for i, length in enumerate(volume.free.lengths):
            if length >= clusters and (best_i < 0 or length < best_len):
                best_i, best_len = i, length
                if length == clusters:
                    break
        if best_i >= 0:
            offset = volume.free.offsets[best_i]
            volume.free.take_at(best_i, offset, clusters)
            return [Extent(offset, clusters)]
        if not self.fragmenting:
            raise _no_space(volume, clusters)
        return _take_plan(volume, _fragment_plan_by_size(volume, clusters))


class LinearWorstFitPolicy(OneRequestAtATime, WorstFitPolicy):
    def alloc_one(self, volume, clusters):
        worst_i = -1
        worst_len = 0
        for i, length in enumerate(volume.free.lengths):
            if length >= clusters and length > worst_len:
                worst_i, worst_len = i, length
        if worst_i >= 0:
            offset = volume.free.offsets[worst_i]
            volume.free.take_at(worst_i, offset, clusters)
            return [Extent(offset, clusters)]
        if not self.fragmenting:
            raise _no_space(volume, clusters)
        return _take_plan(volume, _fragment_plan_by_size(volume, clusters))


class LinearBuddyPolicy(OneRequestAtATime, BuddyPolicy):
    def alloc_one(self, volume, clusters):
        order = max((clusters - 1).bit_length(), self.min_order)
        block = 1 << order
        if block > volume.total_clusters:
            raise _no_space(volume, clusters)
        for i, (offset, length) in enumerate(zip(volume.free.offsets, volume.free.lengths)):
            aligned = -(-offset // block) * block
            if aligned + block <= offset + length:
                volume.free.take_at(i, aligned, block)
                self.internal_frag_clusters += block - clusters
                return [Extent(aligned, block)]
        raise NoSpaceError(f"no free buddy block of {block} clusters",
                           requested=block, available=volume.free_clusters)


class LinearNtfsLikePolicy(OneRequestAtATime, NtfsLikePolicy):
    def _refresh_cache(self, volume):
        runs = sorted(zip(volume.free.offsets, volume.free.lengths), key=lambda r: (-r[1], -r[0]))
        self._cache = [[off, length] for off, length in runs[: self.cache_depth]]

    def _validated_entries(self, volume):
        live = []
        for entry in list(self._cache):
            idx = volume.free.index_of_run_containing(entry[0])
            if idx is None or volume.free.offsets[idx] != entry[0]:
                self._cache.remove(entry)
                continue
            entry[1] = min(entry[1], volume.free.lengths[idx])
            live.append(entry)
        return live

    def _take_from_entry(self, volume, entry, clusters):
        idx = volume.free.index_of_run_containing(entry[0])
        volume.free.take_at(idx, entry[0], clusters)
        ext = Extent(entry[0], clusters)
        entry[0] += clusters
        entry[1] -= clusters
        if entry[1] <= 0:
            self._cache.remove(entry)
        return ext

    def _stage1(self, volume, clusters):
        outer_end = volume.bands[0].end_cluster
        best = None
        for entry in self._validated_entries(volume):
            if entry[1] >= clusters and entry[0] + entry[1] <= outer_end:
                if best is None or entry[0] < best[0]:
                    best = entry
        if best is None:
            return None
        return self._take_from_entry(volume, best, clusters)

    def _stage2(self, volume, clusters):
        best = None
        for entry in self._validated_entries(volume):
            if entry[1] < clusters:
                continue
            if best is None or entry[1] > best[1] or (entry[1] == best[1] and entry[0] < best[0]):
                best = entry
        if best is None:
            return None
        return self._take_from_entry(volume, best, clusters)

    def alloc_one(self, volume, clusters):
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


class LinearLogAppendPolicy(OneRequestAtATime, LogAppendPolicy):
    def _head_plan(self, volume, clusters):
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
        if volume.free.offsets and volume.free.offsets[0] == 0:
            wrap_len = volume.free.lengths[0]
            if run_off == 0:
                wrap_len = head
            if wrap_len >= remaining:
                plan.append((0, remaining))
                return plan
        return None

    def alloc_one(self, volume, clusters):
        plan = self._head_plan(volume, clusters)
        if plan is None:
            raise NoSpaceError(f"log head has no room for {clusters} clusters",
                               requested=clusters, available=volume.free_clusters)
        extents = _take_plan(volume, plan)
        self.head = extents[-1].end % volume.total_clusters
        return extents


LINEAR_POLICIES = {cls.kind: cls for cls in (
    LinearFirstFitPolicy, LinearBestFitPolicy, LinearWorstFitPolicy,
    LinearBuddyPolicy, LinearNtfsLikePolicy, LinearLogAppendPolicy,
)}
