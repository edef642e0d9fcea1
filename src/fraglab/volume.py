"""The simulated disk: cluster space, free-run bookkeeping, and a banded cost model.

A volume is an array of fixed-size clusters.  Free space is a FreeExtentIndex
of coalesced runs (no two ever adjacent) that answers the allocation policies'
queries.  Deferred frees, reusable only after the next checkpoint as in
allocators whose log entry must commit before freed space is recycled, are a
second FreeExtentIndex that nothing allocates from.

Allocated clusters are tagged by owner runs, one per extent of an object,
each naming its owner key and the sequence number of its first cluster, the
rest following in order.  The owner map (OwnerMap) lives here alone, in
buckets of 2**OWNER_SHIFT clusters, so a safe write's churn rebuilds one small
bucket's table, never a table of every run.  write_runs numbers an object's
runs and clearing or re-keying an extent takes exactly its run, one bucket
fetch per run; owner_sweep checks the runs in address order, bucket by bucket,
owner_groups groups them over it for the layout scanner, which never consults
object records, and match_layouts walks the records' layouts for verify.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from functools import partial
from heapq import merge
from itertools import chain, islice, starmap
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigurationError, CorruptionError, InvariantViolationError
from .schema import check_bounds, check_type, default, dump, parse

DEFAULT_OUTER_RATE = 60e6   # bytes/second
DEFAULT_INNER_RATE = 30e6


class Extent(NamedTuple):
    """A contiguous run of clusters; the unit of allocation and of fragmentation."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class Band(NamedTuple):
    """A region of the disk with one transfer rate.  Outer bands are faster."""

    start_cluster: int
    end_cluster: int       # exclusive
    transfer_rate: float   # bytes/second


def default_bands(total_clusters: int) -> list[Band]:
    """Two equal bands, outer twice as fast as inner."""
    split = total_clusters // 2
    if split == 0:
        return [Band(0, total_clusters, DEFAULT_OUTER_RATE)]
    return [
        Band(0, split, DEFAULT_OUTER_RATE),
        Band(split, total_clusters, DEFAULT_INNER_RATE),
    ]


def _validate_bands(bands: list[Band], total_clusters: int) -> None:
    if not bands:
        raise ConfigurationError("volume needs at least one band")
    if bands[0].start_cluster != 0:
        raise ConfigurationError("first band must start at cluster 0")
    for i, band in enumerate(bands):
        if band.end_cluster <= band.start_cluster:
            raise ConfigurationError(f"band {i} is empty or inverted")
        if band.transfer_rate <= 0:
            raise ConfigurationError(f"band {i} transfer rate must be > 0")
        if i > 0:
            if band.start_cluster != bands[i - 1].end_cluster:
                raise ConfigurationError("bands must partition the volume without gaps")
            if band.transfer_rate > bands[i - 1].transfer_rate:
                raise ConfigurationError("band rates must not increase toward the inner edge")
    if bands[-1].end_cluster != total_clusters:
        raise ConfigurationError("last band must end at the last cluster")


# an Extent from an (offset, length) pair, without the Python-level call of Extent.__new__
as_extent = partial(tuple.__new__, Extent)


def coalesce(pieces: Iterable[tuple[int, int]]) -> list[Extent]:
    """Merge (offset, length) pieces, in logical order, where one ends as the next begins: the one
    adjacency rule, so a record's extents, which all come from here, are its fragments."""
    out: list[Extent] = []
    prev_end = -1
    for piece in pieces:
        offset, length = piece
        if offset == prev_end:
            last = out[-1]
            out[-1] = Extent(last.offset, last.length + length)
        else:
            out.append(as_extent(piece))
        prev_end = offset + length
    return out


def _cover(runs: Iterable[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """(offset, length) pieces of the runs, in their order, that add up to k clusters."""
    plan = []
    for offset, length in runs:
        plan.append((offset, min(k, length)))
        k -= plan[-1][1]
        if k == 0:
            return plan
    raise InvariantViolationError("a split plan asked for more clusters than are free")


# runs per chunk after a split; a chunk splits when it passes twice this
CHUNK = 32


class FreeExtentIndex:
    """Coalesced free runs (no two adjacent), answering the allocators' queries.

    Address order is a blocked list: chunks of up to 2 * CHUNK runs, each with
    its first offset (_firsts) and longest run (_maxes); a lookup bisects the
    firsts, then the chunk, and first fit and the buddy search skip chunks
    whose longest run is too short.  Size order, for best fit, worst fit,
    top() and the largest-first plan, is the distinct lengths, sorted
    (_lengths), and for each length the sorted offsets of its runs
    (_by_length): segregated fits with exact size classes.  Distinct lengths
    stay few (d of them need d(d+1)/2 free clusters), so a fit bisects a
    short list, and an update edits one offset list.  It is built on first
    use, so first fit never pays for it; until then best fit scans a lone
    chunk, cheaper while a bulk load carves up one run or few runs are free.
    The fits serve up to `count` requests of k clusters each and return
    (offset, requests served), aligned_block returns the offset it took; both
    give None when nothing fits, and ties go to the lowest offset.  Only they,
    add() and take() mutate, and every mutation goes through _splice, the one
    code that keeps the firsts, maxima and size order current.
    """

    __slots__ = ("_offs", "_lens", "_firsts", "_maxes", "_lengths", "_by_length", "total_free")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self._offs: list[list[int]] = []
        self._lens: list[list[int]] = []
        self._firsts: list[int] = []
        self._maxes: list[int] = []
        self._lengths: list[int] | None = None   # None: the size order is not built
        self._by_length: dict[int, list[int]] = {}
        self.total_free = 0

    def __len__(self) -> int:
        return sum(map(len, self._offs))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """(offset, length) of every run, in address order."""
        return chain.from_iterable(map(zip, self._offs, self._lens))

    def runs(self) -> Iterator[Extent]:
        return starmap(Extent, self)

    # -- lookups ------------------------------------------------------------------

    def _before(self, cluster: int) -> tuple[int, int, int, int] | None:
        """(chunk, position, offset, length) of the last run starting at or before cluster."""
        ci = bisect_right(self._firsts, cluster) - 1
        if ci < 0:
            return None
        j = bisect_right(self._offs[ci], cluster) - 1
        return ci, j, self._offs[ci][j], self._lens[ci][j]

    def run_containing(self, cluster: int) -> Extent | None:
        run = self._before(cluster)
        return Extent(run[2], run[3]) if run and run[2] + run[3] > cluster else None

    def length_at(self, offset: int) -> int:
        """The length of the run starting at offset; 0 if no run starts there."""
        run = self._before(offset)
        return run[3] if run and run[2] == offset else 0

    def intersects(self, offset: int, length: int) -> bool:
        run = self._before(offset + length - 1)
        return run is not None and run[2] + run[3] > offset

    # -- queries that take what they find -------------------------------------------

    def first_fit(self, k: int, count: int = 1) -> tuple[int, int] | None:
        """Take n = min(count, length // k) requests of k clusters off the lowest-offset run
        that holds k; (offset, n), or None.  Every run before it stays shorter than k, so the
        run stays first fit for each next request while what is left of it holds k."""
        for ci, longest in enumerate(self._maxes):
            if longest >= k:
                lens = self._lens[ci]
                j = 0
                while lens[j] < k:
                    j += 1
                return self._take_front(ci, j, k, count)
        return None

    def best_fit(self, k: int, count: int = 1) -> tuple[int, int] | None:
        """As first_fit, from the shortest run that holds k (ties to the lowest offset): what
        is left of it stays that run, since no other run is at least k and shorter than it was."""
        if self._lengths is None and len(self._maxes) == 1:   # one chunk (a bulk load, a small free set): scan it
            lens = self._lens[0]
            best = None
            for j, length in enumerate(lens):
                if k <= length and (best is None or length < lens[best]):
                    best = j
            return None if best is None else self._take_front(0, best, k, count)
        lengths = self._by_size()
        i = bisect_left(lengths, k)
        if i == len(lengths):
            return None
        return self._take_front(*self._before(self._by_length[lengths[i]][0])[:2], k, count)

    def worst_fit(self, k: int, count: int = 1) -> tuple[int, int] | None:
        """Take k clusters off the front of the longest run, if it holds them; (offset, 1).
        One request whatever count asks: the shortened run may no longer be the longest."""
        lengths = self._by_size()
        if not lengths or lengths[-1] < k:
            return None
        return self._take_front(*self._before(self._by_length[lengths[-1]][0])[:2], k, 1)

    def aligned_block(self, block: int) -> int | None:
        """Take the lowest free block of `block` clusters that starts at a multiple of block."""
        for ci, longest in enumerate(self._maxes):
            if longest >= block:
                for offset, length in zip(self._offs[ci], self._lens[ci]):
                    aligned = -(-offset // block) * block
                    if aligned + block <= offset + length:
                        return self.take(aligned, block)
        return None

    # -- split plans and the run cache's view (nothing is taken) -----------------------

    def address_plan(self, k: int) -> list[tuple[int, int]]:
        """(offset, length) pieces of k <= total_free clusters: whole runs in address order."""
        return _cover(self, k)

    def largest_first_plan(self, k: int) -> list[tuple[int, int]]:
        """Pieces of k <= total_free clusters: whole runs longest first, ties to low offsets."""
        by_length = self._by_length
        return _cover(((offset, length) for length in reversed(self._by_size())
                       for offset in by_length[length]), k)

    def top(self, n: int) -> list[tuple[int, int]]:
        """(length, offset) of the n longest runs, longest first, ties toward high offsets."""
        by_length = self._by_length
        return list(islice(((length, offset) for length in reversed(self._by_size())
                            for offset in reversed(by_length[length])), n))

    # -- mutation -------------------------------------------------------------------

    def add(self, offset: int, length: int) -> None:
        """Insert a run, merging with adjacent neighbours.  Overlap is a bug, refused before any change."""
        if length < 1 or offset < 0:
            raise InvariantViolationError(f"bad free run ({offset},{length})")
        end = offset + length
        nxt = prev = self._before(end)
        if nxt is not None and nxt[2] == end:   # the left neighbour is the run before it
            ci, j = nxt[0], nxt[1] - 1
            if j < 0 and ci:
                ci -= 1
                j = len(self._offs[ci]) - 1
            prev = (ci, j, self._offs[ci][j], self._lens[ci][j]) if j >= 0 else None
        if prev is not None and prev[2] + prev[3] > offset:
            raise InvariantViolationError(f"double free: ({offset},{length}) overlaps a free run")
        self.total_free += length
        touches_prev = prev is not None and prev[2] + prev[3] == offset
        if nxt is not None and nxt[2] == end:   # merge with the run to the right
            if not touches_prev:
                self._splice(nxt[0], nxt[1], 1, ((offset, length + nxt[3]),))
                return
            self._splice(nxt[0], nxt[1], 1, ())
            length += nxt[3]
        if touches_prev:
            self._splice(prev[0], prev[1], 1, ((prev[2], prev[3] + length),))
        else:   # a run of its own, after prev or first of all
            self._splice(*((prev[0], prev[1] + 1) if prev else (0, 0)), 0, ((offset, length),))

    def take(self, offset: int, length: int) -> int:
        """Remove [offset, offset+length), which must lie inside one free run; return offset."""
        run = self._before(offset)
        if run is None or length < 1 or offset + length > run[2] + run[3]:
            raise InvariantViolationError(f"take({offset},{length}) outside a free run")
        ci, j, run_off, run_len = run
        end, run_end = offset + length, run_off + run_len
        pieces = ((run_off, offset - run_off),) if offset > run_off else ()
        self._splice(ci, j, 1, pieces + ((end, run_end - end),) if end < run_end else pieces)
        self.total_free -= length
        return offset

    def _take_front(self, ci: int, j: int, k: int, count: int) -> tuple[int, int]:
        """Take n = min(count, length // k) requests of k clusters off the front of the run
        at (ci, j), which holds one at least; return (its offset, n)."""
        offset = self._offs[ci][j]
        length = self._lens[ci][j]
        n = length // k
        if n > count:
            n = count
        taken = n * k
        self._splice(ci, j, 1, ((offset + taken, length - taken),) if length > taken else ())
        self.total_free -= taken
        return offset, n

    def _splice(self, ci: int, j: int, removed: int, pieces) -> None:
        """Put the (offset, length) pieces in place of `removed` (0 or 1) runs at (ci, j).
        The one writer of the runs, so the one keeper of the chunk firsts, maxima and size
        order; at (0, 0) of an empty index it makes the first chunk."""
        if not self._offs:
            self._offs, self._lens, self._firsts, self._maxes = [[]], [[]], [0], [0]
        offs, lens = self._offs[ci], self._lens[ci]
        gone = lens[j] if removed else 0
        lengths = self._lengths
        if lengths is not None:
            by_length = self._by_length
            if removed:
                same = by_length[gone]
                del same[bisect_left(same, offs[j])]
                if not same:
                    del by_length[gone], lengths[bisect_left(lengths, gone)]
            for offset, length in pieces:
                same = by_length.get(length)
                if same is None:
                    by_length[length] = [offset]
                    insort(lengths, length)
                else:
                    insort(same, offset)
        if removed == len(pieces) == 1:   # the fits' hot path: a run changes in place
            offs[j], lens[j] = pieces[0]
        else:
            if removed:
                del offs[j], lens[j]
            for offset, length in reversed(pieces):
                offs.insert(j, offset)
                lens.insert(j, length)
            if not offs:
                del self._offs[ci], self._lens[ci], self._firsts[ci], self._maxes[ci]
                return
            if len(offs) > 2 * CHUNK:
                self._offs.insert(ci + 1, offs[CHUNK:])
                self._lens.insert(ci + 1, lens[CHUNK:])
                self._firsts.insert(ci + 1, offs[CHUNK])
                self._maxes.insert(ci + 1, max(lens[CHUNK:]))
                del offs[CHUNK:], lens[CHUNK:]
                gone = self._maxes[ci]   # the tail may have held the maximum
        self._firsts[ci] = offs[0]
        longest = self._maxes[ci]
        if gone == longest:
            self._maxes[ci] = max(lens)
        else:
            for _offset, length in pieces:
                if length > longest:
                    self._maxes[ci] = longest = length

    def _by_size(self) -> list[int]:
        """The distinct lengths, sorted, building the size order on first use: runs come in
        address order, so appending keeps each length's offsets sorted."""
        if self._lengths is None:
            by_length = self._by_length
            for offset, length in self:
                by_length.setdefault(length, []).append(offset)
            self._lengths = sorted(by_length)
        return self._lengths

    def check(self) -> None:
        """Recount everything the index keeps; raise on any inconsistency."""
        runs = list(self)
        if (not all(self._offs) or self._firsts != [offs[0] for offs in self._offs]
                or self._maxes != [max(lens) for lens in self._lens]):
            raise InvariantViolationError("free-run chunks are empty, misindexed or stale")
        if any(o <= p + n or m < 1 for (p, n), (o, m) in zip([(-2, 0)] + runs, runs)):
            raise InvariantViolationError("free runs overlap, touch or are out of order")
        if sum(n for _o, n in runs) != self.total_free:
            raise InvariantViolationError("free-set total drifted from its runs")
        lengths, by_length = self._lengths, self._by_length
        if lengths is not None and (lengths != sorted(by_length) or not all(by_length.values())
                                    or [(n, o) for n in lengths for o in by_length[n]]
                                    != sorted((n, o) for o, n in runs)):
            raise InvariantViolationError("the free runs' size order is stale")


class TEMP:
    """The owner key of a safe write's new copy until the swap hands its runs to the object; no object id."""


def is_object_id(key) -> bool:
    """The one object-id rule: an integer or a string, not a bool (True hashes as 1); so never TEMP."""
    return isinstance(key, (int, str)) and not isinstance(key, bool)


# an owner run at offset lies in the OwnerMap bucket offset >> OWNER_SHIFT: 4,096 clusters per bucket
OWNER_SHIFT = 12


def _not_one_run(offset: int, length: int) -> InvariantViolationError:
    return InvariantViolationError(f"extent {(offset, length)} is not one owner run")


class OwnerMap(MutableMapping):
    """The owner runs: first cluster of a run -> (length, owner key, sequence number of that cluster),
    held as a dict of buckets, offset >> OWNER_SHIFT -> the runs that start in those clusters; an empty
    bucket stays for the next write.  Iteration is in address order (the bucket ids sorted, then each
    bucket), so an offset below 0 or past the volume sorts first or last."""

    __slots__ = ("buckets",)

    def __init__(self, runs=()) -> None:
        self.buckets: dict[int, dict[int, tuple]] = {}
        self.update(runs)

    def __getitem__(self, offset: int) -> tuple:
        return self.buckets[offset >> OWNER_SHIFT][offset]

    def __setitem__(self, offset: int, run: tuple) -> None:
        self.buckets.setdefault(offset >> OWNER_SHIFT, {})[offset] = run

    def __delitem__(self, offset: int) -> None:
        del self.buckets[offset >> OWNER_SHIFT][offset]

    def __iter__(self) -> Iterator[int]:
        buckets = self.buckets
        return chain.from_iterable(sorted(buckets[b]) for b in sorted(buckets))

    def __len__(self) -> int:
        return sum(map(len, self.buckets.values()))

    def __repr__(self) -> str:
        return f"OwnerMap({dict(self)!r})"


@dataclass
class Volume:
    """Simulated disk state.  Single-threaded; never share one mutably."""

    total_clusters: int
    cluster_size: int
    bands: list[Band]
    seek_time: float = default("volume.seek_time")   # per non-adjacent extent transition
    free: FreeExtentIndex = field(default_factory=FreeExtentIndex)
    deferred: FreeExtentIndex = field(default_factory=FreeExtentIndex)
    owners: OwnerMap = field(default_factory=OwnerMap)

    @property
    def capacity_bytes(self) -> int:
        return self.total_clusters * self.cluster_size

    @property
    def free_clusters(self) -> int:
        return self.free.total_free

    @property
    def deferred_clusters(self) -> int:
        return self.deferred.total_free

    @property
    def allocated_clusters(self) -> int:
        return self.total_clusters - self.free.total_free - self.deferred.total_free

    # -- allocation-side bookkeeping -------------------------------------

    def release(self, extents: Iterable[tuple[int, int]], mode: str = "immediate") -> None:
        """Return (offset, length) extents to the pool, in order.

        immediate: coalesce into the free set now.
        deferred:  stage until the next checkpoint; the clusters stay
                   unallocatable and unreusable in between.

        Releasing a cluster that is already free or deferred is a simulator
        bug and aborts the run, the refused extent left where it was: it is
        checked once, against the set it does not go into (unless that set is
        empty), and the set it goes into refuses in add an overlap with its own
        runs before changing them.
        """
        if mode not in ("immediate", "deferred"):
            raise InvariantViolationError(f"unknown release mode {mode!r}")
        into, other = (self.free, self.deferred) if mode == "immediate" else (self.deferred, self.free)
        for offset, length in extents:
            if length < 1 or offset < 0 or offset + length > self.total_clusters:
                raise InvariantViolationError(f"release of malformed extent {Extent(offset, length)}")
            if other.total_free and other.intersects(offset, length):
                raise self._refusal(other, offset, length)
            try:
                into.add(offset, length)
            except InvariantViolationError:
                raise self._refusal(into, offset, length) from None

    def _refusal(self, runs: FreeExtentIndex, offset: int, length: int) -> InvariantViolationError:
        """The error for a release of an extent that overlaps the free or the deferred runs."""
        what = "non-allocated" if runs is self.free else "deferred"
        return InvariantViolationError(f"release of {what} extent {Extent(offset, length)}")

    def checkpoint(self) -> None:
        """Commit: every deferred run becomes reusable free space."""
        if self.deferred.total_free:   # at checkpoint_every 1 the stage is mostly empty
            for offset, length in self.deferred:
                self.free.add(offset, length)
            self.deferred.clear()

    # -- owner runs ---------------------------------------------------------

    def set_owner(self, offset: int, length: int, key, first_seq: int) -> None:
        """Tag clusters [offset, offset+length) as sequence first_seq.. of key."""
        self.write_runs(key, ((offset, length),), first_seq)

    def write_runs(self, key: Hashable, extents: list[Extent], seq: int = 0) -> list[Extent]:
        """Write one owner run of key for each (offset, length) extent, in logical order, numbering
        the clusters seq, seq + 1, ... across them; returns the extents.  An extent at an offset
        that already starts a run is refused, that run left as it was."""
        buckets = self.owners.buckets
        for offset, length in extents:
            try:
                bucket = buckets[offset >> OWNER_SHIFT]
            except KeyError:
                bucket = buckets[offset >> OWNER_SHIFT] = {}
            run = (length, key, seq)
            if bucket.setdefault(offset, run) is not run:
                raise InvariantViolationError(f"cluster {offset} already starts an owner run")
            seq += length
        return extents

    def clear_markers(self, extents: Iterable[tuple[int, int]]) -> None:
        """Drop the owner run of each (offset, length) extent: the run at its offset, which must have
        its length, or the extent is refused and the run left in place."""
        buckets = self.owners.buckets
        for offset, length in extents:
            try:
                bucket = buckets[offset >> OWNER_SHIFT]
                run = bucket.pop(offset)
            except KeyError:
                raise _not_one_run(offset, length) from None
            if run[0] != length:
                bucket[offset] = run
                raise _not_one_run(offset, length)

    def rekey_owners(self, extents: Iterable[tuple[int, int]], key: Hashable) -> None:
        """Hand the TEMP owner run of each (offset, length) extent, the run at its offset with its
        length, to key, keeping its sequence number; a refused extent's run is left as it was."""
        buckets = self.owners.buckets
        for offset, length in extents:
            try:
                bucket = buckets[offset >> OWNER_SHIFT]
                run = bucket[offset]
            except KeyError:
                raise _not_one_run(offset, length) from None
            if run[0] != length:
                raise _not_one_run(offset, length)
            if run[1] is not TEMP:
                raise InvariantViolationError(f"extent {(offset, length)} is not a TEMP run")
            bucket[offset] = (length, key, run[2])

    # -- cost model ---------------------------------------------------------

    def read_cost(self, extents: Iterable[tuple[int, int]]) -> float:
        """Seconds to read a record's (offset, length) extents in logical order.

        One seek per extent, since a record's consecutive extents never touch
        (coalesce made them), plus transfer time per band (extents spanning a
        band boundary are split at the boundary), added extent by extent.
        """
        transfer = 0.0
        count = 0
        for offset, length in extents:
            transfer += self._transfer_seconds(offset, length)
            count += 1
        if not count:
            raise InvariantViolationError("read_cost of an empty extent list")
        return self.seek_time * count + transfer

    def _transfer_seconds(self, offset: int, length: int) -> float:
        """Seconds to transfer [offset, offset+length): per band it covers, in address order,
        its clusters there times the cluster size over the band's rate, summed from 0.0."""
        seconds = 0.0
        for _start, end, rate in self.bands:
            if offset >= end:
                continue
            if offset + length <= end:
                return seconds + length * self.cluster_size / rate
            span = end - offset
            seconds += span * self.cluster_size / rate
            offset += span
            length -= span
        return seconds

    # -- measurement and auditing -------------------------------------------

    def free_extent_histogram(self) -> dict[int, int]:
        """Count of free runs by length.  Deferred extents are not free yet."""
        return dict(Counter(length for _offset, length in self.free))

    def audit(self, deep: bool = False) -> None:
        """Recount free + deferred + allocated; abort on any breach.

        Only valid between operations (mid-protocol states may legitimately
        hold clusters that are neither owned nor free).  deep=True also
        checks the owner runs alone (see owner_groups), in O(runs log runs).
        """
        for name, runs in (("free", self.free), ("deferred", self.deferred)):
            runs.check()
            if runs.intersects(self.total_clusters, sys.maxsize):
                raise InvariantViolationError(f"a {name} run ends past the volume's last cluster")
        owned = sum(run[0] for bucket in self.owners.buckets.values() for run in bucket.values())
        if self.free_clusters + self.deferred_clusters + owned != self.total_clusters:
            raise InvariantViolationError(
                f"conservation breach: free {self.free_clusters} + deferred {self.deferred_clusters}"
                f" + allocated {owned} != {self.total_clusters}"
            )
        if deep:
            self.owner_groups()

    def owner_sweep(self) -> list[int]:
        """The owner-run offsets in address order, sorted bucket by bucket.  One pass beside the free and
        deferred runs (merged, not copied) raises a CorruptionError naming a cluster at the first run that
        is empty, lies outside the volume, overlaps the one before it or covers a free or deferred cluster."""
        buckets = self.owners.buckets
        offsets: list[int] = []
        holes = merge(self.free, self.deferred)
        hole_start = hole_end = prev_end = 0
        for b in sorted(buckets):
            bucket = buckets[b]
            in_bucket = sorted(bucket)
            offsets += in_bucket
            for offset in in_bucket:
                length = bucket[offset][0]
                end = offset + length
                if length < 1 or offset < 0 or end > self.total_clusters:
                    why = "it is empty" if length < 1 else "it lies outside the volume"
                    raise CorruptionError(f"owner run ({offset},{length}) is malformed: {why}", cluster=offset)
                if offset < prev_end:
                    raise CorruptionError(f"owner runs overlap at cluster {offset}", cluster=offset)
                while hole_end <= offset:
                    hole_start, hole_length = next(holes, (sys.maxsize, 0))
                    hole_end = hole_start + hole_length
                if hole_start < end:
                    cluster = max(offset, hole_start)
                    where = "a deferred extent" if self.deferred.intersects(cluster, 1) else "the free set"
                    raise CorruptionError(f"cluster {cluster} is owned but not allocated:"
                                          f" it lies in {where}", cluster=cluster)
                prev_end = end
        return offsets

    def owner_groups(self) -> dict[Hashable, list[int]]:
        """Each owner key's run offsets in sequence order, grouped over owner_sweep.  Findings are
        CorruptionErrors naming a cluster, in a fixed order: the sweep's; then the lowest leftover TEMP
        run, which only a safe write in flight may hold; then per key, keys in the order of their
        lowest run, the first repeated or skipped sequence number."""
        buckets = self.owners.buckets
        groups: dict[Hashable, list[int]] = {}
        for offset in self.owner_sweep():
            key = buckets[offset >> OWNER_SHIFT][offset][1]
            offsets = groups.get(key)
            if offsets is None:   # an exact one-slot list: most keys hold one run
                groups[key] = [offset]
            else:
                offsets.append(offset)
        if (temp := groups.get(TEMP)) is not None:   # TEMP's runs, swept in address order: lowest first
            raise CorruptionError(f"cluster {temp[0]} holds a temp run outside any replacement", cluster=temp[0])
        for key, offsets in groups.items():
            offsets.sort(key=lambda offset: buckets[offset >> OWNER_SHIFT][offset][2])
            expected = 0
            for offset in offsets:
                length, _key, seq = buckets[offset >> OWNER_SHIFT][offset]
                if seq != expected:
                    what = "duplicate sequence" if seq < expected else "sequence gap before"
                    raise CorruptionError(f"object {key!r}: {what} {seq} at cluster {offset}", cluster=offset)
                expected = seq + length
        return groups

    def match_layouts(self, layouts: Iterable[tuple[Hashable, Sequence[int]]]) -> int:
        """Walk (key, flat layout (offset0, length0, offset1, length1, ...)) pairs against the owner runs:
        the number of extents walked, or -1 at the first layout that is empty or holds an extent that
        is not the run at its offset with its length, key and the layout's earlier clusters as sequence
        number.  Nothing is kept per layout or per extent."""
        buckets, shift = self.owners.buckets, OWNER_SHIFT
        extents = 0
        for key, layout in layouts:
            seq = i = 0
            n = len(layout)
            while i < n:   # indexes, not pairs: no iterator to build per layout
                offset = layout[i]
                length = layout[i + 1]
                try:
                    run = buckets[offset >> shift][offset]
                except KeyError:   # no run at the offset
                    return -1
                if run != (length, key, seq):
                    return -1
                seq += length
                i += 2
            if not seq:   # no extents
                return -1
            extents += n // 2
        return extents

    # -- snapshots ------------------------------------------------------------

    def to_state(self) -> dict:
        """The geometry, as in a config's volume section, plus the free, deferred and owner runs."""
        return {
            **dump(self, "volume"),
            "free": [list(run) for run in self.free],
            "deferred": [list(run) for run in self.deferred],
            "owners": [[off, length, key, seq] for off, (length, key, seq) in self.owners.items()],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Volume":
        runs = ("free", "deferred", "owners")
        vol = create_volume(**parse({k: v for k, v in state.items() if k not in runs}, "volume"))
        vol.free.clear()
        for name, mode in zip(runs, ("immediate", "deferred")):
            for off, length in check_type(state[name], [(int, int)], f"snapshot {name}"):
                if length < 1 or not 0 <= off <= vol.total_clusters - length:
                    why = "is empty" if length < 1 else f"lies outside the volume's {vol.total_clusters} clusters"
                    raise ConfigurationError(f"snapshot {name} run [{off}, {length}] {why}")
                vol.release([(off, length)], mode)
        for off, length, key, seq in state["owners"]:
            check_type((off, length, seq), (int, int, int),
                       f"snapshot owner run {[off, length, key, seq]!r} (offset, length, seq)")
            if not is_object_id(key):
                raise ConfigurationError(f"snapshot owner run at cluster {off} has key {key!r};"
                                         " owner keys must be JSON scalars of type integer or string")
            vol.set_owner(off, length, key, seq)
        return vol


def create_volume(
    total_clusters: int,
    cluster_size: int = default("volume.cluster_size"),
    bands: Iterable[tuple[int, int, float]] | None = None,
    seek_time: float = default("volume.seek_time"),
) -> Volume:
    """A fresh volume: one free run covering everything, nothing staged."""
    check_bounds("volume", total_clusters=total_clusters, cluster_size=cluster_size, seek_time=seek_time)
    bands = default_bands(total_clusters) if bands is None else [Band(*b) for b in bands]
    _validate_bands(bands, total_clusters)
    # the cost model's limit: 2**128 one-cluster fragments in the slowest (last) band read in finite time
    slowest = bands[-1].transfer_rate
    if cluster_size > sys.float_info.max or (seek_time + cluster_size / slowest) * 2**128 > sys.float_info.max:
        raise ConfigurationError("volume cost model overflows: 2**128 reads of one cluster, each a seek plus"
                                 " cluster_size over the slowest band rate, must take a finite modeled time")
    vol = Volume(total_clusters, cluster_size, bands, seek_time)
    vol.free.add(0, total_clusters)
    return vol
