"""The simulated disk: cluster space, free-run bookkeeping, and a banded cost model.

A volume is an array of fixed-size clusters.  Free space is kept as a set of
coalesced runs (no two free runs are ever adjacent), plus an ordered list of
deferred frees that become reusable only at the next checkpoint, mirroring
allocators whose log entry must commit before freed space can be recycled.

Allocated clusters are tagged by owner runs written by the object layer: each
run covers a contiguous range of clusters and names its owner key and the
sequence number of its first cluster, the rest following in order.  The
layout scanner reconstructs object layouts from the runs without consulting
any object records.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import ConfigurationError, InvariantViolationError
from .schema import default, dump, parse

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


class FreeExtentIndex:
    """Coalesced free runs in two parallel lists sorted by offset.

    Policies iterate the parallel lists directly (they are the hot path);
    all mutation goes through add() and take() so the no-adjacent-runs
    invariant cannot be broken from outside.
    """

    __slots__ = ("offsets", "lengths", "total_free")

    def __init__(self) -> None:
        self.offsets: list[int] = []
        self.lengths: list[int] = []
        self.total_free = 0

    def __len__(self) -> int:
        return len(self.offsets)

    def runs(self) -> Iterator[Extent]:
        for off, length in zip(self.offsets, self.lengths):
            yield Extent(off, length)

    def intersects(self, offset: int, length: int) -> bool:
        i = bisect_right(self.offsets, offset) - 1
        if i >= 0 and self.offsets[i] + self.lengths[i] > offset:
            return True
        i += 1
        return i < len(self.offsets) and self.offsets[i] < offset + length

    def index_of_run_containing(self, cluster: int) -> int | None:
        i = bisect_right(self.offsets, cluster) - 1
        if i >= 0 and self.offsets[i] + self.lengths[i] > cluster:
            return i
        return None

    def add(self, offset: int, length: int) -> None:
        """Insert a run, merging with adjacent neighbours.  Overlap is a bug."""
        if length < 1 or offset < 0:
            raise InvariantViolationError(f"bad free run ({offset},{length})")
        i = bisect_right(self.offsets, offset)
        left = i - 1
        if left >= 0 and self.offsets[left] + self.lengths[left] > offset:
            raise InvariantViolationError(
                f"double free: ({offset},{length}) overlaps free run at {self.offsets[left]}"
            )
        if i < len(self.offsets) and offset + length > self.offsets[i]:
            raise InvariantViolationError(
                f"double free: ({offset},{length}) overlaps free run at {self.offsets[i]}"
            )
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

    def take(self, index: int, offset: int, length: int) -> None:
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

    def clear(self) -> None:
        self.offsets.clear()
        self.lengths.clear()
        self.total_free = 0


@dataclass
class Volume:
    """Simulated disk state.  Single-threaded; never share one mutably."""

    total_clusters: int
    cluster_size: int
    bands: list[Band]
    seek_time: float = default("volume.seek_time")   # per non-adjacent extent transition
    free: FreeExtentIndex = field(default_factory=FreeExtentIndex)
    deferred: list[Extent] = field(default_factory=list)
    deferred_total: int = 0
    # first cluster of a run -> (length, owner key, sequence number of that cluster)
    owners: dict[int, tuple] = field(default_factory=dict)

    @property
    def capacity_bytes(self) -> int:
        return self.total_clusters * self.cluster_size

    @property
    def free_clusters(self) -> int:
        return self.free.total_free

    @property
    def deferred_clusters(self) -> int:
        return self.deferred_total

    @property
    def allocated_clusters(self) -> int:
        return self.total_clusters - self.free.total_free - self.deferred_total

    # -- allocation-side bookkeeping -------------------------------------

    def release(self, extents: Iterable[Extent], mode: str = "immediate") -> None:
        """Return extents to the pool.

        immediate: coalesce into the free set now.
        deferred:  stage until the next checkpoint; the clusters stay
                   unallocatable and unreusable in between.

        Releasing a cluster that is already free or deferred is a simulator
        bug and aborts the run.
        """
        if mode not in ("immediate", "deferred"):
            raise InvariantViolationError(f"unknown release mode {mode!r}")
        for ext in extents:
            if ext.length < 1 or ext.offset < 0 or ext.end > self.total_clusters:
                raise InvariantViolationError(f"release of malformed extent {ext}")
            if self.free.intersects(ext.offset, ext.length):
                raise InvariantViolationError(f"release of non-allocated extent {ext}")
            for staged in self.deferred:
                if staged.offset < ext.end and ext.offset < staged.end:
                    raise InvariantViolationError(f"release of deferred extent {ext}")
            if mode == "immediate":
                self.free.add(ext.offset, ext.length)
            else:
                self.deferred.append(ext)
                self.deferred_total += ext.length

    def checkpoint(self) -> None:
        """Commit: every deferred extent becomes reusable free space."""
        for ext in self.deferred:
            self.free.add(ext.offset, ext.length)
        self.deferred.clear()
        self.deferred_total = 0

    # -- owner runs ---------------------------------------------------------

    def set_owner(self, offset: int, length: int, key, first_seq: int) -> None:
        """Tag clusters [offset, offset+length) as sequence first_seq.. of key."""
        if offset in self.owners:
            raise InvariantViolationError(f"cluster {offset} already starts an owner run")
        self.owners[offset] = (length, key, first_seq)

    def _runs_covering(self, extents: Iterable[Extent]) -> Iterator[tuple[int, int, tuple]]:
        """(offset, extent end, run) for each run covering the extents, in order.

        Each extent must start where a run starts; the caller may replace or
        drop the run it was handed before asking for the next.
        """
        for ext in extents:
            pos = ext.offset
            end = pos + ext.length
            while pos < end:
                run = self.owners.get(pos)
                if run is None:
                    raise InvariantViolationError(f"cluster {pos} starts no owner run")
                yield pos, end, run
                pos += run[0]

    def clear_markers(self, extents: Iterable[Extent]) -> None:
        """Drop the owner runs covering each extent.

        A run reaching past the extent's end is split there and keeps its tail.
        """
        owners = self.owners
        for pos, end, (length, key, seq) in self._runs_covering(extents):
            del owners[pos]
            if pos + length > end:
                owners[end] = (pos + length - end, key, seq + end - pos)

    def rekey_owners(self, extents: Iterable[Extent], old_key, new_key) -> None:
        """Hand the runs covering each extent from old_key to new_key.

        Sequence numbers stay as they are; a run owned by any other key, or
        reaching past its extent, is an invariant breach.
        """
        for pos, end, (length, key, seq) in self._runs_covering(extents):
            if key != old_key or pos + length > end:
                raise InvariantViolationError(f"cluster {pos} does not start a run of {old_key!r}")
            self.owners[pos] = (length, new_key, seq)

    # -- cost model ---------------------------------------------------------

    def read_cost(self, extents: list[Extent]) -> float:
        """Seconds to read the extents in logical order.

        One seek per non-adjacent extent transition, counting the initial
        seek, plus transfer time per band (extents spanning a band boundary
        are split at the boundary).
        """
        if not extents:
            raise InvariantViolationError("read_cost of an empty extent list")
        seeks = 1
        prev_end = extents[0].offset
        transfer = 0.0
        for ext in extents:
            if ext.offset != prev_end:
                seeks += 1
            prev_end = ext.end
            transfer += self._transfer_seconds(ext)
        return self.seek_time * seeks + transfer

    def _transfer_seconds(self, ext: Extent) -> float:
        seconds = 0.0
        offset = ext.offset
        remaining = ext.length
        for band in self.bands:
            if offset >= band.end_cluster:
                continue
            span = min(remaining, band.end_cluster - offset)
            seconds += span * self.cluster_size / band.transfer_rate
            offset += span
            remaining -= span
            if remaining == 0:
                break
        return seconds

    # -- measurement and auditing -------------------------------------------

    def free_extent_histogram(self) -> dict[int, int]:
        """Count of free runs by length.  Deferred extents are not free yet."""
        hist: dict[int, int] = {}
        for length in self.free.lengths:
            hist[length] = hist.get(length, 0) + 1
        return hist

    def audit(self, deep: bool = False) -> None:
        """Recount free + deferred + allocated; abort on any breach.

        Only valid between operations (mid-protocol states may legitimately
        hold clusters that are neither owned nor free).  deep=True also
        checks that no two owner runs overlap and that none lies outside the
        volume or touches a free or deferred run, in O(runs log runs).
        """
        free_recount = sum(self.free.lengths)
        if free_recount != self.free.total_free:
            raise InvariantViolationError("free-set total drifted from its runs")
        prev_end = -1
        for off, length in zip(self.free.offsets, self.free.lengths):
            if off < prev_end:
                raise InvariantViolationError("free runs overlap or are out of order")
            if off == prev_end:
                raise InvariantViolationError("adjacent free runs left uncoalesced")
            prev_end = off + length
        deferred_recount = sum(e.length for e in self.deferred)
        if deferred_recount != self.deferred_total:
            raise InvariantViolationError("deferred total drifted from its extents")
        owned = sum(run[0] for run in self.owners.values())
        if free_recount + deferred_recount + owned != self.total_clusters:
            raise InvariantViolationError(
                f"conservation breach: free {free_recount} + deferred {deferred_recount}"
                f" + allocated {owned} != {self.total_clusters}"
            )
        if deep:
            self._audit_owner_runs()

    def _audit_owner_runs(self) -> None:
        deferred = sorted(self.deferred)
        deferred_offsets = [e.offset for e in deferred]
        prev_end = 0
        for offset, (length, _key, _seq) in sorted(self.owners.items()):
            end = offset + length
            if length < 1 or end > self.total_clusters:
                raise InvariantViolationError(f"owner run ({offset},{length}) is malformed")
            if offset < prev_end:
                raise InvariantViolationError(f"owner runs overlap at cluster {offset}")
            if self.free.intersects(offset, length):
                raise InvariantViolationError(f"owner run at {offset} lies in the free set")
            i = bisect_left(deferred_offsets, end) - 1
            if i >= 0 and deferred[i].end > offset:
                raise InvariantViolationError(f"owner run at {offset} lies in a deferred extent")
            prev_end = end

    # -- snapshots ------------------------------------------------------------

    def to_state(self) -> dict:
        """The geometry, as in a config's volume section, plus the free, deferred and owner runs."""
        return {
            **dump(self, "volume"),
            "free": [[e.offset, e.length] for e in self.free.runs()],
            "deferred": [[e.offset, e.length] for e in self.deferred],
            "owners": [[off, length, key, seq] for off, (length, key, seq) in sorted(self.owners.items())],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Volume":
        runs = ("free", "deferred", "owners")
        vol = create_volume(**parse({k: v for k, v in state.items() if k not in runs}, "volume"))
        vol.free.clear()
        for off, length in state["free"]:
            vol.free.add(int(off), int(length))
        vol.release([Extent(int(o), int(n)) for o, n in state["deferred"]], "deferred")
        for off, length, key, seq in state["owners"]:
            vol.owners[int(off)] = (int(length), key, int(seq))
        return vol


def create_volume(
    total_clusters: int,
    cluster_size: int = default("volume.cluster_size"),
    bands: Iterable[tuple[int, int, float]] | None = None,
    seek_time: float = default("volume.seek_time"),
) -> Volume:
    """A fresh volume: one free run covering everything, nothing staged."""
    if total_clusters <= 0:
        raise ConfigurationError("total_clusters must be > 0")
    if cluster_size <= 0:
        raise ConfigurationError("cluster_size must be > 0")
    if seek_time < 0:
        raise ConfigurationError("seek_time must be >= 0")
    bands = default_bands(total_clusters) if bands is None else [Band(*b) for b in bands]
    _validate_bands(bands, total_clusters)
    vol = Volume(total_clusters, cluster_size, bands, seek_time)
    vol.free.add(0, total_clusters)
    return vol
