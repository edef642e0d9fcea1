"""Object layer: get/put/delete with safe-write replacement on a Volume.

Objects are opaque blobs addressed by id.  A put appends in write-request
sized chunks (or allocates the whole object up front when a size hint is
configured), and hands all of an object's requests to the allocation policy
in one call, which lands whole or takes nothing; an update writes a complete
new copy that way and then atomically swaps it for the old one, so a full
version of the object exists at every point.

A record holds its layout as one flat tuple of ints, read as (offset, length)
pairs; only the edge, ObjectRecord.extents, builds Extent lists.  Each extent
of a record is tagged on the volume with one owner run, written by
Volume.write_runs for each object write here and in compact().
scan_layout rebuilds all layouts from the runs alone: an independent check on
the records.  verify_layout walks the records against the volume's sweep of
the runs, and only on a mismatch scans, so its findings are scan_layout's.
Deferred frees commit every checkpoint_every mutating ops; with no step hook to
look in between, an op whose checkpoint falls due frees straight into the free set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import sub
from typing import Callable, Hashable, Iterator, Sequence

from .alloc import AllocPolicy, make_policy
from .errors import ConfigurationError, CorruptionError, NotFoundError, UndefinedAgeError, UsageError
from .schema import check_bounds, check_type, default, dump, parse
from .volume import Extent, Volume, as_extent, coalesce


# the ObjectStore.to_state() format; from_state refuses every other version
SNAPSHOT_VERSION = 4


class ObjectRecord:
    """One stored object: logical size plus its physical layout, one extent per fragment, held as one
    flat tuple (offset0, length0, offset1, length1, ...) in logical order, from coalesce: consecutive
    extents never touch.  extents is a view that builds an Extent list on each read; constructing or
    assigning extents takes a sequence of (offset, length) extents."""

    __slots__ = ("id", "size", "layout", "generation", "read_seconds")

    def __init__(self, id: Hashable, size: int, extents: Sequence[tuple[int, int]], generation: int = 0):
        self.id, self.size, self.extents, self.generation = id, size, extents, generation
        self.read_seconds = 0.0   # volume.read_cost of the layout, computed wherever it is written

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The layout's (offset, length) pairs, in logical order."""
        it = iter(self.layout)
        return zip(it, it)

    @property
    def extents(self) -> list[Extent]:
        layout = self.layout   # most records hold one extent, whose pair is the layout itself
        return [as_extent(layout)] if len(layout) == 2 else list(map(as_extent, self.pairs()))

    @extents.setter
    def extents(self, extents: Sequence[tuple[int, int]]) -> None:
        # as in the view, a one-extent layout is that extent's pair
        self.layout: tuple[int, ...] = tuple(extents[0]) if len(extents) == 1 else tuple(chain.from_iterable(extents))

    @property
    def allocated_clusters(self) -> int:
        return sum(self.layout[1::2])


@dataclass
class AgeClock:
    """Write-volume accounting that yields storage age.

    bytes_turned_over accumulates the logical bytes of every insert, update
    and delete; dividing by the live bytes gives the volume's storage age
    (under pure replacement: safe writes per object).  Bulk load zeroes the
    turnover so age 0 means "freshly loaded".
    """

    bytes_turned_over: int = 0
    live_bytes: int = 0

    @property
    def age(self) -> float:
        if self.live_bytes <= 0:
            raise UndefinedAgeError("storage age is undefined with no live bytes")
        return self.bytes_turned_over / self.live_bytes

    def reset_turnover(self) -> None:
        self.bytes_turned_over = 0


@dataclass
class StoreConfig:
    policy: AllocPolicy
    write_request_size: int = default("store.write_request_size")
    size_hint: bool = default("store.size_hint")
    checkpoint_every: int = default("store.checkpoint_every")   # mutating ops per checkpoint
    free_mode: str = default("store.free_mode")                 # "deferred" or "immediate"

    def validate(self, volume: Volume) -> None:
        check_bounds("store", **vars(self))
        if self.write_request_size < volume.cluster_size:
            raise ConfigurationError("write_request_size must be at least one cluster")
        self.policy.check(self, volume)


def store_config(section: dict) -> StoreConfig:
    """A StoreConfig, with a fresh policy, from a canonical store section (see schema)."""
    policy = section["policy"]
    return StoreConfig(
        policy=make_policy(policy["kind"], policy["fragmenting"], policy["params"]),
        **{name: value for name, value in section.items() if name != "policy"},
    )


@dataclass
class _ReplaceTxn:
    """In-flight safe write; what recovery needs to finish or undo it."""

    old_extents: list[Extent]   # emptied once they are released
    temp_key: tuple
    new_extents: list[Extent]
    committed: bool = False


# safe-write protocol boundaries, in order; the step hook sees each name
SAFE_WRITE_STEPS = ("temp_written", "forced", "replaced", "old_released")


class ObjectStore:
    """Single-writer object store over one volume.  Its one table, _records, keeps the live
    objects in insertion order: the order records() and snapshots list them in."""

    def __init__(self, volume: Volume, config: StoreConfig):
        config.validate(volume)
        self.volume = volume
        self.config = config
        self.clock = AgeClock()
        self._records: dict[Hashable, ObjectRecord] = {}
        self._ops_since_checkpoint = 0
        self._pending: _ReplaceTxn | None = None
        self._interval_bytes = 0
        self._interval_seconds = 0.0
        # test/diagnostic hook: called with each step name; may raise
        self.step_hook: Callable[[str], None] | None = None

    # -- lookups ---------------------------------------------------------

    def __contains__(self, oid: Hashable) -> bool:
        return oid in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[ObjectRecord]:
        return iter(self._records.values())

    def _require(self, oid: Hashable) -> ObjectRecord:
        rec = self._records.get(oid)
        if rec is None:
            raise NotFoundError(f"object {oid!r} is not live")
        return rec

    # -- write path --------------------------------------------------------

    def put_new(self, oid: Hashable, size: int) -> ObjectRecord:
        """Create an object.  Fails atomically: on no-space nothing changes."""
        self._refuse_in_flight("put")
        if not isinstance(oid, (int, str)) or isinstance(oid, bool):   # the ids a snapshot can hold
            raise UsageError(f"object id must be an integer or a string, not {oid!r}")
        if oid in self._records:
            raise UsageError(f"object {oid!r} already exists")
        if size <= 0:
            raise UsageError("object size must be > 0")
        extents = self._allocate(oid, size)
        rec = self._insert(ObjectRecord(id=oid, size=size, extents=extents))
        self._account_write(rec, extents)
        self._after_mutation()
        return rec

    def safe_write(self, oid: Hashable, new_size: int) -> ObjectRecord:
        """Replace an object's contents via the temp-copy-then-swap protocol.

        The new copy is fully allocated while the old one stays live (peak
        usage covers both), then one commit step repoints the record; the
        old extents are released afterwards, deferred or immediate per
        config.  A failure before the commit leaves the old version intact.
        """
        self._refuse_in_flight("safe write")
        rec = self._require(oid)
        if new_size <= 0:
            raise UsageError("object size must be > 0")
        temp_key = ("~tmp", oid, rec.generation + 1)
        new_extents = self._allocate(temp_key, new_size)
        # making room may have moved objects (a cleaner pass), so the old extents are read now (see delete)
        old_extents = rec.extents
        txn = self._pending = _ReplaceTxn(old_extents, temp_key, new_extents)
        hook = self.step_hook   # the hook installed as the write starts sees each of its steps
        if hook is not None:
            hook("temp_written")
            hook("forced")  # durability point for the temp copy; no-op here
        # the atomic swap: one step after which the new version is current
        self.volume.clear_markers(old_extents)
        self.volume.rekey_owners(new_extents, temp_key, oid)
        rec.extents = new_extents
        self.clock.live_bytes += new_size - rec.size
        rec.size = new_size
        rec.generation += 1
        self._account_write(rec, new_extents)
        txn.committed = True
        if hook is not None:
            hook("replaced")
        self._release(old_extents)
        txn.old_extents = []   # nothing is left for recover() to roll forward
        if hook is not None:
            hook("old_released")
        self._pending = None
        self._after_mutation()
        return rec

    def _insert(self, rec: ObjectRecord) -> ObjectRecord:
        self._records[rec.id] = rec
        self.clock.live_bytes += rec.size
        return rec

    def delete(self, oid: Hashable) -> None:
        self._refuse_in_flight("delete")
        rec = self._require(oid)
        extents = rec.extents   # Extents, whose .length bench/spans.py's traced clear_markers sums
        self.volume.clear_markers(extents)
        self._release(extents)
        del self._records[oid]
        self.clock.live_bytes -= rec.size
        self.clock.bytes_turned_over += rec.size
        self._after_mutation()

    def _refuse_in_flight(self, what: str) -> None:
        """Refuse an op or snapshot that would leak or lose an interrupted safe write's temp copy."""
        if self._pending is not None:
            raise UsageError(f"cannot {what} with a replacement in flight; recover() first")

    def recover(self) -> None:
        """Resolve an interrupted safe write: roll back before the swap,
        roll forward after it.  Idempotent; safe to call anytime."""
        txn = self._pending
        if txn is None:
            return
        self._pending = None
        if not txn.committed:
            self.volume.clear_markers(txn.new_extents)
            self.volume.release(txn.new_extents, "immediate")
        else:
            self.volume.release(txn.old_extents, self.config.free_mode)

    # -- read path ---------------------------------------------------------

    def get(self, oid: Hashable) -> tuple[ObjectRecord, float]:
        rec = self._require(oid)
        return rec, rec.read_seconds

    def scan_layout(self) -> dict[Hashable, list[Extent]]:
        """Rebuild every object's extent list from the volume's owner runs alone, ignoring the
        records; its findings are Volume.owner_groups' CorruptionErrors, each naming a cluster.  Each
        run is one extent, so runs split where the records hold one extent show in verify_layout.
        """
        owners = self.volume.owners
        return {key: [Extent(offset, owners[offset][0]) for offset in offsets]
                for key, offsets in self.volume.owner_groups().items()}

    def verify_layout(self) -> None:
        """Scanner-vs-records cross check, raising on a mismatch what scan_layout names.  After the
        volume's sweep (Volume.owner_sweep), no record may be empty, each extent must be the run at its
        offset with its length, the record's id and the record's earlier clusters as sequence number,
        and the records must hold one extent per run: exactly when scan_layout equals the records."""
        runs = len(self.volume.owner_sweep())
        get = self.volume.owners.get
        for oid, rec in self._records.items():
            layout = rec.layout
            seq = i = 0
            while i < len(layout):   # indexes, not pairs(): no iterator to build per record
                length = layout[i + 1]
                if get(layout[i]) != (length, oid, seq):
                    seq = 0
                    break
                seq += length
                i += 2
            if not seq:   # no extents, or one that is not its run
                break
            runs -= len(layout) // 2
        else:
            if not runs:
                return
        scanned, records = self.scan_layout(), self._records
        if scanned.keys() != records.keys():
            missing, extra = records.keys() - scanned.keys(), scanned.keys() - records.keys()
            raise CorruptionError(f"scan object set mismatch: missing {sorted(map(repr, missing))},"
                                  f" unexpected {sorted(map(repr, extra))}")
        oid = next(oid for oid, rec in records.items() if scanned[oid] != rec.extents)   # one must differ
        raise CorruptionError(f"object {oid!r}: scan found {scanned[oid]}, records say {records[oid].extents}")

    # -- maintenance --------------------------------------------------------

    def checkpoint_now(self) -> None:
        """Commit deferred frees immediately, regardless of cadence."""
        self.volume.checkpoint()
        self._ops_since_checkpoint = 0

    def compact(self) -> int:
        """Commit deferred frees and slide every extent and its owner run toward cluster 0 in address
        order, as a log cleaner does, merging an object's extents that meet; returns clusters moved."""
        self._refuse_in_flight("compact")
        self.checkpoint_now()
        volume = self.volume
        slid: dict[int, int] = {}   # old offset -> new offset of each extent
        moved = top = 0
        for offset, length in sorted(ext for rec in self._records.values() for ext in rec.pairs()):
            slid[offset] = top
            moved += length if offset != top else 0
            top += length
        for rec in self._records.values():
            volume.clear_markers(rec.extents)   # an Extent list, as in delete
        volume.free.clear()
        if top < volume.total_clusters:
            volume.free.add(top, volume.total_clusters - top)
        for rec in self._records.values():
            rec.extents = volume.write_runs(rec.id, coalesce((slid[o], n) for o, n in rec.pairs()))
            rec.read_seconds = volume.read_cost(rec.pairs())
        return moved

    def take_write_interval(self) -> tuple[int, float]:
        """Bytes written and modeled seconds since the last call."""
        out = (self._interval_bytes, self._interval_seconds)
        self._interval_bytes = 0
        self._interval_seconds = 0.0
        return out

    # -- internals ------------------------------------------------------------

    def _append_plan(self, size_bytes: int) -> list[tuple[int, int]]:
        """(clusters, count) groups of equal write requests for one object write, in order.

        Request i writes bytes up to min(i * write_request_size, size) and allocates
        the clusters that takes beyond those of the requests before it; a size hint
        makes the whole object one request.
        """
        cs = self.volume.cluster_size
        total = -(-size_bytes // cs)
        if self.config.size_hint:
            return [(total, 1)]
        request = self.config.write_request_size
        if request % cs:   # requests end inside clusters: their cluster counts vary, and may be 0
            ends = [-(-min(i * request, size_bytes) // cs) for i in range(1, -(-size_bytes // request) + 1)]
            return [(k, len(list(group))) for k, group in groupby(map(sub, ends, [0] + ends[:-1])) if k]
        per_request = request // cs
        full, tail = divmod(total, per_request)
        plan = [(per_request, full)] if full else []
        return plan + [(tail, 1)] if tail else plan

    def _allocate(self, key: Hashable, size_bytes: int) -> list[Extent]:
        """Make room, allocate an object write's requests in one policy call, and write one
        owner run per extent.  A write that runs out of space has taken nothing: the policy
        gave back its pieces, and no run was written yet."""
        policy = self.config.policy
        policy.prepare(self, -(-size_bytes // self.volume.cluster_size))
        return self.volume.write_runs(key, policy.alloc(self.volume, self._append_plan(size_bytes)))

    def _account_write(self, rec: ObjectRecord, extents: list[Extent]) -> None:   # extents: rec's new layout
        rec.read_seconds = self.volume.read_cost(extents)
        self.clock.bytes_turned_over += rec.size
        self._interval_bytes += rec.size
        self._interval_seconds += rec.read_seconds

    def _release(self, extents: list[Extent]) -> None:
        """Free an op's old extents; straight into the free set if its checkpoint is due and no hook looks."""
        mode = self.config.free_mode
        if (mode == "deferred" and self.step_hook is None
                and self._ops_since_checkpoint + 1 >= self.config.checkpoint_every):
            self.volume.checkpoint()   # commit the earlier stages; releasing then is what staging would leave
            mode = "immediate"   # so the checkpoint _after_mutation takes finds an empty stage
        self.volume.release(extents, mode)

    def _after_mutation(self) -> None:
        """Count the op; commit deferred frees when checkpoint_every ops staged them (see _release)."""
        self._ops_since_checkpoint += 1
        if self.config.free_mode == "deferred" and self._ops_since_checkpoint >= self.config.checkpoint_every:
            self.checkpoint_now()

    # -- snapshots -------------------------------------------------------------

    def to_state(self) -> dict:
        """Volume state, canonical store section, age clock and records; a reload starts
        the policy afresh, without its runtime state (a run cache, a log head)."""
        self._refuse_in_flight("snapshot")
        return {
            "version": SNAPSHOT_VERSION,
            "volume": self.volume.to_state(),
            "config": dump(self.config, "store"),
            "bytes_turned_over": self.clock.bytes_turned_over,
            # [id, size, generation, [[offset, length], ...]] per object
            "objects": [[rec.id, rec.size, rec.generation, [[o, n] for o, n in rec.pairs()]]
                        for rec in self._records.values()],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ObjectStore":
        version = state.get("version") if isinstance(state, dict) else None
        if type(version) is not int or version != SNAPSHOT_VERSION:   # a JSON 4.0 equals 4 in Python
            raise ConfigurationError(
                f"snapshot format version {version!r} is not supported"
                f" (this fraglab reads version {SNAPSHOT_VERSION})"
            )
        config = store_config(parse(state["config"], "store"))
        store = cls(Volume.from_state(state["volume"]), config)
        staged = store.volume.deferred_clusters
        if staged and config.free_mode == "immediate":   # an immediate store never checkpoints them
            raise ConfigurationError(f"snapshot of a free_mode 'immediate' store holds {staged} deferred"
                                     " clusters; only deferred frees stage")
        turned = state["bytes_turned_over"]
        if check_type(turned, int, "snapshot bytes_turned_over") < 0:
            raise ConfigurationError(f"snapshot bytes_turned_over is {turned}; it must be >= 0")
        store.clock.bytes_turned_over = turned
        for oid, size, generation, extents in state["objects"]:
            if not isinstance(oid, (int, str)) or isinstance(oid, bool):   # true and 1.0 hash as 1
                raise ConfigurationError(f"snapshot object id must be an integer or a string, not {oid!r}")
            if oid in store:
                raise ConfigurationError(f"snapshot lists object {oid!r} twice")
            if check_type(size, int, f"snapshot object {oid!r} size") < 1:
                raise ConfigurationError(f"snapshot object {oid!r} has size {size}; sizes must be >= 1")
            if check_type(generation, int, f"snapshot object {oid!r} generation") < 0:
                raise ConfigurationError(f"snapshot object {oid!r} has generation {generation}; it must be >= 0")
            extents = check_type(extents, [(int, int)], f"snapshot object {oid!r} extents")
            store._insert(ObjectRecord(oid, size, extents, generation))
        # a snapshot that loads is one that scans clean: the records must match the owner runs
        store.volume.audit()
        store.verify_layout()
        for rec in store.records():
            if rec.allocated_clusters * store.volume.cluster_size < rec.size:   # more is buddy's padding
                raise ConfigurationError(f"snapshot object {rec.id!r} has size {rec.size}, more than its"
                                         f" {rec.allocated_clusters} clusters hold")
            if 2 * len(coalesce(rec.pairs())) < len(rec.layout):
                raise ConfigurationError(f"snapshot object {rec.id!r} has consecutive extents that touch;"
                                         " a record's extents are its coalesced fragments")
            rec.read_seconds = store.volume.read_cost(rec.pairs())
        return store
