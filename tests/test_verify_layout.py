"""verify_layout and scan_layout against the copying cross-check they replaced.

oracle_scan and oracle_verify are the earlier implementation kept as a
reference: they sort (offset, run) pairs, group (seq, offset, length)
tuples per key and compare whole Extent lists with the records.  Aged
stores of every policy take one corruption at a time (split, shifted,
re-keyed, renumbered, duplicated, dropped, added and temp runs, and edited
records); after each, the store's scan and verify must raise what the oracle
raises, with the same class, message and cluster, or pass where it passes, and
the volume's sweep must check what the oracle's sweep checks.  On a store of a
few thousand single-extent objects, a memory guard holds verify_layout's traced
peak to at most 32 B per owner run, a collection guard lets no cyclic garbage
collection start during it, a third guard holds what the aged store keeps to
at most 500 B per object, and a fourth finds no block over 64 KiB allocated in
volume.py once safe writes have churned the owner map.
"""

import gc
import sys
import tracemalloc
from itertools import chain

import pytest

from fraglab.alloc import make_policy
from fraglab.errors import CorruptionError, FraglabError, NoSpaceError
from fraglab.rng import Xorshift64Star
from fraglab.store import ObjectStore, StoreConfig
from fraglab.volume import TEMP, Band, Extent, OwnerMap, create_volume

CLUSTER = 4096
TOTAL = 1024


def oracle_owner_runs(volume):
    """The owner runs in offset order as (offset, (length, key, seq)), swept as scan_layout sweeps them."""
    runs = sorted(volume.owners.items())
    holes = sorted(chain(volume.free, volume.deferred))
    h = prev_end = 0
    for offset, (length, _key, _seq) in runs:
        end = offset + length
        if length < 1:
            raise CorruptionError(f"owner run ({offset},{length}) is malformed: it is empty", cluster=offset)
        if offset < 0 or end > volume.total_clusters:
            raise CorruptionError(f"owner run ({offset},{length}) is malformed:"
                                  " it lies outside the volume", cluster=offset)
        if offset < prev_end:
            raise CorruptionError(f"owner runs overlap at cluster {offset}", cluster=offset)
        while h < len(holes) and holes[h][0] + holes[h][1] <= offset:
            h += 1
        if h < len(holes) and holes[h][0] < end:
            cluster = max(offset, holes[h][0])
            where = "a deferred extent" if volume.deferred.intersects(cluster, 1) else "the free set"
            raise CorruptionError(f"cluster {cluster} is owned but not allocated:"
                                  f" it lies in {where}", cluster=cluster)
        prev_end = end
    return runs


def oracle_scan(store):
    by_key = {}
    for offset, (length, key, seq) in oracle_owner_runs(store.volume):
        if key is TEMP:
            raise CorruptionError(f"cluster {offset} holds a temp run outside any replacement", cluster=offset)
        by_key.setdefault(key, []).append((seq, offset, length))
    layout = {}
    for key, runs in by_key.items():
        runs.sort()
        expected = 0
        for seq, offset, length in runs:
            if seq < expected:
                raise CorruptionError(f"object {key!r}: duplicate sequence {seq} at cluster {offset}",
                                      cluster=offset)
            if seq > expected:
                raise CorruptionError(f"object {key!r}: sequence gap before {seq} at cluster {offset}",
                                      cluster=offset)
            expected = seq + length
        layout[key] = [Extent(offset, length) for _seq, offset, length in runs]
    return layout


def oracle_verify(store):
    scanned = oracle_scan(store)
    records = {rec.id: rec for rec in store.records()}
    if scanned.keys() != records.keys():
        missing = records.keys() - scanned.keys()
        extra = scanned.keys() - records.keys()
        raise CorruptionError(f"scan object set mismatch: missing {sorted(map(repr, missing))},"
                              f" unexpected {sorted(map(repr, extra))}")
    for oid, rec in records.items():
        if scanned[oid] != rec.extents:
            raise CorruptionError(f"object {oid!r}: scan found {scanned[oid]}, records say {rec.extents}")


def outcome(check, store):
    """What check(store) returns, or the class, message and cluster of what it raises."""
    try:
        return "ok", check(store)
    except FraglabError as exc:
        return type(exc), str(exc), getattr(exc, "cluster", None)


def aged_store(kind, free_mode, checkpoint_every, seed, n_objects=24, writes=120):
    """A 1024-cluster store of unhinted 16 KiB appends, bulk loaded and then safe-written."""
    volume = create_volume(TOTAL, CLUSTER, [Band(0, TOTAL // 2, 60e6), Band(TOTAL // 2, TOTAL, 30e6)])
    store = ObjectStore(volume, StoreConfig(policy=make_policy(kind, fragmenting=kind != "buddy"),
                                            write_request_size=4 * CLUSTER, free_mode=free_mode,
                                            checkpoint_every=checkpoint_every))
    rng = Xorshift64Star(seed)
    for oid in range(n_objects):
        store.put_new(oid, rng.randint(4 * CLUSTER, 40 * CLUSTER))
    for _ in range(writes):
        try:
            store.safe_write(rng.randrange(n_objects), rng.randint(4 * CLUSTER, 40 * CLUSTER))
        except NoSpaceError:
            pass
    store.verify_layout()
    return store


def _runs(changes):
    """A corruption that drops the runs at the offsets mapped to None and sets the others."""
    def corrupt(store):
        owners = store.volume.owners
        for offset, run in changes.items():
            if run is None:
                del owners[offset]
            else:
                owners[offset] = run
    return corrupt


def _extents(oid, edit):
    """A corruption that replaces one record's extents with edit(extents)."""
    def corrupt(store):
        rec = store._records[oid]
        rec.extents = edit(rec.extents)
    return corrupt


def _both(first, second):
    """A corruption made of two: first(store), then second(store)."""
    def corrupt(store):
        first(store)
        second(store)
    return corrupt


def _swap(oid, other):
    """A corruption that swaps two records' extent lists."""
    def corrupt(store):
        a, b = store._records[oid], store._records[other]
        a.extents, b.extents = b.extents, a.extents
    return corrupt


def _unowned(offset, run):
    """A corruption that takes a free cluster without freeing it anywhere, and gives it run."""
    def corrupt(store):
        store.volume.free.take(offset, 1)
        if run is not None:
            store.volume.owners[offset] = run
    return corrupt


def corruptions(store):
    """(name, corrupt) pairs; each corrupt(store) changes one thing, at a few chosen runs."""
    owners = store.volume.owners
    runs = sorted(owners)
    by_key = {}
    for offset in runs:
        by_key.setdefault(owners[offset][1], []).append(offset)
    multi = [offsets for offsets in by_key.values() if len(offsets) > 1][:3]
    out = []
    for offset in sorted({runs[0], runs[len(runs) // 2], runs[-1]} | {offsets[-1] for offsets in multi}):
        length, key, seq = owners[offset]
        if length > 1:
            split = {offset: (1, key, seq), offset + 1: (length - 1, key, seq + 1)}
            out.append((f"split {offset}", _runs(split)))
            out.append((f"run inside {offset}", _runs({offset + 1: (1, key, seq + 1)})))
        out.append((f"empty run at {offset}", _runs({offset: (0, key, seq)})))
        for delta in (-1, 1):
            shift = {offset: None, offset + delta: (length, key, seq)}
            out.append((f"shift {offset} by {delta}", _runs(shift)))
            out.append((f"renumber {offset} by {delta}", _runs({offset: (length, key, seq + delta)})))
        out.append((f"re-key {offset} to a live key", _runs({offset: (length, (key + 1) % len(store), seq)})))
        out.append((f"re-key {offset} to a ghost", _runs({offset: (length, "ghost", seq)})))
        out.append((f"temp run at {offset}", _runs({offset: (length, TEMP, seq)})))
        out.append((f"drop {offset}", _runs({offset: None})))
        if len(by_key[key]) > 1:
            first_seq = owners[by_key[key][0]][2]
            out.append((f"duplicate a sequence at {offset}", _runs({offset: (length, key, first_seq)})))
        out.append((f"lengthen {key}'s extent at {offset}", _extents(
            key, lambda extents, at=offset: [Extent(o, n + (o == at)) for o, n in extents])))
        out.append((f"reverse {key}'s extents", _extents(key, lambda extents: extents[::-1])))
        out.append((f"truncate {key}'s extents", _extents(key, lambda extents: extents[:-1])))
        out.append((f"empty {key}'s extents", _extents(key, lambda extents: [])))
        out.append((f"empty {key}'s extents and drop its runs", _both(
            _extents(key, lambda extents: []), _runs(dict.fromkeys(by_key[key])))))
        out.append((f"list {key}'s first extent twice", _extents(key, lambda extents: extents[:1] + extents)))
        out.append((f"swap {key}'s extents with the next key's", _swap(key, (key + 1) % len(store))))
    for name, holes in (("free", store.volume.free), ("deferred", store.volume.deferred)):
        for hole in list(holes.runs())[:2]:
            out.append((f"run over {name} {hole.offset}", _runs({hole.offset: (1, 0, 0)})))
            out.append((f"ghost over {name} {hole.offset}", _runs({hole.offset: (1, "ghost", 0)})))
    for offset in (-1, store.volume.total_clusters):   # a run just outside the volume, at either end
        out.append((f"ghost at {offset}", _runs({offset: (1, "ghost", 0)})))
    if store.volume.free.total_free:
        hole = next(store.volume.free.runs()).offset
        out.append(("allocated but unowned", _unowned(hole, None)))
        out.append(("ghost over allocated space", _unowned(hole, (1, "ghost", 0))))
        out.append(("live key over allocated space", _unowned(hole, (1, 0, 0))))
    return out


# checkpoint cadences that do not divide the op count, so deferred frees are left staged
CONFIGS = [
    ("first_fit", "immediate", 1),
    ("first_fit", "deferred", 5),
    ("best_fit", "deferred", 7),
    ("worst_fit", "immediate", 1),
    ("buddy", "immediate", 1),
    ("ntfs_like", "deferred", 5),
    ("log_append", "deferred", 7),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind, free_mode, checkpoint_every", CONFIGS)
def test_single_corruptions_raise_what_the_copying_verify_raises(kind, free_mode, checkpoint_every, seed):
    aged = aged_store(kind, free_mode, checkpoint_every, seed)
    assert outcome(ObjectStore.scan_layout, aged) == outcome(oracle_scan, aged)
    volume = aged.volume
    owners, free = dict(volume.owners), list(volume.free)
    extents = {rec.id: rec.extents for rec in aged.records()}
    messages = []
    for name, corrupt in corruptions(aged):
        corrupt(aged)
        verified = outcome(ObjectStore.verify_layout, aged)
        assert verified == outcome(oracle_verify, aged), name
        assert outcome(ObjectStore.scan_layout, aged) == outcome(oracle_scan, aged), name
        swept = outcome(lambda store: store.volume.owner_sweep(), aged)
        assert swept == outcome(lambda store: [offset for offset, _run in oracle_owner_runs(store.volume)], aged), name
        messages.append(verified[1] if verified[0] != "ok" else "ok")
        volume.owners = OwnerMap(owners)
        for rec in aged.records():
            rec.extents = extents[rec.id]
        volume.free.clear()
        for offset, length in free:
            volume.free.add(offset, length)
    # each kind of finding is among the outcomes, and some corruptions pass, so the comparison is not vacuous
    findings = ["it is empty", "outside the volume", "overlap", "the free set", "temp run", "duplicate sequence",
                "sequence gap", "unexpected", "records say", "records say []", "ok"]
    for finding in findings + ["a deferred extent"] * (free_mode == "deferred"):
        assert any(finding in message for message in messages), finding


@pytest.fixture(scope="module")
def hinted_traced():
    """3,000 objects of 1-32 clusters, best fit with a size hint, each safe-written once on average,
    built under tracemalloc: (the store, the traced bytes held once it is aged, the size and place of
    the largest live block allocated in volume.py).  A full collection first empties the free lists,
    whose objects tracemalloc would not see reused."""
    gc.collect()
    tracemalloc.start()
    try:
        store = _hinted_store()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        volume_py = sys.modules[create_volume.__module__].__file__
        largest = max((block.size, str(block.traceback[0])) for block in tracemalloc.take_snapshot().traces
                      if block.traceback[0].filename == volume_py)
    finally:
        tracemalloc.stop()
    return store, held, largest


@pytest.fixture(scope="module")
def hinted_build(hinted_traced):
    """(the hinted store, the traced bytes it holds once aged)."""
    return hinted_traced[:2]


@pytest.fixture(scope="module")
def hinted_store(hinted_traced):
    return hinted_traced[0]


def _hinted_store():
    total = 1 << 16
    volume = create_volume(total, CLUSTER, [Band(0, total, 60e6)])
    store = ObjectStore(volume, StoreConfig(policy=make_policy("best_fit", fragmenting=True), size_hint=True,
                                            free_mode="immediate"))
    rng = Xorshift64Star(3)
    n_objects = 3000
    for oid in range(n_objects):
        store.put_new(oid, rng.randint(CLUSTER, 32 * CLUSTER))
    for _ in range(n_objects):
        store.safe_write(rng.randrange(n_objects), rng.randint(CLUSTER, 32 * CLUSTER))
    store.verify_layout()
    assert len(volume.owners) < 1.1 * n_objects   # nearly every object is one extent
    return store


def test_verify_peak_stays_within_32_bytes_per_owner_run(hinted_store):
    """verify_layout holds one sorted list of the run offsets, and nothing per object."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hinted_store.verify_layout()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    runs = len(hinted_store.volume.owners)
    assert peak <= 32 * runs, f"verify_layout peaked at {peak / runs:.0f} B per owner run"


def test_aged_store_holds_at_most_500_bytes_per_object(hinted_build):
    """A record holds its layout as one flat tuple of ints, not a list of Extents: everything the
    aged store holds (records, owner runs, free runs) stays within 500 traced bytes per object."""
    store, held = hinted_build
    assert held <= 500 * len(store), f"the aged store holds {held / len(store):.0f} B per object"


def test_safe_write_churn_leaves_no_volume_block_over_64_kib(hinted_traced):
    """The owner map is small buckets by address, so the churn of safe writes (old runs deleted, new
    ones inserted) rebuilds one bucket's table at a time: no live block allocated in volume.py, where a
    table of every run was one block of 288 KiB, is larger than 64 KiB."""
    size, where = hinted_traced[2]
    assert size <= 64 * 1024, f"a block of {size} B allocated at {where}"


def test_verify_starts_no_garbage_collection(hinted_store):
    """verify_layout leaves no container objects alive per object or per free run, so after a
    collection it does not set off the next one."""
    assert gc.isenabled()
    started = []
    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])
    gc.collect()
    gc.callbacks.append(count)
    try:
        hinted_store.verify_layout()
    finally:
        gc.callbacks.remove(count)
    assert started == [], f"verify_layout started collections of generations {started}"
