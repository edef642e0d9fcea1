"""The fraglab names the benchmark patches and reads, and what its tracer counts.

bench/spans.py wraps the calls in its TARGETS, its counters read
ObjectRecord.allocated_clusters and the Extent lists the store passes
clear_markers, and bench/checks.py reads the free runs through
FreeExtentIndex.runs.  A rename in src/, or a store that passed clear_markers
plain pairs or a generator, would break the traced run or its counts while
every other test passed; these tests keep such a change from going unseen.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

from fraglab import alloc, harness, metrics, store, volume, workload
from fraglab.alloc import FirstFitPolicy
from fraglab.store import ObjectRecord, ObjectStore, StoreConfig
from fraglab.volume import Extent, FreeExtentIndex, create_volume
from fraglab.workload import SizeDist, WorkloadSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans(monkeypatch):
    """bench/spans.py as a module of its own, leaving no bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    targets = load_spans(monkeypatch).TARGETS
    assert targets
    missing = []
    for module, owner, attr, _name in targets:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append((module, owner, attr))
    assert missing == []


def test_the_attributes_the_counters_and_checks_read_exist():
    assert ObjectRecord(0, 3 * 4096, [Extent(0, 2), Extent(5, 1)]).allocated_clusters == 3
    index = FreeExtentIndex()
    index.add(4, 3)
    assert list(index.runs()) == [Extent(4, 3)]


def fraglab_attributes() -> dict:
    """Every attribute of fraglab's modules and of the classes they define, by key."""
    out = {}
    for module in (alloc, harness, metrics, store, volume, workload):
        for name, value in vars(module).items():
            out[module.__name__, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[module.__name__, name, attr] = member
    return out


def changed_since(before: dict) -> list:
    after = fraglab_attributes()
    return sorted(key for key in before.keys() | after.keys() if after.get(key) is not before.get(key))


def test_a_traced_run_counts_what_the_store_did_and_restores_every_patch(monkeypatch):
    tracer = load_spans(monkeypatch).Tracer()
    before = fraglab_attributes()
    st = ObjectStore(create_volume(256, 4096),
                     StoreConfig(FirstFitPolicy(fragmenting=True), write_request_size=4 * 4096))
    rng = random.Random(3)
    ids = list(range(24))
    tracer.install()
    try:
        assert ("fraglab.store", "ObjectStore", "put_new") in changed_since(before)
        workload.bulk_load(st, WorkloadSpec(len(ids), SizeDist("uniform", 24 * 1024, 16 * 1024), 0.0, seed=5))
        extents = sum(len(rec.extents) for rec in st.records())
        markers = sum(rec.allocated_clusters for rec in st.records())
        cleared = 0
        for step in range(36):
            oid = rng.choice(ids)
            old_clusters = st.get(oid)[0].allocated_clusters
            cleared += old_clusters
            if step % 6 == 5:
                st.delete(oid)
                ids.remove(oid)
                continue
            rec = st.safe_write(oid, rng.randint(4 * 1024, 40 * 1024))
            extents += len(rec.extents)
            markers += 2 * rec.allocated_clusters   # marked as the temp copy is written, and again at the commit
    finally:
        tracer.uninstall()
    assert changed_since(before) == []
    assert tracer.counters == {"alloc.extents": extents, "volume.markers_set": markers,
                               "volume.clear_markers.clusters": cleared}
    assert extents > 24 + 30 and cleared > 0   # some writes fragmented, and the counts saw them
    st.verify_layout()
