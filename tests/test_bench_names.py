"""The fraglab names the benchmark patches and reads, checked without running it.

bench/spans.py wraps the calls in its TARGETS, its counters read
ObjectRecord.allocated_clusters, and bench/checks.py reads the free runs
through FreeExtentIndex.runs.  A rename in src/ would break the traced run
while every other test passed; this keeps such a rename from going unseen.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from fraglab.store import ObjectRecord
from fraglab.volume import Extent, FreeExtentIndex

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
