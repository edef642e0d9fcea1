"""Self-tests for the benchmark's independent checks, and a held-out-seed smoke run.

    python3 bench/selftest.py

Each check must pass on a real aged store and reject a copy of its data with
one injected fault.  The smoke run drives every workload once through
bench/run.py on a seed the reference figures were not taken with.  These
tests are not part of the repository's pytest suite (about a minute).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import unittest
from array import array
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS, use_checkout_src

use_checkout_src()

from fraglab import workload as wl  # noqa: E402
from fraglab.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
from spans import SPAN_FORMAT, layer_metrics, span_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def small_doc(name: str, total_clusters: int = 8192) -> dict:
    """A workload scaled down to a small volume, same policy and write path."""
    doc = copy.deepcopy(WORKLOADS[name])
    half = total_clusters // 2
    doc["volume"]["total_clusters"] = total_clusters
    doc["volume"]["bands"] = [[0, half, 60e6], [half, total_clusters, 30e6]]
    doc["workload"]["seed"] = HELD_OUT_SEED
    return doc


def aged(doc: dict):
    config = ExperimentConfig.from_dict(doc)
    config.validate()
    store = config.build()
    wl.bulk_load(store, config.workload)
    reports = wl.run_to_age(store, config.workload)
    safe_writes = sum(rec.generation for rec in store.records())
    reads = sum(r.reads["count"] for r in reports if r.reads)
    return store, reports, safe_writes, reads


class CheckFaults(unittest.TestCase):
    """Every check passes on clean data and fails on its injected fault."""

    @classmethod
    def setUpClass(cls):
        cls.doc = small_doc("age_1g_ntfs_small")
        cls.store, cls.reports, cls.safe_writes, cls.reads = aged(cls.doc)
        cls.records = [(rec.size, list(rec.extents)) for rec in cls.store.records()]
        vol = cls.store.volume
        cls.layout_args = (vol.total_clusters, list(vol.free.runs()), list(vol.deferred))

    def bitmap(self, records):
        total, free_runs, deferred = self.layout_args
        return checks.layout_bitmap(total, records, free_runs, deferred)

    def test_clean_store_passes_every_check(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                doc = small_doc(name)
                store, reports, safe_writes, reads = aged(doc)
                self.assertEqual(checks.check_store(store, reports, doc, safe_writes, reads), [])

    def test_overlapping_extents(self):
        records = copy.deepcopy(self.records)
        size, extents = records[1]
        records[1] = (size, extents[:-1] + [records[0][1][0]])
        problems, _runs, _free = self.bitmap(records)
        self.assertTrue(any("overlaps" in p for p in problems), problems)

    def test_record_with_wrong_cluster_count(self):
        records = copy.deepcopy(self.records)
        size, extents = records[2]
        offset, length = extents[-1]
        shorter = [(offset, length - 1)] if length > 1 else []
        records[2] = (size, extents[:-1] + shorter)
        self.assertTrue(checks.cluster_counts(records, self.store.volume.cluster_size))
        problems, _runs, _free = self.bitmap(records)
        self.assertTrue(any("!=" in p for p in problems), problems)

    def test_report_with_wrong_frag_mean(self):
        _problems, runs, free = self.bitmap(self.records)
        report = self.reports[-1]
        vol_doc = self.doc["volume"]
        self.assertEqual(checks.report_matches_layout(report, self.records, vol_doc, runs, free), [])
        bad = dataclasses.replace(report, frag_mean=report.frag_mean + 1e-6)
        problems = checks.report_matches_layout(bad, self.records, vol_doc, runs, free)
        self.assertTrue(any("frag_mean" in p for p in problems), problems)
        bad = dataclasses.replace(report, est_read_throughput=report.est_read_throughput * 1.001)
        self.assertTrue(checks.report_matches_layout(bad, self.records, vol_doc, runs, free))

    def test_age_short_of_target(self):
        target = self.doc["workload"]["target_age"]
        size = self.doc["workload"]["size_dist"]["mean"]
        n = len(self.records)
        live = sum(s for s, _ in self.records)
        args = (size, size, live, self.safe_writes, n, True)
        self.assertEqual(checks.age_reached(self.reports[-1].storage_age, target, *args), [])
        self.assertTrue(checks.age_reached(target - 1.0 / n, target, *args))
        self.assertTrue(checks.age_reached(target + 1.0, target, *args))
        short = (size, size, live, self.safe_writes - 1, n, True)
        self.assertTrue(checks.age_reached(self.reports[-1].storage_age, target, *short))

    def test_read_count_outside_binomial_bound(self):
        self.assertEqual(checks.read_count(9000, 10000, 0.9), [])
        self.assertTrue(checks.read_count(8500, 10000, 0.9))
        self.assertTrue(checks.read_count(1, 10000, 0.0))

    def test_digest_tracks_the_series(self):
        reports = copy.deepcopy(self.reports)
        self.assertEqual(checks.series_digest(reports), checks.series_digest(self.reports))
        reports[-1].frag_p99 += 1
        self.assertNotEqual(checks.series_digest(reports), checks.series_digest(self.reports))


class SpanAccounting(unittest.TestCase):
    def write(self, spans):
        names = sorted({s[0] for s in spans})
        header = {"format": SPAN_FORMAT, "names": names, "count": len(spans),
                  "counters": {"alloc.extents": 0, "volume.markers_set": 0,
                               "volume.clear_markers.clusters": 0}, "meta": {}}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"selftest-{self.id().rsplit('.', 1)[-1]}.spans"
        self.addCleanup(path.unlink)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            array("i", [names.index(s[0]) for s in spans]).tofile(f)
            for col, code in ((1, "i"), (2, "d"), (3, "d")):
                array(code, [s[col] for s in spans]).tofile(f)
        return str(path)

    def test_self_times_add_up_to_the_phase(self):
        path = self.write([("harness.age", -1, 0.0, 10.0), ("store.safe_write", 0, 1.0, 5.0),
                           ("alloc.alloc", 1, 2.0, 3.0)])
        metrics, problems = layer_metrics(span_totals(path))
        self.assertEqual(problems, [])
        self.assertEqual(metrics["store.safe_write.self_s"][0], 3.0)
        self.assertEqual(metrics["harness.self_s"][0], 6.0)

    def test_child_outlasting_parent_is_rejected(self):
        path = self.write([("harness.age", -1, 0.0, 1.0), ("store.safe_write", 0, 0.5, 3.0)])
        _metrics, problems = layer_metrics(span_totals(path))
        self.assertTrue(problems)


class HeldOutSmoke(unittest.TestCase):
    """Every workload runs cleanly through the entry point on the held-out seed."""

    def test_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
                    cwd=HERE.parent, capture_output=True, text=True, timeout=170,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual((result["correct"], result["failed"]), (True, 0), proc.stderr)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
