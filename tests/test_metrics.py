import json

import pytest
from hypothesis import given, strategies as st

from fraglab.alloc import FirstFitPolicy
from fraglab.metrics import FragReport, build_report, fragments_of, nearest_rank
from fraglab.store import ObjectRecord, ObjectStore, StoreConfig
from fraglab.volume import Band, Extent, coalesce, create_volume
from fraglab.workload import SizeDist, WorkloadSpec, bulk_load, run_to_age

KB = 1024
MB = 1024 * 1024


def record(*extents):
    return ObjectRecord(id="r", size=sum(l for _, l in extents) * 4096,
                        extents=[Extent(o, l) for o, l in extents])


class TestFragmentsOf:
    def test_single_extent(self):
        assert fragments_of(record((0, 10))) == 1

    def test_two_scattered(self):
        assert fragments_of(record((0, 10), (50, 10))) == 2

    def test_adjacent_extents_coalesce(self):
        extents = coalesce([(0, 10), (10, 10), (50, 6)])
        assert extents == [Extent(0, 20), Extent(50, 6)]
        assert fragments_of(record(*extents)) == 2

    @given(st.sets(st.integers(0, 63), min_size=1))
    def test_matches_cluster_set_oracle(self, clusters):
        """Fragments == maximal runs in the sorted cluster set."""
        ordered = sorted(clusters)
        extents = []
        for c in ordered:
            if extents and extents[-1].end == c:
                extents[-1] = Extent(extents[-1].offset, extents[-1].length + 1)
            else:
                extents.append(Extent(c, 1))
        runs = 1 + sum(1 for a, b in zip(ordered, ordered[1:]) if b != a + 1)
        rec = ObjectRecord(id="x", size=len(ordered) * 4096, extents=extents)
        assert fragments_of(rec) == runs


class TestNearestRank:
    def test_spot_values(self):
        vals = [1, 1, 2, 3, 10]
        assert nearest_rank(vals, 50) == 2
        assert nearest_rank(vals, 99) == 10
        assert nearest_rank(vals, 100) == 10
        assert nearest_rank([7], 50) == 7
        assert nearest_rank([], 50) == 0

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=40))
    def test_percentiles_ordered(self, counts):
        vals = sorted(counts)
        p50 = nearest_rank(vals, 50)
        p99 = nearest_rank(vals, 99)
        assert p50 <= p99 <= vals[-1]


def aged_store(size_hint, target, n=57, total_clusters=4096, seed=1, policy=None, one_band=True):
    # run-cache dynamics need the default two bands; cost arithmetic wants one
    bands = [Band(0, total_clusters, 60e6)] if one_band else None
    volume = create_volume(total_clusters, 4096, bands)
    store = ObjectStore(
        volume,
        StoreConfig(
            policy=policy or FirstFitPolicy(fragmenting=True),
            write_request_size=64 * KB,
            size_hint=size_hint,
        ),
    )
    spec = WorkloadSpec(
        n_objects=n,
        size_dist=SizeDist("constant", 256 * KB),
        target_age=target,
        seed=seed,
        measurement_ages=[0.0, target] if target else [0.0],
    )
    bulk_load(store, spec)
    return store, run_to_age(store, spec)


class TestBuildReport:
    def test_clean_bulk_load_reports_one_fragment_and_tail_run(self):
        store, reports = aged_store(size_hint=True, target=0.0)
        report = reports[0]
        assert report.frag_mean == 1.0
        assert report.frag_p50 == report.frag_p99 == report.frag_max == 1
        # free space is dominated by the single tail run
        tail = max(report.free_runs)
        assert report.free_runs[tail] == 1
        assert tail * 4096 > 0.9 * report.free_bytes

    def test_no_hint_aging_raises_frag_mean(self):
        # 90% occupancy, 256KB objects, 64KB appends, run-cache allocator:
        # age 4 must fragment (ideal fit policies stay contiguous here)
        from fraglab.alloc import NtfsLikePolicy

        store, reports = aged_store(size_hint=False, target=4.0, policy=NtfsLikePolicy(), one_band=False)
        by_age = {r.storage_age: r for r in reports}
        assert by_age[4.0].frag_mean > by_age[0.0].frag_mean

    def test_report_echoes_age_exactly(self):
        store, reports = aged_store(size_hint=True, target=2.0)
        assert reports[-1].storage_age == 2.0

    def test_read_throughput_falls_as_fragmentation_rises(self):
        from fraglab.alloc import NtfsLikePolicy

        _, clean_reports = aged_store(size_hint=True, target=0.0, one_band=False)
        _, aged_reports = aged_store(size_hint=False, target=4.0, policy=NtfsLikePolicy(), one_band=False)
        clean, aged = clean_reports[0], aged_reports[-1]
        assert aged.frag_mean > clean.frag_mean
        assert aged.est_read_throughput < clean.est_read_throughput

    def test_write_throughput_covers_the_interval(self):
        store, reports = aged_store(size_hint=True, target=2.0)
        for report in reports:
            assert report.est_write_throughput > 0
        # clean bulk load pays one seek per object plus a contiguous transfer
        per_object = 0.008 + 256 * KB / 60e6
        assert reports[0].est_write_throughput == pytest.approx(256 * KB / per_object)

    def test_json_round_trip_lossless(self):
        from fraglab.alloc import NtfsLikePolicy

        _, reports = aged_store(size_hint=False, target=2.0, policy=NtfsLikePolicy(), one_band=False)
        for report in reports:
            wire = json.dumps(report.to_dict())
            assert FragReport.from_dict(json.loads(wire)) == report

    def test_empty_store_reports_zeros(self):
        volume = create_volume(128, 4096, [Band(0, 128, 60e6)])
        store = ObjectStore(volume, StoreConfig(policy=FirstFitPolicy()))
        report = build_report(store)
        assert report.n_objects == 0
        assert report.frag_mean == 0.0
        assert report.est_read_throughput == 0.0
