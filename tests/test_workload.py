import dataclasses

import pytest

from fraglab.alloc import FirstFitPolicy, LogAppendPolicy, POLICY_KINDS, make_policy
from fraglab.errors import ConfigurationError, InfeasibleSpecError, UndefinedAgeError, UsageError
from fraglab.metrics import fragments_of
from fraglab.rng import Xorshift64Star
from fraglab.store import AgeClock, ObjectStore, StoreConfig
from fraglab.volume import Band, create_volume
from fraglab.workload import (
    SizeDist,
    WorkloadSpec,
    bulk_load,
    run_to_age,
    sample_size,
)

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB


def make_store(total_clusters=8192, **cfg):
    cfg.setdefault("policy", FirstFitPolicy(fragmenting=True))
    volume = create_volume(total_clusters, 4096, [Band(0, total_clusters, 60e6)])
    return ObjectStore(volume, StoreConfig(**cfg))


def spec(n=10, mean=1 * MB, hw=0, target=0.0, seed=1, ages=(), kind=None):
    return WorkloadSpec(
        n_objects=n,
        size_dist=SizeDist(kind=kind or ("uniform" if hw else "constant"), mean=mean, half_width=hw),
        target_age=target,
        seed=seed,
        measurement_ages=list(ages),
    )


class TestSampleSize:
    def test_constant_always_mean(self):
        rng = Xorshift64Star(0)
        dist = SizeDist("constant", 10 * MB)
        assert all(sample_size(dist, rng) == 10 * MB for _ in range(100))

    def test_uniform_mean_converges(self):
        # law of large numbers: 1e5 draws from [1, 2*mean-1] land within 1%
        rng = Xorshift64Star(42)
        dist = SizeDist("uniform", 10 * MB, 10 * MB - 1)
        n = 100_000
        total = sum(sample_size(dist, rng) for _ in range(n))
        assert abs(total / n - 10 * MB) / (10 * MB) < 0.01

    def test_zero_half_width_uniform_equals_constant(self):
        rng = Xorshift64Star(0)
        dist = SizeDist("uniform", 10 * MB, 0)
        assert all(sample_size(dist, rng) == 10 * MB for _ in range(50))

    def test_bounds_inclusive(self):
        rng = Xorshift64Star(3)
        dist = SizeDist("uniform", 100, 99)
        draws = {sample_size(dist, rng) for _ in range(5000)}
        assert min(draws) >= 1 and max(draws) <= 199
        assert 1 in draws and 199 in draws


class TestBulkLoad:
    def test_ten_objects_age_zero_one_fragment_each(self):
        store = make_store()
        bulk_load(store, spec(n=10, mean=1 * MB))
        assert store.clock.age == 0.0
        assert all(fragments_of(rec) == 1 for rec in store.records())

    def test_over_capacity_reports_shortfall(self):
        store = make_store(total_clusters=1024)  # 4 MiB
        with pytest.raises(InfeasibleSpecError) as err:
            bulk_load(store, spec(n=10, mean=1 * MB))
        assert err.value.required_clusters == 10 * 256
        assert err.value.available_clusters == 1024

    def test_same_seed_same_sizes(self):
        sizes = []
        for _ in range(2):
            store = make_store()
            bulk_load(store, spec(n=12, mean=1 * MB, hw=512 * KB, seed=9))
            sizes.append([rec.size for rec in store.records()])
        assert sizes[0] == sizes[1]

    def test_requires_empty_store(self):
        store = make_store()
        store.put_new("x", 4096)
        with pytest.raises(UsageError):
            bulk_load(store, spec())


class TestRunToAge:
    def test_target_two_is_exactly_two_n_safe_writes(self):
        store = make_store()
        s = spec(n=10, mean=1 * MB, target=2.0, ages=[0.0, 1.0, 2.0])
        bulk_load(store, s)
        run_to_age(store, s)
        assert sum(rec.generation for rec in store.records()) == 20

    def test_target_zero_reports_bulk_state(self):
        store = make_store()
        s = spec(n=10, mean=1 * MB, target=0.0, ages=[0.0])
        bulk_load(store, s)
        reports = run_to_age(store, s)
        assert len(reports) == 1
        assert reports[0].storage_age == 0.0
        assert reports[0].frag_mean == 1.0
        assert all(rec.generation == 0 for rec in store.records())

    def test_same_seed_identical_series(self):
        series = []
        for _ in range(2):
            store = make_store()
            s = spec(n=8, mean=1 * MB, hw=256 * KB, target=3.0, seed=5, ages=[0, 1, 2, 3])
            bulk_load(store, s)
            series.append([r.to_dict() for r in run_to_age(store, s)])
        assert series[0] == series[1]

    def test_age_echoes_measurement_exactly_for_constant_sizes(self):
        store = make_store()
        s = spec(n=10, mean=1 * MB, target=2.0, ages=[0.0, 2.0])
        bulk_load(store, s)
        reports = run_to_age(store, s)
        assert [r.storage_age for r in reports] == [0.0, 2.0]

    def test_reads_interleave_and_report(self):
        store = make_store()
        s = dataclasses.replace(spec(n=10, mean=1 * MB, target=2.0, ages=[2.0]), read_fraction=0.5)
        bulk_load(store, s)
        (report,) = run_to_age(store, s)
        assert report.reads is not None
        assert report.reads["count"] > 0
        assert report.reads["model_seconds"] > 0

    def test_occupancy_stationary_constant_sizes(self):
        store = make_store()
        s = spec(n=10, mean=1 * MB, target=4.0, ages=[4.0])
        bulk_load(store, s)
        run_to_age(store, s)
        assert store.clock.live_bytes == 10 * MB
        assert len(store) == 10

    def test_occupancy_bounded_uniform_sizes(self):
        store = make_store()
        s = spec(n=10, mean=1 * MB, hw=512 * KB, target=4.0, ages=[4.0])
        bulk_load(store, s)
        run_to_age(store, s)
        assert len(store) == 10
        assert 10 * (1 * MB - 512 * KB) <= store.clock.live_bytes <= 10 * (1 * MB + 512 * KB)

    def test_age_strictly_increases_per_safe_write(self):
        store = make_store()
        s = spec(n=5, mean=1 * MB, target=1.0)
        bulk_load(store, s)
        ages = [store.clock.age]
        for i in range(5):
            store.safe_write(i, 1 * MB)
            ages.append(store.clock.age)
        assert all(b > a for a, b in zip(ages, ages[1:]))

    def test_volume_size_independence(self):
        ages = []
        for clusters in (8192, 32768):
            store = make_store(total_clusters=clusters)
            s = spec(n=10, mean=1 * MB, target=3.0, seed=2, ages=[0, 1, 2, 3])
            bulk_load(store, s)
            reports = run_to_age(store, s)
            ages.append([r.storage_age for r in reports])
            assert sum(rec.generation for rec in store.records()) == 30
        assert ages[0] == ages[1]


class TestStorageAge:
    def test_ratio(self):
        assert AgeClock(bytes_turned_over=200 * GB, live_bytes=100 * GB).age == 2.0

    def test_zero_turnover(self):
        assert AgeClock(bytes_turned_over=0, live_bytes=1 * GB).age == 0.0

    def test_no_live_bytes_is_error(self):
        with pytest.raises(UndefinedAgeError):
            AgeClock(bytes_turned_over=100, live_bytes=0).age


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            spec(n=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(1, SizeDist("constant", 0), 1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(1, SizeDist("uniform", 100, 100), 1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(1, SizeDist("constant", 100), -1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(1, SizeDist("constant", 100), 2.0, measurement_ages=[3.0])

    def test_checked_as_built_and_frozen(self):
        with pytest.raises(ConfigurationError, match=r"^workload.size_dist.half_width 100 must be < mean 100$"):
            SizeDist("uniform", 100, 100)
        with pytest.raises(ConfigurationError, match=r"^measurement ages must lie in \[0, target_age\]$"):
            spec(target=2.0, ages=[3.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec().read_fraction = 0.5

    def test_measurement_ages_cannot_change_after_the_checks(self):
        held = spec(target=1.0, ages=[0.0, 1.0])
        assert held.measurement_ages == (0.0, 1.0)
        with pytest.raises(AttributeError):
            held.measurement_ages.extend([0.5, 7.0])


@pytest.mark.parametrize("free_mode", ["deferred", "immediate"])
def test_log_append_ages_through_its_cleaner(free_mode):
    # the cleaner runs inside a safe write; it must not move the object
    # underneath the replacement that triggered it
    store = make_store(65536, policy=LogAppendPolicy(), free_mode=free_mode)
    n = int(0.8 * 65536 * 4096 // (256 * KB))
    sp = spec(n=n, mean=256 * KB, hw=128 * KB, target=2.0, ages=(0.0, 1.0, 2.0), kind="uniform")
    bulk_load(store, sp)
    reports = run_to_age(store, sp)
    assert len(reports) == 3 and reports[-1].storage_age >= 2.0
    assert store.config.policy.clusters_moved > 0
    store.verify_layout()
    store.volume.audit(deep=True)


# a configuration each policy can hold: buddy rounds requests up to a power
# of two and never splits, so it gets a lower fill; ntfs_like needs deferred frees
POLICY_AGING = {
    "first_fit": (0.8, "deferred"),
    "best_fit": (0.8, "immediate"),
    "worst_fit": (0.8, "deferred"),
    "buddy": (0.4, "immediate"),
    "ntfs_like": (0.8, "deferred"),
    "log_append": (0.8, "immediate"),
}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_every_policy_ages_end_to_end(kind):
    occupancy, free_mode = POLICY_AGING[kind]
    # every kind fragments where it can; buddy never does
    policy = make_policy(kind, fragmenting=kind != "buddy")
    store = make_store(4096, policy=policy, free_mode=free_mode)
    n = int(occupancy * 4096 * 4096 // (64 * KB))
    sp = spec(n=n, mean=64 * KB, hw=32 * KB, target=2.0, ages=(0.0, 2.0), kind="uniform")
    bulk_load(store, sp)
    reports = run_to_age(store, sp)
    assert reports[-1].storage_age >= 2.0
    store.verify_layout()
    store.volume.audit(deep=True)
