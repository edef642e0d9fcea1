"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them).  Two criteria target
dynamics that this model provably does not produce under the named policy;
those tests run the stated configuration verbatim, print the measured
numbers and the reasoning, and fail honestly rather than loosening the bar.
The full analysis lives outside the package in the project notes.
"""

import time

import pytest

from alloc_tools import RobsonTracker
from conftest import drive_mixed_ops
from fraglab import harness
from fraglab.alloc import FirstFitPolicy, make_policy
from fraglab.errors import NoSpaceError, SimulatedAbortError
from fraglab.rng import Xorshift64Star
from fraglab.store import ObjectStore, StoreConfig, SAFE_WRITE_STEPS
from fraglab.volume import create_volume
from fraglab.workload import SizeDist, WorkloadSpec, bulk_load, run_to_age

KB = 1024
MB = 1024 * 1024
GIB_CLUSTERS = 262144  # 1 GiB at 4096 bytes/cluster

MODULE_T0 = time.time()


def build_store(total_clusters, kind, *, fragmenting=True, wrs=64 * KB, hint=False,
                free_mode="deferred", checkpoint_every=1):
    volume = create_volume(total_clusters, 4096)
    policy = make_policy(kind, fragmenting=fragmenting)
    config = StoreConfig(policy=policy, write_request_size=wrs, size_hint=hint,
                         free_mode=free_mode, checkpoint_every=checkpoint_every)
    return ObjectStore(volume, config)


def age_series(kind, total_clusters, mean, *, hw=0, occupancy=0.9, target=10.0,
               seed=1, wrs=64 * KB, hint=False, free_mode="deferred", ages=None):
    store = build_store(total_clusters, kind, wrs=wrs, hint=hint, free_mode=free_mode)
    n = int(occupancy * total_clusters * 4096 // mean)
    spec = WorkloadSpec(
        n_objects=n,
        size_dist=SizeDist("uniform" if hw else "constant", mean, hw),
        target_age=target,
        seed=seed,
        measurement_ages=ages if ages is not None else [float(a) for a in range(int(target) + 1)],
    )
    bulk_load(store, spec)
    return run_to_age(store, spec)


# -- criteria 1 and 2: scanner oracle and conservation ------------------------

C1_ROTATION = [
    ("first_fit", "deferred", 1),
    ("first_fit", "immediate", 1),
    ("best_fit", "deferred", 5),
    ("best_fit", "immediate", 1),
    ("worst_fit", "deferred", 1),
    ("worst_fit", "immediate", 1),
    ("ntfs_like", "deferred", 1),
    ("ntfs_like", "deferred", 7),
    ("buddy", "immediate", 1),
    ("buddy", "deferred", 3),
]


def test_c1_c2_oracle_equivalence_and_conservation():
    """10 seeds x 1000 mixed ops on a 1 GiB volume: scan == records, exact
    conservation after every operation, under a rotation of policies."""
    t0 = time.time()
    for seed, (kind, free_mode, every) in enumerate(C1_ROTATION):
        store = build_store(GIB_CLUSTERS, kind, fragmenting=(kind != "buddy"),
                            free_mode=free_mode, checkpoint_every=every)
        # drive_mixed_ops audits conservation after every op and cross-checks
        # the marker scanner against the records periodically and at the end
        drive_mixed_ops(store, seed=seed, n_ops=1000, size_range=(64 * KB, 2 * MB),
                        audit_every=1, scan_every=100)
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 minute"
    print(f"\nACCEPTANCE C1 PASS: scan_layout matched records over 10x1000 mixed ops ({elapsed:.1f}s)")
    print("ACCEPTANCE C2 PASS: free+deferred+allocated conservation held after every op")


# -- criterion 3: exact-fit steady state ---------------------------------------

@pytest.mark.parametrize("kind", ["best_fit", "first_fit"])
def test_c3_exact_fit_steady_state(kind):
    """Constant sizes, size hint, immediate frees, 90% full: replacement noise
    never fragments anything because freed holes exactly fit new objects."""
    reports = age_series(kind, 65536, 1 * MB, occupancy=0.9, target=10.0,
                         hint=True, free_mode="immediate")
    assert [r.storage_age for r in reports] == [float(a) for a in range(11)]
    for report in reports:
        assert report.frag_mean == 1.0, (
            f"{kind}: frag_mean {report.frag_mean} at age {report.storage_age}"
        )
        assert report.frag_max == 1
    print(f"ACCEPTANCE C3 PASS ({kind}): frag_mean exactly 1.0 at ages 0..10")


# -- criterion 4: write-request-size effect ------------------------------------

def _trend_checks(values):
    final_three = values[-3:]
    spread = max(final_three) / min(final_three) - 1.0
    return spread, values[-1]


def test_c4_write_request_size_effect_first_fit():
    """As stated: no hint, object = 4 x request size, 90% full, first_fit.

    Expected to FAIL: with a pure lowest-offset policy every freed hole is
    exactly one object and consecutive appends extend the same run, so the
    replacement cycle re-fills each hole contiguously and frag_mean stays
    at 1.0 forever (the same steady state criterion 3 requires).  The
    project notes carry the proof sketch and the parameter sweeps; the
    companion test below shows the effect this criterion targets emerging
    under the run-cache allocator.
    """
    reports = age_series("first_fit", 65536, 256 * KB, occupancy=0.9, target=10.0)
    values = [r.frag_mean for r in reports]
    spread, final = _trend_checks(values)
    print(f"\nACCEPTANCE C4 measured (first_fit): {[round(v, 2) for v in values]}")
    ok = 2.0 <= final <= 5.0 and spread <= 0.15 and values[-1] >= values[0]
    if not ok:
        print("ACCEPTANCE C4 FAIL: first_fit holds the exact-fit steady state at "
              f"frag_mean {final}; a lowest-offset allocator cannot leave it "
              "(see notes: constant-size holes are always re-filled contiguously)")
    assert 2.0 <= final <= 5.0, f"frag_mean {final} did not converge into [2.0, 5.0]"
    assert spread <= 0.15
    assert values[-1] >= values[0]
    print("ACCEPTANCE C4 PASS: first_fit converged into [2.0, 5.0] and flattened")


def test_c4_companion_effect_under_run_cache_allocator():
    """Same configuration with the ntfs_like policy: fragments/object climbs
    and flattens near one fragment per write request, inside [2, 5]."""
    reports = age_series("ntfs_like", 65536, 256 * KB, occupancy=0.9, target=10.0)
    values = [r.frag_mean for r in reports]
    spread, final = _trend_checks(values)
    assert 2.0 <= final <= 5.0
    assert spread <= 0.15
    assert all(b >= a - 0.10 for a, b in zip(values, values[1:])), values
    print(f"\nACCEPTANCE C4 companion PASS (ntfs_like): converged to {final:.2f} "
          f"fragments/object, series {[round(v, 2) for v in values]}")


# -- criterion 5: constant vs uniform sizes -------------------------------------

def test_c5_constant_vs_uniform_sizes():
    """Same mean, policy, occupancy: at age 4 the two distributions fragment
    to within 25% of each other (constant is no better than uniform)."""
    const = age_series("ntfs_like", 65536, 1 * MB, occupancy=0.9, target=4.0,
                       ages=[4.0])[0].frag_mean
    unif = age_series("ntfs_like", 65536, 1 * MB, hw=512 * KB, occupancy=0.9,
                      target=4.0, ages=[4.0])[0].frag_mean
    gap = abs(const - unif) / min(const, unif)
    assert const > 1.5 and unif > 1.5, "both runs must actually fragment"
    assert gap < 0.25, f"constant {const:.2f} vs uniform {unif:.2f}: {gap:.1%} apart"
    print(f"\nACCEPTANCE C5 PASS: constant {const:.2f} vs uniform {unif:.2f} "
          f"fragments/object ({gap:.1%} apart)")


# -- criterion 6: free-pool ratio -----------------------------------------------

def test_c6_free_pool_ratio():
    """As stated: 50% occupancy, free pools of 400 vs 40 mean objects,
    ntfs_like, age 8; the large pool should fragment >= 1.5x less.

    Expected to FAIL: the two configurations differ 10x in volume and
    free-pool size, but the ntfs_like run cache holds cache_depth entries,
    an absolute count, so they are not rescalings of each other.  The
    measured factor moves with the seed, from 0.94 to 1.42 over seeds 1-4,
    and stays below 1.5 on each (ROADMAP item 7).  Measured numbers are
    printed.
    """
    big = age_series("ntfs_like", 204800, 1 * MB, occupancy=0.5, target=8.0,
                     ages=[8.0])[0].frag_mean
    small = age_series("ntfs_like", 20480, 1 * MB, occupancy=0.5, target=8.0,
                       ages=[8.0])[0].frag_mean
    factor = small / big
    print(f"\nACCEPTANCE C6 measured: pool-400 {big:.2f} vs pool-40 {small:.2f} "
          f"fragments/object (factor {factor:.2f})")
    if not (big < small and factor >= 1.5):
        print("ACCEPTANCE C6 FAIL: the factor moves from 0.94 to 1.42 over seeds 1-4 "
              "(cache_depth is an absolute count, not rescaled with the pool); "
              "see ROADMAP item 7 for the seed study")
    assert big < small, f"large pool fragmented more ({big:.2f} vs {small:.2f})"
    assert factor >= 1.5, f"factor {factor:.2f} below 1.5"
    print("ACCEPTANCE C6 PASS: large free pool fragmented >= 1.5x less")


# -- criterion 7: first-fit watermark bound ----------------------------------------

def test_c7_robson_bound():
    """Contiguous first fit never exceeds peak-bytes * log2(max request)."""
    checks = 0
    for seed in range(10):
        rng = Xorshift64Star(seed)
        volume = create_volume(65536, 4096)
        policy = FirstFitPolicy(fragmenting=False)
        tracker = RobsonTracker(cluster_size=4096)
        live = []
        live_clusters = 0
        for _ in range(2000):
            if live and (rng.random() < 0.45 or live_clusters > 2000):
                ext = live.pop(rng.randrange(len(live)))
                volume.release([ext], "immediate")
                tracker.observe_free([ext])
                live_clusters -= ext.length
            else:
                k = rng.randint(1, 64)
                (ext,) = policy.alloc(volume, [(k, 1)])  # theorem: cannot run out
                tracker.observe_alloc([ext])
                live.append(ext)
                live_clusters += k
            tracker.check()
            checks += 1
    print(f"\nACCEPTANCE C7 PASS: watermark bound held at {checks} steps over 10 workloads")


# -- criterion 8: deferred-free isolation ---------------------------------------

def test_c8_deferred_isolation():
    """10^4 random alloc/deferred-free/checkpoint sequences: nothing ever
    allocates out of an uncommitted deferred extent."""
    allocations = 0
    for seq in range(10_000):
        rng = Xorshift64Star(seq)
        volume = create_volume(128, 4096)
        policy = FirstFitPolicy(fragmenting=True)
        live = []
        live_total = 0
        for _ in range(25):
            roll = rng.random()
            if roll < 0.5:
                k = rng.randint(1, 8)
                try:
                    got = policy.alloc(volume, [(k, 1)])
                except NoSpaceError:
                    continue
                for ext in got:
                    for staged in volume.deferred.runs():
                        assert not (staged.offset < ext.end and ext.offset < staged.end), (
                            f"sequence {seq}: allocated {ext} inside deferred {staged}"
                        )
                live.append(got)
                live_total += k
                allocations += 1
            elif roll < 0.85 and live:
                extents = live.pop(rng.randrange(len(live)))
                volume.release(extents, "deferred")
                live_total -= sum(e.length for e in extents)
            else:
                volume.checkpoint()
        assert volume.free_clusters + volume.deferred_clusters + sum(
            sum(e.length for e in g) for g in live
        ) == 128
    print(f"\nACCEPTANCE C8 PASS: no allocation touched uncommitted space "
          f"({allocations} allocations over 10000 sequences)")


# -- criterion 9: safe-write atomicity ------------------------------------------

def test_c9_safe_write_atomicity():
    """Injected aborts at every protocol step for 100 objects: the object
    always resolves to one complete version and nothing leaks."""
    store = build_store(65536, "first_fit", free_mode="deferred")
    rng = Xorshift64Star(99)
    for i in range(100):
        store.put_new(i, rng.randint(64 * KB, 1 * MB))
    aborted = 0
    for i in range(100):
        step = SAFE_WRITE_STEPS[i % len(SAFE_WRITE_STEPS)]
        old_rec, _ = store.get(i)
        old_size, old_gen = old_rec.size, old_rec.generation
        old_extents = list(old_rec.extents)
        new_size = rng.randint(64 * KB, 1 * MB)

        def hook(name, _step=step):
            if name == _step:
                raise SimulatedAbortError(name)

        store.step_hook = hook
        with pytest.raises(SimulatedAbortError):
            store.safe_write(i, new_size)
        store.step_hook = None
        aborted += 1
        store.recover()
        store.checkpoint_now()
        store.volume.audit(deep=True)   # no cluster leak
        store.verify_layout()           # markers agree with records
        rec, _ = store.get(i)
        if rec.generation == old_gen:
            assert rec.size == old_size and rec.extents == old_extents
        else:
            assert rec.generation == old_gen + 1 and rec.size == new_size
        committed = step in ("replaced", "old_released")
        assert rec.generation == old_gen + (1 if committed else 0)
    print(f"\nACCEPTANCE C9 PASS: one complete version after {aborted} injected aborts, no leaks")


# -- criterion 10: determinism ----------------------------------------------------

def test_c10_determinism(tmp_path):
    """A bundled config twice, and a grid at parallelism 1 vs 8, are byte-identical."""
    config = harness.load_config("exact_fit")
    outs = []
    for i in range(2):
        config.csv_path = str(tmp_path / f"runA{i}.csv")
        config.json_path = None
        harness.run(config)
        outs.append((tmp_path / f"runA{i}.csv").read_bytes())
    assert outs[0] == outs[1]

    grid = harness.load_grid("grid_smoke")
    grid.csv_path = str(tmp_path / "grid.csv")
    grid.json_path = None
    harness.run_grid(grid, parallelism=1)
    serial = (tmp_path / "grid.csv").read_bytes()
    harness.run_grid(grid, parallelism=8)
    parallel = (tmp_path / "grid.csv").read_bytes()
    assert serial == parallel
    print("\nACCEPTANCE C10 PASS: byte-identical CSV across reruns and worker counts")


# -- criterion 11: end-to-end runtime (keep this test last in the file) -----------

def test_c11_runtime_budget():
    elapsed = time.time() - MODULE_T0
    assert elapsed < 600, f"acceptance suite took {elapsed:.0f}s (budget 600s)"
    print(f"\nACCEPTANCE C11 PASS: suite completed in {elapsed:.0f}s (< 10 minutes)")