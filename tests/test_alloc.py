import pytest
from hypothesis import given, settings, strategies as st

from fraglab.alloc import (
    BestFitPolicy,
    BuddyPolicy,
    FirstFitPolicy,
    LogAppendPolicy,
    NtfsLikePolicy,
    WorstFitPolicy,
    make_policy,
)
from alloc_tools import RobsonTracker, clean_log
from fraglab.errors import ConfigurationError, NoSpaceError, UsageError
from fraglab.rng import Xorshift64Star
from fraglab.store import ObjectStore, StoreConfig
from fraglab.volume import Band, Extent, create_volume


def carve(volume, free_runs):
    """Force the free set to exactly free_runs (everything else allocated)."""
    volume.free.take(0, volume.total_clusters)
    for off, length in free_runs:
        volume.release([Extent(off, length)], "immediate")
    return volume


def one_band_volume(total=100):
    return create_volume(total, 4096, [Band(0, total, 60e6)])


def bitmap_free_clusters(volume):
    """Independent view: every free cluster, ascending, from intersection tests."""
    return [c for c in range(volume.total_clusters) if volume.free.intersects(c, 1)]


def reference_first_fit_fragmenting(volume, k):
    """Oracle: lowest-offset fitting run, else the k lowest free clusters grouped."""
    runs = []
    clusters = bitmap_free_clusters(volume)
    start = prev = None
    for c in clusters:
        if prev is not None and c == prev + 1:
            prev = c
            continue
        if start is not None:
            runs.append(Extent(start, prev - start + 1))
        start = prev = c
    if start is not None:
        runs.append(Extent(start, prev - start + 1))
    for run in runs:
        if run.length >= k:
            return [Extent(run.offset, k)]
    if len(clusters) < k:
        return None
    picked = clusters[:k]
    out = []
    for c in picked:
        if out and out[-1].end == c:
            out[-1] = Extent(out[-1].offset, out[-1].length + 1)
        else:
            out.append(Extent(c, 1))
    return out


class TestFitPolicies:
    def test_first_fit_picks_first_fitting_run(self):
        vol = carve(one_band_volume(), [(0, 4), (10, 8)])
        assert FirstFitPolicy().alloc(vol, [(6, 1)]) == [Extent(10, 6)]

    def test_first_fit_fragmenting_splits_in_address_order(self):
        vol = carve(one_band_volume(), [(0, 4), (10, 3)])
        got = FirstFitPolicy(fragmenting=True).alloc(vol, [(6, 1)])
        assert got == [Extent(0, 4), Extent(10, 2)]

    def test_first_fit_fragmenting_matches_reference(self):
        rng = Xorshift64Star(11)
        for trial in range(50):
            vol = one_band_volume(128)
            runs = []
            pos = 0
            while pos < 120:
                length = rng.randint(1, 8)
                gap = rng.randint(1, 6)
                if pos + length > 128:
                    break
                runs.append((pos, length))
                pos += length + gap
            vol = carve(vol, runs)
            k = rng.randint(1, 12)
            expected = reference_first_fit_fragmenting(vol, k)
            policy = FirstFitPolicy(fragmenting=True)
            if expected is None:
                with pytest.raises(NoSpaceError):
                    policy.alloc(vol, [(k, 1)])
            else:
                assert policy.alloc(vol, [(k, 1)]) == expected

    def test_best_fit_takes_exact_fit(self):
        vol = carve(one_band_volume(), [(0, 8), (20, 6), (40, 12)])
        assert BestFitPolicy().alloc(vol, [(6, 1)]) == [Extent(20, 6)]

    def test_worst_fit_takes_largest_run(self):
        vol = carve(one_band_volume(), [(0, 8), (20, 6), (40, 12)])
        assert WorstFitPolicy().alloc(vol, [(6, 1)]) == [Extent(40, 6)]

    def test_contiguous_only_raises_instead_of_splitting(self):
        for policy in (FirstFitPolicy(), BestFitPolicy(), WorstFitPolicy()):
            vol = carve(one_band_volume(), [(0, 4), (10, 4)])
            with pytest.raises(NoSpaceError):
                policy.alloc(vol, [(6, 1)])

    def test_groups_of_one_write_coalesce(self):
        vol = one_band_volume()
        assert FirstFitPolicy().alloc(vol, [(4, 3), (2, 1), (1, 2)]) == [Extent(0, 16)]

    def test_failure_in_a_later_group_gives_back_the_whole_write(self):
        vol = carve(one_band_volume(), [(0, 8), (20, 1)])
        with pytest.raises(NoSpaceError) as err:
            FirstFitPolicy().alloc(vol, [(4, 2), (2, 1)])
        assert (err.value.requested, err.value.available) == (2, 1)
        assert list(vol.free.runs()) == [Extent(0, 8), Extent(20, 1)]

    def test_alloc_result_leaves_free_set(self):
        vol = carve(one_band_volume(), [(0, 4), (10, 8)])
        got = BestFitPolicy().alloc(vol, [(8, 1)])
        for ext in got:
            assert not vol.free.intersects(ext.offset, ext.length)

    def test_exact_fit_reuse_after_immediate_release(self):
        for policy in (FirstFitPolicy(), BestFitPolicy()):
            vol = carve(one_band_volume(), [(0, 20), (40, 9), (60, 30)])
            got = policy.alloc(vol, [(9, 1)])
            assert len(got) == 1
            vol.release(got, "immediate")
            again = policy.alloc(vol, [(9, 1)])
            assert len(again) == 1

    def test_request_below_one_cluster_is_usage_error(self):
        # every group is checked before anything is taken
        for requests in ([(0, 1)], [(1, 0)], [(4, 2), (0, 1)]):
            vol = one_band_volume()
            with pytest.raises(UsageError):
                FirstFitPolicy().alloc(vol, requests)
            assert list(vol.free.runs()) == [Extent(0, 100)]


class TestBuddy:
    def test_rounds_request_up_and_aligns(self):
        vol = one_band_volume(16)
        policy = BuddyPolicy()
        assert policy.alloc(vol, [(3, 1)]) == [Extent(0, 4)]
        assert policy.internal_frag_clusters == 1

    def test_request_five_gets_block_of_eight(self):
        vol = one_band_volume(16)
        got = BuddyPolicy().alloc(vol, [(5, 1)])
        assert got == [Extent(8, 8)] or got == [Extent(0, 8)]
        assert got[0].length == 8
        assert got[0].offset % 8 == 0

    def test_freed_siblings_merge(self):
        vol = one_band_volume(16)
        policy = BuddyPolicy()
        a = policy.alloc(vol, [(4, 1)])
        b = policy.alloc(vol, [(4, 1)])
        assert a == [Extent(0, 4)] and b == [Extent(4, 4)]
        vol.release(a, "immediate")
        vol.release(b, "immediate")
        # the merged parent is allocatable as one order-3 block
        assert policy.alloc(vol, [(8, 1)]) == [Extent(0, 8)]

    def test_requires_power_of_two_volume(self):
        with pytest.raises(ConfigurationError):
            ObjectStore(one_band_volume(100), StoreConfig(policy=BuddyPolicy()))
        ObjectStore(one_band_volume(128), StoreConfig(policy=BuddyPolicy()))

    def test_min_order_must_fit_the_volume(self):
        ObjectStore(one_band_volume(128), StoreConfig(policy=BuddyPolicy(min_order=7)))
        with pytest.raises(ConfigurationError, match="min_order 8 exceeds .* largest block order 7"):
            ObjectStore(one_band_volume(128), StoreConfig(policy=BuddyPolicy(min_order=8)))

    def test_no_block_of_order_raises(self):
        vol = one_band_volume(16)
        policy = BuddyPolicy()
        policy.alloc(vol, [(16, 1)])
        with pytest.raises(NoSpaceError):
            policy.alloc(vol, [(1, 1)])

    def test_random_blocks_stay_aligned(self):
        rng = Xorshift64Star(5)
        vol = one_band_volume(256)
        policy = BuddyPolicy()
        live = []
        for _ in range(300):
            if live and rng.random() < 0.5:
                vol.release(live.pop(rng.randrange(len(live))), "immediate")
            else:
                want = rng.randint(1, 32)
                try:
                    got = policy.alloc(vol, [(want, 1)])
                except NoSpaceError:
                    continue
                (ext,) = got
                assert ext.length & (ext.length - 1) == 0
                assert ext.offset % ext.length == 0
                live.append(got)
        for got in live:
            vol.release(got, "immediate")
        assert list(vol.free.runs()) == [Extent(0, 256)]


def two_band_volume(total=300, outer_end=100):
    return create_volume(total, 4096, [Band(0, outer_end, 60e6), Band(outer_end, total, 30e6)])


class TestNtfsLike:
    def test_stage1_first_fit_in_outer_band(self):
        vol = carve(two_band_volume(), [(0, 50), (150, 80)])
        assert NtfsLikePolicy().alloc(vol, [(20, 1)]) == [Extent(0, 20)]

    def test_stage2_largest_cached_run(self):
        vol = carve(two_band_volume(), [(100, 50), (200, 25)])
        got = NtfsLikePolicy().alloc(vol, [(20, 1)])
        assert got == [Extent(100, 20)]

    def test_stage2_matches_exhaustive_scan(self):
        rng = Xorshift64Star(23)
        for _ in range(40):
            vol = two_band_volume(400, 16)  # tiny outer band, rarely usable
            runs = []
            pos = 16
            while pos < 390:
                length = rng.randint(1, 20)
                gap = rng.randint(1, 10)
                if pos + length > 400:
                    break
                runs.append((pos, length))
                pos += length + gap
            vol = carve(vol, runs)
            k = rng.randint(1, 15)
            fitting = [(-ln, off) for off, ln in runs if ln >= k]
            got = NtfsLikePolicy().alloc(vol, [(k, 1)])
            if fitting:
                neg_ln, off = min(fitting)  # largest run, ties to low offset
                assert got == [Extent(off, k)]
            else:
                assert sum(e.length for e in got) == k

    def test_fresh_holes_invisible_until_cache_miss(self):
        # space freed after the cache was built is not used until a miss
        vol = carve(two_band_volume(300, 5), [(100, 50), (200, 30)])
        policy = NtfsLikePolicy()
        assert policy.alloc(vol, [(10, 1)]) == [Extent(100, 10)]  # builds cache
        vol.release([Extent(10, 80)], "immediate")  # bigger, but invisible
        assert policy.alloc(vol, [(10, 1)]) == [Extent(110, 10)]  # still old run
        assert policy.alloc(vol, [(35, 1)]) == [Extent(10, 35)]  # miss -> refresh

    def test_cache_entry_shrinks_with_its_run(self):
        vol = carve(two_band_volume(300, 5), [(100, 50), (200, 30)])
        policy = NtfsLikePolicy()
        assert policy.alloc(vol, [(10, 1)]) == [Extent(100, 10)]  # cache: (110, 40), (200, 30)
        vol.free.take(130, 20)  # the run at 110 shrinks to 20 behind the cache's back
        assert policy.alloc(vol, [(25, 1)]) == [Extent(200, 25)]

    def test_stage3_fragments_largest_first(self):
        vol = carve(two_band_volume(300, 5), [(100, 50), (10, 10)])
        got = NtfsLikePolicy().alloc(vol, [(60, 1)])
        assert got == [Extent(100, 50), Extent(10, 10)]

    def test_no_space_when_total_free_short(self):
        vol = carve(two_band_volume(300, 5), [(100, 50), (10, 5)])
        with pytest.raises(NoSpaceError):
            NtfsLikePolicy().alloc(vol, [(60, 1)])

    def test_cache_survives_volume_churn(self):
        # stale cache entries must be revalidated, never double-allocated
        vol = carve(two_band_volume(400, 16), [(50, 30), (100, 40), (200, 25)])
        policy = NtfsLikePolicy(cache_depth=2)
        seen = []
        for k in (20, 20, 20, 20):
            try:
                seen.extend(policy.alloc(vol, [(k, 1)]))
            except NoSpaceError:
                break
        for i, a in enumerate(seen):
            for b in seen[i + 1 :]:
                assert not (a.offset < b.end and b.offset < a.end)


def log_store(total=100, free_mode="immediate"):
    vol = create_volume(total, 4096, [Band(0, total, 60e6)])
    config = StoreConfig(
        policy=LogAppendPolicy(),
        write_request_size=4096,
        size_hint=True,
        free_mode=free_mode,
    )
    return ObjectStore(vol, config)


class TestLogAppend:
    def test_fresh_volume_appends_chronologically(self):
        vol = one_band_volume()
        policy = LogAppendPolicy()
        assert policy.alloc(vol, [(10, 1)]) == [Extent(0, 10)]
        assert policy.alloc(vol, [(10, 1)]) == [Extent(10, 10)]
        assert policy.alloc(vol, [(10, 1)]) == [Extent(20, 10)]

    def test_wraps_into_free_start(self):
        vol = one_band_volume()
        policy = LogAppendPolicy()
        head_runs = [policy.alloc(vol, [(90, 1)]), policy.alloc(vol, [(10, 1)])]
        vol.release(head_runs[0], "immediate")  # start of volume becomes free
        got = policy.alloc(vol, [(10, 1)])
        # head was at the very end; allocation wraps to cluster 0
        assert got == [Extent(0, 10)]
        got = policy.alloc(vol, [(10, 1)])
        assert got == [Extent(10, 10)]

    def test_wrap_splits_tail_and_start(self):
        vol = one_band_volume()
        policy = LogAppendPolicy()
        a = policy.alloc(vol, [(80, 1)])
        policy.alloc(vol, [(10, 1)])  # keeps 90..100 free at the head
        vol.release(a, "immediate")
        got = policy.alloc(vol, [(30, 1)])
        assert got == [Extent(90, 10), Extent(0, 20)]

    def test_no_space_without_cleaner(self):
        vol = one_band_volume()
        policy = LogAppendPolicy()
        first = policy.alloc(vol, [(50, 1)])
        policy.alloc(vol, [(45, 1)])
        vol.release([Extent(10, 20)], "immediate")  # interior hole behind the head
        with pytest.raises(NoSpaceError):
            policy.alloc(vol, [(10, 1)])  # 5 at head + hole is not reachable


class TestCleaner:
    def test_no_dead_space_moves_nothing(self):
        store = log_store()
        for i in range(5):
            store.put_new(i, 4096 * 10)
        assert clean_log(store) == 0

    def test_alternating_pattern_compacts(self):
        store = log_store(total=100)
        for i in range(100):
            store.put_new(i, 4096)
        for i in range(0, 100, 2):
            store.delete(i)  # even clusters die, odd stay live
        moved = clean_log(store)
        assert moved == 50
        assert list(store.volume.free.runs()) == [Extent(50, 50)]
        store.volume.audit()
        store.verify_layout()

    def test_records_follow_the_moves(self):
        store = log_store(total=100)
        for i in range(10):
            store.put_new(i, 4096 * 8)
        for i in range(0, 10, 2):
            store.delete(i)
        clean_log(store)
        for i in range(1, 10, 2):
            rec, _ = store.get(i)
            assert len(rec.extents) == 1  # compaction defragments
        store.verify_layout()

    def test_auto_clean_keeps_store_usable(self):
        store = log_store(total=100)
        for i in range(9):
            store.put_new(i, 4096 * 10)
        store.delete(0)
        store.delete(2)
        # head region is too small; the policy must clean, then fit
        store.put_new(100, 4096 * 15)
        store.verify_layout()
        store.volume.audit()

    def test_pieces_that_become_adjacent_join_into_one_run(self):
        # first fit leaves x in two pieces around c, which dies before the clean;
        # log_append itself splits an object only at a wrap, where its pieces fall
        # in reverse address order and never join
        vol = one_band_volume(40)
        store = ObjectStore(vol, StoreConfig(policy=FirstFitPolicy(fragmenting=True), write_request_size=4096,
                                             size_hint=True, checkpoint_every=100))
        for oid in "abcd":
            store.put_new(oid, 4096 * 10)
        store.delete("b")
        store.delete("d")
        store.checkpoint_now()
        store.delete("c")   # (20, 10) stays deferred
        store.put_new("x", 4096 * 20)
        assert vol.owners == {0: (10, "a", 0), 10: (10, "x", 0), 30: (10, "x", 10)}
        state = store.to_state()
        state["config"]["policy"] = {"kind": "log_append", "fragmenting": True, "params": {}}
        store = ObjectStore.from_state(state)
        assert clean_log(store) == 10
        assert store.volume.owners == {0: (10, "a", 0), 10: (20, "x", 0)}
        assert store.get("x")[0].extents == [Extent(10, 20)]
        store.verify_layout()
        store.volume.audit(deep=True)

    def test_cleaner_target_unreachable_raises(self):
        store = log_store(total=100)
        for i in range(10):
            store.put_new(i, 4096 * 10)
        with pytest.raises(NoSpaceError):
            clean_log(store, target_clusters=5)


class TestRobson:
    def test_bound_holds_for_contiguous_first_fit(self):
        for seed in range(3):
            rng = Xorshift64Star(seed)
            vol = one_band_volume(4096)
            policy = FirstFitPolicy()
            tracker = RobsonTracker(cluster_size=vol.cluster_size)
            live = []
            live_clusters = 0
            for _ in range(600):
                if live and (rng.random() < 0.45 or live_clusters > 512):
                    ext = live.pop(rng.randrange(len(live)))
                    vol.release([ext], "immediate")
                    tracker.observe_free([ext])
                    live_clusters -= ext.length
                else:
                    k = rng.randint(1, 64)
                    (ext,) = policy.alloc(vol, [(k, 1)])
                    tracker.observe_alloc([ext])
                    live.append(ext)
                    live_clusters += k
                tracker.check()

    def test_tracker_detects_violations(self):
        tracker = RobsonTracker(cluster_size=4096)
        tracker.observe_alloc([Extent(1000, 1)])  # sparse placement: way past M log2 n
        assert not tracker.within_bound


def test_make_policy_round_trip():
    for kind in ("first_fit", "best_fit", "worst_fit", "buddy", "ntfs_like", "log_append"):
        policy = make_policy(kind)
        assert policy.kind == kind
    assert make_policy("first_fit", fragmenting=True).fragmenting
    assert make_policy("ntfs_like", params={"cache_depth": 8}).cache_depth == 8
    assert make_policy("buddy", params={"min_order": 2}).min_order == 2
    with pytest.raises(ConfigurationError):
        make_policy("quadratic_fit")
    with pytest.raises(ConfigurationError):
        make_policy("buddy", params={"bogus": 1})


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["first_fit", "best_fit", "worst_fit", "ntfs_like"]),
    st.lists(st.integers(1, 12), min_size=1, max_size=30),
    st.integers(0, 2**32),
)
def test_alloc_results_disjoint_and_sized(kind, requests, seed):
    """Any policy, any request stream: results are disjoint, exact, never free."""
    vol = create_volume(256, 4096, [Band(0, 128, 60e6), Band(128, 256, 30e6)])
    rng = Xorshift64Star(seed)
    policy = make_policy(kind, fragmenting=True)
    live = []
    for k in requests:
        if live and rng.random() < 0.4:
            vol.release(live.pop(rng.randrange(len(live))), "immediate")
        try:
            got = policy.alloc(vol, [(k, 1)])
        except NoSpaceError:
            assert vol.free_clusters < k or not policy.fragmenting
            continue
        assert sum(e.length for e in got) == k
        flat = [(e.offset, e.end) for e in got]
        for i, (s1, e1) in enumerate(flat):
            assert not vol.free.intersects(s1, e1 - s1)
            for s2, e2 in flat[i + 1 :]:
                assert e1 <= s2 or e2 <= s1
        live.append(got)
