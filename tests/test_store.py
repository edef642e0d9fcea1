import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import drive_mixed_ops, live_ids
from fraglab import harness
from fraglab.alloc import BestFitPolicy, FirstFitPolicy, NtfsLikePolicy, make_policy
from fraglab.errors import (
    EXIT_CONFIG,
    ConfigurationError,
    CorruptionError,
    NoSpaceError,
    NotFoundError,
    SimulatedAbortError,
    UsageError,
    exit_code,
)
from fraglab.metrics import fragments_of
from fraglab.store import ObjectRecord, ObjectStore, StoreConfig, SAFE_WRITE_STEPS
from fraglab.volume import TEMP, Band, Extent, create_volume
from fraglab.workload import bulk_load, run_to_age
from linear_alloc import LINEAR_POLICIES, PerRequestStore, linear_volume, per_request_plan

KB = 1024
MB = 1024 * 1024


class CountingFirstFit(FirstFitPolicy):
    """Counts the store's calls, and the write requests they carry (the sum of their counts)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = self.requests = 0

    def alloc(self, volume, requests):
        self.calls += 1
        self.requests += sum(count for _clusters, count in requests)
        return super().alloc(volume, requests)


def make_store(total=4096, policy=None, **cfg):
    volume = create_volume(total, 4096, [Band(0, total, 60e6)])
    config = StoreConfig(policy=policy or FirstFitPolicy(fragmenting=True), **cfg)
    return ObjectStore(volume, config)


class TestPutNew:
    def test_256kb_object_takes_four_64kb_appends(self):
        policy = CountingFirstFit(fragmenting=True)
        store = make_store(policy=policy, write_request_size=64 * KB)
        store.put_new("a", 256 * KB)
        assert (policy.requests, policy.calls) == (4, 1)

    def test_hinted_put_is_one_call_one_fragment(self):
        policy = CountingFirstFit(fragmenting=True)
        store = make_store(policy=policy, size_hint=True)
        rec = store.put_new("a", 256 * KB)
        assert (policy.requests, policy.calls) == (1, 1)
        assert len(rec.extents) == 1
        assert fragments_of(rec) == 1

    def test_sub_cluster_object_rounds_to_one_cluster(self):
        store = make_store()
        rec = store.put_new("tiny", 1 * KB)
        assert rec.allocated_clusters == 1

    def test_duplicate_id_rejected(self):
        store = make_store()
        store.put_new("a", 4096)
        with pytest.raises(UsageError):
            store.put_new("a", 4096)

    def test_refuses_ids_a_snapshot_cannot_hold(self):
        # one rule for a put and a snapshot's object and owner rows: TEMP would pass for a leftover
        # temp run, and True or 1.0 for object 1
        store = make_store()
        store.put_new(1, 4096)
        state = store.to_state()
        for oid in (TEMP, ("~tmp", 7, 1), ("pad", 1), 1.0, 2.5, True, None):
            with pytest.raises(UsageError) as refused:
                store.put_new(oid, 4096)
            assert str(refused.value) == f"object id must be an integer or a string, not {oid!r}"
            assert exit_code(refused.value) == EXIT_CONFIG
            in_object_row, in_owner_row = copy.deepcopy(state), copy.deepcopy(state)
            in_object_row["objects"][0][0] = oid
            in_owner_row["volume"]["owners"][0][2] = oid
            for snapshot, message in (
                (in_object_row, f"snapshot object id must be an integer or a string, not {oid!r}"),
                (in_owner_row, f"snapshot owner run at cluster 0 has key {oid!r};"
                               " owner keys must be JSON scalars of type integer or string"),
            ):
                with pytest.raises(ConfigurationError) as refused:
                    ObjectStore.from_state(snapshot)
                assert str(refused.value) == message   # one line
                assert exit_code(refused.value) == EXIT_CONFIG
        store.put_new("1", 4096)
        assert live_ids(store) == [1, "1"]
        store.volume.audit(deep=True)
        store.verify_layout()
        assert live_ids(ObjectStore.from_state(store.to_state())) == [1, "1"]

    def test_no_space_put_rolls_back_completely(self):
        store = make_store(total=64, write_request_size=4096)
        store.put_new("big", 60 * 4096)
        free_before = list(store.volume.free.runs())
        owners_before = dict(store.volume.owners)
        with pytest.raises(NoSpaceError):
            store.put_new("too-big", 10 * 4096)
        assert list(store.volume.free.runs()) == free_before
        assert store.volume.owners == owners_before
        assert "too-big" not in store
        store.volume.audit(deep=True)

    def test_appends_coalesce_into_canonical_extents(self):
        store = make_store(write_request_size=64 * KB)
        rec = store.put_new("a", 256 * KB)
        # sequential appends on a clean volume land adjacent: one extent
        assert rec.extents == [Extent(0, 64)]


class TestAppendPlan:
    """The store's (clusters, count) groups against the one-entry-per-request plan they replaced."""

    @pytest.mark.parametrize("request_size, size_hint", [
        (4 * KB, False), (64 * KB, False), (6 * KB, False), (4 * KB + 1, False), (64 * KB, True),
    ], ids=["one_cluster", "sixteen_clusters", "six_kib", "a_cluster_and_a_byte", "size_hint"])
    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 2 * MB))
    @example(size=1)
    @example(size=2 * MB)
    @example(size=6 * KB + 1)
    def test_groups_expand_to_the_per_request_plan(self, request_size, size_hint, size):
        plan = make_store(write_request_size=request_size, size_hint=size_hint)._append_plan(size)
        assert [k for k, count in plan for _ in range(count)] == per_request_plan(
            size, 4096, request_size, size_hint)
        assert all(count >= 1 for _k, count in plan)
        assert all(a[0] != b[0] for a, b in zip(plan, plan[1:]))   # equal neighbours are one group


def holed_store(kind, oracle, layout):
    """A full volume with holes, on the indexed policies or (oracle) on the linear ones and a
    per-request store; 16 KiB write requests of 4 clusters.

    mid_group: 64 clusters, free runs of 4, 4, 4 and 2 and 4 awaiting a checkpoint; a
    20-cluster write is one group of five requests, and the fourth finds no space.
    later_group: 128 clusters, sixteen free runs of 4 and one of 1, and 1 awaiting a
    checkpoint; a 66-cluster write is sixteen full requests and a 2-cluster tail, and the
    tail finds no space.
    """
    total, sizes, holes, deferred = {
        "mid_group": (64, [4] * 12 + [2, 2] + [4] * 3, (2, 6, 10, 12), 16),
        "later_group": (128, [4] * 31 + [1] * 4, [*range(0, 31, 2), 33], 34),
    }[layout]
    bands = [Band(0, total // 2, 60e6), Band(total // 2, total, 30e6)]
    fragmenting = kind not in ("buddy", "first_fit")
    if oracle:
        volume, store_class, policy = linear_volume(total, 4096, bands), PerRequestStore, LINEAR_POLICIES[kind]()
        policy.fragmenting = fragmenting
    else:
        volume, store_class, policy = create_volume(total, 4096, bands), ObjectStore, make_policy(kind, fragmenting)
    store = store_class(volume, StoreConfig(policy=policy, write_request_size=16 * KB, checkpoint_every=100))
    for oid, clusters in enumerate(sizes):
        store.put_new(oid, clusters * 4096)
    for oid in holes:
        store.delete(oid)
    store.checkpoint_now()
    store.delete(deferred)
    return store


def store_state(store):
    volume = store.volume
    return (list(volume.free), list(volume.deferred), dict(volume.owners), store._pending,
            [(rec.id, rec.size, rec.generation, list(rec.extents)) for rec in store.records()],
            (store.clock.bytes_turned_over, store.clock.live_bytes))


def check_no_space_rollback(kind, op, layout, clusters, plan, free, deferred, available):
    """The write fails on its last request: on the indexed policies and on the linear oracle,
    the state is as before the op, and the errors and the policies' state are equal."""
    errors, policies = [], []
    for oracle in (False, True):
        store = holed_store(kind, oracle, layout)
        assert (list(store.volume.free), list(store.volume.deferred)) == (free, deferred)
        if not oracle:
            assert store._append_plan(clusters * 4096) == plan
        before = store_state(store)
        with pytest.raises(NoSpaceError) as err:
            if op == "put":
                store.put_new("new", clusters * 4096)
            else:
                store.safe_write(1, clusters * 4096)
        assert store_state(store) == before
        store.volume.audit(deep=True)
        store.verify_layout()
        errors.append((str(err.value), err.value.requested, err.value.available))
        policies.append(vars(store.config.policy))
    assert errors[0] == errors[1]
    # the last request failed, with the free count it found
    assert errors[0][1:] == (plan[-1][0], available)
    assert policies[0] == policies[1]


NO_SPACE_KINDS = ["first_fit", "best_fit", "worst_fit", "buddy", "ntfs_like"]


class TestNoSpaceMidGroup:
    """The fourth request of a group finds no space: the one policy call gives back what the
    requests before it took, as the linear per-request oracle's own loop does."""

    @pytest.mark.parametrize("op", ["put", "safe_write"])
    @pytest.mark.parametrize("kind", NO_SPACE_KINDS)
    def test_rolls_back_to_the_state_before_the_op(self, kind, op):
        check_no_space_rollback(kind, op, "mid_group", 20, [(4, 5)],
                                [(8, 4), (24, 4), (40, 4), (48, 2)], [(60, 4)], 2)


class TestNoSpaceInALaterGroup:
    """The tail request after sixteen full ones finds no space: the one policy call gives back
    what the first group took too, as the linear per-request oracle's own loop does."""

    @pytest.mark.parametrize("op", ["put", "safe_write"])
    @pytest.mark.parametrize("kind", NO_SPACE_KINDS)
    def test_rolls_back_to_the_state_before_the_op(self, kind, op):
        check_no_space_rollback(kind, op, "later_group", 66, [(4, 16), (2, 1)],
                                [(i, 4) for i in range(0, 128, 8)] + [(126, 1)], [(127, 1)], 1)


class TestSafeWrite:
    def test_generation_increments_and_size_updates(self):
        store = make_store()
        store.put_new("a", 1 * MB)
        rec = store.safe_write("a", 2 * MB)
        assert rec.generation == 1
        assert rec.size == 2 * MB
        # turnover counts the initial put (1MB) plus the rewrite (2MB)
        assert store.clock.age == pytest.approx(3 * MB / (2 * MB))

    def test_replace_each_once_gives_age_one(self):
        store = make_store(size_hint=True)
        for i in range(10):
            store.put_new(i, 1 * MB)
        store.clock.reset_turnover()
        for i in range(10):
            store.safe_write(i, 1 * MB)
        assert all(rec.generation == 1 for rec in store.records())
        assert store.clock.age == 1.0

    def test_peak_allocation_holds_both_versions(self):
        store = make_store(size_hint=True)
        store.put_new("a", 40 * 4096)
        seen = {}

        def hook(step):
            seen[step] = store.volume.allocated_clusters

        store.step_hook = hook
        store.safe_write("a", 40 * 4096)
        assert seen["temp_written"] == 80  # old + new coexist
        assert store.volume.allocated_clusters == 40

    def test_no_space_leaves_old_version_intact(self):
        store = make_store(total=64, size_hint=True)
        store.put_new("a", 40 * 4096)  # two copies cannot fit
        rec_before, _ = store.get("a")
        extents_before = list(rec_before.extents)
        with pytest.raises(NoSpaceError):
            store.safe_write("a", 40 * 4096)
        rec_after, _ = store.get("a")
        assert rec_after.extents == extents_before
        assert rec_after.generation == 0
        store.volume.audit(deep=True)
        store.verify_layout()

    def test_old_extents_go_through_deferred(self):
        store = make_store(policy=NtfsLikePolicy(), checkpoint_every=10)
        store.put_new("a", 10 * 4096)
        old = list(store._records["a"].extents)
        store.safe_write("a", 10 * 4096)
        assert list(store.volume.deferred.runs()) == old  # not yet committed at cadence 10

    def test_new_copy_is_temp_until_the_swap(self):
        """Before the swap every run of the new copy is (length, TEMP, seq); from it on, no run is TEMP."""
        store = make_store(free_mode="immediate")
        for oid in "abc":
            store.put_new(oid, 16 * 4096)
        store.delete("b")   # a 16-cluster hole, so first fit splits the new copy of a
        seen = {}

        def hook(step):
            owners = store.volume.owners
            seen[step] = ([owners[ext.offset] for ext in store._pending.new_extents],
                          [run for run in owners.values() if run[1] is TEMP])

        store.step_hook = hook
        rec = store.safe_write("a", 24 * 4096)
        assert rec.extents == [Extent(16, 16), Extent(48, 8)]
        temp = [(16, TEMP, 0), (8, TEMP, 16)]
        assert seen["temp_written"] == seen["forced"] == (temp, temp)
        assert seen["replaced"] == seen["old_released"] == ([(16, "a", 0), (8, "a", 16)], [])

    @pytest.mark.parametrize("abort_step", SAFE_WRITE_STEPS)
    def test_abort_at_each_step_resolves_one_version(self, abort_step):
        store = make_store(size_hint=True)
        store.put_new("a", 16 * 4096)
        gen_before = store._records["a"].generation

        def hook(step):
            if step == abort_step:
                raise SimulatedAbortError(step)

        store.step_hook = hook
        with pytest.raises(SimulatedAbortError):
            store.safe_write("a", 16 * 4096)
        store.step_hook = None
        with pytest.raises(UsageError):
            store.compact()   # a copy in flight has runs and pieces that no record holds
        store.recover()
        store.checkpoint_now()
        store.volume.audit(deep=True)
        store.verify_layout()
        rec, _ = store.get("a")
        committed = abort_step in ("replaced", "old_released")
        assert rec.generation == gen_before + (1 if committed else 0)

    def test_abort_at_old_released_keeps_the_old_extents_deferred_at_cadence_one(self):
        """The op's checkpoint is due, but a step hook keeps the release staged: after an abort
        at old_released and recovery the old extents are still deferred, and no put takes them."""
        store = make_store(checkpoint_every=1, free_mode="deferred")
        store.put_new("a", 16 * 4096)
        old = list(store._records["a"].extents)
        store.step_hook = _abort_at("old_released")
        with pytest.raises(SimulatedAbortError):
            store.safe_write("a", 16 * 4096)
        store.step_hook = None
        store.recover()
        assert list(store.volume.deferred.runs()) == old
        rec = store.put_new("b", 16 * 4096)   # first fit takes the lowest free clusters
        old_clusters = {c for ext in old for c in range(ext.offset, ext.end)}
        assert old_clusters.isdisjoint(c for ext in rec.extents for c in range(ext.offset, ext.end))
        store.volume.audit(deep=True)
        store.verify_layout()

    @pytest.mark.parametrize("abort_step", SAFE_WRITE_STEPS)
    def test_no_op_starts_before_recover_resolves_an_abort(self, abort_step):
        """A second safe write before recover() would replace the pending one, leaking the first
        temp copy's run and clusters; every op and a snapshot are refused, and change nothing."""
        store = make_store(total=256)
        store.put_new("a", 8 * 4096)
        store.put_new("b", 8 * 4096)
        store.step_hook = _abort_at(abort_step)
        with pytest.raises(SimulatedAbortError):
            store.safe_write("a", 8 * 4096)
        store.step_hook = None
        before = store_state(store)
        for op in (lambda: store.put_new("c", 4096), lambda: store.safe_write("b", 8 * 4096),
                   lambda: store.delete("b"), store.compact, store.to_state):
            with pytest.raises(UsageError, match="with a replacement in flight; recover"):
                op()
            assert store_state(store) == before
        store.recover()
        store.safe_write("b", 8 * 4096)
        store.checkpoint_now()
        store.volume.audit(deep=True)
        store.verify_layout()
        assert store.volume.allocated_clusters == 16

    def test_recover_is_idempotent_noop_when_clean(self):
        store = make_store()
        store.put_new("a", 4096)
        store.recover()
        store.recover()
        store.verify_layout()


class TestDelete:
    def test_delete_then_get_not_found(self):
        store = make_store()
        store.put_new("a", 4096)
        store.delete("a")
        with pytest.raises(NotFoundError):
            store.get("a")
        with pytest.raises(NotFoundError):
            store.delete("a")

    def test_delete_all_returns_every_cluster(self):
        store = make_store()
        for i in range(20):
            store.put_new(i, 3 * 4096)
        for i in range(20):
            store.delete(i)
        store.checkpoint_now()
        assert store.volume.free_clusters == store.volume.total_clusters
        assert list(store.volume.free.runs()) == [Extent(0, store.volume.total_clusters)]

    def test_exact_fit_reput_is_contiguous(self):
        store = make_store(policy=BestFitPolicy(), size_hint=True, free_mode="immediate")
        for i in range(10):
            store.put_new(i, 1 * MB)
        store.delete(3)
        rec = store.put_new("replacement", 1 * MB)
        assert fragments_of(rec) == 1

    def test_ids_keep_insertion_order_through_deletes_and_snapshots(self):
        store = make_store()
        for oid in "abcdef":
            store.put_new(oid, 3 * 4096)
        for oid in "adf":   # the first, a middle and the last
            store.delete(oid)
        assert live_ids(store) == ["b", "c", "e"]
        assert live_ids(ObjectStore.from_state(store.to_state())) == ["b", "c", "e"]
        with pytest.raises(NotFoundError):
            store.delete("a")
        assert live_ids(store) == ["b", "c", "e"]
        store.verify_layout()

    def test_live_bytes_tracks_records(self):
        store = make_store()
        store.put_new("a", 100 * KB)
        store.put_new("b", 200 * KB)
        store.safe_write("a", 50 * KB)
        store.delete("b")
        assert store.clock.live_bytes == sum(r.size for r in store.records())
        assert store.clock.live_bytes == 50 * KB


class TestGet:
    def test_contiguous_object_costs_one_seek_plus_transfer(self):
        store = make_store(size_hint=True)
        store.put_new("a", 1 * MB)
        _, cost = store.get("a")
        assert cost == pytest.approx(0.008 + 1 * MB / 60e6)

    def test_fragmented_object_costs_more(self):
        contiguous = make_store(size_hint=True)
        contiguous.put_new("a", 1 * MB)
        _, cost_1frag = contiguous.get("a")

        frag = make_store(size_hint=True)
        # pepper the volume so the same put lands in 4 pieces
        for i in range(8):
            frag.put_new(f"pad{i}", 64 * KB)
        for i in range(0, 8, 2):
            frag.delete(f"pad{i}")
        frag.config.size_hint = False
        frag.config.write_request_size = 64 * KB
        rec = frag.put_new("a", 1 * MB)
        _, cost_nfrag = frag.get("a")
        assert fragments_of(rec) > 1
        assert cost_nfrag > cost_1frag

    def test_cost_matches_hand_computed_two_fragment_layout(self):
        # exactly 116 clusters: no tail, so the two holes are the only space
        store = make_store(total=116, size_hint=True, free_mode="immediate")
        store.put_new("a", 16 * 4096)       # (0,16)
        store.put_new("gap", 84 * 4096)     # (16,84)
        store.put_new("b", 16 * 4096)       # (100,16)
        store.delete("a")
        store.delete("b")
        rec = store.put_new("two", 32 * 4096)  # first fit splits across the holes
        assert rec.extents == [Extent(0, 16), Extent(100, 16)]
        _, cost = store.get("two")
        # frozen from 2*0.008 + 32*4096/60e6
        assert cost == pytest.approx(0.018184533333333332, abs=1e-15)


class TestScanner:
    def test_scan_matches_records_on_quiet_store(self):
        store = make_store()
        for i in range(5):
            store.put_new(i, 300 * KB)
        assert store.scan_layout() == {i: store._records[i].extents for i in range(5)}

    def test_single_contiguous_object_is_one_run(self):
        store = make_store(size_hint=True)
        store.put_new("solo", 1 * MB)
        assert store.scan_layout() == {"solo": [Extent(0, 256)]}

    def test_scan_detects_sequence_gap(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        off = store._records["a"].extents[0].offset
        owners = store.volume.owners
        assert owners[off] == (4, "a", 0)
        # split the run; its second cluster now claims sequence 101
        owners[off] = (1, "a", 0)
        owners[off + 1] = (3, "a", 101)
        with pytest.raises(CorruptionError, match="sequence gap") as err:
            store.scan_layout()
        assert err.value.cluster == off + 1

    def test_verify_detects_a_run_split_inside_one_extent(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        owners = store.volume.owners
        owners[0] = (1, "a", 0)
        owners[1] = (3, "a", 1)   # numbered right, but two runs for one extent
        assert store.scan_layout() == {"a": [Extent(0, 1), Extent(1, 3)]}
        with pytest.raises(CorruptionError, match="records say"):
            store.verify_layout()

    def test_scan_detects_duplicate_sequence(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        off = store._records["a"].extents[0].offset
        owners = store.volume.owners
        owners[off] = (1, "a", 0)
        owners[off + 1] = (3, "a", 0)  # clashes with seq 0
        with pytest.raises(CorruptionError, match="duplicate sequence"):
            store.scan_layout()

    def test_scan_detects_orphan_marker(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        store.volume.owners[4000] = (1, "ghost", 0)  # cluster 4000 is free
        with pytest.raises(CorruptionError) as err:
            store.scan_layout()
        assert err.value.cluster == 4000

    def test_scan_detects_run_over_deferred_space(self):
        store = make_store(size_hint=True, checkpoint_every=10)
        store.put_new("a", 4 * 4096)
        store.put_new("b", 4 * 4096)
        store.delete("a")  # (0,4) is deferred until the next checkpoint
        store.volume.owners[2] = (1, "ghost", 0)
        with pytest.raises(CorruptionError, match="owned but not allocated") as err:
            store.scan_layout()
        assert err.value.cluster == 2

    def test_scan_detects_orphan_key(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        (ext,) = store.volume.free.runs()
        store.volume.free.take(ext.offset, 2)
        store.volume.set_owner(ext.offset, 2, "ghost", 0)  # allocated, but no record
        assert store.scan_layout()["ghost"] == [Extent(ext.offset, 2)]
        with pytest.raises(CorruptionError, match="unexpected"):
            store.verify_layout()

    def test_scan_detects_overlapping_runs(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        store.put_new("b", 4 * 4096)
        off = store._records["a"].extents[0].offset
        store.volume.owners[off + 2] = (1, "b", 4)  # inside a's run
        with pytest.raises(CorruptionError, match="overlap") as err:
            store.scan_layout()
        assert err.value.cluster == off + 2

    def test_scan_detects_leftover_temp_run(self):
        store = make_store(size_hint=True)
        store.put_new("a", 4 * 4096)
        store.step_hook = _abort_at("temp_written")
        with pytest.raises(SimulatedAbortError):
            store.safe_write("a", 4 * 4096)
        store._pending = None  # forget the transaction instead of recovering
        with pytest.raises(CorruptionError, match="temp run") as err:
            store.scan_layout()
        assert err.value.cluster == 4

    def test_one_owner_run_per_extent_at_any_size(self):
        store = make_store(total=1 << 16, size_hint=True)
        store.put_new("big", 64 * MB)
        assert store.volume.owners == {0: (16384, "big", 0)}
        store.safe_write("big", 64 * MB)  # one run re-keyed, one cleared
        assert store.volume.owners == {16384: (16384, "big", 0)}
        assert store.scan_layout() == {"big": [Extent(16384, 16384)]}
        unhinted = make_store(write_request_size=64 * KB, free_mode="immediate")
        unhinted.put_new("a", 256 * KB)  # four appends side by side: one extent, one run
        assert unhinted.volume.owners == {0: (64, "a", 0)}
        unhinted.put_new("b", 64 * KB)
        unhinted.delete("a")
        unhinted.put_new("c", 320 * KB)  # five appends in two extents: two runs
        assert unhinted.volume.owners == {0: (64, "c", 0), 64: (16, "b", 0), 80: (16, "c", 64)}
        assert unhinted.scan_layout() == {"b": [Extent(64, 16)], "c": [Extent(0, 64), Extent(80, 16)]}

    def test_mixed_ops_storm_stays_scannable(self):
        store = make_store(total=8192, write_request_size=64 * KB)
        drive_mixed_ops(store, seed=3, n_ops=300, size_range=(16 * KB, 512 * KB), scan_every=25)


@pytest.mark.parametrize("kind", ["first_fit", "best_fit", "worst_fit", "buddy", "ntfs_like", "log_append"])
def test_records_hold_extents_after_mixed_ops(kind):
    """Policies hand alloc plain (offset, length) pieces; the records must still hold Extents,
    whose .end the metrics read."""
    store = make_store(policy=make_policy(kind, fragmenting=kind != "buddy"),
                       write_request_size=64 * KB, free_mode="deferred")
    drive_mixed_ops(store, seed=7, n_ops=150, size_range=(16 * KB, 512 * KB), scan_every=0)
    assert len(store)
    for rec in store.records():
        assert rec.extents and all(isinstance(ext, Extent) for ext in rec.extents)
        assert fragments_of(rec) >= 1


def test_a_record_holds_its_extents_as_one_flat_tuple():
    """The constructor and the extents setter take (offset, length) extents and keep one flat tuple
    of ints; extents is a view that builds a fresh Extent list on each read."""
    rec = ObjectRecord("a", 5 * 4096, [Extent(0, 2), Extent(5, 3)], 4)
    assert rec.layout == (0, 2, 5, 3) and type(rec.layout) is tuple and rec.generation == 4
    view = rec.extents
    assert view == [Extent(0, 2), Extent(5, 3)] and all(type(ext) is Extent for ext in view)
    assert rec.allocated_clusters == 5 and fragments_of(rec) == 2
    view.append(Extent(9, 1))   # a view, not the record's state
    assert rec.extents == [Extent(0, 2), Extent(5, 3)] and rec.extents is not rec.extents
    rec.extents = [(10, 4)]
    assert rec.layout == (10, 4) and rec.extents == [Extent(10, 4)]
    assert rec.allocated_clusters == 4 and fragments_of(rec) == 1
    rec.extents = []
    assert rec.layout == () and rec.extents == [] and rec.allocated_clusters == 0 and fragments_of(rec) == 0


def test_records_keep_flat_layouts_through_every_write_path():
    """Puts, safe writes, deletes, a cleaner pass and a snapshot reload leave each record one flat
    tuple of ints, which the snapshot lists as its [offset, length] pairs."""
    store = make_store(total=8192, policy=make_policy("log_append"), write_request_size=64 * KB,
                       free_mode="deferred")
    drive_mixed_ops(store, seed=5, n_ops=150, size_range=(16 * KB, 512 * KB), scan_every=0)
    store.compact()
    for st in (store, ObjectStore.from_state(store.to_state())):
        for rec in st.records():
            assert type(rec.layout) is tuple and all(type(value) is int for value in rec.layout)
            assert list(rec.layout) == [value for ext in rec.extents for value in ext]
    assert [pairs for *_head, pairs in store.to_state()["objects"]] == [
        [list(ext) for ext in rec.extents] for rec in store.records()]


class TestFragmentBound:
    def test_fragments_never_exceed_appends_plus_tail(self):
        store = make_store(total=8192, write_request_size=64 * KB)
        drive_mixed_ops(store, seed=9, n_ops=250, size_range=(16 * KB, 512 * KB), scan_every=0)
        for rec in store.records():
            appends = -(-rec.size // (64 * KB))
            assert fragments_of(rec) <= appends + 1


def _abort_at(step):
    def hook(name):
        if name == step:
            raise SimulatedAbortError(name)

    return hook


def _check_read_costs(store):
    for rec in store.records():
        cost = store.volume.read_cost(rec.extents)
        assert rec.read_seconds == cost
        assert store.get(rec.id) == (rec, cost)


def test_records_keep_the_read_cost_of_their_extents():
    """Each record's read_seconds is read_cost of its extents after every way they are written:
    bulk load, aging, a delete, a log_append cleaner pass and a snapshot reload."""
    config = harness.ExperimentConfig.from_dict({
        "volume": {"total_clusters": 2048, "bands": [[0, 1024, 60e6], [1024, 2048, 30e6]]},
        "store": {"policy": {"kind": "log_append"}},
        "workload": {"n_objects": 24, "size_dist": {"kind": "uniform", "mean": 128 * KB, "half_width": 96 * KB},
                     "target_age": 3.0, "seed": 11},
    })
    store = config.build()
    bulk_load(store, config.workload)
    _check_read_costs(store)
    run_to_age(store, config.workload)
    assert store.config.policy.clusters_moved > 0   # the cleaner ran while aging
    _check_read_costs(store)
    store.delete(live_ids(store)[0])
    store.delete(live_ids(store)[5])
    _check_read_costs(store)
    assert store.compact() > 0
    _check_read_costs(store)
    reloaded = ObjectStore.from_state(store.to_state())
    _check_read_costs(reloaded)
    assert [rec.read_seconds for rec in reloaded.records()] == [rec.read_seconds for rec in store.records()]


def test_snapshot_round_trip():
    store = make_store(total=2048, write_request_size=64 * KB)
    drive_mixed_ops(store, seed=4, n_ops=120, size_range=(16 * KB, 256 * KB), scan_every=0)
    state = store.to_state()
    clone = ObjectStore.from_state(state)
    clone.verify_layout()
    assert clone.to_state() == state


def test_config_validation():
    volume = create_volume(100, 4096, [Band(0, 100, 60e6)])
    with pytest.raises(ConfigurationError):
        ObjectStore(volume, StoreConfig(policy=FirstFitPolicy(), write_request_size=100))
    with pytest.raises(ConfigurationError):
        ObjectStore(volume, StoreConfig(policy=NtfsLikePolicy(), free_mode="immediate"))
    with pytest.raises(ConfigurationError):
        ObjectStore(volume, StoreConfig(policy=FirstFitPolicy(), checkpoint_every=0))
