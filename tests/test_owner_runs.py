"""Owner runs against the per-cluster marker model they replaced.

A random sequence of puts, safe writes, deletes, checkpoints and compactions
runs on a small volume, with no-space rollbacks and safe writes aborted at
each protocol step and then recovered.  A compaction must move the clusters
the model's slide-to-zero cleaner moves and leave one free run at the top.
After every operation no record may hold two consecutive extents that
touch, the owner runs, expanded cluster by cluster, must equal the
reference marker map, and they must be one run per extent of the
records (and of an unfinished temp copy); between operations scan_layout()
must equal the reference layout, the records must agree with it, and the
deep audit must pass.

The same op sequences also run on two stores with deferred frees, one
without a step hook (an op whose checkpoint falls due frees straight into
the free set) and one with a no-op hook (every free is staged); after each
op their free, deferred and owner runs, records and policy state must match.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import live_ids
from fraglab.alloc import make_policy
from fraglab.errors import NoSpaceError, SimulatedAbortError
from fraglab.store import ObjectStore, StoreConfig, SAFE_WRITE_STEPS
from fraglab.volume import Band, create_volume
from marker_model import MarkerModel, expand_owner_runs, record_policy

TOTAL = 128          # clusters; a power of two so buddy can run
CLUSTER = 4096
COMMITTED = ("replaced", "old_released")

CONFIGS = [
    ("first_fit", "immediate", 1),
    ("first_fit", "deferred", 3),
    ("best_fit", "deferred", 1),
    ("worst_fit", "immediate", 1),
    ("buddy", "immediate", 1),
    ("ntfs_like", "deferred", 2),
    ("log_append", "deferred", 1),
    ("log_append", "immediate", 1),
]

# large enough that a few live objects fill the volume and force rollbacks
sizes = st.integers(8 * CLUSTER - 100, 48 * CLUSTER)
put = st.tuples(st.just("put"), sizes)
ops = st.lists(
    st.one_of(
        put,
        put,
        st.tuples(st.just("safe_write"), st.integers(0, 1 << 16), sizes,
                  st.sampled_from((None,) + SAFE_WRITE_STEPS)),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("compact")),
    ),
    min_size=15,
    max_size=60,
)


def _abort_at(step):
    def hook(name):
        if name == step:
            raise SimulatedAbortError(name)

    return hook


def _record_runs(store):
    """The owner runs the records call for: one per extent, sequence numbers from 0 per key."""
    keyed = [(rec.id, rec.extents) for rec in store.records()]
    txn = store._pending
    if txn is not None and not txn.committed:
        keyed.append((txn.temp_key, txn.new_extents))
    runs = {}
    for key, extents in keyed:
        seq = 0
        for ext in extents:
            runs[ext.offset] = (ext.length, key, seq)
            seq += ext.length
    return runs


def _check_no_record_extents_touch(store):
    """A record's extents are its fragments: no extent begins where the one before it ends."""
    for rec in store.records():
        assert all(a.end != b.offset for a, b in zip(rec.extents, rec.extents[1:])), (rec.id, rec.extents)


def _check(store, model):
    _check_no_record_extents_touch(store)
    assert expand_owner_runs(store.volume.owners) == model.markers
    assert store.volume.owners == _record_runs(store)
    assert len(store.volume.owners) <= model.live_pieces
    if store._pending is None:
        assert store.scan_layout() == model.layout()
        store.verify_layout()
        store.volume.audit(deep=True)


@pytest.mark.parametrize("kind, free_mode, checkpoint_every", CONFIGS)
# the explain phase takes minutes to report a failure on these long op lists
@settings(max_examples=30, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(ops=ops)
def test_owner_runs_match_per_cluster_markers(kind, free_mode, checkpoint_every, ops):
    model = MarkerModel()
    # every kind fragments where it can; buddy never does
    policy = record_policy(make_policy(kind, fragmenting=kind != "buddy"), model)
    volume = create_volume(TOTAL, CLUSTER, [Band(0, TOTAL, 60e6)])
    store = ObjectStore(volume, StoreConfig(policy=policy, write_request_size=4 * CLUSTER,
                                            free_mode=free_mode,
                                            checkpoint_every=checkpoint_every))
    next_id = 0
    for op in ops:
        model.begin()
        if op[0] == "put":
            try:
                store.put_new(next_id, op[1])
                model.mark(next_id)
                model.generation[next_id] = 0
            except NoSpaceError:
                pass
            next_id += 1
        elif op[0] == "safe_write" and len(store):
            oid = live_ids(store)[op[1] % len(store)]
            step = op[3]
            store.step_hook = _abort_at(step) if step else None
            temp = ("~tmp", oid, model.generation[oid] + 1)
            try:
                store.safe_write(oid, op[2])
            except NoSpaceError:
                pass
            except SimulatedAbortError:
                if step in COMMITTED:
                    model.clear(oid)
                    model.mark(oid)
                    model.generation[oid] += 1
                else:
                    model.mark(temp)
                _check(store, model)
                store.recover()
                model.clear(temp)
            else:
                model.clear(oid)
                model.mark(oid)
                model.generation[oid] += 1
            store.step_hook = None
        elif op[0] == "delete" and len(store):
            oid = live_ids(store)[op[1] % len(store)]
            store.delete(oid)
            model.clear(oid)
        elif op[0] == "checkpoint":
            store.checkpoint_now()
        elif op[0] == "compact":
            live = sorted(model.markers)
            assert store.compact() == sum(c != i for i, c in enumerate(live))
            model.compact()
            assert list(store.volume.free) == [(len(live), TOTAL - len(live))][:TOTAL - len(live)]
            assert store.volume.deferred_clusters == 0
        _check(store, model)



def _store_state(store):
    """Everything a due checkpoint's direct release could change, compared between two stores."""
    volume = store.volume
    return (list(volume.free), list(volume.deferred), dict(volume.owners),
            [(rec.id, rec.size, rec.generation, rec.extents, rec.read_seconds) for rec in store.records()],
            live_ids(store), store._ops_since_checkpoint, store.clock,
            (store._interval_bytes, store._interval_seconds), vars(store.config.policy))


def _apply(store, op, next_id):
    """Run one op; returns what compact() moved, or the no-space message, or None."""
    try:
        if op[0] == "put":
            store.put_new(next_id, op[1])
        elif op[0] == "safe_write" and len(store):
            store.safe_write(live_ids(store)[op[1] % len(store)], op[2])
        elif op[0] == "delete" and len(store):
            store.delete(live_ids(store)[op[1] % len(store)])
        elif op[0] == "checkpoint":
            store.checkpoint_now()
        elif op[0] == "compact":
            return store.compact()
    except NoSpaceError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("checkpoint_every", [1, 3])
@pytest.mark.parametrize("kind", ["first_fit", "best_fit", "worst_fit", "buddy", "ntfs_like", "log_append"])
@settings(max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(ops=ops)
def test_direct_release_at_a_due_checkpoint_matches_the_staged_path(kind, checkpoint_every, ops):
    """A store without a step hook frees straight into the free set when an op's checkpoint falls
    due; one with a no-op hook stages every release.  After each op the two must be equal."""
    stores = []
    for hook in (None, lambda _step: None):
        volume = create_volume(TOTAL, CLUSTER, [Band(0, TOTAL // 2, 60e6), Band(TOTAL // 2, TOTAL, 30e6)])
        store = ObjectStore(volume, StoreConfig(policy=make_policy(kind, fragmenting=kind != "buddy"),
                                                write_request_size=4 * CLUSTER, free_mode="deferred",
                                                checkpoint_every=checkpoint_every))
        store.step_hook = hook
        stores.append(store)
    for next_id, op in enumerate(ops):
        assert _apply(stores[0], op, next_id) == _apply(stores[1], op, next_id)
        assert _store_state(stores[0]) == _store_state(stores[1])
        _check_no_record_extents_touch(stores[0])
        stores[0].volume.audit(deep=True)
        stores[0].verify_layout()
