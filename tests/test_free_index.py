"""The free-run index against a plain sorted list, and the indexed, batched
policies against the linear, one-request-at-a-time ones they replaced
(tests/linear_alloc.py).

The index keeps its runs in chunks; tests that need many chunks on a small
volume shrink the chunk size, so that chunk splits, chunk deletions and
merges across a chunk boundary happen within a few dozen operations.
"""

from bisect import insort
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import drive_mixed_ops, live_ids
from fraglab import volume as volume_module
from fraglab.alloc import NtfsLikePolicy, make_policy
from fraglab.errors import InvariantViolationError, NoSpaceError, SimulatedAbortError
from fraglab.store import ObjectStore, StoreConfig
from fraglab.volume import Band, FreeExtentIndex, create_volume
from linear_alloc import LINEAR_POLICIES, PerRequestStore, linear_volume
from test_owner_runs import CLUSTER, TOTAL, _abort_at, ops

# -- the index against a sorted list -------------------------------------------

N = 1024   # clusters under the model


def model_runs(free):
    """Maximal free runs of a per-cluster free bitmap, in address order."""
    runs = []
    start = None
    for c, is_free in enumerate(free + [False]):
        if is_free and start is None:
            start = c
        elif not is_free and start is not None:
            runs.append((start, c - start))
            start = None
    return runs


def expected(name, runs, arg):
    """What a query should give, from the runs alone: (offset taken or plan or list)."""
    if name == "first_fit":
        return next((off for off, n in runs if n >= arg), None)
    if name == "best_fit":
        return min(((n, off) for off, n in runs if n >= arg), default=(0, None))[1]
    if name == "worst_fit":
        longest = max((n for _off, n in runs), default=0)
        return next((off for off, n in runs if n == longest), None) if longest >= arg else None
    if name == "aligned_block":
        for off, n in runs:
            aligned = -(-off // arg) * arg
            if aligned + arg <= off + n:
                return aligned
        return None
    if name in ("address_plan", "largest_first_plan"):
        order = runs if name == "address_plan" else sorted(runs, key=lambda r: (-r[1], r[0]))
        plan = []
        for off, n in order:
            take = min(arg, n)
            plan.append((off, take))
            arg -= take
            if arg == 0:
                return plan
    if name == "top":
        return sorted(((n, off) for off, n in runs), reverse=True)[:arg]
    raise AssertionError(name)


FITS = ("first_fit", "best_fit", "worst_fit")
index_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("add", "add", "take")), st.integers(0, N - 1), st.integers(1, 24)),
        # a fit serves up to count requests of k clusters
        st.tuples(st.sampled_from(FITS), st.integers(1, 40), st.integers(1, 8)),
        st.tuples(st.sampled_from(("aligned_block", "address_plan", "largest_first_plan")),
                  st.integers(1, 40)),
        st.tuples(st.just("top"), st.integers(1, 40)),
        st.tuples(st.just("probe"), st.integers(0, N - 1), st.integers(1, 24)),
    ),
    max_size=120,
)


def check_against_model(index, free):
    runs = model_runs(free)
    assert list(index) == runs
    assert len(index) == len(runs)
    assert index.total_free == sum(free)
    index.check()


def run_index_ops(seed_runs, steps):
    free = [False] * N
    index = FreeExtentIndex()
    for off, n in seed_runs:
        index.add(off, n)
        free[off:off + n] = [True] * n
    check_against_model(index, free)
    for op in steps:
        runs = model_runs(free)
        name = op[0]
        if name == "add":
            # free the allocated span at or after op[1], at most op[2] long
            start = next((c for c in range(op[1], N) if not free[c]), None)
            if start is None:
                continue
            end = start
            while end < N and end - start < op[2] and not free[end]:
                end += 1
            index.add(start, end - start)
            free[start:end] = [True] * (end - start)
            with pytest.raises(InvariantViolationError):
                index.add(start, 1)   # a double free changes nothing
        elif name == "take":
            run = index.run_containing(op[1])
            if run is None:
                with pytest.raises(InvariantViolationError):
                    index.take(op[1], 1)
                continue
            n = min(op[2], run.end - op[1])
            index.take(op[1], n)
            free[op[1]:op[1] + n] = [False] * n
        elif name in FITS:
            # single requests on the model, for as long as each lands right after the last
            # (in what is left of the same run); worst fit serves one request per call
            k, count = op[1], op[2] if name != "worst_fit" else 1
            served = []
            while len(served) < count:
                want = expected(name, model_runs(free), k)
                if want is None or (served and want != served[-1] + k):
                    break
                served.append(want)
                free[want:want + k] = [False] * k
            assert getattr(index, name)(k, op[2]) == ((served[0], len(served)) if served else None), op
        elif name == "aligned_block":
            want = expected(name, runs, op[1])
            assert index.aligned_block(op[1]) == want
            if want is not None:
                free[want:want + op[1]] = [False] * op[1]
        elif name == "top":
            assert index.top(op[1]) == expected(name, runs, op[1])
        elif name == "probe":
            c, n = op[1], op[2]
            containing = next(((o, ln) for o, ln in runs if o <= c < o + ln), None)
            assert index.run_containing(c) == containing
            assert index.length_at(c) == dict(runs).get(c, 0)
            assert index.intersects(c, n) == any(free[c:c + n])
        elif sum(free) >= op[1]:
            assert getattr(index, name)(op[1]) == expected(name, runs, op[1])
        check_against_model(index, free)


# every other cluster free: 512 one-cluster runs, many chunks at any chunk size
STRIPES = [(off, 1) for off in range(0, N, 2)]


@pytest.mark.parametrize("chunk", [2, volume_module.CHUNK])
@pytest.mark.parametrize("seed_runs", [[], STRIPES], ids=["empty", "stripes"])
@settings(max_examples=40, deadline=None)
@given(steps=index_ops)
def test_index_matches_a_sorted_list(chunk, seed_runs, steps):
    with mock.patch.object(volume_module, "CHUNK", chunk):
        run_index_ops(seed_runs, steps)


def test_chunks_split_delete_and_merge_across_boundaries():
    index = FreeExtentIndex()
    for off, n in STRIPES:
        index.add(off, n)
    chunks = len(index._firsts)
    assert chunks > 1 and max(map(len, index._offs)) <= 2 * volume_module.CHUNK
    # fill the gap between the last run of chunk 0 and the first of chunk 1
    last = index._offs[0][-1]
    index.add(last + 1, 1)
    assert len(index._firsts) == chunks and index.length_at(last) == 3
    index.check()
    # take every run of chunk 0: the chunk goes
    for off, n in list(zip(index._offs[0], index._lens[0])):
        index.take(off, n)
    assert len(index._firsts) == chunks - 1
    index.check()
    lowest = index._firsts[0]
    assert index.best_fit(3) is None and index.first_fit(1, 5) == (lowest, 1)
    index.check()


@pytest.mark.parametrize("chunk", [2, volume_module.CHUNK])
def test_a_split_recounts_the_longest_run_of_the_half_that_lost_it(chunk):
    # the random walk above rarely splits a chunk whose longest run lands in the new tail
    with mock.patch.object(volume_module, "CHUNK", chunk):
        index = FreeExtentIndex()
        for off in range(0, 4 * chunk, 2):   # 2 * chunk one-cluster runs fill one chunk
            index.add(off, 1)
        index.add(4 * chunk + 1, 5)   # one run more splits it, and the longest goes to the tail
        assert index._maxes == [1, 5]
        index.check()


# -- the size order: equal lengths, and a stale order refused ---------------------

# four runs of 4 clusters beside runs of 2 and 7
TIES = [(0, 4), (6, 2), (10, 4), (20, 4), (30, 4), (40, 7)]


def tie_index(built=True):
    """An index over TIES; built, its size order exists (best fit unbuilt scans its lone chunk)."""
    index = FreeExtentIndex()
    for off, n in TIES:
        index.add(off, n)
    if built:
        index.top(0)
    return index


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
def test_equal_lengths_tie_to_high_offsets_in_top_and_to_low_offsets_in_fits_and_plans(built):
    # within one length the two orders are opposite
    assert tie_index(built).top(4) == [(7, 40), (4, 30), (4, 20), (4, 10)]
    assert tie_index(built).best_fit(3, 5) == (0, 1)
    assert tie_index(built).largest_first_plan(17) == [(40, 7), (0, 4), (10, 4), (20, 2)]
    index = tie_index(built)
    index.take(40, 7)
    assert index.worst_fit(2, 5) == (0, 1)
    index.check()


def _empty_list_left_behind(index):
    index._by_length[3] = []
    insort(index._lengths, 3)


def _length_without_a_list(index):
    insort(index._lengths, 3)


def _list_without_its_length(index):
    index._lengths.remove(7)


def _offset_under_the_wrong_length(index):
    index._by_length[4].remove(10)
    insort(index._by_length[7], 10)


def _unsorted_list(index):
    index._by_length[4].reverse()


@pytest.mark.parametrize("corrupt", [_empty_list_left_behind, _length_without_a_list, _list_without_its_length,
                                     _offset_under_the_wrong_length, _unsorted_list])
def test_check_refuses_a_stale_size_order(corrupt):
    index = tie_index()
    index.check()
    corrupt(index)
    with pytest.raises(InvariantViolationError, match="size order is stale"):
        index.check()


# -- the policies against the linear oracles -------------------------------------

# ntfs_like refuses immediate frees, so it runs deferred only
CONFIGS = [(kind, mode) for kind in LINEAR_POLICIES for mode in ("deferred", "immediate")
           if not (kind == "ntfs_like" and mode == "immediate")]
# a write request of one cluster, of several, and one that ends inside a cluster
REQUEST_SIZES = (CLUSTER, 4 * CLUSTER, 6 * 1024)


def build(kind, free_mode, oracle, total, wrs, checkpoint_every, outer=0.25, **params):
    """A batched store over the index, or (oracle) a per-request store over the linear policies; the
    volume's outer band is its first `outer` share, and params go to the policy."""
    make_volume, store_class = (linear_volume, PerRequestStore) if oracle else (create_volume, ObjectStore)
    split = int(total * outer)
    volume = make_volume(total, CLUSTER, [Band(0, split, 60e6), Band(split, total, 30e6)])
    # every kind fragments where it can; buddy never does
    fragmenting = kind != "buddy"
    policy = LINEAR_POLICIES[kind](**params) if oracle else make_policy(kind, fragmenting, params)
    policy.fragmenting = fragmenting
    return store_class(volume, StoreConfig(policy=policy, write_request_size=wrs,
                                           free_mode=free_mode, checkpoint_every=checkpoint_every))


def recorded(store):
    """Log each call to the store's policy that returns: (requests, extents)."""
    log = []
    inner = store.config.policy.alloc

    def alloc(volume, requests):
        out = inner(volume, requests)
        log.append((requests, out))
        return out

    store.config.policy.alloc = alloc
    return log


def served(log):
    """A call log as the requests served, one by one, and the extents each object write got."""
    return [([clusters for clusters, count in requests for _ in range(count)], out) for requests, out in log]


def apply(store, op, oid):
    """One op of test_owner_runs' generator; returns its outcome."""
    try:
        if op[0] == "put":
            store.put_new(oid, op[1])
        elif op[0] == "safe_write" and len(store):
            store.step_hook = _abort_at(op[3]) if op[3] else None
            try:
                store.safe_write(live_ids(store)[op[1] % len(store)], op[2])
            except SimulatedAbortError:
                store.recover()
                return "aborted"
            finally:
                store.step_hook = None
        elif op[0] == "delete" and len(store):
            store.delete(live_ids(store)[op[1] % len(store)])
        elif op[0] == "checkpoint":
            store.checkpoint_now()
        elif op[0] == "compact":
            return f"moved {store.compact()}"
    except NoSpaceError as err:
        return f"no space: {err} (requested {err.requested}, available {err.available})"
    return "ok"


def state(store):
    """Free and deferred runs, owner runs, records and the policy's own state."""
    volume = store.volume
    policy = {name: value for name, value in vars(store.config.policy).items() if name != "alloc"}
    return (list(volume.free), list(volume.deferred), volume.owners,
            [(rec.id, rec.size, rec.generation, rec.extents) for rec in store.records()], policy)


@pytest.mark.parametrize("kind, free_mode", CONFIGS)
@settings(max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(ops=ops, wrs=st.sampled_from(REQUEST_SIZES))
def test_policies_match_linear_oracles(kind, free_mode, ops, wrs):
    with mock.patch.object(volume_module, "CHUNK", 2):
        stores = [build(kind, free_mode, oracle, TOTAL, wrs, 3) for oracle in (False, True)]
        logs = [recorded(store) for store in stores]
        for oid, op in enumerate(ops):
            for log in logs:
                log.clear()
            outcomes = [apply(store, op, oid) for store in stores]
            assert outcomes[0] == outcomes[1], op
            assert served(logs[0]) == served(logs[1]), op
            assert state(stores[0]) == state(stores[1]), op
            stores[0].volume.audit(deep=True)


@pytest.mark.parametrize("kind, free_mode", CONFIGS)
def test_long_mixed_runs_match_linear_oracles(kind, free_mode):
    """Thousands of ops at the default chunk size, with hundreds of free runs, one cluster per request.
    ntfs_like runs on 1,024 clusters: on 4,096 its run cache refreshed once in the 800 ops and held one
    entry throughout, so neither stage's pick, a refresh after a miss nor stage 3 was compared."""
    total = 1024 if kind == "ntfs_like" else 4096
    ends = []
    # the linear oracle refreshes through its own override, so only the indexed store is counted
    with mock.patch.object(NtfsLikePolicy, "_refresh_cache", autospec=True,
                           side_effect=NtfsLikePolicy._refresh_cache) as refresh:
        for oracle in (False, True):
            store = build(kind, free_mode, oracle, total, CLUSTER, 4)
            log = recorded(store)
            drive_mixed_ops(store, seed=5, n_ops=800, size_range=(CLUSTER, 12 * CLUSTER), scan_every=0)
            ends.append((served(log), state(store)))
    assert ends[0] == ends[1]
    assert sum(len(requests) for requests, _out in ends[0][0]) > 800
    assert kind != "ntfs_like" or refresh.call_count >= 10



# the ntfs_like run cache at small depths, and on a volume whose outer band is its first three
# quarters, so the cache often holds several outer entries: stage 1's pick among them (the lowest
# offset) and stage 2's tie between equal lengths (the lower offset) both decide what a request gets
@pytest.mark.parametrize("cache_depth, outer", [(1, 0.25), (4, 0.75)])
@settings(max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(ops=ops, wrs=st.sampled_from(REQUEST_SIZES))
def test_ntfs_like_cache_shapes_match_the_linear_oracle(cache_depth, outer, ops, wrs):
    stores = [build("ntfs_like", "deferred", oracle, TOTAL, wrs, 3, outer, cache_depth=cache_depth)
              for oracle in (False, True)]
    logs = [recorded(store) for store in stores]
    for oid, op in enumerate(ops):
        for log in logs:
            log.clear()
        assert apply(stores[0], op, oid) == apply(stores[1], op, oid), op
        assert served(logs[0]) == served(logs[1]), op
        assert state(stores[0]) == state(stores[1]), op


@pytest.mark.parametrize("cache_depth", (1, 4))
def test_ntfs_like_long_runs_with_a_wide_outer_band_match_the_linear_oracle(cache_depth):
    """The same, deterministic: on 256 clusters the cache misses and refreshes often enough to hold
    several outer entries (on 4096 clusters, over 800 ops, it never held two)."""
    ends = []
    for oracle in (False, True):
        store = build("ntfs_like", "deferred", oracle, 256, CLUSTER, 4, 0.75, cache_depth=cache_depth)
        log = recorded(store)
        drive_mixed_ops(store, seed=5, n_ops=400, size_range=(CLUSTER, 12 * CLUSTER), scan_every=0)
        ends.append((served(log), state(store)))
    assert ends[0] == ends[1]
