import pytest
from hypothesis import given, settings, strategies as st

from conftest import BitmapOracle, assert_matches_oracle
from fraglab.errors import ConfigurationError, CorruptionError, InvariantViolationError
from fraglab.rng import Xorshift64Star
from fraglab.volume import (
    OWNER_SHIFT,
    TEMP,
    Band,
    Extent,
    OwnerMap,
    coalesce,
    create_volume,
    default_bands,
)


def test_create_volume_one_free_run():
    vol = create_volume(100, 4096, [Band(0, 100, 60e6)])
    assert list(vol.free.runs()) == [Extent(0, 100)]
    assert list(vol.deferred) == []
    assert vol.deferred_clusters == 0
    assert vol.owners == {}


def test_create_volume_rejects_empty():
    with pytest.raises(ConfigurationError):
        create_volume(0, 4096)


def test_create_volume_one_gib_two_bands():
    bands = [Band(0, 131072, 60e6), Band(131072, 262144, 30e6)]
    vol = create_volume(262144, 4096, bands)
    assert vol.capacity_bytes == 1 << 30
    assert vol.bands == bands


def test_create_volume_rejects_bad_band_partitions():
    with pytest.raises(ConfigurationError):
        create_volume(100, 4096, [Band(0, 50, 60e6), Band(60, 100, 30e6)])  # gap
    with pytest.raises(ConfigurationError):
        create_volume(100, 4096, [Band(0, 50, 30e6), Band(50, 100, 60e6)])  # inner faster
    with pytest.raises(ConfigurationError):
        create_volume(100, 4096, [Band(0, 90, 60e6)])  # short


def test_default_bands_cover_volume():
    bands = default_bands(262144)
    assert bands[0].start_cluster == 0
    assert bands[-1].end_cluster == 262144
    assert bands[0].transfer_rate >= bands[1].transfer_rate


class TestRelease:
    def test_immediate_release_coalesces(self, flat_volume):
        vol = flat_volume
        vol.free.take(0, 100)
        vol.release([Extent(0, 4)], "immediate")
        vol.release([Extent(4, 4)], "immediate")
        assert list(vol.free.runs()) == [Extent(0, 8)]

    def test_deferred_release_not_reusable(self, flat_volume):
        vol = flat_volume
        # allocate 0..20 by hand, then defer 10..13
        vol.free.take(0, 20)
        vol.release([Extent(10, 3)], "deferred")
        assert vol.free_clusters == 80
        assert not vol.free.intersects(10, 3)
        assert list(vol.deferred.runs()) == [Extent(10, 3)]
        assert vol.deferred_clusters == 3

    def test_double_release_aborts(self, flat_volume):
        vol = flat_volume
        vol.free.take(0, 8)
        vol.release([Extent(0, 4)], "immediate")
        with pytest.raises(InvariantViolationError):
            vol.release([Extent(0, 4)], "immediate")

    def test_release_of_deferred_extent_aborts(self, flat_volume):
        vol = flat_volume
        vol.free.take(0, 8)
        vol.release([Extent(0, 4)], "deferred")
        with pytest.raises(InvariantViolationError):
            vol.release([Extent(2, 2)], "deferred")

    def test_deferred_runs_coalesce_and_commit_like_immediate_frees(self, flat_volume):
        vol = flat_volume
        twin = create_volume(100, 4096, [Band(0, 100, 60e6)])
        extents = [Extent(4, 4), Extent(20, 5), Extent(0, 4), Extent(8, 2)]
        for volume in (vol, twin):
            volume.free.take(0, 30)
        vol.release(extents, "deferred")
        twin.release(extents, "immediate")
        assert list(vol.deferred.runs()) == [Extent(0, 10), Extent(20, 5)]
        assert vol.deferred_clusters == 15
        with pytest.raises(InvariantViolationError, match="release of deferred extent"):
            vol.release([Extent(9, 2)], "deferred")   # overlaps the end of the run (0, 10)
        with pytest.raises(InvariantViolationError, match="release of deferred extent"):
            vol.release([Extent(19, 2)], "immediate")   # overlaps the start of (20, 5)
        vol.checkpoint()
        assert list(vol.free) == list(twin.free) == [(0, 10), (20, 5), (30, 70)]
        assert vol.deferred_clusters == 0

    @pytest.mark.parametrize("mode", ["immediate", "deferred"])
    @pytest.mark.parametrize("runs, extent", [
        ("free", Extent(58, 4)),       # over the start of the free run (60, 40)
        ("free", Extent(44, 16)),      # ends where (60, 40) starts, over the free run (40, 5) before it
        ("deferred", Extent(28, 4)),   # over the end of the deferred run (20, 10)
        ("deferred", Extent(14, 6)),   # ends where (20, 10) starts, over the deferred run (10, 5) before it
    ])
    def test_a_refused_release_changes_no_run(self, flat_volume, mode, runs, extent):
        """In either mode, an extent over a free or a deferred run is refused with the message
        naming that set, and the free and deferred runs stay as they were."""
        vol = flat_volume
        vol.free.take(0, 60)
        vol.release([Extent(40, 5)], "immediate")
        vol.release([Extent(10, 5), Extent(20, 10)], "deferred")
        before = (list(vol.free), vol.free_clusters, list(vol.deferred), vol.deferred_clusters)
        what = "non-allocated" if runs == "free" else "deferred"
        with pytest.raises(InvariantViolationError, match=f"release of {what} extent"):
            vol.release([extent], mode)
        assert (list(vol.free), vol.free_clusters, list(vol.deferred), vol.deferred_clusters) == before
        vol.free.check()
        vol.deferred.check()


class TestCheckpoint:
    def test_checkpoint_commits_deferred(self, flat_volume):
        vol = flat_volume
        vol.free.take(0, 20)
        vol.release([Extent(10, 3)], "deferred")
        vol.checkpoint()
        assert list(vol.deferred) == []
        assert vol.deferred_clusters == 0
        assert vol.free.intersects(10, 3)

    def test_checkpoint_empty_is_noop(self, flat_volume):
        before = list(flat_volume.free.runs())
        flat_volume.checkpoint()
        assert list(flat_volume.free.runs()) == before

    def test_checkpoint_coalesces_with_existing_free(self, flat_volume):
        # oracle: rebuild runs from a cluster bitmap
        vol = flat_volume
        vol.free.take(0, 16)
        oracle = BitmapOracle(100)
        oracle.mark([Extent(0, 16)], "A")
        vol.release([Extent(8, 8)], "immediate")
        oracle.mark([Extent(8, 8)], "F")
        vol.release([Extent(0, 4), Extent(4, 4)], "deferred")
        oracle.mark([Extent(0, 8)], "D")
        vol.checkpoint()
        oracle.mark([Extent(0, 8)], "F")
        assert_matches_oracle(vol, oracle)
        assert list(vol.free.runs())[0] == Extent(0, 100)


class TestReadCost:
    def test_single_extent_arithmetic(self):
        # frozen from 0.008 + 1048576/60e6
        vol = create_volume(1024, 4096, [Band(0, 1024, 60e6)], seek_time=0.008)
        cost = vol.read_cost([Extent(0, 256)])
        assert cost == pytest.approx(0.025476266666666667, abs=1e-15)

    def test_adjacent_extents_cost_one_seek(self, flat_volume):
        split = flat_volume.read_cost(coalesce([Extent(0, 10), Extent(10, 10)]))
        whole = flat_volume.read_cost([Extent(0, 20)])
        assert split == whole

    def test_scattered_fragments_cost_per_seek(self, flat_volume):
        assert flat_volume.seek_time == 0.008
        frags = [Extent(0, 4), Extent(10, 4), Extent(20, 4), Extent(30, 4)]
        cost = flat_volume.read_cost(frags)
        transfer = 16 * 4096 / 60e6
        assert cost == pytest.approx(4 * 0.008 + transfer)

    def test_more_fragments_cost_strictly_more(self, flat_volume):
        layouts = [
            [Extent(0, 12)],
            [Extent(0, 6), Extent(20, 6)],
            [Extent(0, 4), Extent(20, 4), Extent(40, 4)],
        ]
        costs = [flat_volume.read_cost(lay) for lay in layouts]
        assert costs[0] < costs[1] < costs[2]

    def test_band_spanning_extent_splits_at_boundary(self):
        vol = create_volume(100, 4096, [Band(0, 50, 60e6), Band(50, 100, 30e6)], seek_time=0.0)
        cost = vol.read_cost([Extent(40, 20)])
        expected = 10 * 4096 / 60e6 + 10 * 4096 / 30e6
        assert cost == pytest.approx(expected)


def band_loop_read_cost(volume, extents):
    """read_cost with every extent priced by the loop over the bands: the reference that its
    shortcut for an extent inside one band must equal bit for bit."""
    seeks = 1
    prev_end = extents[0].offset
    transfer = 0.0
    for ext in extents:
        if ext.offset != prev_end:
            seeks += 1
        prev_end = ext.end
        seconds = 0.0
        offset = ext.offset
        remaining = ext.length
        for band in volume.bands:
            if offset >= band.end_cluster:
                continue
            span = min(remaining, band.end_cluster - offset)
            seconds += span * volume.cluster_size / band.transfer_rate
            offset += span
            remaining -= span
            if remaining == 0:
                break
        transfer += seconds
    return volume.seek_time * seeks + transfer


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_cost_equals_the_band_loop_exactly(data):
    """Layouts of 1-3 bands, with an extent across each band boundary and one that ends at
    the last cluster beside random extents, in shuffled order and coalesced, as a record's are."""
    total = data.draw(st.integers(2, 5000))
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=2)))
    rates = sorted(data.draw(st.lists(st.floats(1e3, 1e9), min_size=len(cuts) + 1,
                                      max_size=len(cuts) + 1)), reverse=True)
    edges = [0] + cuts + [total]
    vol = create_volume(total, data.draw(st.sampled_from([512, 4096, 65536])),
                        [Band(start, end, rate) for start, end, rate in zip(edges, edges[1:], rates)],
                        seek_time=data.draw(st.floats(0, 0.02)))
    extents = []
    for cut in cuts:   # from inside the band before the cut to inside, or the end of, a later one
        offset = data.draw(st.integers(0, cut - 1))
        extents.append(Extent(offset, data.draw(st.integers(cut + 1, total)) - offset))
    start = data.draw(st.integers(0, total - 1))
    extents.append(Extent(start, total - start))   # ends at the last cluster
    for _ in range(data.draw(st.integers(0, 4))):
        offset = data.draw(st.integers(0, total - 1))
        extents.append(Extent(offset, data.draw(st.integers(1, total - offset))))
    extents = coalesce(data.draw(st.permutations(extents)))
    assert vol.read_cost(extents) == band_loop_read_cost(vol, extents)


class TestHistogram:
    def test_empty_volume(self, flat_volume):
        assert flat_volume.free_extent_histogram() == {100: 1}

    def test_two_equal_runs(self, flat_volume):
        vol = flat_volume
        vol.free.take(0, 100)
        vol.release([Extent(0, 4)], "immediate")
        vol.release([Extent(10, 4)], "immediate")
        assert vol.free_extent_histogram() == {4: 2}

    def test_histogram_total_matches_free_count_after_random_ops(self):
        vol = create_volume(512, 4096, [Band(0, 512, 60e6)])
        rng = Xorshift64Star(7)
        allocated = []
        for _ in range(1000):
            if allocated and rng.random() < 0.45:
                ext = allocated.pop(rng.randrange(len(allocated)))
                vol.release([ext], "deferred" if rng.random() < 0.3 else "immediate")
                if rng.random() < 0.2:
                    vol.checkpoint()
            else:
                want = rng.randint(1, 16)
                got = vol.free.first_fit(want)
                if got is not None:
                    allocated.append(Extent(got[0], want))
        hist = vol.free_extent_histogram()
        assert sum(length * n for length, n in hist.items()) == vol.free_clusters


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63), st.integers(1, 8)), max_size=40))
def test_random_sequences_match_bitmap_oracle(ops):
    """Conservation, coalescing, and deferred isolation against the bitmap."""
    vol = create_volume(64, 4096, [Band(0, 64, 60e6)])
    oracle = BitmapOracle(64)
    allocated = {}
    deferred = []
    for kind, pos, length in ops:
        if kind == 0:  # allocate first-fit at/after pos, length clamped
            for off, run_len in list(vol.free):
                if off >= pos and run_len >= length:
                    vol.free.take(off, length)
                    ext = Extent(off, length)
                    allocated[off] = ext
                    oracle.mark([ext], "A")
                    # nothing allocated may overlap staged deferred extents
                    for d in deferred:
                        assert not (d.offset < ext.end and ext.offset < d.end)
                    break
        elif kind == 1 and allocated:  # release something, immediate
            key = sorted(allocated)[pos % len(allocated)]
            ext = allocated.pop(key)
            vol.release([ext], "immediate")
            oracle.mark([ext], "F")
        elif kind == 2:
            if allocated and pos % 2 == 0:
                key = sorted(allocated)[pos % len(allocated)]
                ext = allocated.pop(key)
                vol.release([ext], "deferred")
                deferred.append(ext)
                oracle.mark([ext], "D")
            else:
                vol.checkpoint()
                oracle.mark(deferred, "F")
                deferred.clear()
        assert_matches_oracle(vol, oracle)


def test_audit_passes_on_consistent_state(flat_volume):
    vol = flat_volume
    vol.free.take(0, 10)
    vol.set_owner(0, 10, "x", 0)
    vol.audit()


@pytest.mark.parametrize("runs", ["free", "deferred"])
def test_audit_refuses_a_run_past_the_end(flat_volume, runs):
    vol = flat_volume
    vol.free.take(0, 40)
    vol.set_owner(0, 10, "x", 0)
    vol.release([Extent(10, 30)], "deferred")
    index = getattr(vol, runs)
    [(offset, length)] = index
    index.take(offset, length)
    index.add(105 - length, length)   # 5 clusters past the end; the totals still add up
    with pytest.raises(InvariantViolationError, match=f"a {runs} run ends past"):
        vol.audit()


def test_audit_catches_leak(flat_volume):
    vol = flat_volume
    vol.free.take(0, 10)  # allocated but never marked: a leak
    with pytest.raises(InvariantViolationError):
        vol.audit()


def test_volume_state_round_trip(flat_volume):
    from fraglab.volume import Volume

    vol = flat_volume
    vol.free.take(0, 30)
    vol.release([Extent(20, 3), Extent(23, 2)], "deferred")
    vol.set_owner(0, 12, 7, 0)
    vol.set_owner(12, 8, 7, 12)
    vol.set_owner(25, 5, 8, 0)
    state = vol.to_state()
    assert state["owners"] == [[0, 12, 7, 0], [12, 8, 7, 12], [25, 5, 8, 0]]
    assert state["deferred"] == [[20, 5]]
    clone = Volume.from_state(state)
    assert list(clone.free.runs()) == list(vol.free.runs())
    assert list(clone.deferred) == list(vol.deferred)
    state["deferred"] = [[20, 3], [23, 2]]   # uncoalesced, as an older writer left them
    assert list(Volume.from_state(state).deferred) == [(20, 5)]
    assert clone.owners == vol.owners
    assert clone.bands == vol.bands


def test_clear_markers_rejects_a_run_of_another_length(flat_volume):
    vol = flat_volume
    vol.free.take(0, 10)
    vol.set_owner(0, 10, "x", 0)
    with pytest.raises(InvariantViolationError):
        vol.clear_markers([Extent(0, 4)])   # the run reaches past the extent
    assert vol.owners == {0: (10, "x", 0)}
    vol.clear_markers([Extent(0, 10)])
    assert vol.owners == {}


def test_clear_markers_walks_consecutive_runs(flat_volume):
    vol = flat_volume
    vol.free.take(0, 10)
    vol.set_owner(0, 3, "x", 0)
    vol.set_owner(3, 7, "x", 3)
    with pytest.raises(InvariantViolationError):
        vol.clear_markers([Extent(0, 10)])  # one extent over two runs
    vol.clear_markers([Extent(0, 3), Extent(3, 7)])
    assert vol.owners == {}


def test_clear_markers_on_unowned_cluster_is_invariant_violation(flat_volume):
    vol = flat_volume
    vol.free.take(0, 10)
    vol.set_owner(0, 5, "x", 0)
    with pytest.raises(InvariantViolationError):
        vol.clear_markers([Extent(0, 10)])  # clusters 5.. carry no run
    with pytest.raises(InvariantViolationError):
        vol.clear_markers([Extent(50, 1)])


def test_set_owner_rejects_a_second_run_at_one_offset(flat_volume):
    vol = flat_volume
    vol.set_owner(0, 5, "x", 0)
    with pytest.raises(InvariantViolationError):
        vol.set_owner(0, 2, "y", 0)


def test_rekey_owners_keeps_sequences_and_checks_the_key(flat_volume):
    vol = flat_volume
    vol.set_owner(0, 3, TEMP, 0)
    vol.set_owner(5, 2, TEMP, 3)
    vol.set_owner(7, 2, "other", 0)
    vol.rekey_owners([Extent(0, 3), Extent(5, 2)], "x")
    assert vol.owners == {0: (3, "x", 0), 5: (2, "x", 3), 7: (2, "other", 0)}
    vol.set_owner(9, 3, TEMP, 0)
    with pytest.raises(InvariantViolationError, match="is not a TEMP run"):
        vol.rekey_owners([Extent(7, 2)], "x")
    with pytest.raises(InvariantViolationError, match="is not one owner run"):
        vol.rekey_owners([Extent(9, 2)], "y")  # the run reaches past the extent
    with pytest.raises(InvariantViolationError, match="is not one owner run"):
        vol.rekey_owners([Extent(9, 7)], "y")  # the extent reaches past the run


@pytest.mark.parametrize(
    "corruption, message",
    [("free", "free set"), ("deferred", "deferred"), ("overlap", "overlap"), ("outside", "malformed")],
)
def test_deep_audit_catches_misplaced_runs(flat_volume, corruption, message):
    vol = flat_volume
    vol.free.take(0, 30)
    vol.set_owner(0, 20, "x", 0)
    vol.set_owner(20, 10, "y", 0)
    vol.audit(deep=True)
    # each corruption keeps the owned count at 30, so only the deep sweep sees it
    if corruption == "free":
        del vol.owners[0]
        vol.owners[1] = (19, "x", 1)
        vol.owners[20] = (11, "y", 0)     # reaches into free cluster 30
    elif corruption == "deferred":
        vol.clear_markers([Extent(20, 10)])
        vol.release([Extent(20, 10)], "deferred")
        vol.owners[0] = (19, "x", 0)
        vol.owners[25] = (1, "ghost", 0)  # inside the deferred extent
    elif corruption == "overlap":
        vol.owners[0] = (21, "x", 0)      # overlaps y's run by one cluster
        vol.owners[20] = (9, "y", 0)
    else:
        vol.owners[20] = (9, "y", 0)
        vol.owners[100] = (1, "ghost", 0)  # past the last cluster
    vol.audit()
    with pytest.raises(InvariantViolationError, match=message):
        vol.audit(deep=True)


@pytest.mark.parametrize("second, message", [
    ((10, 10, "x", 12), "object 'x': sequence gap before 12 at cluster 10"),
    ((10, 10, "x", 5), "object 'x': duplicate sequence 5 at cluster 10"),
    ((10, 10, TEMP, 0), "cluster 10 holds a temp run outside any replacement"),
], ids=["gap", "repeat", "temp"])
def test_deep_audit_checks_what_the_runs_number_and_leave(flat_volume, second, message):
    """The deep audit is the layout scanner's own pass: it refuses sequence gaps, repeated
    sequence numbers and leftover temp runs on a bare volume, with no store or records."""
    vol = flat_volume
    vol.free.take(0, 20)
    vol.set_owner(0, 10, "x", 0)
    vol.set_owner(*second)
    vol.audit()
    with pytest.raises(CorruptionError) as refused:
        vol.audit(deep=True)
    assert (str(refused.value), refused.value.cluster) == (message, 10)


def test_write_runs_numbers_the_clusters_across_the_extents(flat_volume):
    vol = flat_volume
    vol.free.take(0, 30)
    extents = [Extent(20, 4), Extent(0, 6), Extent(10, 10)]
    assert vol.write_runs("x", extents) is extents
    assert vol.owners == {20: (4, "x", 0), 0: (6, "x", 4), 10: (10, "x", 10)}
    assert vol.owner_groups() == {"x": [20, 0, 10]}


EDGE = 1 << OWNER_SHIFT   # clusters per owner-map bucket
# below 0, at 0, either side of bucket edges, and past the end of a 4-bucket volume
EDGE_OFFSETS = [-EDGE - 1, -EDGE, -1, 0, 1, EDGE - 1, EDGE, EDGE + 1, 2 * EDGE - 1, 3 * EDGE, 4 * EDGE - 1,
                4 * EDGE, 9 * EDGE + 3]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.one_of(st.sampled_from(EDGE_OFFSETS), st.integers(-2 * EDGE, 6 * EDGE)),
                          st.integers(0, 9)), max_size=60))
def test_owner_map_behaves_as_a_dict_iterated_in_address_order(steps):
    owners, plain = OwnerMap(), {}
    for put, offset, length in steps:
        if put:
            owners[offset] = plain[offset] = (length, "k", offset)
        elif offset in plain:
            del owners[offset], plain[offset]
        else:
            with pytest.raises(KeyError):
                del owners[offset]
        assert (offset in owners, owners.get(offset), len(owners)) == (offset in plain, plain.get(offset), len(plain))
    assert list(owners) == sorted(plain)
    assert list(owners.items()) == sorted(plain.items())
    assert list(owners.values()) == [plain[offset] for offset in sorted(plain)]
    assert owners == plain and plain == owners and OwnerMap(plain) == owners and dict(owners) == plain
    other = {**plain, 5 * EDGE: (1, "k", 0)}
    assert owners != other and other != owners


def test_owner_run_writes_match_a_dict_across_bucket_edges():
    """write_runs, clear_markers and rekey_owners at offsets near bucket edges, against a plain dict: each
    refusal raises its message and leaves the map as it was."""
    vol = create_volume(4 * EDGE, 4096, [Band(0, 4 * EDGE, 60e6)])
    model = {}
    rng = Xorshift64Star(11)
    points = [offset for offset in EDGE_OFFSETS if 0 <= offset < 4 * EDGE]
    refused = 0
    for _ in range(3000):
        op, offset, length = rng.randrange(3), points[rng.randrange(len(points))], rng.randint(1, 2)
        run = model.get(offset)
        if op == 0 and run is not None:
            refused += 1
            with pytest.raises(InvariantViolationError, match=f"^cluster {offset} already starts an owner run$"):
                vol.write_runs("x", [Extent(offset, length)])
        elif op == 0:
            key, seq = (TEMP, "x")[rng.randrange(2)], rng.randrange(50)
            assert vol.write_runs(key, [Extent(offset, length)], seq) == [(offset, length)]
            model[offset] = (length, key, seq)
        elif run is None or run[0] != length or (op == 2 and run[1] is not TEMP):
            refused += 1
            what = "one owner run" if run is None or run[0] != length else "a TEMP run"
            call = vol.clear_markers if op == 1 else lambda extents: vol.rekey_owners(extents, "y")
            with pytest.raises(InvariantViolationError, match=f"^extent \\({offset}, {length}\\) is not {what}$"):
                call([(offset, length)])
        elif op == 1:
            vol.clear_markers([(offset, length)])
            del model[offset]
        else:
            vol.rekey_owners([(offset, length)], "y")
            model[offset] = (length, "y", run[2])
        assert vol.owners == model
    assert list(vol.owners) == sorted(model) and refused > 300


def test_deep_audit_sees_an_overlap_across_a_bucket_edge():
    vol = create_volume(2 * EDGE, 4096, [Band(0, 2 * EDGE, 60e6)])
    vol.free.take(EDGE - 2, 4)
    vol.set_owner(EDGE - 2, 3, "x", 0)
    vol.set_owner(EDGE, 1, "y", 0)   # cluster EDGE is in both runs, EDGE + 1 in neither
    with pytest.raises(CorruptionError, match=f"^owner runs overlap at cluster {EDGE}$"):
        vol.audit(deep=True)
    vol.owners[EDGE - 2] = vol.owners[EDGE] = (2, "x", 0)
    with pytest.raises(CorruptionError, match=f"^object 'x': duplicate sequence 0 at cluster {EDGE}$"):
        vol.audit(deep=True)
    vol.owners[EDGE] = (2, "x", 2)
    vol.audit(deep=True)
    assert vol.owner_sweep() == [EDGE - 2, EDGE]


def test_match_layouts_walks_runs_in_any_bucket():
    vol = create_volume(2 * EDGE, 4096, [Band(0, 2 * EDGE, 60e6)])
    vol.write_runs("a", [Extent(EDGE + 3, 2), Extent(EDGE - 1, 1)])
    vol.write_runs("b", [Extent(0, 4)])
    assert vol.match_layouts([("a", (EDGE + 3, 2, EDGE - 1, 1)), ("b", (0, 4))]) == 3
    for wrong in [("a", (EDGE - 1, 1)), ("a", (EDGE + 3, 2, EDGE - 1, 2)), ("b", (0, 4, 9, 1)), ("c", (0, 4)), ("b", ())]:
        assert vol.match_layouts([wrong]) == -1, wrong
    assert vol.match_layouts([]) == 0
