"""The config schema: malformed input, validate/run parity, cell keys, snapshots, bundled configs."""

import copy
import json
import math

import pytest

from fraglab import cli, harness, schema
from fraglab.alloc import POLICY_KINDS, make_policy
from fraglab.errors import ConfigurationError, CorruptionError, EXIT_CONFIG
from fraglab.store import ObjectStore, StoreConfig
from fraglab.workload import bulk_load, run_to_age

KB = 1024


def config_doc(**store):
    doc = {
        "volume": {"total_clusters": 2048, "cluster_size": 4096},
        "store": {"policy": {"kind": "first_fit", "fragmenting": True}, **store},
        "workload": {
            "n_objects": 40,
            "size_dist": {"kind": "constant", "mean": 128 * KB},
            "target_age": 1.0,
            "seed": 7,
            "measurement_ages": [0, 1],
        },
    }
    return doc


def grid_doc(**over):
    return {"base": config_doc(), "axes": {"policy": ["first_fit", "best_fit"]}, "seeds": [1], **over}


def snapshot_state():
    config = harness.ExperimentConfig.from_dict(config_doc())
    store = config.build()
    bulk_load(store, config.workload)
    return store.to_state()


def edit(doc, fn):
    doc = copy.deepcopy(doc)
    fn(doc)
    return doc


def occupancy_doc(occupancy, **volume):
    """config_doc with its object count derived from occupancy, and volume fields overridden."""
    def change(doc):
        del doc["workload"]["n_objects"]
        doc["workload"]["occupancy"] = occupancy
        doc["volume"].update(volume)
    return edit(config_doc(), change)


def v2_snapshot():
    state = snapshot_state()
    state["version"] = 2
    for key in ("bands", "seek_time"):
        del state["volume"][key]
    del state["bytes_turned_over"]
    return state


# (commands, file text, a substring the one-line message must hold)
MALFORMED = {
    "missing_total_clusters": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].pop("total_clusters"))),
        "missing volume.total_clusters",
    ),
    "total_clusters_not_a_number": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(total_clusters="lots"))),
        "volume.total_clusters must be an integer",
    ),
    "truncated_config_json": (("run", "validate", "grid"), json.dumps(config_doc())[:-9], "cannot read"),
    "truncated_snapshot_json": (("scan",), json.dumps(snapshot_state())[:-9], "cannot read"),
    "policy_is_a_number": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["store"].update(policy=5))),
        "store.policy must be an object",
    ),
    "grid_seed_not_an_integer": (("grid",), json.dumps(grid_doc(seeds=["x"])), "seeds[0] must be an integer"),
    "grid_axis_not_a_list": (
        ("grid",),
        json.dumps(grid_doc(axes={"policy": "first_fit"})),
        "axes.policy must be an array",
    ),
    "grid_cell_listed_twice": (
        ("grid",),
        json.dumps(grid_doc(axes={"policy": ["first_fit", {"kind": "first_fit", "fragmenting": True}]})),
        "pol=first_fit|seed=1 twice",
    ),
    "version_2_snapshot": (("scan",), json.dumps(v2_snapshot()), "version 2"),
    # version 3 kept one owner run per allocated piece, not per extent
    "version_3_snapshot": (("scan",), json.dumps(edit(snapshot_state(), lambda s: s.update(version=3))),
                           "version 3"),
    "snapshot_without_free_runs": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"].pop("free"))),
        "malformed snapshot",
    ),
    "snapshot_free_run_past_the_end": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["free"].append([5000, 10]))),
        "snapshot free run [5000, 10] lies outside the volume's 2048 clusters",
    ),
    "snapshot_deferred_run_past_the_end": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["deferred"].append([2040, 10]))),
        "snapshot deferred run [2040, 10] lies outside the volume's 2048 clusters",
    ),
    "snapshot_object_listed_twice": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"].append(s["objects"][0]))),
        "snapshot lists object 0 twice",
    ),
    "snapshot_object_size_below_one": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(1, -5))),
        "snapshot object 0 has size -5",
    ),
    "snapshot_object_generation_below_zero": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(2, -3))),
        "snapshot object 0 has generation -3",
    ),
    # snapshot numbers are JSON integers: a fraction, a boolean or a string is refused, never truncated
    "snapshot_object_size_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(1, 1.5))),
        "snapshot object 0 size must be an integer, not 1.5",
    ),
    "snapshot_object_size_a_boolean": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(1, True))),
        "snapshot object 0 size must be an integer, not True",
    ),
    "snapshot_object_size_a_string": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(1, "7"))),
        "snapshot object 0 size must be an integer, not '7'",
    ),
    "snapshot_object_generation_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(2, 0.5))),
        "snapshot object 0 generation must be an integer, not 0.5",
    ),
    "snapshot_extent_length_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0][3][0].__setitem__(1, 32.5))),
        "snapshot object 0 extents[0][1] must be an integer, not 32.5",
    ),
    "snapshot_free_run_offset_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["free"][0].__setitem__(0, 1280.5))),
        "snapshot free[0][0] must be an integer, not 1280.5",
    ),
    "snapshot_deferred_run_length_a_boolean": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["deferred"].append([1300, True]))),
        "snapshot deferred[0][1] must be an integer, not True",
    ),
    "snapshot_owner_seq_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["owners"][1].__setitem__(3, 0.5))),
        "snapshot owner run [32, 32, 1, 0.5] (offset, length, seq)[2] must be an integer, not 0.5",
    ),
    "snapshot_owner_offset_a_string": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["owners"][1].__setitem__(0, "32"))),
        "(offset, length, seq)[0] must be an integer, not '32'",
    ),
    "snapshot_turnover_a_fraction": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s.update(bytes_turned_over=1.5))),
        "snapshot bytes_turned_over must be an integer, not 1.5",
    ),
    "snapshot_turnover_negative": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s.update(bytes_turned_over=-1))),
        "snapshot bytes_turned_over is -1; it must be >= 0",
    ),
    "snapshot_free_run_empty": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["free"].append([2047, 0]))),
        "snapshot free run [2047, 0] is empty",
    ),
    "snapshot_free_run_empty_past_the_end": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["free"].append([4095, 0]))),
        "snapshot free run [4095, 0] is empty",
    ),
    "snapshot_owner_key_not_a_scalar": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["owners"][0].__setitem__(2, [0, 1]))),
        "owner keys must be JSON scalars",
    ),
    # true and 1.0 equal 1 and hash like it, so either would pass for the object its owner runs name
    "snapshot_object_id_true": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][1].__setitem__(0, True))),
        "snapshot object id must be an integer or a string, not True",
    ),
    "snapshot_object_id_a_float": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][1].__setitem__(0, 1.0))),
        "snapshot object id must be an integer or a string, not 1.0",
    ),
    "snapshot_owner_key_true": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"]["owners"][1].__setitem__(2, True))),
        "snapshot owner run at cluster 32 has key True; owner keys must be JSON scalars of type integer or string",
    ),
    "snapshot_config_typo": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["config"].update(free_mod="immediate"))),
        "unknown key store.free_mod",
    ),
    "free_mode_typo": (
        ("run", "validate"),
        json.dumps(config_doc(free_mod="immediate")),
        "unknown key store.free_mod",
    ),
    "size_hint_as_string": (
        ("run", "validate"),
        json.dumps(config_doc(size_hint="false")),
        "store.size_hint must be true or false",
    ),
    "comment_below_top_level": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(comment="x"))),
        "unknown key volume.comment",
    ),
    "unknown_policy_param": (
        ("run", "validate"),
        json.dumps(config_doc(policy={"kind": "first_fit", "params": {"cache_depth": 4}})),
        "unknown key store.policy.params.cache_depth",
    ),
    "free_mode_bogus": (("run", "validate"), json.dumps(config_doc(free_mode="bogus")), "free_mode"),
    "ntfs_like_not_fragmenting": (
        ("run", "validate"),
        json.dumps(config_doc(policy={"kind": "ntfs_like", "fragmenting": False})),
        "store.policy.fragmenting must be true for ntfs_like, not false",
    ),
    "buddy_fragmenting": (
        ("run", "validate"),
        json.dumps(config_doc(policy={"kind": "buddy", "fragmenting": True})),
        "store.policy.fragmenting must be false for buddy, not true",
    ),
    # n_objects is derived from the occupancy and the volume numbers, and validate divides by
    # them, so each is range-checked before that arithmetic
    "occupancy_1e308": (("run", "validate"), json.dumps(occupancy_doc(1e308)),
                        "workload.occupancy must be >= 0 and < 1, not 1e+308"),
    "occupancy_minus_1e308": (("run", "validate"), json.dumps(occupancy_doc(-1e308)),
                              "workload.occupancy must be >= 0 and < 1, not -1e+308"),
    "occupancy_zero": (("run", "validate"), json.dumps(occupancy_doc(0.0)), "workload.occupancy 0.0 holds no"),
    "occupancy_below_one_object": (("run", "validate"), json.dumps(occupancy_doc(1e-9)),
                                   "workload.occupancy 1e-09 holds no"),
    "total_clusters_zero": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(total_clusters=0))),
        "volume.total_clusters must be >= 1, not 0",
    ),
    "cluster_size_zero": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(cluster_size=0))),
        "volume.cluster_size must be >= 1, not 0",
    ),
    "total_clusters_negative": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(total_clusters=-5))),
        "volume.total_clusters must be >= 1, not -5",
    ),
    "total_clusters_negative_with_occupancy": (
        ("run", "validate"),
        json.dumps(occupancy_doc(0.5, total_clusters=-5)),
        "volume.total_clusters must be >= 1, not -5",
    ),
    # an integer past the float range: refused where a float is due, and never converted on the way
    "seek_time_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(seek_time=10**400))),
        f"volume.seek_time must be a finite number, not {10**400}",
    ),
    "band_rate_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(bands=[[0, 2048, 10**400]]))),
        f"volume.bands[0][2] must be a finite number, not {10**400}",
    ),
    "target_age_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["workload"].update(target_age=10**400))),
        "workload.target_age must be a finite number",
    ),
    "n_objects_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["workload"].update(n_objects=10**400))),
        f"workload.n_objects must be >= 1 and < 16777216, not {10**400}",
    ),
    "mean_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["workload"]["size_dist"].update(mean=10**400))),
        f"workload.size_dist.mean must be >= 1 and < 9223372036854775808, not {10**400}",
    ),
    # the object count an occupancy resolves to is bounded like a given one, so bulk load never
    # starts on a count it could not finish
    "total_clusters_1e30_with_occupancy": (
        ("run", "validate"),
        json.dumps(occupancy_doc(0.5, total_clusters=10**30)),
        "workload.n_objects must be >= 1 and < 16777216, not 15625",
    ),
    "total_clusters_past_the_float_range_with_occupancy": (
        ("run", "validate"),
        json.dumps(occupancy_doc(0.5, total_clusters=10**400)),
        "workload.n_objects must be >= 1 and < 16777216, not 15625",
    ),
    # the occupancy's count is refused by the n_objects bound, and the line says where it came from
    "occupancy_past_the_n_objects_bound_names_occupancy": (
        ("run", "validate"),
        json.dumps(occupancy_doc(0.5, total_clusters=10**30)),
        "not 15625000000000000310697263104 (resolved from workload.occupancy 0.5)",
    ),
    # the cost model's limit: 2**128 one-cluster reads in the slowest band must take a finite time,
    # so no modeled rate reads 0.0 MB/s and no report holds Infinity
    "cluster_size_past_the_float_range": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: (d["volume"].update(cluster_size=10**400),
                                                 d["store"].update(write_request_size=10**400)))),
        "volume cost model overflows",
    ),
    "seek_time_1e308_with_reads": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: (d["volume"].update(seek_time=1e308),
                                                 d["workload"].update(read_fraction=0.5)))),
        "volume cost model overflows",
    ),
    "band_rate_5e-324": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(bands=[[0, 2048, 5e-324]]))),
        "volume cost model overflows",
    ),
    "snapshot_cluster_size_past_the_float_range": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["volume"].update(cluster_size=10**400))),
        "volume cost model overflows",
    ),
    # an immediate store never checkpoints, so a staged run in its snapshot would never be freed
    "snapshot_immediate_store_with_deferred_runs": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: (s["config"].update(free_mode="immediate"),
                                                     s["volume"].update(free=[[1284, 764]], deferred=[[1280, 4]])))),
        "snapshot of a free_mode 'immediate' store holds 4 deferred clusters",
    ),
    "first_band_not_at_cluster_0": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(bands=[[1, 1024, 6e7]]))),
        "first band must start at cluster 0",
    ),
    "second_band_empty": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(bands=[[0, 1024, 6e7], [1024, 1024, 3e7]]))),
        "band 1 is empty or inverted",
    ),
    "band_rate_zero": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["volume"].update(bands=[[0, 2048, 0.0]]))),
        "band 0 transfer rate must be > 0",
    ),
    "measurement_ages_descending": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["workload"].update(measurement_ages=[1, 0]))),
        "measurement ages must be sorted ascending",
    ),
    # a repeated age would report twice at one age, the second row with an empty write interval
    "measurement_ages_repeated": (
        ("run", "validate"),
        json.dumps(edit(config_doc(), lambda d: d["workload"].update(measurement_ages=[0, 1.0, 1.0]))),
        "measurement ages must be sorted ascending, each once: [0.0, 1.0, 1.0]",
    ),
    # the run cache's depth is an islice bound, which must stay below 2**63
    "ntfs_like_cache_depth_2_63": (
        ("run", "validate"),
        json.dumps(config_doc(policy={"kind": "ntfs_like", "params": {"cache_depth": 2**63}})),
        f"store.policy.params.cache_depth must be >= 1 and < {2**63}, not {2**63}",
    ),
    # a record's extents are its fragments, so two consecutive ones that touch would count one fragment
    # twice; records and owner runs agree here, and the scan alone would pass it
    "snapshot_object_extents_touch": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: (
            s["objects"][0].__setitem__(3, [[0, 1], [1, 31]]),
            s["volume"]["owners"].__setitem__(slice(0, 1), [[0, 1, 0, 0], [1, 31, 0, 1]])))),
        "snapshot object 0 has consecutive extents that touch",
    ),
    # 10**9 live bytes on 32 clusters of 4 KiB would skew storage age and the modeled read rate
    "snapshot_object_size_past_its_clusters": (
        ("scan",),
        json.dumps(edit(snapshot_state(), lambda s: s["objects"][0].__setitem__(1, 10**9))),
        "snapshot object 0 has size 1000000000, more than its 32 clusters hold",
    ),
    "grid_base_store_not_an_object": (
        ("grid",),
        json.dumps(grid_doc(base=edit(config_doc(), lambda d: d.update(store=5)))),
        "grid base: store must be an object",
    ),
    "grid_log_append_not_fragmenting": (
        ("grid",),
        json.dumps(grid_doc(axes={"policy": [{"kind": "log_append", "fragmenting": False}]})),
        "store.policy.fragmenting must be true for log_append",
    ),
    # an empty list makes a grid of no cells, which would write a header-only CSV and exit 0
    "grid_seeds_empty": (("grid",), json.dumps(grid_doc(seeds=[])), "grid seeds is an empty list"),
    **{f"grid_axis_{axis}_empty": (("grid",), json.dumps(grid_doc(axes={"policy": ["first_fit"], axis: []})),
                                   f"grid axes.{axis} is an empty list") for axis in schema.AXES},
    # buddy pads each 5-cluster object to a block of 8, which only a run finds: validate passes it
    "buddy_bulk_load_out_of_space": (
        ("run",),
        json.dumps({"volume": {"total_clusters": 1024, "cluster_size": 4096},
                    "store": {"policy": "buddy", "size_hint": True, "free_mode": "immediate"},
                    "workload": {"n_objects": 150, "size_dist": {"kind": "constant", "mean": 20 * KB}}}),
        "bulk load ran out of space at object 128 of 150 (policy buddy): no free buddy block of 8 clusters",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(case, tmp_path, capsys):
    commands, text, message = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    for command in commands:
        capsys.readouterr()
        assert cli.main([command, str(path)]) == EXIT_CONFIG, command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, (command, err)
        assert message in err, (command, err)


VALIDATE_LIKE_RUN = {
    "free_mode_bogus": config_doc(free_mode="bogus"),
    "ntfs_like_immediate": config_doc(policy={"kind": "ntfs_like"}, free_mode="immediate"),
    "buddy_on_3000_clusters": edit(
        config_doc(policy="buddy"), lambda d: d["volume"].update(total_clusters=3000)
    ),
    # 2048 clusters hold blocks of order 11 at most
    "buddy_min_order_one_past_the_volume": config_doc(policy={"kind": "buddy", "params": {"min_order": 12}}),
    "buddy_min_order_20000": config_doc(policy={"kind": "buddy", "params": {"min_order": 20000}}),
    # each 5,000-byte object takes 2 clusters: 600 need 1,200 of 1,000, though the mean bytes fill 73%
    "constant_sizes_round_up_past_the_volume": edit(config_doc(), lambda d: (
        d["volume"].update(total_clusters=1000),
        d["workload"].update(n_objects=600, size_dist={"kind": "constant", "mean": 5000}))),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_LIKE_RUN))
def test_validate_rejects_what_run_rejects(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(VALIDATE_LIKE_RUN[case]))
    outcomes = []
    for command in ("validate", "run"):
        capsys.readouterr()
        outcomes.append((cli.main([command, str(path)]), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == EXIT_CONFIG and len(outcomes[0][1].splitlines()) == 1


# the schema-derived gate: each FIELDS leaf of each base set to every wrong JSON type, to extreme
# numbers and to the values just outside its declared bound; validate runs in-process, never run,
# whose bulk load would allocate a huge object count
GATE_BASES = {
    "ntfs_like_occupancy": {
        "volume": {"total_clusters": 2048, "cluster_size": 4096},
        "store": {"policy": {"kind": "ntfs_like", "params": {"cache_depth": 8}}},
        "workload": {"occupancy": 0.5, "size_dist": {"kind": "uniform", "mean": 128 * KB, "half_width": 32 * KB},
                     "target_age": 1.0, "measurement_ages": [0, 1]},
    },
    "buddy_n_objects": config_doc(policy={"kind": "buddy", "params": {"min_order": 1}}),
}
WRONG_TYPES = (None, True, "x", 1.5, [], {})
EXTREMES = (1e308, -1e308, 10**30, -10**30, 10**400, -10**400, 0, -1)


def just_outside(spec):
    """The values nearest a field's declared bound, or its allowed strings, that it refuses."""
    if spec.bound is None:
        return []
    if spec.type is str:
        return ["", *(choice.upper() for choice in spec.bound)]
    least, below = spec.bound
    return [least - 1 if spec.type is int else math.nextafter(least, -math.inf),
            *([] if below is None else [below])]


def has_type(value, spec) -> bool:
    """Whether value is JSON of the field type spec: an integer is a number, a boolean is not."""
    if isinstance(spec, list):
        return isinstance(value, list)
    if isinstance(value, bool):
        return spec is bool
    return isinstance(value, (int, float) if spec is float else spec)


def in_bound(value, spec) -> bool:
    if spec.bound is None:
        return True
    if spec.type is str:
        return value in spec.bound
    least, below = spec.bound
    return least <= value and (below is None or value < below)


@pytest.mark.parametrize("base", sorted(GATE_BASES))
def test_every_field_mutation_exits_0_or_2_with_one_line(base, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(GATE_BASES[base]))
    assert cli.main(["validate", str(path)]) == 0
    wrong = []
    for spec in schema.FIELDS:
        for value in (*WRONG_TYPES, *EXTREMES, *just_outside(spec)):
            doc = copy.deepcopy(GATE_BASES[base])
            *sections, leaf = spec.path.split(".")
            node = doc
            for name in sections:
                node = node.setdefault(name, {})
            node[leaf] = value
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            code = cli.main(["validate", str(path)])   # any exception but a FraglabError fails the test
            lines = len(capsys.readouterr().err.splitlines())
            # null leaves a field absent when its default is None
            refused = (not has_type(value, spec.type) and not (value is None and spec.default is None)
                       or has_type(value, spec.type) and not in_bound(value, spec))
            if code not in (0, 2) or lines != (code == 2) or (refused and code != 2):
                wrong.append((spec.path, value, code, lines))
    assert wrong == []


class TestCellKeys:
    def keys(self, policies):
        return [key for key, _doc in harness.ExperimentGrid.from_dict(grid_doc(axes={"policy": policies})).cells()]

    def test_policy_params_give_distinct_keys(self):
        assert self.keys([
            {"kind": "ntfs_like", "params": {"cache_depth": 4}},
            {"kind": "ntfs_like", "params": {"cache_depth": 32}},
        ]) == ["pol=ntfs_like+cache_depth=4|seed=1", "pol=ntfs_like|seed=1"]

    def test_fragmenting_flag_gives_distinct_keys(self):
        assert self.keys(["first_fit", {"kind": "first_fit", "fragmenting": False}]) == [
            "pol=first_fit|seed=1", "pol=first_fit+fragmenting=false|seed=1"
        ]

    def test_equal_values_collide(self):
        for policies in (["best_fit", "best_fit"], ["buddy", {"kind": "buddy", "params": {"min_order": 0}}]):
            with pytest.raises(ConfigurationError, match="twice"):
                self.keys(policies)
        with pytest.raises(ConfigurationError, match="twice"):
            harness.ExperimentGrid.from_dict(grid_doc(seeds=[1, 1]))

    def test_distinct_cells_write_distinct_rows(self, tmp_path):
        doc = grid_doc(axes={"policy": [{"kind": "ntfs_like", "params": {"cache_depth": d}} for d in (2, 32)]},
                       outputs={"csv": str(tmp_path / "g.csv")})
        summary = harness.run_grid(harness.ExperimentGrid.from_dict(doc))
        assert summary["failed"] == []
        rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
        assert sorted({r.split(",")[0] for r in rows}) == ["pol=ntfs_like+cache_depth=2|seed=1",
                                                            "pol=ntfs_like|seed=1"]

    def test_bundled_grid_keys_are_stable(self):
        keys = {name: [key for key, _doc in harness.load_grid(name).cells()]
                for name in ("fig5_sizedist", "fig6_freepool")}
        assert keys == {
            "fig5_sizedist": ["dist=constant-1048576|seed=1", "dist=uniform-1048576-524288|seed=1"],
            "fig6_freepool": ["vol=204800|occ=0.5|seed=1", "vol=204800|occ=0.9|seed=1",
                              "vol=20480|occ=0.5|seed=1", "vol=20480|occ=0.9|seed=1"],
        }


def test_snapshot_keeps_policy_params_seek_time_and_age(tmp_path):
    doc = config_doc(policy={"kind": "ntfs_like", "params": {"cache_depth": 4}})
    doc["volume"]["seek_time"] = 0.02
    doc["workload"]["target_age"] = 2.0
    doc["workload"]["measurement_ages"] = [2.0]
    config = harness.ExperimentConfig.from_dict(doc)
    store = config.build()
    bulk_load(store, config.workload)
    run_to_age(store, config.workload)
    path = tmp_path / "snap.json"
    harness.save_snapshot(store, str(path))
    clone = harness.load_snapshot(str(path))
    assert clone.config.policy.cache_depth == 4
    assert clone.volume.seek_time == 0.02
    assert clone.clock.age == store.clock.age >= 2.0
    assert clone.to_state() == store.to_state()
    assert ObjectStore.from_state(store.to_state()).to_state() == store.to_state()


def test_snapshot_whose_records_disagree_with_the_owner_runs_is_refused_as_it_loads(tmp_path):
    state = snapshot_state()
    assert any(o <= 2000 and 2016 <= o + n for o, n in state["volume"]["free"])
    state["objects"][0][3] = [[2000, 16]]   # object 0 now claims free space
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(state))
    with pytest.raises(CorruptionError, match="object 0"):
        harness.load_snapshot(str(path))


def test_snapshot_object_clusters_must_hold_its_size():
    """An object's clusters must hold its size; more clusters than it needs is padding, as buddy's."""
    state = snapshot_state()
    assert state["objects"][0][1] == 32 * 4096
    for size, loads in ((32 * 4096, True), (32 * 4096 + 1, False), (1, True)):
        state["objects"][0][1] = size
        if loads:
            assert ObjectStore.from_state(copy.deepcopy(state)).to_state() == state
        else:
            with pytest.raises(ConfigurationError, match=f"has size {size}, more than its 32 clusters hold"):
                ObjectStore.from_state(copy.deepcopy(state))


def bundled_configs():
    """(label, ExperimentConfig) for every bundled config and every cell of every bundled grid."""
    out = []
    for name in harness.bundled_config_names():
        doc = json.loads(harness.resolve_config_path(name).read_text())
        if "base" in doc:
            out += [(f"{name}:{key}", cell) for key, cell in harness.ExperimentGrid.from_dict(doc).cells()]
        else:
            out.append((name, doc))
    return out


@pytest.mark.parametrize("label, doc", bundled_configs(), ids=[label for label, _ in bundled_configs()])
def test_bundled_config_round_trips_and_validates(label, doc):
    config = harness.ExperimentConfig.from_dict(doc)
    canon = config.to_dict()
    assert harness.ExperimentConfig.from_dict(canon).to_dict() == canon
    assert "occupancy" not in canon["workload"] and canon["workload"]["n_objects"] > 0
    config.validate()


def test_canonical_form_fills_every_default():
    canon = harness.ExperimentConfig.from_dict(
        {"volume": {"total_clusters": 1024}, "workload": {"n_objects": 1}}
    ).to_dict()
    for field in schema.FIELDS:
        if field.kind is None and field.path not in ("workload.occupancy", "volume.total_clusters",
                                                     "workload.n_objects"):
            value = canon
            for name in field.path.split("."):
                value = value[name]
            assert value == field.default, field.path
    # a policy's params hold its own kind's fields only
    assert schema.parse("ntfs_like", "store.policy")["params"] == {"cache_depth": 32}
    assert schema.parse({"kind": "buddy"}, "store.policy")["params"] == {"min_order": 0}


def test_store_defaults_come_from_the_schema():
    config = StoreConfig(policy=None)
    for name in ("write_request_size", "size_hint", "checkpoint_every", "free_mode"):
        assert getattr(config, name) == schema.DEFAULTS[f"store.{name}"]


def test_a_kind_that_fixes_fragmenting_defaults_to_its_value():
    flags = {kind: schema.parse(kind, "store.policy")["fragmenting"] for kind in POLICY_KINDS}
    assert flags == {"first_fit": True, "best_fit": True, "worst_fit": True,
                     "buddy": False, "ntfs_like": True, "log_append": True}
    # the library builds the same flags, and refuses any other
    assert [make_policy(kind).fragmenting for kind in ("buddy", "ntfs_like", "log_append")] == [
        False, True, True]
    with pytest.raises(ConfigurationError, match="store.policy.fragmenting"):
        make_policy("ntfs_like", fragmenting=False)
