import json

import pytest

from fraglab import cli, harness
from fraglab.errors import (
    ConfigurationError,
    InfeasibleSpecError,
    NoSpaceError,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NO_SPACE,
    EXIT_OK,
)

KB = 1024
MB = 1024 * 1024


def small_config_doc(**workload_over):
    doc = {
        "volume": {"total_clusters": 2048, "cluster_size": 4096},
        "store": {
            "policy": {"kind": "first_fit", "fragmenting": True},
            "write_request_size": 64 * KB,
            "size_hint": False,
        },
        "workload": {
            "n_objects": 40,
            "size_dist": {"kind": "constant", "mean": 128 * KB},
            "target_age": 2.0,
            "seed": 7,
            "measurement_ages": [0, 1, 2],
        },
    }
    doc["workload"].update(workload_over)
    return doc


class TestConfigParsing:
    def test_round_trip_through_build(self):
        config = harness.ExperimentConfig.from_dict(small_config_doc())
        config.validate()
        store = config.build()
        assert store.volume.total_clusters == 2048
        assert store.config.policy.kind == "first_fit"

    def test_occupancy_derives_object_count(self):
        doc = small_config_doc()
        del doc["workload"]["n_objects"]
        doc["workload"]["occupancy"] = 0.5
        config = harness.ExperimentConfig.from_dict(doc)
        # 8 MiB volume at 50% of 128KB objects
        assert config.workload.n_objects == 32

    def test_occupancy_of_a_volume_past_the_float_range_derives_the_exact_count(self):
        # 2**-1074 of 2**1112 bytes is 2**38 bytes: 2**21 objects of 128 KiB
        doc = small_config_doc()
        del doc["workload"]["n_objects"]
        doc["workload"]["occupancy"] = 2.0 ** -1074
        doc["volume"]["total_clusters"] = 2 ** 1100
        config = harness.ExperimentConfig.from_dict(doc)
        assert config.workload.n_objects == 2 ** 21
        assert config.validate() == (2 ** 38, 2 ** 1112)

    def test_occupancy_and_n_objects_conflict(self):
        doc = small_config_doc(occupancy=0.5)
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict(doc)

    def test_over_occupancy_is_infeasible_before_simulation(self):
        doc = small_config_doc(n_objects=100)  # 12.5 MiB on an 8 MiB volume
        config = harness.ExperimentConfig.from_dict(doc)
        with pytest.raises(InfeasibleSpecError):
            config.validate()

    def test_missing_sections_are_config_errors(self):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict({"workload": {}})


class TestRun:
    def test_reports_at_each_measurement_age(self):
        config = harness.ExperimentConfig.from_dict(small_config_doc())
        reports = harness.run_experiment(config)
        assert [r.storage_age for r in reports] == [0.0, 1.0, 2.0]

    def test_same_config_same_seed_byte_identical_csv(self, tmp_path):
        outputs = []
        for i in range(2):
            doc = small_config_doc()
            doc["outputs"] = {"csv": str(tmp_path / f"run{i}.csv")}
            harness.run(harness.ExperimentConfig.from_dict(doc))
            outputs.append((tmp_path / f"run{i}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_header_matches_schema(self, tmp_path):
        doc = small_config_doc()
        doc["outputs"] = {"csv": str(tmp_path / "out.csv")}
        harness.run(harness.ExperimentConfig.from_dict(doc))
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert header == (
            "cell_key,policy,seed,storage_age,frag_mean,frag_p50,frag_p99,frag_max,"
            "free_runs_count,free_bytes,est_read_mbps,est_write_mbps"
        )

    def test_bundled_fig3_config_resolves(self):
        config = harness.load_config("fig3_smallobjects")
        assert config.workload.measurement_ages == (0, 2, 4, 6, 8, 10)
        assert config.workload.target_age == 10.0
        assert config.store["policy"]["kind"] == "ntfs_like"

    def test_bundled_fig3_runs_the_advertised_series(self):
        config = harness.load_config("fig3_smallobjects")
        config.csv_path = config.json_path = None
        reports = harness.run_experiment(config)
        assert [r.storage_age for r in reports] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert reports[-1].frag_mean > reports[0].frag_mean

    def test_bundled_grids_expand(self):
        fig5 = harness.load_grid("fig5_sizedist")
        assert len(fig5.cells()) == 2  # constant vs uniform
        fig6 = harness.load_grid("fig6_freepool")
        assert len(fig6.cells()) == 4  # two volume scales x two occupancies

    def test_bundled_names_listed(self):
        names = harness.bundled_config_names()
        assert "fig3_smallobjects" in names
        assert "exact_fit" in names
        with pytest.raises(ConfigurationError):
            harness.resolve_config_path("no_such_config")


def small_grid_doc(tmp_path, seeds=(1, 2)):
    return {
        "base": small_config_doc(),
        "axes": {
            "policy": [
                {"kind": "first_fit", "fragmenting": True},
                {"kind": "best_fit", "fragmenting": True},
                {"kind": "worst_fit", "fragmenting": True},
            ]
        },
        "seeds": list(seeds),
        "outputs": {
            "csv": str(tmp_path / "grid.csv"),
            "json": str(tmp_path / "grid.json"),
        },
    }


class TestGrid:
    def test_cross_product_rows(self, tmp_path):
        grid = harness.ExperimentGrid.from_dict(small_grid_doc(tmp_path))
        summary = harness.run_grid(grid, parallelism=1)
        assert summary["cells"] == 6
        assert summary["failed"] == []
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        # 3 policies x 2 seeds x 3 measurement ages
        assert len(rows) == 18
        by_age = [r for r in rows if r.split(",")[3] == "2.0"]
        assert len(by_age) == 6

    def test_parallelism_does_not_change_output(self, tmp_path):
        doc = small_grid_doc(tmp_path)
        grid = harness.ExperimentGrid.from_dict(doc)
        harness.run_grid(grid, parallelism=1)
        serial = (tmp_path / "grid.csv").read_bytes()
        harness.run_grid(grid, parallelism=8)
        parallel = (tmp_path / "grid.csv").read_bytes()
        assert serial == parallel

    def test_parallelism_is_capped_at_the_cell_count(self, tmp_path, monkeypatch):
        asked = []

        class SerialPool:   # records the worker count and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        # run_grid imports the pool class when it needs one, so patch where it imports it from
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        summary = harness.run_grid(harness.ExperimentGrid.from_dict(small_grid_doc(tmp_path)), parallelism=5000)
        assert asked == [6] and summary == {"cells": 6, "failed": []}

    def test_failing_cell_reported_not_fatal(self, tmp_path):
        doc = small_grid_doc(tmp_path, seeds=(1,))
        doc["axes"]["occupancy"] = [0.5, 2.0]  # second cell infeasible
        grid = harness.ExperimentGrid.from_dict(doc)
        summary = harness.run_grid(grid, parallelism=1)
        assert summary["cells"] == 6
        assert len(summary["failed"]) == 3  # every policy at occupancy 2.0
        assert all(f["exit_code"] == EXIT_CONFIG for f in summary["failed"])
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 9  # the feasible half still produced its series

    def test_out_of_range_axis_value_fails_its_cell_alone(self, tmp_path):
        doc = small_grid_doc(tmp_path, seeds=(1,))
        doc["axes"] = {"occupancy": [0.5, 1e308]}   # axes are checked per cell, never at grid parse
        summary = harness.run_grid(harness.ExperimentGrid.from_dict(doc))
        assert [(f["cell_key"], f["exit_code"]) for f in summary["failed"]] == [("occ=1e+308|seed=1", EXIT_CONFIG)]
        assert "workload.occupancy must be >= 0 and < 1" in summary["failed"][0]["error"]
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(r.startswith("occ=0.5|seed=1,") for r in rows)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_usage_error_cell_reported_not_fatal(self, tmp_path, parallelism):
        doc = small_grid_doc(tmp_path, seeds=(1,))
        doc["base"]["store"]["free_mode"] = "immediate"  # ntfs_like rejects this
        doc["axes"]["policy"] = ["first_fit", {"kind": "ntfs_like"}]
        summary = harness.run_grid(harness.ExperimentGrid.from_dict(doc), parallelism=parallelism)
        assert summary["cells"] == 2
        assert [(f["cell_key"], f["exit_code"]) for f in summary["failed"]] == [
            ("pol=ntfs_like|seed=1", EXIT_CONFIG)
        ]
        assert json.loads((tmp_path / "grid.json").read_text()) == summary
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(r.startswith("pol=first_fit|seed=1,first_fit,") for r in rows)

    def test_unknown_axis_rejected(self, tmp_path):
        doc = small_grid_doc(tmp_path)
        doc["axes"]["cluster_count"] = [1, 2]
        with pytest.raises(ConfigurationError):
            harness.ExperimentGrid.from_dict(doc)


def no_space_doc():
    """A near-full volume with uniform redraws: aging cannot hold two copies of a
    large object and aborts with no space."""
    return {
        "volume": {"total_clusters": 512, "cluster_size": 4096},
        "store": {
            "policy": {"kind": "first_fit", "fragmenting": True},
            "write_request_size": 64 * KB,
            "size_hint": False,
        },
        "workload": {
            "n_objects": 15,
            "size_dist": {"kind": "uniform", "mean": 128 * KB, "half_width": 127 * KB},
            "target_age": 50.0,
            "seed": 1,
            "measurement_ages": [],
        },
    }


class TestCli:
    def test_run_and_validate_and_scan(self, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        doc = small_config_doc()
        doc["outputs"] = {"csv": str(tmp_path / "exp.csv")}
        config_path.write_text(json.dumps(doc))

        assert cli.main(["validate", str(config_path)]) == EXIT_OK
        assert cli.main(["run", str(config_path)]) == EXIT_OK
        assert (tmp_path / "exp.csv").exists()

        # build a snapshot and scan it
        config = harness.ExperimentConfig.from_dict(doc)
        store = config.build()
        from fraglab.workload import bulk_load

        bulk_load(store, config.workload)
        snap = tmp_path / "state.json"
        harness.save_snapshot(store, str(snap))
        assert cli.main(["scan", str(snap)]) == EXIT_OK

    def test_scan_flags_corruption(self, tmp_path, capsys):
        doc = small_config_doc()
        config = harness.ExperimentConfig.from_dict(doc)
        store = config.build()
        from fraglab.workload import bulk_load

        bulk_load(store, config.workload)
        state = store.to_state()
        state["volume"]["owners"][5][3] += 7  # corrupt one run's sequence number
        snap = tmp_path / "bad.json"
        snap.write_text(json.dumps(state))
        assert cli.main(["scan", str(snap)]) == EXIT_INVARIANT

    @pytest.mark.parametrize("mutate, message", [
        # a run of no clusters inside object 0's run, so the owned count is unchanged
        (lambda owners: owners.append([20, 0, 0, 20]), "owner run (20,0) is malformed: it is empty"),
        # the only run that starts before cluster 0: nothing overlaps it
        (lambda owners: owners[0].__setitem__(0, -5), "owner run (-5,32) is malformed: it lies outside the volume"),
    ], ids=["empty_owner_run", "owner_run_at_a_negative_offset"])
    def test_scan_names_what_is_wrong_with_a_malformed_owner_run(self, mutate, message, tmp_path, capsys):
        state = _bulk_loaded_store().to_state()
        assert state["volume"]["owners"][0] == [0, 32, 0, 0]
        mutate(state["volume"]["owners"])
        snap = tmp_path / "bad.json"
        snap.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(["scan", str(snap)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == f"error: invariant violation: {message}\n"

    def test_infeasible_config_exit_code(self, tmp_path):
        doc = small_config_doc(n_objects=100)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == EXIT_CONFIG
        assert cli.main(["run", str(path)]) == EXIT_CONFIG

    def test_grid_cli(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(small_grid_doc(tmp_path, seeds=(1,))))
        assert cli.main(["grid", str(path), "--parallel", "2"]) == EXIT_OK
        assert (tmp_path / "grid.csv").exists()

    def test_grid_cli_reports_a_failed_cell_and_keeps_its_sibling(self, tmp_path, capsys):
        doc = {"base": small_config_doc(), "axes": {"occupancy": [0.5, 1e308]},
               "outputs": {"csv": str(tmp_path / "grid.csv")}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["grid", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1/2 cells completed"
        assert [line for line in out if line.startswith("FAILED")] == [
            "FAILED occ=1e+308|seed=0: workload.occupancy must be >= 0 and < 1, not 1e+308"]
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"occ=0.5|seed=0"}

    @pytest.mark.parametrize("command, make_doc, expected", [
        ("run", lambda tmp_path: small_config_doc(), EXIT_CONFIG),
        ("grid", small_grid_doc, EXIT_CONFIG),
        # the path is refused before the bulk load, so the no-space abort is never reached
        ("run", lambda tmp_path: no_space_doc(), EXIT_CONFIG),
    ], ids=["run", "grid", "run_no_space"])
    def test_unwritable_output_exits_with_one_line(self, command, make_doc, expected, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(harness, "bulk_load", None)   # any simulation would fail to call it
        (tmp_path / "afile").write_text("")   # a regular file where a directory is needed
        doc = make_doc(tmp_path)
        doc["outputs"] = {"csv": str(tmp_path / "afile" / "out.csv")}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main([command, str(path)]) == expected
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(tmp_path / "afile") in err
        assert sorted(tmp_path.iterdir()) == before   # no output, snapshot or directory left

    @pytest.mark.parametrize("command, make_doc", [
        ("run", lambda tmp_path: small_config_doc()),
        ("grid", small_grid_doc),
    ], ids=["run", "grid"])
    def test_output_path_that_is_a_directory_exits_2(self, command, make_doc, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "bulk_load", None)
        doc = make_doc(tmp_path)
        doc["outputs"] = {"json": str(tmp_path)}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: it is a directory")

    @pytest.mark.parametrize("mutate, expected", [
        (lambda volume: volume["owners"].append(volume["owners"][0]), EXIT_INVARIANT),
        # refused as it loads: a run outside the volume is malformed input
        (lambda volume: volume["free"].append([5000, 10]), EXIT_CONFIG),
        (lambda volume: volume["free"].pop(), EXIT_INVARIANT),
    ], ids=["owner_row_repeated", "free_run_past_the_end", "last_free_run_dropped"])
    def test_scan_refuses_a_mutated_aged_snapshot(self, mutate, expected, tmp_path, capsys):
        doc = small_config_doc()
        doc["volume"]["total_clusters"] = 4096
        config = harness.ExperimentConfig.from_dict(doc)
        store = config.build()
        from fraglab.workload import bulk_load, run_to_age

        bulk_load(store, config.workload)
        run_to_age(store, config.workload)
        state = store.to_state()
        assert state["volume"]["free"] and state["volume"]["total_clusters"] == 4096
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(state))
        assert cli.main(["scan", str(snap)]) == EXIT_OK
        mutate(state["volume"])
        snap.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(["scan", str(snap)]) == expected
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_no_space_abort_dumps_snapshot(tmp_path):
    doc = no_space_doc()
    doc["outputs"] = {"csv": str(tmp_path / "abort.csv")}
    path = tmp_path / "abort.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == EXIT_NO_SPACE
    clone = harness.load_snapshot(str(tmp_path / "abort.snapshot.json"))
    clone.verify_layout()


def test_abort_snapshot_that_cannot_be_written_is_named_in_the_no_space_error(tmp_path):
    (tmp_path / "afile").write_text("")
    config = harness.ExperimentConfig.from_dict(no_space_doc())
    with pytest.raises(NoSpaceError, match="; no snapshot: cannot write .*afile"):
        harness.run_experiment(config, snapshot_on_abort=str(tmp_path / "afile" / "abort.json"))


def test_snapshot_persists_through_files(tmp_path):
    config = harness.ExperimentConfig.from_dict(small_config_doc())
    store = config.build()
    from fraglab.workload import bulk_load

    bulk_load(store, config.workload)
    path = tmp_path / "snap.json"
    harness.save_snapshot(store, str(path))
    clone = harness.load_snapshot(str(path))
    clone.verify_layout()
    assert clone.to_state() == store.to_state()

def _bulk_loaded_store():
    config = harness.ExperimentConfig.from_dict(small_config_doc())
    store = config.build()
    from fraglab.workload import bulk_load

    bulk_load(store, config.workload)
    return store


def test_snapshot_is_versioned_and_holds_owner_runs():
    state = _bulk_loaded_store().to_state()
    assert state["version"] == 4
    assert "markers" not in state["volume"]
    owners = state["volume"]["owners"]
    assert all(len(run) == 4 for run in owners)
    # one run per extent: 40 objects, each of two 64 KiB appends that land side by side
    assert len(owners) == 40
    assert sum(length for _off, length, _key, _seq in owners) == 40 * 32


def test_unversioned_snapshot_is_rejected_with_one_line(tmp_path, capsys):
    state = _bulk_loaded_store().to_state()
    # the format before owner runs: no version, one marker per cluster
    del state["version"]
    owners = state["volume"].pop("owners")
    state["volume"]["markers"] = [
        [off + i, key, seq + i] for off, length, key, seq in owners for i in range(length)
    ]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(state))
    capsys.readouterr()
    assert cli.main(["scan", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "version" in err


def test_fraglab_loads_only_the_standard_library():
    """fraglab has no runtime dependency: in a fresh interpreter, importing it and
    validating a bundled config loads only standard-library modules and fraglab's own,
    and no process pool: only a parallel grid loads multiprocessing."""
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import json, sys\n"
        "start = set(sys.modules)\n"   # what the interpreter and its site hooks loaded
        "from fraglab import cli\n"
        "assert cli.main(['validate', 'exact_fit']) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - start)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src, "PATH": ""}).stdout
    loaded = {name.split(".")[0] for name in json.loads(out.splitlines()[-1])}
    foreign = loaded - set(sys.stdlib_module_names) - {"fraglab"}
    assert not foreign, f"fraglab loaded modules outside the standard library: {sorted(foreign)}"
    assert not loaded & {"multiprocessing", "concurrent"}, f"a serial validate loaded {sorted(loaded)}"
