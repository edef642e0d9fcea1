"""Experiment runner: configs in, CSV/JSON series out.

A config is one JSON document describing the volume, the store (policy and
write path), and the workload.  A grid is a base config plus override axes;
its cells are the cross product, each an independent experiment.  Output is
deterministic: the CSV is a pure function of (config, seed), and grid rows
are merged in sorted cell order no matter how cells were scheduled.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import schema
from .errors import ConfigurationError, FraglabError, InfeasibleSpecError, NoSpaceError, exit_code
from .metrics import FragReport
from .store import ObjectStore, store_config
from .volume import create_volume
from .workload import SizeDist, WorkloadSpec, bulk_load, check_bulk_fit, run_to_age

CSV_HEADER = (
    "cell_key,policy,seed,storage_age,frag_mean,frag_p50,frag_p99,frag_max,"
    "free_runs_count,free_bytes,est_read_mbps,est_write_mbps"
)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, validated before any simulation."""

    volume: dict   # canonical config sections (see schema.FIELDS)
    store: dict
    workload: WorkloadSpec
    csv_path: str | None = None
    json_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        canon = schema.parse(doc)
        volume, wl = canon["volume"], canon["workload"]
        size_dist = SizeDist(**wl.pop("size_dist"))
        occupancy = wl.pop("occupancy")
        if occupancy is not None:
            if wl["n_objects"] is not None:
                raise ConfigurationError("give n_objects or occupancy, not both")
            schema.check_bounds("volume", **volume)
            schema.check_bounds("workload", occupancy=occupancy)
            capacity = volume["total_clusters"] * volume["cluster_size"]
            # float arithmetic while the capacity has a float value; exact past it, where floats overflow
            num, den = occupancy.as_integer_ratio()
            demand = occupancy * capacity if capacity <= sys.float_info.max else capacity * num // den
            wl["n_objects"] = int(demand // size_dist.mean)
            if not wl["n_objects"]:
                raise ConfigurationError(f"workload.occupancy {occupancy} holds no object of the mean size")
            try:
                schema.check_bounds("workload", n_objects=wl["n_objects"])
            except ConfigurationError as exc:
                raise ConfigurationError(f"{exc} (resolved from workload.occupancy {occupancy})") from None
        elif wl["n_objects"] is None:
            raise ConfigurationError("workload needs n_objects or occupancy")
        outputs = canon["outputs"]
        return cls(volume, canon["store"], WorkloadSpec(size_dist=size_dist, **wl),
                   outputs["csv"], outputs["json"])

    def to_dict(self) -> dict:
        """The canonical config: every default filled in, occupancy resolved to n_objects."""
        return copy.deepcopy({
            "volume": self.volume,
            "store": self.store,
            "workload": schema.dump(self.workload, "workload"),
            "outputs": {"csv": self.csv_path, "json": self.json_path},
        })

    def validate(self) -> tuple[int, int]:
        """Build a store as a run does (O(1)), checking every field, and drop it; then check feasibility.
        Returns (demand, capacity): the bytes of the objects at their mean size, and of the volume."""
        volume, dist = self.build().volume, self.workload.size_dist
        capacity = volume.capacity_bytes
        demand = self.workload.n_objects * dist.mean
        if demand >= capacity:
            raise InfeasibleSpecError(
                f"workload occupancy {demand / capacity:.2f} must be < 1"
                f" ({demand} bytes of objects on a {capacity}-byte volume)",
                required_clusters=-(-demand // volume.cluster_size),
                available_clusters=volume.total_clusters,
            )
        if dist.kind == "constant" or not dist.half_width:   # every size is the mean; drawn ones wait for the run
            check_bulk_fit(self.workload.n_objects * -(-dist.mean // volume.cluster_size), volume.total_clusters)
        return demand, capacity

    def build(self) -> ObjectStore:
        """Fresh volume + store for one run."""
        return ObjectStore(create_volume(**self.volume), store_config(self.store))


def run_experiment(config: ExperimentConfig, snapshot_on_abort: str | None = None) -> list[FragReport]:
    """Validate, bulk load, age to target; returns the report series.

    On a no-space abort during aging, optionally dumps a diagnostic
    snapshot of the store before re-raising; a snapshot that cannot be
    written is named in the no-space error, which stays the one raised.
    """
    config.validate()
    store = config.build()
    bulk_load(store, config.workload)
    try:
        return run_to_age(store, config.workload)
    except NoSpaceError as exc:
        if snapshot_on_abort:
            try:
                save_snapshot(store, snapshot_on_abort)
            except ConfigurationError as err:
                raise NoSpaceError(f"{exc}; no snapshot: {err}", exc.requested, exc.available) from exc
        raise


def report_csv_row(report: FragReport, cell_key: str = "-") -> str:
    # the columns between cell_key and the modeled rates are the report fields of those names
    fields = [getattr(report, name) for name in CSV_HEADER.split(",")[1:-2]]
    rates = [report.est_read_throughput / 1e6, report.est_write_throughput / 1e6]
    return ",".join(map(str, [cell_key, *fields, *rates]))


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any simulation, an output path that is a directory or under no writable one."""
    for path in filter(None, paths):
        ancestor = next(p for p in Path(path).parents if p.exists())   # mkdir would make the rest
        if Path(path).is_dir() or not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
            raise ConfigurationError(f"cannot write {path}: it is a directory,"
                                     f" or {ancestor} is not a writable directory")


def _write_csv(path: str, rows: list[str]) -> None:
    _write_text(path, "\n".join([CSV_HEADER, *rows]) + "\n")


def write_series(reports: list[FragReport], csv_path: str | None, json_path: str | None) -> None:
    if csv_path:
        _write_csv(csv_path, [report_csv_row(r) for r in reports])
    if json_path:
        doc = [r.to_dict() for r in reports]
        _write_text(json_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(config: ExperimentConfig) -> list[FragReport]:
    """CLI-facing run: writes outputs, snapshots the state on a no-space abort."""
    _check_writable(config.csv_path, config.json_path)
    out = config.json_path or config.csv_path
    snapshot_path = str(Path(out).with_suffix(".snapshot.json")) if out else None
    reports = run_experiment(config, snapshot_on_abort=snapshot_path)
    write_series(reports, config.csv_path, config.json_path)
    return reports


# -- grids ---------------------------------------------------------------


@dataclass
class ExperimentGrid:
    base: dict
    axes: dict     # axis name -> canonical values, in schema.AXES order
    seeds: list[int]
    csv_path: str | None = None
    json_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentGrid":
        """Parse a grid; it must have cells, and each cell must get a key of its own."""
        canon = schema.parse(doc, tree=schema.GRID)
        axes = {
            name: [schema.parse(value, schema.AXES[name][1]) for value in values]
            for name, values in canon["axes"].items()
            if values is not None
        }
        outputs = canon["outputs"]
        grid = cls(canon["base"], axes, canon["seeds"], outputs["csv"], outputs["json"])
        for name, values in [("seeds", grid.seeds), *((f"axes.{axis}", v) for axis, v in axes.items())]:
            if not values:
                raise ConfigurationError(f"grid {name} is an empty list, so the grid has no cells")
        keys = set()
        for key, _doc in grid.cells():
            if key in keys:
                raise ConfigurationError(f"grid lists cell {key} twice")
            if "," in key:
                raise ConfigurationError(f"grid cell key {key!r} holds a comma")
            keys.add(key)
        return grid

    def cells(self) -> list[tuple[str, dict]]:
        """Cross-product expansion into (cell_key, config dict) pairs."""
        out = []
        for combo in itertools.product(*self.axes.values()):
            for seed in self.seeds:
                doc = copy.deepcopy(self.base)
                parts = []
                for name, value in zip(self.axes, combo):
                    prefix, path = schema.AXES[name]
                    _override(doc, path, value)
                    parts.append(f"{prefix}={_label(path, value)}")
                _override(doc, "workload.seed", seed)
                doc.pop("outputs", None)
                parts.append(f"seed={seed}")
                out.append(("|".join(parts), doc))
        return out


def _label(path: str, value) -> str:
    """The cell-key label of one canonical axis value."""
    if path == "store.policy":
        # the kind, then each field that differs from that kind's defaults
        base = schema.parse(value["kind"], path)
        fields = {"fragmenting": value["fragmenting"], **value["params"]}
        defaults = {"fragmenting": base["fragmenting"], **base["params"]}
        diffs = [f"{k}={json.dumps(v)}" for k, v in fields.items() if v != defaults[k]]
        return "+".join([value["kind"], *diffs])
    if path == "workload.size_dist":
        tail = f"-{value['half_width']}" if value["half_width"] else ""
        return f"{value['kind']}-{value['mean']}{tail}"
    return str(value)


def _override(doc: dict, path: str, value) -> None:
    *sections, leaf = path.split(".")
    for name in sections:
        doc = doc.setdefault(name, {})
        if not isinstance(doc, dict):
            raise ConfigurationError(f"grid base: {name} must be an object")
    doc[leaf] = value
    if leaf == "occupancy":
        doc.pop("n_objects", None)   # the two are alternatives


def _run_cell(payload: tuple[str, dict]) -> dict:
    """One grid cell, isolated; returns rows or a classified error."""
    cell_key, doc = payload
    try:
        config = ExperimentConfig.from_dict(doc)
        reports = run_experiment(config)
        return {"cell_key": cell_key, "rows": [report_csv_row(r, cell_key) for r in reports]}
    except FraglabError as exc:
        return {"cell_key": cell_key, "error": str(exc), "exit_code": exit_code(exc)}


def run_grid(grid: ExperimentGrid, parallelism: int = 1) -> dict:
    """Run every cell, merge rows sorted by cell key, report failures.

    A failing cell is recorded in the summary and never aborts siblings.
    The merged CSV is identical for any worker count.
    """
    _check_writable(grid.csv_path, grid.json_path)
    cells = grid.cells()
    if parallelism <= 1 or len(cells) <= 1:
        results = [_run_cell(c) for c in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor   # here, so serial runs never load multiprocessing

        # the pool starts all its workers at once, so never more than there are cells
        with ProcessPoolExecutor(max_workers=min(parallelism, len(cells))) as pool:
            results = list(pool.map(_run_cell, cells))
    results.sort(key=lambda r: r["cell_key"])
    rows = []
    failures = []
    for res in results:
        if "rows" in res:
            rows.extend(res["rows"])
        else:
            failures.append(res)
    if grid.csv_path:
        _write_csv(grid.csv_path, rows)
    summary = {"cells": len(cells), "failed": failures}
    if grid.json_path:
        _write_text(grid.json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# -- snapshots and bundled configs -----------------------------------------


def save_snapshot(store: ObjectStore, path: str) -> None:
    _write_text(path, json.dumps(store.to_state(), sort_keys=True) + "\n")


def load_snapshot(path: str) -> ObjectStore:
    state = _read_json(path)
    try:
        return ObjectStore.from_state(state)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed snapshot: {exc!r}") from exc


def _read_json(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def bundled_config_names() -> list[str]:
    root = resources.files("fraglab").joinpath("configs")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def resolve_config_path(name_or_path: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled config."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = resources.files("fraglab").joinpath("configs", f"{name_or_path}.json")
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigurationError(
        f"no config file {name_or_path!r}; bundled configs: {', '.join(bundled_config_names())}"
    )


def load_config(name_or_path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_json(resolve_config_path(name_or_path)))


def load_grid(name_or_path: str) -> ExperimentGrid:
    return ExperimentGrid.from_dict(_read_json(resolve_config_path(name_or_path)))
