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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .alloc import make_policy
from .errors import (
    ConfigurationError,
    InfeasibleSpecError,
    InvariantViolationError,
    NoSpaceError,
    UsageError,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NO_SPACE,
)
from .metrics import FragReport
from .store import ObjectStore, StoreConfig
from .volume import Band, CostModel, create_volume, DEFAULT_CLUSTER_SIZE, DEFAULT_SEEK_TIME
from .workload import SizeDist, WorkloadSpec, bulk_load, run_to_age

CSV_HEADER = (
    "cell_key,policy,seed,storage_age,frag_mean,frag_p50,frag_p99,frag_max,"
    "free_runs_count,free_bytes,est_read_mbps,est_write_mbps"
)

# grid axes expand in this order; cell keys list them the same way
_AXIS_ORDER = ("policy", "total_clusters", "occupancy", "write_request_size", "size_dist")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, validated before any simulation."""

    total_clusters: int
    cluster_size: int = DEFAULT_CLUSTER_SIZE
    bands: list[Band] | None = None
    seek_time: float = DEFAULT_SEEK_TIME
    policy_kind: str = "first_fit"
    policy_fragmenting: bool = True
    policy_params: dict = field(default_factory=dict)
    write_request_size: int = 65536
    size_hint: bool = False
    checkpoint_every: int = 1
    free_mode: str = "deferred"
    workload: WorkloadSpec = None
    csv_path: str | None = None
    json_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            vol = doc["volume"]
            wl = doc["workload"]
        except KeyError as exc:
            raise ConfigurationError(f"config is missing section {exc}") from exc
        st = doc.get("store", {})
        bands = None
        if "bands" in vol:
            bands = [Band(int(s), int(e), float(r)) for s, e, r in vol["bands"]]
        policy = st.get("policy", {})
        if isinstance(policy, str):
            policy = {"kind": policy}
        total_clusters = int(vol["total_clusters"])
        cluster_size = int(vol.get("cluster_size", DEFAULT_CLUSTER_SIZE))
        dist_doc = wl.get("size_dist", {})
        size_dist = SizeDist(
            kind=dist_doc.get("kind", "constant"),
            mean=int(dist_doc.get("mean", 1 << 20)),
            half_width=int(dist_doc.get("half_width", 0)),
        )
        if "n_objects" in wl and "occupancy" in wl:
            raise ConfigurationError("give n_objects or occupancy, not both")
        if "occupancy" in wl:
            occupancy = float(wl["occupancy"])
            capacity = total_clusters * cluster_size
            n_objects = int(occupancy * capacity // size_dist.mean)
        elif "n_objects" in wl:
            n_objects = int(wl["n_objects"])
        else:
            raise ConfigurationError("workload needs n_objects or occupancy")
        workload = WorkloadSpec(
            n_objects=n_objects,
            size_dist=size_dist,
            target_age=float(wl.get("target_age", 0.0)),
            seed=int(wl.get("seed", 0)),
            read_fraction=float(wl.get("read_fraction", 0.0)),
            measurement_ages=[float(a) for a in wl.get("measurement_ages", [])],
        )
        outputs = doc.get("outputs", {})
        return cls(
            total_clusters=total_clusters,
            cluster_size=cluster_size,
            bands=bands,
            seek_time=float(vol.get("seek_time", DEFAULT_SEEK_TIME)),
            policy_kind=policy.get("kind", "first_fit"),
            policy_fragmenting=bool(policy.get("fragmenting", True)),
            policy_params=dict(policy.get("params", {})),
            write_request_size=int(st.get("write_request_size", 65536)),
            size_hint=bool(st.get("size_hint", False)),
            checkpoint_every=int(st.get("checkpoint_every", 1)),
            free_mode=st.get("free_mode", "deferred"),
            workload=workload,
            csv_path=outputs.get("csv"),
            json_path=outputs.get("json"),
        )

    def validate(self) -> None:
        self.workload.validate()
        capacity = self.total_clusters * self.cluster_size
        demand = self.workload.n_objects * self.workload.size_dist.mean
        if demand >= capacity:
            raise InfeasibleSpecError(
                f"workload occupancy {demand / capacity:.2f} must be < 1"
                f" ({demand} bytes of objects on a {capacity}-byte volume)",
                required_clusters=-(-demand // self.cluster_size),
                available_clusters=self.total_clusters,
            )

    def build(self) -> ObjectStore:
        """Fresh volume + store for one run."""
        volume = create_volume(self.total_clusters, self.cluster_size, self.bands)
        policy = make_policy(self.policy_kind, self.policy_fragmenting, self.policy_params)
        config = StoreConfig(
            policy=policy,
            write_request_size=self.write_request_size,
            size_hint=self.size_hint,
            checkpoint_every=self.checkpoint_every,
            free_mode=self.free_mode,
        )
        return ObjectStore(volume, config, CostModel(seek_time=self.seek_time))


def run_experiment(config: ExperimentConfig, snapshot_on_abort: str | None = None) -> list[FragReport]:
    """Validate, bulk load, age to target; returns the report series.

    On a no-space abort during aging, optionally dumps a diagnostic
    snapshot of the store before re-raising.
    """
    config.validate()
    store = config.build()
    bulk_load(store, config.workload)
    try:
        return run_to_age(store, config.workload)
    except NoSpaceError:
        if snapshot_on_abort:
            save_snapshot(store, snapshot_on_abort)
        raise


def report_csv_row(report: FragReport, cell_key: str = "-") -> str:
    return ",".join(
        [
            cell_key,
            report.policy,
            str(report.seed),
            repr(report.storage_age),
            repr(report.frag_mean),
            str(report.frag_p50),
            str(report.frag_p99),
            str(report.frag_max),
            str(report.free_runs_count),
            str(report.free_bytes),
            repr(report.est_read_throughput / 1e6),
            repr(report.est_write_throughput / 1e6),
        ]
    )


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)


def write_series(reports: list[FragReport], csv_path: str | None, json_path: str | None,
                 cell_key: str = "-") -> None:
    if csv_path:
        lines = [CSV_HEADER] + [report_csv_row(r, cell_key) for r in reports]
        _write_text(csv_path, "\n".join(lines) + "\n")
    if json_path:
        doc = [r.to_dict() for r in reports]
        _write_text(json_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(config: ExperimentConfig) -> list[FragReport]:
    """CLI-facing run: writes outputs, snapshots the state on a no-space abort."""
    snapshot_path = None
    for out in (config.json_path, config.csv_path):
        if out:
            snapshot_path = str(Path(out).with_suffix(".snapshot.json"))
            break
    reports = run_experiment(config, snapshot_on_abort=snapshot_path)
    write_series(reports, config.csv_path, config.json_path)
    return reports


# -- grids ---------------------------------------------------------------


@dataclass
class ExperimentGrid:
    base: dict
    axes: dict
    seeds: list[int]
    csv_path: str | None = None
    json_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentGrid":
        if "base" not in doc:
            raise ConfigurationError("grid needs a base config")
        axes = doc.get("axes", {})
        unknown = set(axes) - set(_AXIS_ORDER)
        if unknown:
            raise ConfigurationError(f"unknown grid axes: {sorted(unknown)}")
        outputs = doc.get("outputs", {})
        return cls(
            base=doc["base"],
            axes=axes,
            seeds=[int(s) for s in doc.get("seeds", [0])],
            csv_path=outputs.get("csv"),
            json_path=outputs.get("json"),
        )

    def cells(self) -> list[tuple[str, dict]]:
        """Cross-product expansion into (cell_key, config dict) pairs."""
        present = [name for name in _AXIS_ORDER if name in self.axes]
        value_lists = [self.axes[name] for name in present]
        out = []
        for combo in itertools.product(*value_lists) if present else [()]:
            for seed in self.seeds:
                doc = copy.deepcopy(self.base)
                parts = []
                for name, value in zip(present, combo):
                    _apply_override(doc, name, value)
                    parts.append(f"{_axis_label(name)}={_value_label(name, value)}")
                doc.setdefault("workload", {})["seed"] = seed
                doc.pop("outputs", None)
                parts.append(f"seed={seed}")
                out.append(("|".join(parts), doc))
        return out


def _axis_label(name: str) -> str:
    return {
        "policy": "pol",
        "total_clusters": "vol",
        "occupancy": "occ",
        "write_request_size": "wrs",
        "size_dist": "dist",
    }[name]


def _value_label(name: str, value) -> str:
    if name == "policy":
        return value["kind"] if isinstance(value, dict) else str(value)
    if name == "size_dist":
        kind = value.get("kind", "constant")
        label = f"{kind}-{value['mean']}"
        if value.get("half_width"):
            label += f"-{value['half_width']}"
        return label
    return str(value)


def _apply_override(doc: dict, name: str, value) -> None:
    if name == "policy":
        doc.setdefault("store", {})["policy"] = value
    elif name == "total_clusters":
        doc.setdefault("volume", {})["total_clusters"] = int(value)
    elif name == "occupancy":
        wl = doc.setdefault("workload", {})
        wl.pop("n_objects", None)
        wl["occupancy"] = float(value)
    elif name == "write_request_size":
        doc.setdefault("store", {})["write_request_size"] = int(value)
    elif name == "size_dist":
        doc.setdefault("workload", {})["size_dist"] = value


def _run_cell(payload: tuple[str, dict]) -> dict:
    """One grid cell, isolated; returns rows or a classified error."""
    cell_key, doc = payload
    try:
        config = ExperimentConfig.from_dict(doc)
        reports = run_experiment(config)
        return {"cell_key": cell_key, "rows": [report_csv_row(r, cell_key) for r in reports]}
    except (ConfigurationError, UsageError) as exc:
        return {"cell_key": cell_key, "error": str(exc), "exit_code": EXIT_CONFIG}
    except NoSpaceError as exc:
        return {"cell_key": cell_key, "error": str(exc), "exit_code": EXIT_NO_SPACE}
    except InvariantViolationError as exc:
        return {"cell_key": cell_key, "error": str(exc), "exit_code": EXIT_INVARIANT}


def run_grid(grid: ExperimentGrid, parallelism: int = 1) -> dict:
    """Run every cell, merge rows sorted by cell key, report failures.

    A failing cell is recorded in the summary and never aborts siblings.
    The merged CSV is identical for any worker count.
    """
    cells = grid.cells()
    if parallelism <= 1 or len(cells) <= 1:
        results = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
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
        _write_text(grid.csv_path, "\n".join([CSV_HEADER] + rows) + "\n")
    summary = {
        "cells": len(cells),
        "failed": [
            {"cell_key": f["cell_key"], "error": f["error"], "exit_code": f["exit_code"]}
            for f in failures
        ],
    }
    if grid.json_path:
        _write_text(grid.json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# -- snapshots and bundled configs -----------------------------------------


def save_snapshot(store: ObjectStore, path: str) -> None:
    _write_text(path, json.dumps(store.to_state(), sort_keys=True) + "\n")


def load_snapshot(path: str) -> ObjectStore:
    return ObjectStore.from_state(json.loads(Path(path).read_text()))


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
    doc = json.loads(resolve_config_path(name_or_path).read_text())
    return ExperimentConfig.from_dict(doc)


def load_grid(name_or_path: str) -> ExperimentGrid:
    doc = json.loads(resolve_config_path(name_or_path).read_text())
    return ExperimentGrid.from_dict(doc)
