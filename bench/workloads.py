"""The benchmark's workloads, as fraglab experiment configs.

Each workload is a config document for ``ExperimentConfig.from_dict``.  The
seed is the only input that varies between runs; it goes into
``workload.seed`` and fraglab derives every size, victim and read choice
from it.  Bands and the seek time are spelled out so that the independent
checks can recompute the modeled read throughput without asking the program
for its defaults.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919   # used only by the self-tests' smoke runs

KIB = 1024
MIB = 1024 * KIB
CLUSTER = 4096
SEEK_TIME = 0.008


def _volume(total_clusters: int) -> dict:
    half = total_clusters // 2
    return {
        "total_clusters": total_clusters,
        "cluster_size": CLUSTER,
        "seek_time": SEEK_TIME,
        "bands": [[0, half, 60e6], [half, total_clusters, 30e6]],
    }


WORKLOADS: dict[str, dict] = {
    # Paper scale, large objects: first-fit free-run scan and the
    # per-cluster marker map dominate; sets the memory numbers.
    "age_4g_firstfit": {
        "volume": _volume(1 << 20),
        "store": {
            "policy": {"kind": "first_fit", "fragmenting": True},
            "write_request_size": 64 * KIB,
            "size_hint": False,
            "checkpoint_every": 1,
            "free_mode": "deferred",
        },
        "workload": {
            "occupancy": 0.9,
            "size_dist": {"kind": "uniform", "mean": MIB, "half_width": MIB // 2},
            "target_age": 2.0,
            "read_fraction": 0.0,
            "measurement_ages": [0, 1, 2],
        },
    },
    # The paper's small-object write-request effect: four 64 KiB requests
    # per object through the stale run cache, checkpoint after every op.
    "age_1g_ntfs_small": {
        "volume": _volume(1 << 18),
        "store": {
            "policy": {"kind": "ntfs_like", "fragmenting": True, "params": {"cache_depth": 32}},
            "write_request_size": 64 * KIB,
            "size_hint": False,
            "checkpoint_every": 1,
            "free_mode": "deferred",
        },
        "workload": {
            "occupancy": 0.9,
            "size_dist": {"kind": "constant", "mean": 256 * KIB, "half_width": 0},
            "target_age": 4.0,
            "read_fraction": 0.0,
            "measurement_ages": [0, 1, 2, 3, 4],
        },
    },
    # One allocation call per object, no deferred staging or checkpoints,
    # and reads beside writes.
    "hinted_bestfit_reads": {
        "volume": _volume(1 << 18),
        "store": {
            "policy": {"kind": "best_fit", "fragmenting": True},
            "write_request_size": 64 * KIB,
            "size_hint": True,
            "checkpoint_every": 1,
            "free_mode": "immediate",
        },
        "workload": {
            "occupancy": 0.85,
            "size_dist": {"kind": "uniform", "mean": 64 * KIB, "half_width": 48 * KIB},
            "target_age": 4.0,
            "read_fraction": 0.9,
            "measurement_ages": [0, 1, 2, 3, 4],
        },
    },
}


def use_checkout_src() -> None:
    """Import fraglab from this checkout's src/, not from any installed copy."""
    if not (SRC / "fraglab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fraglab sources at {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def config_doc(name: str, seed: int) -> dict:
    """The config document for one (workload, seed) pair."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    doc = copy.deepcopy(WORKLOADS[name])
    doc["workload"]["seed"] = seed
    return doc
