"""Command line entry points: run, grid, validate, scan."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import (
    ConfigurationError,
    FraglabError,
    InfeasibleSpecError,
    InvariantViolationError,
    NoSpaceError,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NO_SPACE,
    EXIT_OK,
)


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    reports = harness.run(config)
    for report in reports:
        print(
            f"age {report.storage_age:g}: frag_mean {report.frag_mean:.3f},"
            f" p99 {report.frag_p99}, free runs {report.free_runs_count},"
            f" modeled read {report.est_read_throughput / 1e6:.1f} MB/s"
        )
    if config.csv_path:
        print(f"wrote {config.csv_path}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    grid = harness.load_grid(args.grid)
    summary = harness.run_grid(grid, parallelism=args.parallel)
    ok = summary["cells"] - len(summary["failed"])
    print(f"{ok}/{summary['cells']} cells completed")
    for failure in summary["failed"]:
        print(f"FAILED {failure['cell_key']}: {failure['error']}")
    if grid.csv_path:
        print(f"wrote {grid.csv_path}")
    # partial failures are reported but the merge itself succeeded
    return EXIT_OK if not summary["failed"] else max(f["exit_code"] for f in summary["failed"])


def _cmd_validate(args) -> int:
    config = harness.load_config(args.config)
    config.validate()
    capacity = config.total_clusters * config.cluster_size
    demand = config.workload.n_objects * config.workload.size_dist.mean
    print(
        f"ok: {config.workload.n_objects} objects of mean"
        f" {config.workload.size_dist.mean} bytes on a {capacity}-byte volume"
        f" ({demand / capacity:.0%} occupancy), policy {config.policy_kind}"
    )
    return EXIT_OK


def _cmd_scan(args) -> int:
    store = harness.load_snapshot(args.snapshot)
    store.verify_layout()
    print(f"scan ok: {len(store)} objects, layouts match the records exactly")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraglab",
        description="Deterministic storage-aging simulator: allocation policies"
        " vs long-term fragmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment config (path or bundled name)")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("grid", help="run a policy/occupancy/... grid of experiments")
    p.add_argument("grid")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="worker processes (output is identical for any N)")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("validate", help="check a config without simulating")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("scan", help="run the owner-run scanner oracle on a snapshot")
    p.add_argument("snapshot")
    p.set_defaults(fn=_cmd_scan)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InfeasibleSpecError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoSpaceError as exc:
        print(f"error: out of space: {exc}", file=sys.stderr)
        return EXIT_NO_SPACE
    except InvariantViolationError as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FraglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
