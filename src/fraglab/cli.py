"""Command line entry points: run, grid, validate, scan."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import EXIT_INVARIANT, EXIT_NO_SPACE, EXIT_OK, FraglabError, exit_code

_ERROR_PREFIX = {EXIT_NO_SPACE: "out of space: ", EXIT_INVARIANT: "invariant violation: "}


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
    demand, capacity = config.validate()
    workload = config.workload
    print(
        f"ok: {workload.n_objects} objects of mean"
        f" {workload.size_dist.mean} bytes on a {capacity}-byte volume"
        f" ({demand / capacity:.0%} occupancy), policy {config.store['policy']['kind']}"
    )
    return EXIT_OK


def _cmd_scan(args) -> int:
    store = harness.load_snapshot(args.snapshot)   # which audits and verifies the layout
    print(f"scan ok: {len(store)} objects, layouts match the records exactly")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraglab",
        description="Deterministic storage-aging simulator: allocation policies"
        " vs long-term fragmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, arg, fn, text in (
        ("run", "config", _cmd_run, "run one experiment config (path or bundled name)"),
        ("grid", "grid", _cmd_grid, "run a policy/occupancy/... grid of experiments"),
        ("validate", "config", _cmd_validate, "check a config and build its store; no simulation"),
        ("scan", "snapshot", _cmd_scan, "run the owner-run scanner oracle on a snapshot"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument(arg)
        p.set_defaults(fn=fn)
        if name == "grid":
            p.add_argument("--parallel", type=int, default=1, metavar="N",
                           help="worker processes (output is identical for any N)")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FraglabError as exc:
        code = exit_code(exc)
        print(f"error: {_ERROR_PREFIX.get(code, '')}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
