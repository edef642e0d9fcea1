"""One round of a workload, run in a fresh process.

A round drives fraglab's public API the way an aging experiment does:
``ExperimentConfig.from_dict`` / ``validate`` / ``build``, ``bulk_load``,
``run_to_age``, ``verify_layout``.  Each phase is timed from outside with
``perf_counter``; peak RSS is read after aging and after verify.  The
independent checks run afterwards, outside every timed phase.

    python3 bench/phases.py --workload NAME --seed N [--setups K] [--verifies V]
                            [--spans FILE | --memory]

prints one JSON object: the round's timings, counts, report digest and check
failures.  With --spans the round is traced and its spans are written to
FILE; with --memory it runs under tracemalloc for the per-module memory
figures instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

from workloads import MIB, config_doc, use_checkout_src

use_checkout_src()

from fraglab import workload as wl  # noqa: E402  (needs the checkout's src on the path)
from fraglab.errors import FraglabError  # noqa: E402
from fraglab.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402



def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def _no_span(_name: str):
    return nullcontext()


def _setup(text: str, span) -> tuple:
    with span("harness.setup"):
        with span("harness.config"):
            config = ExperimentConfig.from_dict(json.loads(text))
            config.validate()
            store = config.build()
        wl.bulk_load(store, config.workload)
    return config, store


def run_round(name: str, seed: int, verifies: int = 1, tracer=None) -> tuple[dict, object, list]:
    """Set up, age, verify `verifies` times (the same read-only work each time).

    Returns the timings and counts, the aged store and its report series.
    """
    span = tracer.span if tracer is not None else _no_span
    t0 = time.perf_counter()
    config, store = _setup(json.dumps(config_doc(name, seed)), span)
    setup_s = [time.perf_counter() - t0]
    t0 = time.perf_counter()
    with span("harness.age"):
        reports = wl.run_to_age(store, config.workload)
    age_s = time.perf_counter() - t0
    age_rss = _maxrss_mib()
    verify_s = []
    for _ in range(verifies):
        t0 = time.perf_counter()
        with span("harness.verify"):
            store.verify_layout()
        verify_s.append(time.perf_counter() - t0)
    peak_rss = _maxrss_mib()
    reads = sum(r.reads["count"] for r in reports if r.reads)
    result = {
        "setup_s": setup_s,
        "age_s": age_s,
        "verify_s": verify_s,
        "age_rss_mib": age_rss,
        "peak_rss_mib": peak_rss,
        "bulk_puts": config.workload.n_objects,
        "safe_writes": sum(rec.generation for rec in store.records()),
        "reads": reads,
        "free_runs": len(store.volume.free),
    }
    return result, store, reports


def checked_round(name: str, seed: int, setups: int = 1, verifies: int = 1, tracer=None) -> dict:
    """run_round, then the independent checks, then setups - 1 more timed set-ups.

    The extra set-ups come after the aged store is gone, so they add
    set-up samples without touching the RSS figures of the round.
    """
    try:
        result, store, reports = run_round(name, seed, verifies, tracer)
    except FraglabError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["digest"] = checks.series_digest(reports)
    result["problems"] = checks.check_store(
        store, reports, config_doc(name, seed), result["safe_writes"], result["reads"]
    )
    del store, reports
    text = json.dumps(config_doc(name, seed))
    for _ in range(setups - 1):
        t0 = time.perf_counter()
        _setup(text, _no_span)
        result["setup_s"].append(time.perf_counter() - t0)
    return result


def memory_pass(name: str, seed: int) -> dict:
    """Live memory by fraglab source file after aging, and the verify peak."""
    tracemalloc.start()
    try:
        config, store = _setup(json.dumps(config_doc(name, seed)), _no_span)
        wl.run_to_age(store, config.workload)
        snapshot = tracemalloc.take_snapshot()
        by_file = {}
        for stat in snapshot.statistics("filename"):
            path = Path(stat.traceback[0].filename)
            if path.parent.name == "fraglab":
                by_file[path.stem] = by_file.get(path.stem, 0) + stat.size
        del snapshot
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        store.verify_layout()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = {f"{module}.mem_mib": by_file.get(module, 0) / MIB for module in ("volume", "store", "alloc")}
    out["store.scan_layout.mem_peak_mib"] = (peak - base) / MIB
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--verifies", type=int, default=1)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", help="trace the round and write its spans here")
    mode.add_argument("--memory", action="store_true", help="tracemalloc pass")
    args = parser.parse_args(argv)
    if args.memory:
        result = memory_pass(args.workload, args.seed)
    elif args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        result = checked_round(args.workload, args.seed, tracer=tracer)
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    else:
        result = checked_round(args.workload, args.seed, args.setups, args.verifies)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
