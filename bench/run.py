"""fraglab aging benchmark: one workload, timed or traced.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--trace 0 (timed): runs whole rounds of the workload, each in a fresh
process (bench/phases.py), as many as end nearest to --seconds; at least
one round always runs.  Prints the median of each end-to-end metric over
the run's samples: every set-up and verify sample, and one aging rate and
one pair of memory figures per round.

--trace 1 (traced): runs one plain round and one traced round that writes
its spans to bench/out/, with a tracemalloc pass beside them, and prints
the per-layer metrics derived from the span file and the pass.

Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Every round's outputs are checked
independently (bench/checks.py); a failed check counts as one failed
operation and makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0   # a run, children included, ends well inside 180 s
# On a shared host the speed of a core swings by up to 40% within seconds,
# so each round takes several samples of the short phases.
SETUPS = 4
VERIFIES = 2


def start_child(args: list[str]) -> subprocess.Popen:
    """Start bench/phases.py in a fresh process."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "phases.py"), *args],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish_child(proc: subprocess.Popen, deadline: float) -> dict:
    """Wait for a child; its last stdout line is the result.  Kills it at the deadline."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"round timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"round exited {proc.returncode}: {tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


def child(args: list[str], deadline: float) -> dict:
    return finish_child(start_child(args), deadline)


def operations(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and the failure messages.

    A round attempts its bulk puts, safe writes, reads and one final check;
    the check fails if any independent check does.  A round that raised
    counts as one attempted, failed operation.
    """
    attempted = failed = 0
    messages = []
    for r in rounds:
        if "error" in r:
            attempted += 1
            failed += 1
            messages.append(r["error"])
            continue
        attempted += r["bulk_puts"] + r["safe_writes"] + r["reads"] + 1
        if r["problems"]:
            failed += 1
            messages += r["problems"]
    digests = {r["digest"] for r in rounds if "digest" in r}
    if len(digests) > 1:
        messages.append(f"report series differ between rounds of one seed: {sorted(digests)}")
    return attempted, failed, messages


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    args = ["--workload", workload, "--seed", str(seed),
            "--setups", str(SETUPS), "--verifies", str(VERIFIES)]
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(child(args, deadline))
        now = time.monotonic()
        # stop at the round count whose end lies nearest to `seconds`
        if "error" in rounds[-1] or now - start + (now - t0) / 2 >= seconds:
            break
    good = [r for r in rounds if "error" not in r]
    if not good:
        return {}, rounds
    med = statistics.median
    metrics = {
        "setup_s": (med([s for r in good for s in r["setup_s"]]), "s"),
        "safe_writes_per_s": (med([r["safe_writes"] / r["age_s"] for r in good]), "1/s"),
        "verify_s": (med([v for r in good for v in r["verify_s"]]), "s"),
        "age_rss_mib": (med([r["age_rss_mib"] for r in good]), "MiB"),
        "peak_rss_mib": (med([r["peak_rss_mib"] for r in good]), "MiB"),
    }
    return metrics, rounds


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], list[str]]:
    from spans import layer_metrics, span_totals

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload}-{seed}.spans"
    span_file.unlink(missing_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    # The tracemalloc pass is many times slower than a round and reports no
    # times, so it runs beside the two timed rounds rather than after them.
    memory_proc = start_child([*base, "--memory"])
    try:
        plain = child(base, deadline)
        traced = child([*base, "--spans", str(span_file)], deadline)
    finally:
        memory = finish_child(memory_proc, deadline)
    rounds = [plain, traced]
    if "error" in memory:
        rounds.append(memory)
    if any("error" in r for r in rounds):
        return {}, rounds, []
    metrics, problems = layer_metrics(span_totals(str(span_file)))
    metrics["volume.free_runs"] = (traced["free_runs"], "count")
    metrics["trace.overhead_s"] = (traced["age_s"] - plain["age_s"], "s")
    for name, value in memory.items():
        metrics[name] = (value, "MiB")
    return metrics, rounds, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fraglab" / "__init__.py").is_file():
        print(f"bench: no fraglab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        metrics, rounds, problems = traced_run(args.workload, args.seed, deadline)
    else:
        metrics, rounds = timed_run(args.workload, args.seed, args.seconds, deadline)
        problems = []
    attempted, failed, messages = operations(rounds)
    messages += problems
    for message in messages:
        print(f"bench: {args.workload} seed {args.seed}: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    result = {
        "correct": not messages and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
