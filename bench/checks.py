"""Independent checks on one aged store.

Each check recomputes a number from the raw layout (record extents, free
runs, deferred runs, the workload's config) with code of its own, and
compares it with what the program reported.  The checks take plain data so
the self-tests can hand them a corrupted copy.  Every function returns a
list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from fraglab.errors import InvariantViolationError

_REL = 1e-9   # float comparisons: the same sums, possibly in another order
_Z = 6.0      # binomial bound on the read count, in standard deviations


def layout_bitmap(total_clusters: int, records: list, free_runs: list,
                  deferred: list) -> tuple[list[str], int, int]:
    """Paint every record, free and deferred run onto one byte per cluster.

    Fails on any overlap, on a run outside the volume and on a cluster that
    nothing covers.  Returns the failures, the number of maximal free runs
    seen in the bitmap and the number of free clusters painted.
    """
    problems: list[str] = []
    bitmap = bytearray(total_clusters)
    painted = {"record": 0, "free": 0, "deferred": 0}

    def paint(kind: str, mark: int, offset: int, length: int) -> None:
        end = offset + length
        if length < 1 or offset < 0 or end > total_clusters:
            problems.append(f"{kind} run ({offset}, {length}) lies outside the volume")
            return
        if bitmap.count(0, offset, end) != length:
            problems.append(f"{kind} run ({offset}, {length}) overlaps another run")
            return
        bitmap[offset:end] = bytes([mark]) * length
        painted[kind] += length

    for _size, extents in records:
        for offset, length in extents:
            paint("record", 1, offset, length)
    for offset, length in free_runs:
        paint("free", 2, offset, length)
    for offset, length in deferred:
        paint("deferred", 3, offset, length)
    if sum(painted.values()) != total_clusters:
        problems.append(
            f"free {painted['free']} + deferred {painted['deferred']} + allocated"
            f" {painted['record']} != {total_clusters} clusters"
        )
    free_run_count = len(re.findall(b"\x02+", bitmap))
    return problems, free_run_count, painted["free"]


def cluster_counts(records: list, cluster_size: int) -> list[str]:
    """Each record holds exactly ceil(size / cluster_size) clusters."""
    problems = []
    for i, (size, extents) in enumerate(records):
        want = -(-size // cluster_size)
        have = sum(length for _off, length in extents)
        if have != want:
            problems.append(f"record {i}: {have} clusters for {size} bytes (want {want})")
            if len(problems) >= 5:
                break
    return problems


def _fragments(extents: list) -> int:
    count = 0
    prev_end = None
    for offset, length in extents:
        if offset != prev_end:
            count += 1
        prev_end = offset + length
    return count


def _read_seconds(extents: list, bands: list, cluster_size: int, seek_time: float) -> float:
    seconds = seek_time * _fragments(extents)
    for offset, length in extents:
        end = offset + length
        for start, stop, rate in bands:
            overlap = min(end, stop) - max(offset, start)
            if overlap > 0:
                seconds += overlap * cluster_size / rate
    return seconds


def _rank(sorted_values: list[int], percentile: int) -> int:
    index = max(1, -(-percentile * len(sorted_values) // 100)) - 1
    return sorted_values[index]


def report_matches_layout(report, records: list, volume_doc: dict, free_run_count: int,
                          free_clusters: int) -> list[str]:
    """Fragment statistics and modeled read throughput recomputed from extents."""
    problems = []
    frags = sorted(_fragments(extents) for _size, extents in records)
    n = len(frags)
    cs = volume_doc["cluster_size"]
    total_bytes = sum(size for size, _ in records)
    total_seconds = sum(
        _read_seconds(extents, volume_doc["bands"], cs, volume_doc["seek_time"])
        for _size, extents in records
    )
    expect = {
        "n_objects": n,
        "frag_p50": _rank(frags, 50),
        "frag_p99": _rank(frags, 99),
        "frag_max": frags[-1],
        "free_runs_count": free_run_count,
        "free_bytes": free_clusters * cs,
    }
    for field, want in expect.items():
        have = getattr(report, field)
        if have != want:
            problems.append(f"report {field} is {have}, layout gives {want}")
    for field, want in (("frag_mean", sum(frags) / n),
                        ("est_read_throughput", total_bytes / total_seconds)):
        have = getattr(report, field)
        if not math.isclose(have, want, rel_tol=_REL):
            problems.append(f"report {field} is {have!r}, layout gives {want!r}")
    return problems


def age_reached(age: float, target: float, smallest: int, largest: int, live_bytes: int,
                safe_writes: int, n_objects: int, constant_size: bool) -> list[str]:
    """The age lies in [target, target + slack / live bytes).

    The last safe write starts below the target with turnover T < target * L
    and adds its new size s to T while the live bytes move from L to
    L' = L + s - o.  So the age overshoots by less than
    (s + target * (o - s)) / L', and with sizes in [smallest, largest] and
    target >= 1 the numerator is at most target * largest - (target - 1) *
    smallest; for target < 1, or constant sizes, it is the largest size.
    Under constant sizes every safe write adds exactly 1/n to the age, so the
    write count must also be ceil(target * n).
    """
    problems = []
    slack = max(largest, target * largest - (target - 1) * smallest)
    upper = target + slack / live_bytes
    if not target <= age < upper:
        problems.append(f"age {age!r} outside [{target}, {upper!r})")
    if constant_size:
        want = math.ceil(Fraction(target) * n_objects)
        if safe_writes != want:
            problems.append(f"{safe_writes} safe writes, constant sizes need {want}")
    return problems


def read_count(reads: int, safe_writes: int, read_fraction: float) -> list[str]:
    """Reads follow Binomial(safe_writes, read_fraction)."""
    mean = read_fraction * safe_writes
    slack = _Z * math.sqrt(safe_writes * read_fraction * (1.0 - read_fraction)) + 0.5
    if abs(reads - mean) > slack:
        return [f"{reads} reads after {safe_writes} safe writes; expected {mean:.0f} +- {slack:.0f}"]
    return []


def series_digest(reports: list) -> str:
    """Digest of the report series, compared across runs of one (workload, seed)."""
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_store(store, reports: list, doc: dict, safe_writes: int, reads: int) -> list[str]:
    """Every independent check on an aged store and its report series."""
    volume = store.volume
    problems = []
    try:
        volume.audit(deep=True)
    except InvariantViolationError as exc:
        problems.append(f"volume.audit(deep=True): {exc}")
    records = [(rec.size, list(rec.extents)) for rec in store.records()]
    bitmap_problems, free_run_count, free_clusters = layout_bitmap(
        volume.total_clusters, records, list(volume.free.runs()), list(volume.deferred)
    )
    problems += bitmap_problems
    problems += cluster_counts(records, volume.cluster_size)
    problems += report_matches_layout(
        reports[-1], records, doc["volume"], free_run_count, free_clusters
    )
    wl = doc["workload"]
    dist = wl["size_dist"]
    problems += age_reached(
        reports[-1].storage_age,
        wl["target_age"],
        dist["mean"] - dist["half_width"],
        dist["mean"] + dist["half_width"],
        sum(size for size, _ in records),
        safe_writes,
        len(records),
        dist["kind"] == "constant",
    )
    problems += read_count(reads, safe_writes, wl["read_fraction"])
    return problems
