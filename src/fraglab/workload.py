"""Synthetic get/put workloads clocked by storage age.

The canonical experiment is: bulk load n objects onto a clean volume, then
repeatedly pick a live object uniformly at random and replace it with a
safe write (optionally interleaving uniform-random reads), measuring
fragmentation at a fixed schedule of storage ages.

Randomness comes from the package's own xorshift64* stream.  Bulk load and
aging use independently derived streams, and each iteration draws in a fixed
order (victim, then size, then the read gate and reader when reads are on),
so a (spec, seed) pair replays byte-identically anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, InfeasibleSpecError, NoSpaceError, UsageError
from .metrics import FragReport, build_report
from .rng import Xorshift64Star, derive_seed
from .schema import check_bounds, config_echo, default
from .store import ObjectStore

_BULK_STREAM = 0
_AGING_STREAM = 1


@dataclass(frozen=True)
class SizeDist:
    """Object-size distribution: constant, or uniform around the same mean."""

    kind: str = default("workload.size_dist.kind")        # "constant" | "uniform"
    mean: int = default("workload.size_dist.mean")        # bytes
    half_width: int = default("workload.size_dist.half_width")   # uniform: [mean-hw, mean+hw]

    def __post_init__(self) -> None:
        check_bounds("workload.size_dist", **vars(self))
        if self.half_width >= self.mean:
            raise ConfigurationError(f"workload.size_dist.half_width {self.half_width} must be < mean {self.mean}")


def sample_size(dist: SizeDist, rng: Xorshift64Star) -> int:
    """One size draw in bytes; constant distributions consume no randomness."""
    if dist.kind == "constant":
        return dist.mean
    return rng.randint(dist.mean - dist.half_width, dist.mean + dist.half_width)


@dataclass(frozen=True)
class WorkloadSpec:
    n_objects: int
    size_dist: SizeDist
    target_age: float
    seed: int = default("workload.seed")
    read_fraction: float = default("workload.read_fraction")
    measurement_ages: tuple[float, ...] = default("workload.measurement_ages")   # given as any sequence

    def __post_init__(self) -> None:
        check_bounds("workload", **vars(self))
        object.__setattr__(self, "measurement_ages", ages := tuple(self.measurement_ages))
        if any(age < 0 or age > self.target_age for age in ages):
            raise ConfigurationError("measurement ages must lie in [0, target_age]")
        if sorted(set(ages)) != list(ages):
            raise ConfigurationError(f"measurement ages must be sorted ascending, each once: {list(ages)}")


def check_bulk_fit(required: int, available: int) -> None:
    """The bulk load's rule: its objects, each rounded up to whole clusters, fit on the volume."""
    if required > available:
        raise InfeasibleSpecError(f"bulk load needs {required} clusters but the volume has {available}",
                                  required_clusters=required, available_clusters=available)


def bulk_load(store: ObjectStore, spec: WorkloadSpec) -> None:
    """Populate an empty store; the result defines storage age 0."""
    if len(store) != 0:
        raise UsageError("bulk_load requires an empty store")
    rng = Xorshift64Star(derive_seed(spec.seed, _BULK_STREAM))
    sizes = [sample_size(spec.size_dist, rng) for _ in range(spec.n_objects)]
    required = sum(-(-s // store.volume.cluster_size) for s in sizes)
    check_bulk_fit(required, store.volume.total_clusters)
    for oid, size in enumerate(sizes):
        try:
            store.put_new(oid, size)
        except NoSpaceError as exc:
            raise InfeasibleSpecError(
                f"bulk load ran out of space at object {oid} of {spec.n_objects}"
                f" (policy {store.config.policy.kind}): {exc}",
                required_clusters=required,
                available_clusters=store.volume.total_clusters,
            ) from exc
    store.clock.reset_turnover()


def run_to_age(store: ObjectStore, spec: WorkloadSpec) -> list[FragReport]:
    """Age a bulk-loaded store to the target age via uniform-random safe writes.

    Emits one report per measurement age (including age 0 if scheduled).
    A no-space during aging propagates; the harness snapshots and aborts.
    """
    if len(store) == 0:
        raise UsageError("run_to_age requires a bulk-loaded store")
    rng = Xorshift64Star(derive_seed(spec.seed, _AGING_STREAM))
    echo = config_echo(store.volume, store.config, spec)
    pending = list(spec.measurement_ages)
    reports: list[FragReport] = []
    reads = {"count": 0, "bytes": 0, "model_seconds": 0.0}   # since the last report

    def emit_due() -> None:
        while pending and store.clock.age >= pending[0]:
            pending.pop(0)
            interval_bytes, interval_seconds = store.take_write_interval()
            reports.append(
                build_report(
                    store,
                    interval_write_bytes=interval_bytes,
                    interval_model_seconds=interval_seconds,
                    seed=spec.seed,
                    config_echo=echo,
                    reads=dict(reads) if spec.read_fraction > 0 else None,
                )
            )
            reads.update(count=0, bytes=0, model_seconds=0.0)

    ids = [rec.id for rec in store.records()]   # a safe write replaces an object, so the population holds
    emit_due()
    while store.clock.age < spec.target_age:
        victim = ids[rng.randrange(len(ids))]
        new_size = sample_size(spec.size_dist, rng)
        store.safe_write(victim, new_size)
        if spec.read_fraction > 0 and rng.random() < spec.read_fraction:
            reader = ids[rng.randrange(len(ids))]
            rec, cost = store.get(reader)
            reads["count"] += 1
            reads["bytes"] += rec.size
            reads["model_seconds"] += cost
        emit_due()
    return reports

