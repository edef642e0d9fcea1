"""Shared test oracles.

The bitmap oracle mirrors volume state one cluster at a time, with none of
the run bookkeeping the real code uses, so free-set coalescing and
conservation can be recounted from first principles.
"""

import pytest

from fraglab.volume import Extent


class BitmapOracle:
    """Per-cluster shadow of a volume: 'F' free, 'D' deferred, 'A' allocated."""

    def __init__(self, total_clusters):
        self.state = ["F"] * total_clusters

    def mark(self, extents, value):
        for ext in extents:
            for c in range(ext.offset, ext.end):
                self.state[c] = value

    def free_runs(self):
        """Maximal free runs recomputed by scanning every cluster."""
        runs = []
        start = None
        for i, s in enumerate(self.state + ["A"]):
            if s == "F" and start is None:
                start = i
            elif s != "F" and start is not None:
                runs.append(Extent(start, i - start))
                start = None
        return runs

    def counts(self):
        return (
            self.state.count("F"),
            self.state.count("D"),
            self.state.count("A"),
        )


def assert_matches_oracle(volume, oracle):
    assert list(volume.free.runs()) == oracle.free_runs()
    free, deferred, allocated = oracle.counts()
    assert volume.free_clusters == free
    assert volume.deferred_clusters == deferred
    assert volume.allocated_clusters == allocated


@pytest.fixture
def flat_volume():
    """100 clusters, one band, so offsets are easy to reason about."""
    from fraglab.volume import Band, create_volume

    return create_volume(100, 4096, [Band(0, 100, 60e6)])


def live_ids(store):
    """The ids of the store's live objects, in the order its records() lists them."""
    return [rec.id for rec in store.records()]


def drive_mixed_ops(store, seed, n_ops, size_range, audit_every=1, scan_every=100):
    """Random put/safe-write/delete/checkpoint storm with invariant checks.

    Conservation is recounted after every operation; the layout scanner is
    cross-checked against the records every scan_every ops and at the end.
    NoSpace from a put or replace is a legal outcome (the op must roll back
    cleanly); the driver then trims the store and keeps going.
    """
    from fraglab.errors import NoSpaceError
    from fraglab.rng import Xorshift64Star

    rng = Xorshift64Star(seed)
    next_id = 0
    total = store.volume.total_clusters
    for op_no in range(1, n_ops + 1):
        roll = rng.random()
        occupancy = store.volume.allocated_clusters / total
        if len(store) == 0:
            action = "put"
        elif occupancy > 0.85:
            action = "delete"
        elif roll < 0.40:
            action = "put"
        elif roll < 0.70:
            action = "safe_write"
        elif roll < 0.90:
            action = "delete"
        else:
            action = "checkpoint"
        try:
            if action == "put":
                store.put_new(next_id, rng.randint(*size_range))
                next_id += 1
            elif action == "safe_write":
                victim = live_ids(store)[rng.randrange(len(store))]
                store.safe_write(victim, rng.randint(*size_range))
            elif action == "delete":
                store.delete(live_ids(store)[rng.randrange(len(store))])
            else:
                store.checkpoint_now()
        except NoSpaceError:
            if len(store):
                store.delete(live_ids(store)[rng.randrange(len(store))])
        if op_no % audit_every == 0:
            store.volume.audit()
        if scan_every and op_no % scan_every == 0:
            store.verify_layout()
    store.volume.audit(deep=True)
    store.verify_layout()
    return next_id
