"""Reference model: the per-cluster marker map that owner runs replaced.

MarkerModel keeps one (owner key, sequence number) entry per allocated
cluster, the representation the volume used before owner runs.  It is
driven by the store's protocol steps and by the pieces the allocation
policy hands out (see record_policy), never by the store's records or its
owner runs, and it rebuilds layouts cluster by cluster the way the old
scanner did.  It is slow on purpose and only fit for small volumes.
"""

from fraglab.volume import Extent


class MarkerModel:
    def __init__(self):
        self.markers = {}        # cluster -> (key, seq)
        self.pieces = []         # pieces handed out by the policy since begin()
        self.piece_count = {}    # key -> live allocation pieces
        self.generation = {}     # oid -> committed replacements

    def begin(self):
        self.pieces = []

    def mark(self, key):
        """What the old allocation stream did: tag each cluster in piece order."""
        seq = 0
        for ext in self.pieces:
            for cluster in range(ext.offset, ext.end):
                self.markers[cluster] = (key, seq)
                seq += 1
        self.piece_count[key] = len(self.pieces)
        self.pieces = []

    def clear(self, key):
        for cluster in [c for c, (k, _s) in self.markers.items() if k == key]:
            del self.markers[cluster]
        self.piece_count.pop(key, None)

    def compact(self):
        """The old log cleaner: live clusters slide to 0 in address order."""
        self.markers = {i: self.markers[c] for i, c in enumerate(sorted(self.markers))}

    @property
    def live_pieces(self):
        return sum(self.piece_count.values())

    def layout(self):
        by_key = {}
        for cluster, (key, seq) in self.markers.items():
            by_key.setdefault(key, []).append((seq, cluster))
        layout = {}
        for key, pairs in by_key.items():
            pairs.sort()
            assert [seq for seq, _c in pairs] == list(range(len(pairs)))
            extents = []
            for _seq, cluster in pairs:
                if extents and extents[-1].end == cluster:
                    extents[-1] = Extent(extents[-1].offset, extents[-1].length + 1)
                else:
                    extents.append(Extent(cluster, 1))
            layout[key] = extents
        return layout


def expand_owner_runs(owners):
    """Owner runs as a per-cluster marker map, for comparison with the model."""
    out = {}
    for offset, (length, key, seq) in owners.items():
        for i in range(length):
            assert offset + i not in out, f"owner runs overlap at {offset + i}"
            out[offset + i] = (key, seq + i)
    return out


def record_policy(policy, model):
    """Report every piece the policy allocates, and every cleaner pass, to the model."""
    inner_alloc = policy.alloc

    def alloc(volume, requests):
        out = inner_alloc(volume, requests)
        model.pieces.extend(out)
        return out

    policy.alloc = alloc
    if hasattr(policy, "clean"):
        inner_clean = policy.clean

        def clean(store):
            moved = inner_clean(store)
            model.compact()
            return moved

        policy.clean = clean
    return policy
