"""The snapshot half of the input gate: one-row mutations of an aged snapshot, through `fraglab scan`.

A real aged snapshot takes one change at a time to one free, deferred, owner or
object row, or to a top-level field. The change duplicates the row, drops it,
or moves a run to the other run list. Or it sets one of the row's numbers to
one more or one less (a shift, or an overlap with the neighbouring run), to
-1, to 0, to the volume's end or far past it, or to another JSON type. One more
change splits an object's extent, with its owner run, into two pieces that
touch; only a record-only check can refuse that.

documented_exit computes, from the rows alone and cluster by cluster, the exit
code that the README's snapshot rules give: 2 for a malformed row, 4 for owner
runs that disagree with the free runs or the records, 2 for a record that no
store builds, and 0 otherwise. Each case must exit with that code, with one
stderr line when the code is not 0. A snapshot that loads must give a store
that passes the deep audit and verify_layout and holds JSON integers where a
snapshot must. Deleting any one check from ObjectStore.from_state or
Volume.from_state changes the exit code of some case.
"""

import copy
import json
from itertools import chain

from fraglab import cli, harness
from fraglab.errors import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK
from fraglab.store import ObjectStore
from fraglab.workload import bulk_load, run_to_age


def aged_state():
    """A 512-cluster first-fit store aged to 2 with deferred frees left staged: 7 free, 4 deferred
    and 36 owner rows, and 16 objects, 11 of them in more than one extent."""
    doc = {"volume": {"total_clusters": 512, "cluster_size": 4096},
           "store": {"policy": {"kind": "first_fit", "fragmenting": True}, "write_request_size": 16384,
                     "free_mode": "deferred", "checkpoint_every": 4},
           "workload": {"n_objects": 16, "size_dist": {"kind": "uniform", "mean": 65536, "half_width": 49152},
                        "target_age": 2.0, "seed": 2, "measurement_ages": [2.0]}}
    config = harness.ExperimentConfig.from_dict(doc)
    store = config.build()
    bulk_load(store, config.workload)
    run_to_age(store, config.workload)
    return store.to_state()


def is_int(x) -> bool:
    return type(x) is int


def is_id(x) -> bool:
    return type(x) in (int, str)


def documented_exit(state) -> int:
    """The exit code the README's snapshot rules give a snapshot, from its rows and a cluster map."""
    volume, objects = state["volume"], state["objects"]
    total, turned, free_mode = volume["total_clusters"], state["bytes_turned_over"], state["config"]["free_mode"]
    runs = volume["free"] + volume["deferred"]
    numbers = [*chain.from_iterable(runs), *(x for o, n, _k, s in volume["owners"] for x in (o, n, s)), turned,
               *(x for _i, size, gen, extents in objects for x in (size, gen, *chain.from_iterable(extents)))]
    ids = [row[0] for row in objects]
    if (not is_int(state["version"]) or state["version"] != 4 or free_mode not in ("deferred", "immediate")
            or not all(map(is_int, numbers)) or not all(map(is_id, ids + [run[2] for run in volume["owners"]]))
            or len(set(ids)) < len(ids) or turned < 0 or any(n < 1 or not 0 <= o <= total - n for o, n in runs)
            or any(size < 1 or gen < 0 for _i, size, gen, _extents in objects)
            or free_mode == "immediate" and volume["deferred"]):
        return EXIT_CONFIG
    holder = [None] * total

    def claim(offset, length, who) -> bool:
        if length < 1 or offset < 0 or offset + length > total or any(holder[offset:offset + length]):
            return False
        holder[offset:offset + length] = [who] * length
        return True

    if not all(claim(o, n, "free") for o, n in runs):
        return EXIT_INVARIANT
    layouts = {}
    for o, n, key, seq in sorted(volume["owners"], key=lambda run: run[3]):
        if not claim(o, n, "owned"):
            return EXIT_INVARIANT
        layouts.setdefault(key, []).append((seq, [o, n]))
    if None in holder:
        return EXIT_INVARIANT
    for pieces in layouts.values():
        expected = 0
        for seq, (_o, n) in pieces:
            if seq != expected:
                return EXIT_INVARIANT
            expected = seq + n
    if {key: [ext for _seq, ext in pieces] for key, pieces in layouts.items()} != {row[0]: row[3] for row in objects}:
        return EXIT_INVARIANT
    for _i, size, _gen, extents in objects:
        if (size > sum(n for _o, n in extents) * volume["cluster_size"]
                or any(o == po + pn for (po, pn), (o, _n) in zip(extents, extents[1:]))):
            return EXIT_CONFIG
    return EXIT_OK


def values(x, total):
    """What one number of a row is set to: shifted by one, -1, 0, the volume's end, far past it, retyped."""
    return [x - 1, x + 1, -1, 0, total, 1 << 40, float(x), str(x), True, None]


def split_extent(state, i):
    """Split object i's first extent of two or more clusters, and its owner run, into touching pieces."""
    extents = state["objects"][i][3]
    j = next(j for j, (_o, n) in enumerate(extents) if n > 1)
    o, n = extents[j]
    extents[j:j + 1] = [[o, 1], [o + 1, n - 1]]
    owners = state["volume"]["owners"]
    r = next(r for r, run in enumerate(owners) if run[0] == o)
    _o, _n, key, seq = owners[r]
    owners[r:r + 1] = [[o, 1, key, seq], [o + 1, n - 1, key, seq + 1]]


def mutations(state):
    """(name, mutated copy of state) for each one-row change, at the first, middle and last row of each list."""
    total = state["volume"]["total_clusters"]
    out = []

    def case(name, change):
        mutated = copy.deepcopy(state)
        change(mutated)
        out.append((name, mutated))

    def put(path, value):
        def change(s):
            node = s
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
        return change

    paths = [("version",), ("bytes_turned_over",)]
    case("free_mode immediate", put(("config", "free_mode"), "immediate"))
    for name, other in (("free", "deferred"), ("deferred", "free"), ("owners", None)):
        rows = state["volume"][name]
        for i in sorted({0, len(rows) // 2, len(rows) - 1}):
            case(f"{name}[{i}] duplicated", lambda s: s["volume"][name].append(s["volume"][name][i]))
            case(f"{name}[{i}] dropped", lambda s: s["volume"][name].pop(i))
            if other:
                case(f"{name}[{i}] moved to {other}", lambda s: s["volume"][other].append(s["volume"][name].pop(i)))
            paths += [("volume", name, i, field) for field in range(len(rows[i]))]
    objects = state["objects"]
    for i in sorted({0, len(objects) // 2, len(objects) - 1}):
        case(f"objects[{i}] duplicated", lambda s: s["objects"].append(s["objects"][i]))
        case(f"objects[{i}] dropped", lambda s: s["objects"].pop(i))
        case(f"objects[{i}] first extent dropped", lambda s: s["objects"][i][3].pop(0))
        case(f"objects[{i}] first extent duplicated", lambda s: s["objects"][i][3].append(s["objects"][i][3][0]))
        case(f"objects[{i}] extent split with its owner run", lambda s: split_extent(s, i))
        paths += [("objects", i, field) for field in range(3)] + [("objects", i, 3, 0, 0), ("objects", i, 3, 0, 1)]
    for path in paths:
        node = state
        for step in path:
            node = node[step]
        for value in values(node, total):
            case(f"{'.'.join(map(str, path))} = {value!r}", put(path, value))
    return out


def check_loaded(path):
    """A snapshot that loads gives a store that audits and verifies clean, with JSON integer rows."""
    store = harness.load_snapshot(path)
    store.volume.audit(deep=True)
    store.verify_layout()
    state = store.to_state()
    volume = state["volume"]
    assert all(map(is_int, [*chain.from_iterable(volume["free"]), *chain.from_iterable(volume["deferred"]),
                            *(x for o, n, _k, s in volume["owners"] for x in (o, n, s)), state["bytes_turned_over"],
                            *(x for _i, size, gen, ext in state["objects"] for x in (size, gen, *chain(*ext)))]))
    assert all(map(is_id, [run[2] for run in volume["owners"]] + [row[0] for row in state["objects"]]))
    assert ObjectStore.from_state(json.loads(json.dumps(state))).to_state() == state


def test_every_one_row_mutation_exits_with_its_documented_code(tmp_path, capsys):
    state = aged_state()
    volume = state["volume"]
    assert len(volume["free"]) > 2 and len(volume["deferred"]) > 2 and documented_exit(state) == EXIT_OK
    path = tmp_path / "snap.json"
    wrong, codes, messages = [], set(), []
    for name, mutated in mutations(state):
        path.write_text(json.dumps(mutated))
        capsys.readouterr()
        code = cli.main(["scan", str(path)])   # any exception but a FraglabError fails the test
        err = capsys.readouterr().err
        if code != documented_exit(mutated) or len(err.splitlines()) != (code != EXIT_OK):
            wrong.append((name, code, err))
        elif code == EXIT_OK:
            check_loaded(path)
        codes.add(code)
        messages.append(err)
    assert wrong == []
    assert codes == {EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT}
    # the record-only refusals, which a scan of the owner runs alone would pass
    for refusal in ("has consecutive extents that touch", "more than its"):
        assert any(refusal in message for message in messages), refusal
