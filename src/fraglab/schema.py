"""The config schema: each field of an experiment config, declared once.

FIELDS gives each leaf's dotted path, JSON type, default (REQUIRED: none;
None: absent unless given) and range; a field may exist under one policy kind
only, or have its value fixed by some kinds.  parse() checks a document's shape,
types and required and unknown keys, and returns it canonical, defaults filled
in.  Each object built from a section checks its values' ranges through
check_bounds(), and keeps the checks that relate two values; each raises
ConfigurationError, never UsageError (see errors).  dump() reads the canonical
form back off those objects, whose dataclasses take defaults via default().
A type is int, float, bool, str, dict, list, [t] (an array of t) or
(t1, t2, ...) (an array of exactly those).
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import field
from typing import NamedTuple

from .errors import ConfigurationError

REQUIRED = object()


class Field(NamedTuple):
    path: str
    type: object
    default: object = REQUIRED
    kind: str | None = None   # policy params: the one policy kind that takes them
    fixed: dict | None = None  # policy kind -> its value here, its default and the only one allowed
    bound: tuple | None = None  # a number's (least, below or None): least <= it < below; a string's values


FIELDS = (
    Field("volume.total_clusters", int, bound=(1, None)),
    Field("volume.cluster_size", int, 4096, bound=(1, None)),
    Field("volume.seek_time", float, 0.008, bound=(0, None)),   # seconds per extent read
    Field("volume.bands", [(int, int, float)], None),   # [start, end, bytes/s]; None: default_bands
    Field("store.policy.kind", str, "first_fit"),
    # the fits take the flag; buddy never fragments, ntfs_like and log_append always may
    Field("store.policy.fragmenting", bool, True,
          fixed={"buddy": False, "ntfs_like": True, "log_append": True}),
    Field("store.policy.params.cache_depth", int, 32, "ntfs_like", bound=(1, 1 << 63)),
    Field("store.policy.params.min_order", int, 0, "buddy", bound=(0, None)),
    Field("store.write_request_size", int, 65536),
    Field("store.size_hint", bool, False),
    Field("store.checkpoint_every", int, 1, bound=(1, None)),
    Field("store.free_mode", str, "deferred", bound=("deferred", "immediate")),
    # exactly one of n_objects and occupancy; below 2**24 the victim draws' bias stays below 2**-40
    Field("workload.n_objects", int, None, bound=(1, 1 << 24)),
    Field("workload.occupancy", float, None, bound=(0, 1)),
    Field("workload.size_dist.kind", str, "constant", bound=("constant", "uniform")),
    Field("workload.size_dist.mean", int, 1 << 20, bound=(1, 1 << 63)),
    Field("workload.size_dist.half_width", int, 0, bound=(0, None)),   # and < mean
    Field("workload.target_age", float, 0.0, bound=(0, None)),
    Field("workload.seed", int, 0),
    Field("workload.read_fraction", float, 0.0, bound=(0, 1)),
    Field("workload.measurement_ages", [float], []),
    Field("outputs.csv", str, None),
    Field("outputs.json", str, None),
)

# grid axes, in cell-key order: the key prefix and the config path each overrides
AXES = {
    "policy": ("pol", "store.policy"),
    "total_clusters": ("vol", "volume.total_clusters"),
    "occupancy": ("occ", "workload.occupancy"),
    "write_request_size": ("wrs", "store.write_request_size"),
    "size_dist": ("dist", "workload.size_dist"),
}

GRID_FIELDS = (
    Field("base", dict),
    *(Field(f"axes.{name}", list, None) for name in AXES),
    Field("seeds", [int], [0]),
    *(f for f in FIELDS if f.path.startswith("outputs.")),
)

# the report's config_echo: these canonical fields, keyed by leaf name ("policy" for the kind)
ECHO = {"policy": "store.policy.kind", **{path.rsplit(".", 1)[1]: path for path in (
    "store.policy.fragmenting", "workload.seed", "workload.n_objects", "workload.size_dist",
    "workload.target_age", "workload.read_fraction", "store.write_request_size", "store.size_hint",
    "store.checkpoint_every", "store.free_mode", "volume.total_clusters", "volume.cluster_size",
)}}


def _tree(fields) -> dict:
    root: dict = {}
    for f in fields:
        *sections, leaf = f.path.split(".")
        node = root
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = f
    return root


CONFIG = _tree(FIELDS)
GRID = _tree(GRID_FIELDS)
DEFAULTS = {f.path: f.default for f in FIELDS}


def default(path: str):
    """The table's default as a dataclass field default (a fresh copy when mutable)."""
    value = DEFAULTS[path]
    if isinstance(value, list):
        return field(default_factory=lambda: list(value))
    return value


def fixed_value(path: str, kind: str | None, value, otherwise):
    """The value kind fixes at path (any other is a ConfigurationError), else value, else otherwise."""
    fixed = next(f.fixed for f in FIELDS if f.path == path) or {}
    if kind in fixed and value not in (None, fixed[kind]):
        raise ConfigurationError(f"{path} must be {json.dumps(fixed[kind])} for {kind},"
                                 f" not {json.dumps(value)}")
    return fixed.get(kind, otherwise if value is None else value)


def _node(path: str, tree: dict):
    for name in filter(None, path.split(".")):
        tree = tree[name]
    return tree


def parse(doc, path: str = "", tree: dict = CONFIG):
    """Check doc as the node at path (a whole config by default); return it canonical."""
    node = _node(path, tree)
    if isinstance(node, Field):
        return check_type(doc, node.type, path)
    return _section(doc, node, path)


def _section(doc, node: dict, where: str, kind: str | None = None) -> dict:
    if where == "store.policy" and isinstance(doc, str):
        doc = {"kind": doc}   # a policy may be given by its kind alone
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where or 'the document'} must be an object")
    # a field tagged with a policy kind exists only under that kind
    node = {k: v for k, v in node.items() if isinstance(v, dict) or v.kind in (None, kind)}
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in node and not (key == "comment" and not where):
            raise ConfigurationError(f"unknown key {prefix}{key}")
    out = {}
    for name, spec in node.items():
        path = prefix + name
        if isinstance(spec, dict):
            # a section's kind field, read before its subsections, selects their fields
            out[name] = _section(doc.get(name, {}), spec, path, out.get("kind", kind))
        elif name not in doc or (doc[name] is None and spec.default is None):
            if spec.default is REQUIRED:
                raise ConfigurationError(f"missing {path}")
            out[name] = copy.deepcopy(spec.default)
        else:
            out[name] = check_type(doc[name], spec.type, path)
        if not isinstance(spec, dict) and spec.fixed:
            out[name] = fixed_value(path, out.get("kind", kind), doc.get(name), out[name])
    return out


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", list: "an array"}


def check_type(value, spec, where: str):
    """The value if it has the JSON type spec (an array spec checks each item); else one-line error."""
    if isinstance(spec, (list, tuple)):
        row = isinstance(spec, tuple)
        if not isinstance(value, (list, tuple)) or (row and len(value) != len(spec)):
            raise ConfigurationError(f"{where} must be an array{f' of {len(spec)}' if row else ''}")
        specs = spec if row else spec * len(value)
        items = [check_type(v, s, f"{where}[{i}]") for i, (v, s) in enumerate(zip(value, specs))]
        return tuple(items) if row else items
    if (spec is float and isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):   # a larger integer has no float value: refused below
        value = float(value)
    if (not isinstance(value, spec) or (isinstance(value, bool) and spec is not bool)
            or (spec is float and not math.isfinite(value))):
        raise ConfigurationError(f"{where} must be {_TYPE_NAMES[spec]}, not {value!r}")
    return value


def check_bounds(path: str, **values) -> None:
    """Raise ConfigurationError, naming its dotted path, on the first leaf of section path outside its bound."""
    for name, spec in _node(path, CONFIG).items():
        if name in values and not isinstance(spec, dict) and spec.bound is not None:
            value = values[name]
            if spec.type is str:
                ok, need = value in spec.bound, " or ".join(map(repr, spec.bound))
            else:
                least, below = spec.bound
                ok = least <= value and (below is None or value < below)
                need = f">= {least}" + ("" if below is None else f" and < {below}")
            if not ok:
                raise ConfigurationError(f"{path}.{name} must be {need}, not {value!r}")


def dump(obj, path: str) -> dict:
    """The canonical section at path, read off the object built from it.

    A field is the attribute of the same name and a subsection the attribute
    of its name, except params, which the policy holds itself.  Fields the
    object does not keep (occupancy, which resolves to n_objects) are left out.
    """
    out = {}
    for name, spec in _node(path, CONFIG).items():
        if isinstance(spec, dict):
            out[name] = dump(obj if name == "params" else getattr(obj, name), f"{path}.{name}")
        elif spec.kind in (None, getattr(obj, "kind", None)) and hasattr(obj, name):
            value = getattr(obj, name)   # an array the object holds as a tuple dumps as a list
            out[name] = copy.deepcopy(list(value) if isinstance(value, tuple) else value)
    return out


def config_echo(volume, store_config, workload) -> dict:
    """The ECHO projection of the canonical config read off a run's objects."""
    doc = {"volume": dump(volume, "volume"), "store": dump(store_config, "store"),
           "workload": dump(workload, "workload")}
    return {key: _node(path, doc) for key, path in ECHO.items()}
