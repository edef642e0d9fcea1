"""The error taxonomy: a config rule raises ConfigurationError on every path,
and UsageError is left to the operations whose preconditions it reports."""

import ast
import inspect
from pathlib import Path

import pytest

import fraglab
from fraglab import errors, harness, schema
from fraglab.alloc import BuddyPolicy, NtfsLikePolicy
from fraglab.errors import ConfigurationError, FraglabError
from fraglab.store import ObjectStore, StoreConfig
from fraglab.volume import create_volume
from fraglab.workload import SizeDist, WorkloadSpec

from test_config import config_doc, occupancy_doc

SRC = Path(fraglab.__file__).resolve().parent

# the functions whose precondition failures UsageError (and NotFoundError) report
PRECONDITIONS = {"ObjectStore.put_new", "ObjectStore.safe_write", "ObjectStore._require",
                 "ObjectStore._refuse_in_flight", "bulk_load", "run_to_age", "AllocPolicy.alloc"}
ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)}


def _name(node) -> str | None:
    """The name a call or raise refers to: f for f(...), m.f for m.f(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def taxonomy_breaches(tree: ast.AST, where: str) -> list[str]:
    """Each check_bounds call given an error class, and each UsageError raised outside PRECONDITIONS."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _name(child) == "check_bounds":
                passed = child.args[1:] + [kw.value for kw in child.keywords]
                if any(_name(arg) in ERROR_CLASSES for arg in passed):
                    found.append(f"{where}:{child.lineno} check_bounds given an error class")
            if (isinstance(child, ast.Raise) and child.exc is not None
                    and _name(child.exc) in ("UsageError", "NotFoundError") and scope not in PRECONDITIONS):
                found.append(f"{where}:{child.lineno} {_name(child.exc)} in {scope or 'module'}")
            walk(child, inner)

    walk(tree, "")
    return found


def test_check_bounds_takes_no_error_class():
    assert list(inspect.signature(schema.check_bounds).parameters) == ["path", "values"]


def test_usage_errors_are_left_to_operation_preconditions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += taxonomy_breaches(ast.parse(path.read_text(), str(path)), path.name)
    assert found == []


def test_the_guard_sees_each_kind_of_breach():
    source = '''
def rule(x):
    check_bounds("store", UsageError, x=x)
    check_bounds("store", x=x)
    raise UsageError("a config rule")

class ObjectStore:
    def put_new(self):
        raise UsageError("a precondition")

    def validate(self):
        raise errors.NotFoundError("a config rule")
'''
    assert taxonomy_breaches(ast.parse(source), "m.py") == [
        "m.py:3 check_bounds given an error class", "m.py:5 UsageError in rule",
        "m.py:12 NotFoundError in ObjectStore.validate"]


def raised_by(*builds) -> list[FraglabError]:
    """The error each build raises; each must raise one."""
    out = []
    for build in builds:
        with pytest.raises(FraglabError) as info:
            build()
        out.append(info.value)
    return out


def test_n_objects_out_of_range_is_one_class_given_or_resolved():
    given = config_doc()
    given["workload"]["n_objects"] = 1 << 24
    # 2**30 clusters of 4 KiB, half full of 128 KiB objects: 2**24 of them
    resolved = occupancy_doc(0.5, total_clusters=1 << 30)
    refused = raised_by(lambda: harness.ExperimentConfig.from_dict(given),
                        lambda: harness.ExperimentConfig.from_dict(resolved),
                        lambda: WorkloadSpec(1 << 24, SizeDist(), 1.0))
    assert {type(exc) for exc in refused} == {ConfigurationError}
    line = "workload.n_objects must be >= 1 and < 16777216, not 16777216"
    assert [str(exc) for exc in refused] == [line, f"{line} (resolved from workload.occupancy 0.5)", line]


def policy_doc(policy, **store):
    doc = config_doc(**store)
    doc["store"]["policy"] = policy
    return doc


@pytest.mark.parametrize("doc, config, line", [
    (policy_doc({"kind": "ntfs_like"}, free_mode="immediate"),
     lambda: StoreConfig(NtfsLikePolicy(), free_mode="immediate"),
     "ntfs_like requires free_mode='deferred'"),
    (policy_doc({"kind": "buddy", "params": {"min_order": 12}}),
     lambda: StoreConfig(BuddyPolicy(min_order=12)),
     "buddy min_order 12 exceeds the volume's largest block order 11"),
], ids=["ntfs_like_immediate", "buddy_min_order"])
def test_policy_rule_is_one_class_from_config_or_library(doc, config, line):
    # config_doc's volume is 2048 clusters of 4 KiB
    refused = raised_by(lambda: harness.ExperimentConfig.from_dict(doc).validate(),
                        lambda: ObjectStore(create_volume(2048, 4096), config()))
    assert [(type(exc), str(exc)) for exc in refused] == [(ConfigurationError, line)] * 2
