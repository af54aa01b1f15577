"""The package's dataclasses follow one rule for equality and pickling."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import stagbench
from stagbench import algorithms, core, harness
from stagbench.benchmarks import objective

BOX = core.Bounds(-100.0, 100.0, 3)
CFG = harness.ExperimentConfig(functions=("zhou1",), algorithms=("gwo",),
                               T_values=(10,), runs=1, max_generations=200)

# Each dataclass with a factory that builds a fresh instance, equal in every
# field to the one before.
VALUE_TYPES = {
    core.Bounds: lambda: core.Bounds(-1, 1, 3),
    harness.ExperimentConfig: lambda: harness.ExperimentConfig(runs=2),
    harness.Curve: lambda: harness.Curve((0, 3), (2.0, 1.0), 5),
    harness.SummaryRow: lambda: harness.SummaryRow(
        "zhou1", 100, "gwo", 1e6, 0.0, 250.0, 30),
}
ARRAY_HOLDERS = {
    harness.RunRecord: lambda: harness.run_single("zhou1", "gwo", 10, 0, CFG),
    algorithms.AlgoState: lambda: algorithms.init(
        "gwo", objective("zhou1", BOX), core.derive_stream(5, ["rule"]), 100),
    core.ObjectiveSpec: lambda: objective("zhou1", BOX),
    core.BestTracker: lambda: core.BestTracker(np.zeros(3), 0.0),
}


def _name(cls) -> str:
    return cls.__name__


def _dataclasses():
    """Every dataclass defined in a module of the package."""
    for info in pkgutil.walk_packages(stagbench.__path__, "stagbench."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) \
                    and obj.__module__ == module.__name__:
                yield obj


class TestOneEqualityAndPicklingRule:
    """A dataclass generates ``__eq__`` (and, when frozen, ``__hash__``)
    exactly when every field compares by value; one that holds an ndarray,
    a callable or a generator declares ``eq=False``, so its instances
    compare and hash by identity instead of raising.  Every dataclass
    pickles with the stock dataclass machinery, with no ``__reduce__`` of
    its own."""

    def test_every_dataclass_is_listed_once(self):
        assert sorted(map(_name, _dataclasses())) == sorted(
            map(_name, [*VALUE_TYPES, *ARRAY_HOLDERS]))

    @pytest.mark.parametrize("cls", list(_dataclasses()), ids=_name)
    def test_no_dataclass_pickles_by_its_own_rule(self, cls):
        assert "__reduce__" not in vars(cls)
        assert "__reduce_ex__" not in vars(cls)

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=_name)
    def test_value_type_compares_and_hashes_by_value(self, cls):
        a, b = VALUE_TYPES[cls](), VALUE_TYPES[cls]()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=_name)
    def test_array_holder_compares_and_hashes_by_identity(self, cls):
        assert "__eq__" not in vars(cls)
        a, b = ARRAY_HOLDERS[cls](), ARRAY_HOLDERS[cls]()
        assert a == a and a != b
        assert len({a, b}) == 2
