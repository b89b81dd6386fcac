"""The value-class contract: equality by class and fields, hashing and
refused assignment for the table keys, copies, and an import that defines no
dataclass and loads nothing outside the standard library."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lcsforge.autom import FreeEndo, IAGenerator, IAWord, comm_move, conj
from lcsforge.bns import RAAGPresentation
from lcsforge.graphs import UGraph
from lcsforge.johnson import H1Vector
from lcsforge.magnus import TruncatedSeries
from lcsforge.words import Word

SRC = Path(__file__).resolve().parents[1] / "src"


def _inverted_generator():
    g = comm_move(1, 2, 3, -1)
    g.inverse()  # the cached inverse points back at g
    return g


def _realized_word():
    w = IAWord(3, (conj(1, 2), comm_move(3, 1, 2)))
    w.realized
    return w


# (build a value, its fields, values of other classes with the same fields,
#  whether it is a table key that refuses assignment, whether it is copied)
CASES = [
    pytest.param(lambda: Word((1, -2)), ((1, -2),), [(1, -2)], True, True, id="Word"),
    pytest.param(
        lambda: FreeEndo(2, ((1, Word((1, 2))),)),
        (2, ((1, Word((1, 2))),)),
        [H1Vector(2, ((1, Word((1, 2))),))],
        True,
        True,
        id="FreeEndo",
    ),
    pytest.param(_inverted_generator, ("comm", 1, 2, 3, -1), [], True, True, id="IAGenerator"),
    pytest.param(
        _realized_word,
        (3, (conj(1, 2), comm_move(3, 1, 2))),
        [H1Vector(3, (conj(1, 2), comm_move(3, 1, 2)))],
        False,
        True,
        id="IAWord",
    ),
    pytest.param(
        lambda: H1Vector(3, (((1, 2, 3), Fraction(1, 2)),)),
        (3, (((1, 2, 3), Fraction(1, 2)),)),
        [TruncatedSeries(3, (((1, 2, 3), Fraction(1, 2)),))],
        False,
        False,
        id="H1Vector",
    ),
    pytest.param(
        lambda: TruncatedSeries(2, (((), 1), ((1,), 1))),
        (2, (((), 1), ((1,), 1))),
        [H1Vector(2, (((), 1), ((1,), 1)))],
        False,
        False,
        id="TruncatedSeries",
    ),
    pytest.param(
        lambda: RAAGPresentation(3, frozenset({(1, 2)})),
        (3, frozenset({(1, 2)})),
        [H1Vector(3, frozenset({(1, 2)}))],
        False,
        False,
        id="RAAGPresentation",
    ),
    pytest.param(
        lambda: UGraph((1, 2), frozenset({(1, 2)})),
        ((1, 2), frozenset({(1, 2)})),
        [H1Vector((1, 2), frozenset({(1, 2)}))],
        False,
        False,
        id="UGraph",
    ),
]


@pytest.mark.parametrize("make, fields, others, key, copied", CASES)
def test_value_class_contract(make, fields, others, key, copied):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    # never equal to a value of another class, nor to the tuple of its fields
    for other in [*others, fields]:
        assert a != other and other != a and not a == other
    if key:
        assert hash(a) == hash(b) == hash(fields)
        assert len({a, b}) == 1
        for name in ("letters", "rank", "a", "images", "sign"):
            if hasattr(a, name):
                with pytest.raises(AttributeError):
                    setattr(a, name, getattr(a, name))
        assert a == b
    if copied:
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def _run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_defines_no_dataclass():
    """The package builds no class by code generation at import: importing
    every layer in a fresh interpreter leaves ``dataclasses`` unloaded."""
    code = (
        "import sys\n"
        "from lcsforge import autom, bns, cli, finc, graphs, johnson, magnus, words\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _run_fresh(code) == ["False"]


def test_runtime_is_standard_library_only():
    """Importing every module of the package in a fresh interpreter loads no
    module from outside the package and the standard library."""
    names = sorted(
        "lcsforge" + ("" if p.stem == "__init__" else f".{p.stem}")
        for p in (SRC / "lcsforge").glob("*.py")
    )
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = _run_fresh(code)
    assert set(names) <= set(loaded)
    foreign = [
        m for m in loaded
        if m.partition(".")[0] not in ("lcsforge", *sys.stdlib_module_names)
    ]
    assert foreign == []
