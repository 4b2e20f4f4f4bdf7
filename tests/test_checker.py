"""The checker's boundary: one module that needs nothing of the solver."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from pavcore import checker, cli, exactlp, proofs

#: What the checker holds: the integer rows, the checks of a certificate, a
#: point and a bound, and the reference builder.
CHECKER_NAMES = [
    "_INT64_SAFE", "Row", "FarkasCertificate", "FarkasSums", "farkas_sums", "verify_farkas",
    "verify_point", "_homogenized", "verify_bound",
    "_bits", "_ROW_CACHES", "_cached", "clear_row_caches", "_reference_masks",
    "_supporting", "_ReferenceStep", "_build_rows",
]


def foreign_imports(source: str) -> list[str]:
    """The imports of ``source`` other than ``__future__``, the standard
    library and numpy: every relative import among them."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.level, node.module or "")]
        else:
            continue
        found += [
            "." * level + name
            for level, name in names
            if level or name.partition(".")[0] not in allowed
        ]
    return found


def test_the_checker_imports_only_the_standard_library_and_numpy():
    source = Path(checker.__file__).read_text(encoding="utf-8")
    assert "import numpy as np" in source
    assert foreign_imports(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .exactlp import _Problem",
        "from . import proofs",
        "import pavcore.exactlp",
        "from pavcore import exactlp",
        "def f():\n    from .proofs import History",
        "import scipy.optimize",
    ],
)
def test_the_boundary_refuses_any_other_import(source):
    assert foreign_imports(source)


def test_the_checker_holds_its_names_and_the_solver_none_of_them():
    for name in CHECKER_NAMES:
        value = getattr(checker, name)
        assert getattr(value, "__module__", "pavcore.checker") == "pavcore.checker", name
    assert not {
        "Row", "FarkasSums", "farkas_sums", "verify_farkas", "verify_point", "verify_bound"
    } & vars(exactlp).keys()


def test_the_solver_answers_feasibility_only():
    # An optimum is a bound certified through the feasibility path
    # (`proofs.lemma2_suite`), so the solver holds no objective; and the
    # checker accepts every point and bound, so the solver checks neither.
    removed = {"maximize", "Optimal", "Unbounded", "MaximizeResult", "verify_optimum"}
    assert not removed & vars(exactlp).keys()
    assert not hasattr(exactlp._Problem, "satisfied_by")
    assert list(inspect.signature(exactlp._Problem.column_gaps).parameters) == ["self", "y"]
    for method in (
        exactlp._Master.solve, exactlp._Master._load, exactlp._Master._pivot_loop,
        exactlp._Problem.violations,
    ):
        params = set(inspect.signature(method).parameters)
        assert not params & {"objective", "cost", "allowed"}, method.__name__


def test_the_benchmark_pins_are_the_checker_functions():
    # bench/layers.py times these names where they are looked up.
    assert proofs._build_rows is checker._build_rows
    assert cli.verify_farkas is checker.verify_farkas
