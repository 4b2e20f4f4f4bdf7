"""The checker's boundary: one module that needs nothing of the solver."""

import ast
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from pavcore import checker, cli, exactlp, proofs
from pavcore.checker import FarkasCertificate, Row, farkas_sums
from pavcore.proofs import (
    enumerate_histories,
    history_system,
    history_verdict,
    iter_shapes,
    program3_history,
)

from test_proofs import (
    CACHE_HISTORIES,
    grown_first_deviation,
    other_first_deviation,
    other_last_deviation,
    siblings_of,
)

#: What the checker holds: the integer rows, the checks of a certificate, a
#: point and a bound, and the reference builder.
CHECKER_NAMES = [
    "_INT64_SAFE", "Row", "FarkasCertificate", "FarkasSums", "farkas_sums", "verify_farkas",
    "verify_point", "_homogenized", "verify_bound",
    "_bits", "_ROW_CACHES", "_cached", "clear_row_caches", "_normalization_row",
    "_supporting", "_ReferenceStep", "_CHUNK", "_ReferenceRows", "_build_rows",
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


# ---------------------------------------------------------------------------
# The Farkas check over the step blocks against the check over `Row`s.


def search_certificates(m, k):
    return list(enumerate_histories(m, k).certificates.items())


def program3_certificates(top_k):
    cases = []
    for k in range(1, top_k + 1):
        for shape in iter_shapes(k):
            h = program3_history(k, shape)
            certificate = history_verdict(h).certificate
            if certificate is not None:
                cases.append((h, certificate))
    return cases


CERTIFICATE_CASES = {
    "histories (10, 8)": lambda: search_certificates(10, 8),
    "histories (12, 7)": lambda: search_certificates(12, 7),
    "program3 k <= 5": lambda: program3_certificates(5),
}


def assert_same_check(rows, certificate, plain=None):
    """`farkas_sums` on the builder's rows, summed over its step blocks, and
    on ``plain``, a list of the same rows made one by one (by default the
    rows the certificate uses), give the same verdict and, at a common
    scale, the same sums over every ballot and the same y.b. Returns the
    verdict."""
    assert isinstance(rows, checker._ReferenceRows)
    if plain is None:
        plain = [rows[i] if i in certificate.nonzero else None for i in range(len(rows))]
    assert not isinstance(plain, checker._ReferenceRows)
    blocked, summed = farkas_sums(rows, certificate), farkas_sums(plain, certificate)
    assert (blocked is None) == (summed is None), certificate
    if blocked is None:
        return False
    assert blocked.sums.size == rows.masks.size
    wide = np.zeros(blocked.sums.size, dtype=object)
    wide[: summed.sums.size] = summed.sums
    assert blocked.value == summed.value
    assert (blocked.sums.astype(object) * summed.scale == wide * blocked.scale).all()
    return True


def single_mutants(certificate):
    """Each nonzero multiplier zeroed, negated, halved (rounded down) or
    raised by 1, the others kept."""
    y, n_rows = certificate.nonzero, certificate.n_rows
    for i, v in y.items():
        for w in (0, -v, v // 2, v + 1):
            yield FarkasCertificate(n_rows, {**y, i: w})


@pytest.mark.parametrize("name", list(CERTIFICATE_CASES))
def test_block_sums_equal_the_row_sums_on_certificates_and_mutants(name):
    cases = CERTIFICATE_CASES[name]()
    assert cases
    verdicts = []
    for h, certificate in cases:
        rows = history_system(h)
        plain = list(rows)
        assert assert_same_check(history_system(h, certificate.nonzero), certificate)
        verdicts += [assert_same_check(rows, wrong, plain) for wrong in single_mutants(certificate)]
        # Multipliers this large sum in Python ints on both paths.
        y, n_rows = certificate.nonzero, certificate.n_rows
        large = FarkasCertificate(n_rows, {i: v << 62 for i, v in y.items()})
        assert farkas_sums(rows, large).sums.dtype == object
        assert assert_same_check(rows, large, plain)
        top = max(y)
        assert_same_check(rows, FarkasCertificate(n_rows, {**y, top: y[top] + (1 << 62)}), plain)
        # A wrong multiplier count raises on both paths.
        shorter = FarkasCertificate(n_rows - 1, {i: v for i, v in y.items() if i < n_rows - 1})
        for wrong in (shorter, FarkasCertificate(n_rows + 1, y)):
            for system in (rows, plain):
                with pytest.raises(ValueError, match="multipliers"):
                    farkas_sums(system, wrong)
    # Most mutants fail, but not all: some still certify.
    assert 0 < sum(verdicts) < len(verdicts)


def test_block_sums_in_chunks_of_rows(monkeypatch):
    # Below m = 13 a step's used rows fit one chunk; at (10, 8), over 1023
    # ballots, chunks of one row and of two give the same sums.
    cases = search_certificates(10, 8)
    for rows_per_chunk in (1, 2):
        monkeypatch.setattr(checker, "_CHUNK", rows_per_chunk * 1023)
        for h, certificate in cases:
            assert assert_same_check(history_system(h, certificate.nonzero), certificate)


def fill_caches(m, k, steps):
    """The builder's caches as checking a certificate of ``steps`` leaves
    them: the steps, each with its block."""
    rows, _ = checker._build_rows(m, k, steps)
    for step in rows.steps:
        step.block


@pytest.mark.parametrize("h", CACHE_HISTORIES, ids=lambda h: repr(h.mask_steps()))
def test_warm_block_sums_equal_cold_ones(h):
    # As for the rows themselves (`TestRowCaches`): the sums over blocks
    # that other histories left in the caches equal those over blocks
    # built with empty caches. Among the fillers, another T_last shares
    # the last step's block, and the same W_last after another T_1 must not.
    certificate = history_verdict(h).certificate

    def check():
        return farkas_sums(history_system(h, certificate.nonzero), certificate)

    checker.clear_row_caches()
    cold = check()
    assert cold is not None
    assert assert_same_check(history_system(h, certificate.nonzero), certificate)
    fillers = [(h.k, s.mask_steps()) for s in siblings_of(h)]
    fillers.append((h.k, other_first_deviation(h).mask_steps()))
    fillers += [(h.k, other_last_deviation(h)), (h.k, grown_first_deviation(h))]
    fillers += [(k, h.mask_steps()) for k in (h.k - 1, h.k + 1)]
    for k, steps in fillers:
        checker.clear_row_caches()
        fill_caches(h.m, k, steps)
        warm = check()
        assert warm.scale == cold.scale and warm.value == cold.value, (k, steps)
        assert np.array_equal(warm.sums, cold.sums), (k, steps)


def test_the_check_makes_no_row(monkeypatch):
    # The search's check and check-certificates sum a certificate over the
    # step blocks: with empty caches, not one `Row` is made.
    cases = search_certificates(10, 8)
    assert {len(h.steps) for h, _ in cases} == {1, 2}

    def refuse(*args, **kwargs):
        raise AssertionError("a Row was made")

    monkeypatch.setattr(Row, "from_arrays", classmethod(refuse))
    monkeypatch.setattr(Row, "__init__", refuse)
    checker.clear_row_caches()
    for h, certificate in cases:
        assert proofs._verify_certificate_fast(h, certificate) is not None


def test_rows_are_made_when_read():
    # A swap row's `Row` is made once, when it is first read, and is the
    # one every later read of the same step returns; a row outside the
    # selection reads None.
    h, certificate = max(search_certificates(10, 8), key=lambda case: len(case[1].nonzero))
    checker.clear_row_caches()
    rows = history_system(h, certificate.nonzero)
    assert all(not step._rows for step in rows.steps)
    used = sorted(certificate.nonzero)
    swap = next(i for i in used if 2 <= i < rows.starts[-1])
    assert rows[swap] is history_system(h)[swap]
    assert rows[used[-1]].tag[0] == "deviation"
    unused = next(i for i in range(len(rows)) if i not in certificate.nonzero)
    assert rows[unused] is None and rows[-1] == rows[len(rows) - 1]


@pytest.mark.paperscale
def test_block_sums_equal_the_row_sums_at_12_8():
    cases = search_certificates(12, 8)
    assert len(cases) == 1041
    for h, certificate in cases:
        assert assert_same_check(history_system(h, certificate.nonzero), certificate), h
