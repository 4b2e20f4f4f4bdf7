"""The certificate checker: integer rows, the checks of exact results and
the reference builder. It imports only the standard library and numpy, and
shares no row code with the solver (`exactlp`) or the searches (`proofs`),
so a verdict it accepts does not rest on the code that found it.

It accepts three kinds of evidence on `Row`s: a Farkas certificate, that
the rows have no solution (`verify_farkas`); a point that satisfies them
(`verify_point`), a history's witness; and a bound on an objective over
them (`verify_bound`), a Lemma 2 record, which is checked as the Farkas
certificate of the homogenized rows.

Every history system has one canonical row order: the normalization pair,
swap rows grouped by step and ordered by (x, y), then negated deviation
rows by step. Column j is ballot j + 1 of the m candidates, and every
variable is nonnegative without any row stating it. A certificate holds
one multiplier per row in that order (`FarkasCertificate`), so it can be
re-checked from a compact description of the system.

A `Row` holds integer numerators at increasing columns over one
denominator. `verify_farkas` accepts a certificate iff its multipliers are
nonnegative, ``y . b < 0`` and ``A^T y >= 0``, summed over the rows with a
nonzero multiplier; `farkas_sums` hands those sums to a caller.

The reference builder (`_build_rows`) hands out a history system's rows as
one `_ReferenceRows`, over L = lcm(1..k+1). The swap rows of step t depend
on (m, k), the steps before t and W_t, not on T_t, so it keeps one step
per depth under that key (`_ROW_CACHES`), and the ballot masks of the last
m: siblings, which share a W, share every swap row. A step holds its swap
rows as one dense block, one row per (x, y) and one column per ballot, in
the smallest signed integer type that holds L, built once when a check
first needs it; and the ballots that supported the step before it, which
its siblings share too. A `Row` is made only when a row is read (the
witness check, the Lemma 2 bounds, tests), from the same values as the
block row, so it holds that row's nonzero entries. On the builder's rows
`farkas_sums` makes no `Row`: it sums a certificate block by block
(`_ReferenceRows.farkas_sums`), and sums any other sequence of rows row by
row. Every command and every search starts with empty caches
(`clear_row_caches`).

`bench/layers.py` times `proofs._build_rows` and `cli.verify_farkas`:
both modules import them from here and call them by those names.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

#: Integer sums below this bound cannot overflow int64.
_INT64_SAFE = 2**62


class Row:
    """One inequality ``sum(coeffs[j] * x_j) <= rhs`` with a provenance tag.

    The coefficients have one integer form: coefficient ``nums[i] / den``
    sits at column ``cols[i]``. ``cols`` is an int64 array in strictly
    increasing order; ``nums`` is int64, or a numpy object array of Python
    ints when an entry reaches 2^62; ``den`` is a positive int. A mapping
    passed to the constructor is converted to that form once, explicit
    zeros included; `from_arrays` takes the arrays as they are. ``coeffs``
    reads the row back as a read-only mapping of columns to `Fraction`s.
    Rows are equal when their coefficients, right-hand sides and tags are.
    """

    def __init__(self, coeffs: Mapping[int, Fraction], rhs, tag: tuple):
        items = sorted((int(j), Fraction(c)) for j, c in coeffs.items())
        den = math.lcm(1, *(c.denominator for _, c in items))
        nums = [c.numerator * (den // c.denominator) for _, c in items]
        wide = any(abs(v) >= _INT64_SAFE for v in nums)
        cols = np.array([j for j, _ in items], dtype=np.int64)
        self._set(cols, np.array(nums, dtype=object if wide else np.int64), den, rhs, tag)

    @classmethod
    def from_arrays(cls, cols: np.ndarray, nums: np.ndarray, den: int, rhs, tag: tuple) -> "Row":
        """The row with ``nums[i] / den`` at column ``cols[i]``; the arrays
        become the row's own, read-only."""
        row = cls.__new__(cls)
        row._set(cols, nums, den, rhs, tag)
        return row

    def _set(self, cols, nums, den, rhs, tag) -> None:
        if cols.dtype != np.int64 or nums.dtype not in (np.int64, object):
            raise TypeError("a row holds int64 columns and int64 or object numerators")
        if cols.shape != nums.shape or cols.ndim != 1 or den < 1:
            raise ValueError("a row needs one numerator per column and a positive denominator")
        if cols.size and (cols[0] < 0 or (cols[1:] <= cols[:-1]).any()):
            raise ValueError("row columns must be nonnegative and strictly increasing")
        cols.flags.writeable = nums.flags.writeable = False
        self.cols, self.nums, self.den = cols, nums, int(den)
        self.rhs, self.tag = Fraction(rhs), tag
        #: The largest |numerator|, as a Python int.
        self.max_abs = max(int(nums.max(initial=0)), -int(nums.min(initial=0)))

    @functools.cached_property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Column position -> coefficient."""
        den = self.den
        return MappingProxyType(
            {j: Fraction(v, den) for j, v in zip(self.cols.tolist(), self.nums.tolist())}
        )

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.rhs == other.rhs
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(
                self.nums.astype(object) * other.den, other.nums.astype(object) * self.den
            )
        )

    def __repr__(self) -> str:
        return f"Row(coeffs={dict(self.coeffs)!r}, rhs={self.rhs!r}, tag={self.tag!r})"


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative integer row multipliers proving ``Ax <= b`` infeasible,
    one per row of the system.

    Stored sparsely: ``nonzero`` maps row index to multiplier; all other
    rows carry multiplier 0. ``n_rows`` pins the system size the certificate
    belongs to.
    """

    n_rows: int
    nonzero: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(
            self,
            "nonzero",
            {int(i): int(v) for i, v in self.nonzero.items() if v != 0},
        )
        for i in self.nonzero:
            if not 0 <= i < self.n_rows:
                raise ValueError(f"multiplier index {i} out of range")

    @classmethod
    def from_list(cls, multipliers: Sequence[int]) -> "FarkasCertificate":
        return cls(len(multipliers), {i: int(v) for i, v in enumerate(multipliers) if v != 0})

    def multiplier(self, row_index: int) -> int:
        return self.nonzero.get(row_index, 0)


def verify_farkas(rows: Sequence[Optional[Row]], certificate: FarkasCertificate) -> bool:
    """Check a Farkas certificate exactly, without any solver.

    True iff every multiplier is a nonnegative integer, ``y . b < 0``, and
    ``A^T y >= 0`` componentwise. Then every ``x >= 0`` with ``Ax <= b``
    would give ``0 <= (A^T y) . x = y . Ax <= y . b < 0``, so the system,
    whose variables are all nonnegative, has no solution. The sums are
    those of `farkas_sums`.
    """
    return farkas_sums(rows, certificate) is not None


class FarkasSums(NamedTuple):
    """What the check of a Farkas certificate sums: ``sums[j] / scale`` is
    ``(A^T y)_j`` for every column j below ``len(sums)``, and 0 beyond it;
    ``value`` is ``y . b``."""

    sums: np.ndarray
    scale: int
    value: Fraction


def farkas_sums(
    rows: Sequence[Optional[Row]], certificate: FarkasCertificate
) -> Optional[FarkasSums]:
    """The sums of a certificate that passes `verify_farkas`, else None.

    On the reference builder's rows (`_ReferenceRows`) the sums run over
    its step blocks and make no `Row` (`_ReferenceRows.farkas_sums`). On
    any other sequence, only the rows with a nonzero multiplier are read,
    so the others may be None. ``y . b`` is summed in Python ints over the
    lcm of their right-hand sides' denominators. ``A^T y`` is summed over
    ``L``, the lcm of their row denominators, as ``sums[cols] += nums *
    (mult * L // den)``: in int64 when a bound from each row's largest
    |numerator| (`Row.max_abs`) shows that no sum can overflow, else in
    Python ints. Both signs are exact, and both ways give the same verdict
    and the same ``(A^T y) / scale``.
    """
    if certificate.n_rows != len(rows):
        raise ValueError(
            f"certificate has {certificate.n_rows} multipliers, "
            f"system has {len(rows)} rows"
        )
    if any(v < 0 for v in certificate.nonzero.values()):
        return None
    if isinstance(rows, _ReferenceRows):
        return rows.farkas_sums(certificate)
    used = [(mult, rows[i]) for i, mult in certificate.nonzero.items()]
    d = math.lcm(1, *(row.rhs.denominator for _, row in used))
    value = sum(mult * row.rhs.numerator * (d // row.rhs.denominator) for mult, row in used)
    if not value < 0:
        return None
    L = math.lcm(1, *(row.den for _, row in used))
    scaled = [(mult * (L // row.den), row) for mult, row in used]
    # At least s per row, so that s itself fits int64 even on a zero row.
    bound = sum(s * max(1, row.max_abs) for s, row in scaled)
    dtype = np.int64 if bound < _INT64_SAFE else object
    width = max((int(row.cols[-1]) + 1 for _, row in used if row.cols.size), default=0)
    sums = np.zeros(width, dtype=dtype)
    for s, row in scaled:
        sums[row.cols] += row.nums.astype(dtype, copy=False) * s
    if (sums < 0).any():
        return None
    return FarkasSums(sums, L, Fraction(value, d))


def verify_point(rows: Sequence[Row], point: Mapping[int, Fraction], n_cols: int) -> bool:
    """Check a point exactly: True iff its weights (absent columns are 0)
    are nonnegative, at columns below ``n_cols``, and every row's sum at it
    is at most the row's right-hand side. The sums are Python ints over the
    lcm ``d`` of the weights' denominators, and each row is read at the
    point's columns alone, found by `np.searchsorted`."""
    if any(not 0 <= j < n_cols or v < 0 for j, v in point.items()):
        return False
    x = sorted((int(j), Fraction(v)) for j, v in point.items() if v)
    d = math.lcm(1, *(v.denominator for _, v in x))
    cols = np.array([j for j, _ in x], dtype=np.int64)
    ints = [v.numerator * (d // v.denominator) for _, v in x]
    for row in rows:
        at = np.searchsorted(row.cols, cols)
        hit = np.flatnonzero(at < row.cols.size)
        hit = hit[row.cols[at[hit]] == cols[hit]]
        total = sum(v * ints[i] for v, i in zip(row.nums[at[hit]].tolist(), hit.tolist()))
        if total * row.rhs.denominator > row.rhs.numerator * row.den * d:
            return False
    return True


def _homogenized(row: Row, s: int) -> Row:
    """The row ``a.x <= b`` as ``a.x - b s <= 0``, with s at column ``s``
    past the row's columns, over the lcm of its denominators."""
    den = math.lcm(row.den, row.rhs.denominator)
    f, last = den // row.den, -row.rhs.numerator * (den // row.rhs.denominator)
    dtype = object if max(row.max_abs * f, abs(last)) >= _INT64_SAFE else np.int64
    nums = np.append(row.nums.astype(dtype) * f, np.array([last], dtype=dtype))
    return Row.from_arrays(np.append(row.cols, s), nums, den, 0, row.tag)


def verify_bound(
    rows: Sequence[Optional[Row]], objective: Mapping[int, Fraction], sense: str,
    optimum: Fraction, multipliers: Sequence[int], scale: int,
) -> bool:
    """Check the bound ``c.x <= optimum`` ("max") or ``c.x >= optimum``
    ("min") over ``rows``, for ``c`` the ``objective`` (per column),
    without any solver. With ``sign`` 1 for "max" and -1 for "min", it
    holds iff `verify_farkas` accepts ``[*multipliers, scale]`` on the rows
    homogenized (`_homogenized`), s one column past every column used, and
    one more row ``-sign c.x + sign optimum s <= -1``. Then ``scale``
    mu > 0, ``A^T y >= mu sign c`` and ``y . b <= mu sign optimum``, so
    every x >= 0 of the rows has ``mu sign c.x <= y . Ax <= mu sign
    optimum``. Rows with multiplier 0 may be None; a wrong number of
    multipliers fails."""
    if len(multipliers) != len(rows):
        return False
    sign = {"max": 1, "min": -1}[sense]
    used = [row for row, v in zip(rows, multipliers) if v]
    s = 1 + max([*objective, *(int(j) for row in used for j in row.cols[-1:])], default=-1)
    system = [_homogenized(row, s) if v else None for row, v in zip(rows, multipliers)]
    last = Row({**objective, s: -Fraction(optimum)}, -1, ("bound",))
    system.append(Row.from_arrays(last.cols, last.nums * -sign, last.den, -1, last.tag))
    return verify_farkas(system, FarkasCertificate.from_list([*multipliers, scale]))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


#: The caches of the module docstring, as name -> (key, value): "reference_masks"
#: for one m, and "reference_step<t>" for one (m, k, steps before t, W_t).
_ROW_CACHES: dict[str, tuple] = {}


def _cached(name: str, key, make):
    """The value kept under ``name`` if it was made for ``key``, else
    ``make()``, kept in its place."""
    held = _ROW_CACHES.get(name)
    if held is None or held[0] != key:
        held = _ROW_CACHES[name] = (key, make())
    return held[1]


def clear_row_caches() -> None:
    """Empty the reference builder's caches. Each command and each search
    starts with this, so no run reuses the rows of another."""
    _ROW_CACHES.clear()


def _normalization_row(masks: np.ndarray, sign: int) -> Row:
    """``sum x <= 1`` (sign 1) or ``-sum x <= -1`` (sign -1), over every
    ballot of ``masks``."""
    tag = ("norm_upper",) if sign == 1 else ("norm_lower",)
    return Row.from_arrays(masks - 1, np.full(masks.size, sign, dtype=np.int64), 1, sign, tag)


def _supporting(masks: np.ndarray, w_mask: int, t_mask: int) -> np.ndarray:
    """Whether each ballot of ``masks`` holds more of T than of W: the
    ballots S(T) whose weight the deviation row of (W, T) sums."""
    return np.bitwise_count(masks & t_mask) > np.bitwise_count(masks & w_mask)


class _ReferenceStep:
    """Step t of a history in the reference builder, for its committee W:
    the ballot masks still active at it, the candidates fixed before it,
    the ballots that supported the step before it, and its swap rows. None
    of it depends on the step's own deviation T.

    Its swap rows pair each x of W not fixed before it (``xs``) with each y
    outside W (``ys``), in that order. In row (x, y) an active ballot with
    u = |ballot ∩ W| gains L/(u+1) if it holds y but not x, and loses L/u
    (u >= 1) if it holds x but not y; every other entry is 0
    (`_swap_values`). ``block`` holds them all as one matrix, built when
    first asked for; `swap_row` makes the `Row` of one of them when it is
    first read, from the same values but without the block.
    """

    def __init__(
        self,
        k: int,
        masks,
        w_mask: int,
        before: Optional["_ReferenceStep"] = None,
        before_t_mask: int = 0,
    ):
        """The first step, or the step after the step ``before``, whose
        deviation was ``before_t_mask``."""
        if before is None:
            self.t, self.fixed, active = 1, 0, masks
            self.supported_before = None
        else:
            # A ballot that holds more of T than of W is inactive in every
            # later step. Siblings share this step, so it keeps those
            # ballots for the deviation row of the step before.
            self.t, self.fixed = before.t + 1, before.fixed | before_t_mask
            self.supported_before = _supporting(masks, before.w_mask, before_t_mask)
            active = before.active[~self.supported_before[before.active - 1]]
        self.masks, self.active, self.w_mask = masks, active, w_mask
        self.xs, self.ys = _bits(w_mask & ~self.fixed), _bits(masks.size & ~w_mask)
        self.L = L = math.lcm(*range(1, k + 2))
        #: The smallest signed integer type that holds every entry: int32
        #: at most, as L <= lcm(1..17) < 2^31.
        self.dtype = np.min_scalar_type(-L)
        u = np.bitwise_count(active & w_mask).astype(np.int64)
        self.gain = (L // (u + 1)).astype(self.dtype)
        self.loss = (-(L // np.maximum(u, 1))).astype(self.dtype)
        self._holds: dict[int, np.ndarray] = {}
        self._rows: dict[int, Row] = {}

    def _holding(self, c: int) -> np.ndarray:
        if c not in self._holds:
            self._holds[c] = (self.active >> c & 1).astype(bool)
        return self._holds[c]

    def _swap_values(self, x: int, ys: Sequence[int]) -> np.ndarray:
        """Swap rows (x, y) for y in ``ys``, one per row of the result,
        over the active ballots."""
        holds_x = self._holding(x)
        gain, loss = np.where(holds_x, 0, self.gain), np.where(holds_x, self.loss, 0)
        return np.where(np.array([self._holding(y) for y in ys]), gain, loss)

    @functools.cached_property
    def block(self) -> np.ndarray:
        """Every swap row in the (x, y) order, one column per ballot and 0
        off the active ballots, as one matrix of ``dtype``."""
        n, ny = self.masks.size, len(self.ys)
        block = np.zeros((len(self.xs) * ny, n), dtype=self.dtype)
        cols = slice(None) if self.active.size == n else self.active - 1
        for i, x in enumerate(self.xs):
            block[i * ny : (i + 1) * ny, cols] = self._swap_values(x, self.ys)
        return block

    def swap_row(self, i: int) -> Row:
        """Swap row i of the step, in the (x, y) order, as a `Row` of its
        nonzero entries."""
        if i not in self._rows:
            x, y = self.xs[i // len(self.ys)], self.ys[i % len(self.ys)]
            values = self._swap_values(x, [y])[0]
            moved = np.flatnonzero(values)
            nums, tag = values[moved].astype(np.int64), ("swap", self.t, x, y)
            self._rows[i] = Row.from_arrays(self.active[moved] - 1, nums, self.L, 0, tag)
        return self._rows[i]


#: The most block entries that one sum of the Farkas check reads at once
#: (`_ReferenceRows.farkas_sums`), which bounds its temporaries.
_CHUNK = 1 << 18


class _ReferenceRows(Sequence):
    """The rows of one history system in the canonical order, as the
    reference builder hands them out: each row is made when it is read, and
    reads None outside the rows asked for. It equals any sequence of the
    same rows. The module's `farkas_sums` checks a certificate on it by
    this class's `farkas_sums`, over the step blocks."""

    def __init__(self, k: int, masks, steps: list[_ReferenceStep], t_masks, selected):
        self.k, self.masks, self.steps, self.t_masks = k, masks, steps, t_masks
        self.L = math.lcm(*range(1, k + 2))
        #: Where the swap rows of each step start, then the deviation rows.
        self.starts = list(itertools.accumulate([2] + [len(s.xs) * len(s.ys) for s in steps]))
        self.selected = selected

    def __len__(self) -> int:
        return self.starts[-1] + len(self.steps)

    def __getitem__(self, r: int) -> Optional[Row]:
        r = range(len(self))[r]
        if self.selected is not None and r not in self.selected:
            return None
        if r < 2:
            return _normalization_row(self.masks, 1 - 2 * r)
        t = bisect.bisect_right(self.starts, r) - 1
        if t < len(self.steps):
            return self.steps[t].swap_row(r - self.starts[t])
        t = r - self.starts[-1]
        cols = np.flatnonzero(self._support(t))
        rhs = Fraction(-self.t_masks[t].bit_count(), self.k)
        nums = np.full(cols.size, -1, dtype=np.int64)
        return Row.from_arrays(cols, nums, 1, rhs, ("deviation", t + 1))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def _support(self, t: int) -> np.ndarray:
        """The ballots S(T_t) of the deviation row of step t (from 0): kept
        by the step after it, and made on each call for the last step."""
        if t + 1 < len(self.steps):
            return self.steps[t + 1].supported_before
        return _supporting(self.masks, self.steps[t].w_mask, self.t_masks[t])

    def farkas_sums(self, certificate: FarkasCertificate) -> Optional[FarkasSums]:
        """`farkas_sums` of a certificate with one nonnegative multiplier
        per row, summed over the step blocks and over every ballot, at
        scale L = lcm(1..k+1). The normalization pair adds the difference
        of its two multipliers to every ballot; each step adds its used
        swap multipliers times their block rows, a chunk of rows at a time
        (`_CHUNK`); each deviation multiplier y_d adds ``-L y_d`` on its
        support. No entry of a row exceeds L at scale L, so the sums are
        int64 when L times the sum of the multipliers is below
        ``_INT64_SAFE``, else Python ints."""
        y, L, starts = certificate.nonzero, self.L, self.starts
        norm = y.get(0, 0) - y.get(1, 0)
        dev = [y.get(starts[-1] + t, 0) for t in range(len(self.steps))]
        fixed = sum(v * t_mask.bit_count() for v, t_mask in zip(dev, self.t_masks))
        if not norm * self.k < fixed:
            return None
        dtype = np.int64 if L * sum(y.values()) < _INT64_SAFE else object
        sums = np.full(self.masks.size, norm * L, dtype=dtype)
        chunk = max(1, _CHUNK // self.masks.size)
        for t, step in enumerate(self.steps):
            used = [(r - starts[t], v) for r, v in y.items() if starts[t] <= r < starts[t + 1]]
            for a in range(0, len(used), chunk):
                index, mults = zip(*used[a : a + chunk])
                part = step.block[list(index)]
                if dtype is object:
                    sums += np.array(mults, dtype=object) @ part.astype(object)
                else:
                    mults = np.array(mults, dtype=np.int64)
                    sums += np.einsum("i,ij->j", mults, part, dtype=np.int64)
        for t, v in enumerate(dev):
            if v:
                np.subtract(sums, L * v, out=sums, where=self._support(t))
        if (sums < 0).any():
            return None
        return FarkasSums(sums, L, Fraction(norm * self.k - fixed, self.k))


def _build_rows(
    m: int,
    k: int,
    steps: Sequence[tuple[int, int]],
    rows: Optional[Iterable[int]] = None,
) -> tuple[_ReferenceRows, list[tuple[int, int, int]]]:
    """Rows of the canonical system for a sequence of (W, T) masks.

    Returns the rows plus the (step, x, y) index of each swap row. The rows
    are a `_ReferenceRows`, which makes a row when it is read; given the
    indices ``rows``, every other row reads None, so a certificate is
    checked on the rows it uses. Steps and masks come from the caches of
    the module docstring; deviation rows depend on T_t. A `Row` is
    read-only, so calls share it.
    """
    masks = _cached("reference_masks", m, lambda: np.arange(1, 1 << m, dtype=np.int64))
    blocks: list[_ReferenceStep] = []
    for t, (w_mask, _) in enumerate(steps):
        before = (blocks[-1], steps[t - 1][1]) if blocks else ()
        make = functools.partial(_ReferenceStep, k, masks, w_mask, *before)
        blocks.append(_cached(f"reference_step{t + 1}", (m, k, tuple(steps[:t]), w_mask), make))
    swap_meta = [(block.t, x, y) for block in blocks for x in block.xs for y in block.ys]
    selected = None if rows is None else set(rows)
    return _ReferenceRows(k, masks, blocks, [t for _, t in steps], selected), swap_meta
