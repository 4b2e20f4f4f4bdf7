"""The certificate checker: integer rows, the Farkas check and the
reference builder. It imports only the standard library and numpy, and
shares no row code with the solver (`exactlp`) or the searches (`proofs`),
so a verdict it accepts does not rest on the code that found it.

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

The reference builder (`_build_rows`) builds each row at once over the
array of ballot masks, over L = lcm(1..k+1), and only the rows asked for.
The swap rows of step t depend on (m, k), the steps before t and W_t, not
on T_t, so it keeps one block per step depth under that key
(`_ROW_CACHES`), and the ballot masks of the last m: siblings, which share
a W, share every swap row. Every command and every search starts with
empty caches (`clear_row_caches`).

`bench/layers.py` times `proofs._build_rows` and `cli.verify_farkas`:
both modules import them from here and call them by those names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
        self._set(
            np.array([j for j, _ in items], dtype=np.int64),
            np.array(nums, dtype=object if wide else np.int64),
            den,
            rhs,
            tag,
        )

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
        return cls(
            len(multipliers),
            {i: int(v) for i, v in enumerate(multipliers) if v != 0},
        )

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

    Only the rows with a nonzero multiplier are read, so the others may be
    None (`fileio.CertificateRecord`). ``y . b`` is summed in Python ints
    over the lcm of their right-hand sides' denominators.
    ``A^T y`` is summed over ``L``, the lcm of their row denominators, as
    ``sums[cols] += nums * (mult * L // den)``: in int64 when a bound from
    each row's largest |numerator| (`Row.max_abs`) shows that no sum can
    overflow, else in Python ints. Both signs are exact.
    """
    if certificate.n_rows != len(rows):
        raise ValueError(
            f"certificate has {certificate.n_rows} multipliers, "
            f"system has {len(rows)} rows"
        )
    if any(v < 0 for v in certificate.nonzero.values()):
        return None
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


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def _reference_masks(m: int) -> tuple[np.ndarray, tuple[Row, Row]]:
    """The ballot masks of m candidates and the normalization rows over
    them, which depend on m alone."""
    n = (1 << m) - 1
    masks = np.arange(1, n + 1, dtype=np.int64)
    every, ones = masks - 1, np.ones(n, dtype=np.int64)
    norm = tuple(
        Row.from_arrays(every, sign * ones, 1, sign, (tag,))
        for sign, tag in ((1, "norm_upper"), (-1, "norm_lower"))
    )
    return masks, norm


def _supporting(masks: np.ndarray, w_mask: int, t_mask: int) -> np.ndarray:
    """Whether each ballot of ``masks`` holds more of T than of W: the
    ballots S(T) whose weight the deviation row of (W, T) sums."""
    return np.bitwise_count(masks & t_mask) > np.bitwise_count(masks & w_mask)


class _ReferenceStep:
    """Step t of a history in the reference builder, for its committee W:
    the ballot masks still active at it, the candidates fixed before it,
    and its swap rows, each built when it is first asked for and then found
    by tag. None of it depends on the step's deviation T.

    In swap row (x, y) an active ballot with u = |ballot ∩ W| gains
    L/(u+1) if it holds y but not x, and loses L/u (u >= 1) if it holds x
    but not y. A candidate's holder array is made for the first row that
    uses it.
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
        else:
            # A ballot that holds more of T than of W is inactive in every
            # later step.
            self.t, self.fixed = before.t + 1, before.fixed | before_t_mask
            active = before.active[np.bitwise_count(before.active & before_t_mask) <= before.u]
        self.k, self.masks, self.active, self.w_mask = k, masks, active, w_mask
        self.L = L = math.lcm(*range(1, k + 2))
        self.u = u = np.bitwise_count(active & w_mask).astype(np.int64)
        self.gain, self.loss = L // (u + 1), -(L // np.maximum(u, 1))
        self._holds: dict[int, np.ndarray] = {}
        self._rows: dict[tuple, Row] = {}

    def _holding(self, c: int) -> np.ndarray:
        if c not in self._holds:
            self._holds[c] = (self.active >> c & 1).astype(bool)
        return self._holds[c]

    def swap_row(self, x: int, y: int) -> Row:
        tag = ("swap", self.t, x, y)
        if tag not in self._rows:
            holds_y = self._holding(y)
            moved = self._holding(x) != holds_y
            nums = np.where(holds_y[moved], self.gain[moved], self.loss[moved])
            self._rows[tag] = Row.from_arrays(self.active[moved] - 1, nums, self.L, 0, tag)
        return self._rows[tag]

    def deviation_row(self, t_mask: int) -> Row:
        """Every ballot that holds more of T than of W supports T."""
        masks = self.masks
        supports = _supporting(masks, self.w_mask, t_mask)
        cols, nums = masks[supports] - 1, np.full(int(supports.sum()), -1, dtype=np.int64)
        rhs = Fraction(-t_mask.bit_count(), self.k)
        return Row.from_arrays(cols, nums, 1, rhs, ("deviation", self.t))


def _build_rows(
    m: int,
    k: int,
    steps: Sequence[tuple[int, int]],
    rows: Optional[Iterable[int]] = None,
) -> tuple[list[Optional[Row]], list[tuple[int, int, int]]]:
    """Rows of the canonical system for a sequence of (W, T) masks.

    Returns the rows plus the (step, x, y) index of each swap row. Given
    the indices ``rows``, it builds only those rows and puts None in the
    place of every other, so a certificate is checked on the rows it uses.
    Swap blocks, masks and normalization rows come from the caches of the
    module docstring; deviation rows depend on T_t and are built on each
    call. A `Row` is read-only, so calls share it.
    """
    n = (1 << m) - 1
    masks, norm = _cached("reference_masks", m, lambda: _reference_masks(m))
    blocks: list[_ReferenceStep] = []
    for t, (w_mask, _) in enumerate(steps):
        before = (blocks[-1], steps[t - 1][1]) if blocks else ()
        make = functools.partial(_ReferenceStep, k, masks, w_mask, *before)
        blocks.append(_cached(f"reference_step{t + 1}", (m, k, tuple(steps[:t]), w_mask), make))
    swap_meta = [
        (block.t, x, y)
        for block in blocks
        for x in _bits(block.w_mask & ~block.fixed)
        for y in _bits(n & ~block.w_mask)
    ]
    built: list[Optional[Row]] = [None] * (2 + len(swap_meta) + len(blocks))
    for r in range(len(built)) if rows is None else set(rows).intersection(range(len(built))):
        if r < 2:
            built[r] = norm[r]
        elif r < 2 + len(swap_meta):
            t, x, y = swap_meta[r - 2]
            built[r] = blocks[t - 1].swap_row(x, y)
        else:
            t = r - 2 - len(swap_meta)
            built[r] = blocks[t].deviation_row(steps[t][1])
    return built, swap_meta
