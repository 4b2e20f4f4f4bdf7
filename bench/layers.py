"""Per-layer self times and counts, measured from outside the program.

`install` replaces each function with a timing wrapper under the name
its caller looks it up by (for example ``proofs._solve_problem``, which
``proofs`` calls, or the ``cli`` module's own ``verify_farkas``), so the
program's source stays untouched. A layer's self time is the time spent in
its wrapped calls minus the time spent in wrapped calls nested inside
them. ``cli.main`` is the outermost layer, so the self times of all layers
add up to the time of the commands.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []

    def take(self) -> tuple[dict, dict]:
        """Return and reset what was recorded since the last call."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def _patch(self, owner, attr: str, wrapper, static: bool = False) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def timed(self, owner, attr: str, layer: str, count: str | None = None,
              after=None) -> None:
        """Time calls of ``owner.attr`` as ``layer``; count them as
        ``count``; ``after(tracer, args, result)`` adds further counts."""
        func = getattr(owner, attr)
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append([0.0])
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spent = clock() - start
                children = stack.pop()[0]
                self_s[layer] += spent - children
                if stack:
                    stack[-1][0] += spent
            if count:
                counts[count] += 1
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, count: str, static: bool = False) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        func = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return func(*args, **kwargs)

        self._patch(owner, attr, wrapper, static)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _lp_done(tracer, args, result) -> None:
    tracer.counts["exactlp.active_cols"] += len(result[1])


def _quotient_built(tracer, args, result) -> None:
    quotient, m = args[0], args[1]
    tracer.counts["proofs.quotient_cols"] += int(quotient.types.shape[0])
    tracer.counts["proofs.full_cols"] += (1 << m) - 1


def _file_written(tracer, args, result) -> None:
    tracer.counts["fileio.files_written"] += 1
    tracer.counts["fileio.bytes_written"] += Path(args[1]).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from pavcore import cli, elections, exactlp, proofs, rules

    t = tracer
    t.timed(cli, "main", "cli")
    # exactlp: one LP is one _solve_problem call, whoever calls it.
    t.timed(exactlp, "_solve_problem", "exactlp.solve", "exactlp.lps", _lp_done)
    t.timed(proofs, "_solve_problem", "exactlp.solve", "exactlp.lps", _lp_done)
    t.timed(cli, "solve_feasibility", "exactlp.solve")
    t.counted(exactlp._Master, "solve", "exactlp.master_solves")
    t.counted(exactlp._Master, "_pivot", "exactlp.pivots", static=True)
    t.timed(exactlp._Problem, "violations", "exactlp.price")
    t.timed(cli, "verify_farkas", "exactlp.verify_farkas", "exactlp.verify_farkas_calls")
    # proofs: reference rows, vectorized rows, quotient, lift, search, verify.
    t.timed(proofs, "_build_rows", "proofs.reference_rows", "proofs.reference_rows_calls")
    t.timed(proofs._HistoryRows, "child", "proofs.rows")
    t.timed(proofs._HistoryRows, "problem", "proofs.rows")
    t.timed(proofs._Quotient, "__init__", "proofs.quotient", after=_quotient_built)
    t.timed(proofs._Quotient, "problem", "proofs.quotient")
    t.timed(proofs._Quotient, "lift_assignment", "proofs.lift")
    t.timed(proofs._Quotient, "lift_certificate", "proofs.lift")
    t.timed(proofs, "canonical_continuations", "proofs.continuations")
    for name in ("_verify_certificate_fast", "_verify_witness_fast", "_witness_realizes"):
        t.timed(proofs, name, "proofs.verify")
    # fileio, as the cli calls it.
    t.timed(cli, "write_certificate", "fileio.write", after=_file_written)
    t.timed(cli, "history_certificate_dict", "fileio.write")
    t.timed(cli, "shape_certificate_dict", "fileio.write")
    t.timed(cli, "load_certificate", "fileio.load", "fileio.files_read")
    t.timed(cli, "load_instance", "fileio.load", "fileio.files_read")
    # rules, elections and stability.
    t.timed(cli, "recursive_pav", "rules.recursive_pav")
    t.timed(cli, "global_pav", "rules.global_pav")
    t.timed(cli, "local_pav", "rules.local_pav")
    t.timed(rules, "local_pav", "rules.local_pav", "rules.recursive_rounds")
    t.timed(elections, "pav_score", "elections.pav_score")
    t.timed(cli, "find_deviation", "stability.find_deviation", "stability.find_deviation_calls")
    t.timed(rules, "find_deviation", "stability.find_deviation", "stability.find_deviation_calls")


#: Layer self times reported by a traced run, named ``<layer>_s``.
TIMED_LAYERS = (
    "exactlp.solve", "exactlp.price", "exactlp.verify_farkas",
    "proofs.reference_rows", "proofs.rows", "proofs.quotient", "proofs.lift",
    "proofs.continuations", "proofs.verify", "fileio.write", "fileio.load",
    "rules.recursive_pav", "rules.global_pav", "rules.local_pav",
    "elections.pav_score", "stability.find_deviation", "cli",
)

#: Counts reported by a traced run.
COUNTS = (
    "exactlp.lps", "exactlp.master_solves", "exactlp.pivots", "exactlp.active_cols",
    "exactlp.verify_farkas_calls", "proofs.reference_rows_calls",
    "proofs.quotient_cols", "proofs.full_cols", "fileio.files_written",
    "fileio.bytes_written", "fileio.files_read", "rules.recursive_rounds",
    "stability.find_deviation_calls",
)
