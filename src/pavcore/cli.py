"""Command-line interface.

Subcommands: ``verify-core`` (check a committee against a profile),
``rule`` (compute committees), ``prove`` (run a proof mode and write a
certificate bundle), ``check-certificates`` (re-verify a bundle without a
solver).

Exit codes are a stable contract: 0 when the run succeeds and the claim
holds, 1 when the claim fails (deviation found, rule failed, violations or
a bad certificate), 2 on input errors, 3 when a size or time budget was
exceeded. Every input error is a `fileio.InputError`, which `main` reports
on stderr.

Every prove mode runs through one `proofs.Runner`, so the options mean the
same in each: ``--threads N`` runs the work on up to N processes, at most
one per CPU, with the same output as one, and ``--budget-seconds S`` stops
the run S seconds after it starts, exiting 3 if work is left (0 always
exits 3).

``check-certificates`` runs on each file the one certificate check that
``prove`` ran on each certificate it found: `checker.verify_farkas` on the
reference rows with a nonzero multiplier (`fileio.load_certificate`, which
reads each ``*.json`` file of a bundle once and skips a file with no
multipliers).

`main` builds its parser once per process, on its first call, and looks up
the command function ``cmd_<command>`` when it runs the command. Each
command starts with empty row caches (`checker.clear_row_caches`), so what
it costs does not depend on the commands run before it in the process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

from . import elections
from .checker import clear_row_caches, verify_farkas
from .elections import EnumerationLimitError

# solve_feasibility is not called here; bench/layers.py wraps it by this name.
from .exactlp import solve_feasibility  # noqa: F401
from .fileio import (
    CertificateError,
    InputError,
    _read_json,
    history_certificate_dict,
    history_certificate_filename,
    load_certificate,
    load_instance,
    parse_committee,
    shape_certificate_dict,
    write_certificate,
)
from .proofs import (
    Runner,
    check_proposition1,
    enumerate_histories,
    history_verdict,
    iter_shapes,
    program3_history,
    shape_violations,
)
from .rules import global_pav, local_pav, recursive_pav
from .stability import Quota, find_deviation

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    try:
        for line in [json.dumps(payload, indent=2)] if args.json else text_lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone (`| head`): the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_verify_core(args) -> int:
    instance = load_instance(args.profile)
    committee = parse_committee(args.committee, instance.m)
    if len(committee) != instance.k:
        raise InputError(f"committee has {len(committee)} members, expected k={instance.k}")
    quota = Quota(args.quota)
    report = find_deviation(instance, committee, quota)
    if report is None:
        _emit(
            args,
            {"stable": True, "quota": quota.value, "committee": committee.labels()},
            [f"stable: no successful deviation under the {quota.value} quota"],
        )
        return EXIT_OK
    payload = {
        "stable": False,
        "quota": quota.value,
        "committee": committee.labels(),
        "deviation": report.deviation.labels(),
        "support": str(report.support),
        "threshold": str(report.threshold),
        "supporters": [b.labels() for b in report.supporters],
    }
    _emit(args, payload, ["unstable: " + report.describe()])
    return EXIT_CLAIM_FAILS


def cmd_rule(args) -> int:
    instance = load_instance(args.profile)
    quota = Quota(args.quota)
    if args.rule == "pav-local":
        committee = local_pav(instance)
        score = elections.pav_score(instance.profile, committee)
        _emit(
            args,
            {"rule": args.rule, "committee": committee.labels(), "score": str(score)},
            [f"committee: {', '.join(committee.labels())}", f"score: {score}"],
        )
        return EXIT_OK
    if args.rule == "pav-global":
        winners = sorted(global_pav(instance), key=lambda w: w.mask)
        score = elections.pav_score(instance.profile, winners[0])
        _emit(
            args,
            {
                "rule": args.rule,
                "committees": [w.labels() for w in winners],
                "score": str(score),
            },
            [f"{len(winners)} optimal committee(s), score {score}:"]
            + [f"  {', '.join(w.labels())}" for w in winners],
        )
        return EXIT_OK
    outcome = recursive_pav(instance, quota)
    trace_payload = [{"W": w.labels(), "T": t.labels()} for w, t in outcome.trace]
    rounds = [
        f"  round {i + 1}: W={{{', '.join(t['W'])}}} fixed T={{{', '.join(t['T'])}}}"
        for i, t in enumerate(trace_payload)
    ]
    if not outcome.succeeded:
        _emit(
            args,
            {"rule": args.rule, "status": "failed", "trace": trace_payload},
            ["failed: the fixed set outgrew the committee size"] + rounds,
        )
        return EXIT_CLAIM_FAILS
    score = elections.pav_score(instance.profile, outcome.committee)
    _emit(
        args,
        {
            "rule": args.rule,
            "status": "success",
            "quota": quota.value,
            "committee": outcome.committee.labels(),
            "score": str(score),
            "trace": trace_payload,
        },
        [f"committee: {', '.join(outcome.committee.labels())}", f"score: {score}"]
        + rounds,
    )
    return EXIT_OK


@contextmanager
def _writing(path: str):
    """The bundle directory ``path``, made if missing. An `OSError` while
    the bundle is written is an input error that names the directory."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        yield Path(path)
    except OSError as exc:
        raise InputError(f"cannot write the bundle {path}: {exc}") from exc


def _budget_exceeded(args, payload: dict) -> int:
    _emit(args, payload, ["budget exceeded; partial results only"])
    return EXIT_BUDGET


def _prove_inequality(args) -> int:
    with Runner(args.threads, args.budget_seconds) as runner:
        violations = [
            v
            for found in runner.map(partial(shape_violations, args.k), iter_shapes(args.k))
            for v in found
        ]
    payload = {
        "mode": "inequality",
        "k": args.k,
        "complete": runner.complete,
        "violations": [
            {
                "size": v.shape.size,
                "overlap": v.shape.overlap,
                "a": v.a,
                "b": v.b,
                "c": v.c,
                "delta": str(v.delta),
                "bound": str(v.bound),
            }
            for v in violations
        ],
    }
    if not runner.complete:
        return _budget_exceeded(args, payload)
    lines = [f"k={args.k}: {len(violations)} violation(s)"]
    for v in violations:
        lines.append(
            f"  shape (|T|={v.shape.size}, |T∩W|={v.shape.overlap}) "
            f"a={v.a} b={v.b} c={v.c}: delta {v.delta} <= bound {v.bound}"
        )
    if args.out:
        with _writing(args.out) as out:
            text = json.dumps(payload, indent=2) + "\n"
            (out / f"inequality_k{args.k}.json").write_text(text, encoding="utf-8")
    _emit(args, payload, lines)
    return EXIT_OK if not violations else EXIT_CLAIM_FAILS


def _prove_program3(args) -> int:
    shapes = list(iter_shapes(args.k))
    histories = [program3_history(args.k, shape) for shape in shapes]
    results = []
    files = {}
    all_infeasible = True
    with Runner(args.threads, args.budget_seconds) as runner:
        verdicts = runner.map(history_verdict, histories)
        for shape, verdict in zip(shapes, verdicts):
            entry = {"size": shape.size, "overlap": shape.overlap}
            if verdict.certificate is not None:
                # history_verdict returns only certificates it verified exactly.
                entry["status"] = "infeasible"
                entry["certificate_verified"] = True
                if args.out:
                    name = f"p3_k{args.k}_s{shape.size}_o{shape.overlap}.json"
                    files[name] = shape_certificate_dict(args.k, shape, verdict.certificate)
                    entry["file"] = name
            else:
                all_infeasible = False
                entry["status"] = "feasible"
                entry["witness"] = _witness_entries(verdict.witness)
            results.append(entry)
    if not runner.complete:
        return _budget_exceeded(
            args, {"mode": "program3", "k": args.k, "complete": False, "results": results}
        )
    # A bundle is written only whole: a cut-short run leaves no directory.
    if args.out:
        with _writing(args.out) as out:
            for name, payload in files.items():
                write_certificate(payload, out / name)
    payload = {
        "mode": "program3",
        "k": args.k,
        "complete": True,
        "all_infeasible": all_infeasible,
        "results": results,
    }
    lines = [f"k={args.k}: {len(results)} shapes"]
    for e in results:
        lines.append(f"  (|T|={e['size']}, |T∩W|={e['overlap']}): {e['status']}")
    _emit(args, payload, lines)
    return EXIT_OK if all_infeasible else EXIT_CLAIM_FAILS


def _witness_entries(profile) -> list[dict]:
    """A witness profile as ``{"approve": [labels], "weight": "p/q"}``
    entries in ballot order."""
    return [
        {"approve": ballot.labels(), "weight": str(weight)}
        for ballot, weight in profile.items()
    ]


def _prove_histories(args) -> int:
    result = enumerate_histories(
        args.m,
        args.k,
        threads=args.threads,
        budget_seconds=args.budget_seconds,
    )
    prop1 = check_proposition1(result.histories, args.k)
    if args.out:
        with _writing(args.out) as out:
            cert_dir = out / "certificates"
            cert_dir.mkdir(exist_ok=True)
            for hist, cert in result.certificates.items():
                name = history_certificate_filename(hist)
                write_certificate(history_certificate_dict(hist, cert), cert_dir / name)
            summary = {
                "m": args.m,
                "k": args.k,
                "complete": result.complete,
                "proposition1": prop1,
                "histories": [
                    {
                        "steps": [{"W": w.labels(), "T": t.labels()} for w, t in h.steps],
                        "witness": _witness_entries(result.witnesses[h]) if h.steps else [],
                    }
                    for h in result.histories
                ],
                "certificates": len(result.certificates),
            }
            text = json.dumps(summary, indent=1) + "\n"
            (out / "histories.json").write_text(text, encoding="utf-8")
    payload = {
        "mode": "histories",
        "m": args.m,
        "k": args.k,
        "complete": result.complete,
        "histories": len(result.histories),
        "certificates": len(result.certificates),
        "proposition1": prop1,
        "max_total_deviation": result.max_total_deviation(),
    }
    lines = [
        f"m={args.m} k={args.k}: {len(result.histories)} histories, "
        f"{len(result.certificates)} certificates",
        f"every-history-fits: {'yes' if prop1 else 'NO'}",
    ]
    if not result.complete:
        lines.append("budget exceeded; enumeration incomplete")
    _emit(args, payload, lines)
    if not result.complete:
        return EXIT_BUDGET
    return EXIT_OK if prop1 else EXIT_CLAIM_FAILS


def _check_threads(args) -> None:
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")


def cmd_prove(args) -> int:
    if args.k is None:
        raise InputError(f"{args.mode} mode needs --k")
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    _check_threads(args)
    if args.budget_seconds is not None and not args.budget_seconds >= 0:
        raise InputError(
            f"--budget-seconds must be at least 0, got {args.budget_seconds}"
        )
    if args.out:
        # A bundle directory that cannot be made is refused before any work.
        out = Path(args.out)
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise InputError(f"--out {out}: {existing} is not a directory")
    if args.mode == "inequality":
        return _prove_inequality(args)
    if args.mode == "program3":
        return _prove_program3(args)
    if args.m is None:
        raise InputError("histories mode needs --m")
    if args.k > args.m:
        raise InputError(f"histories mode needs k <= m, got k={args.k} m={args.m}")
    return _prove_histories(args)


def _check_one(path: Path):
    """``(name, ok, message)`` for a certificate file, or None for a file
    with no multipliers. Every ``*.json`` file of a bundle must hold a JSON
    object; one that does not raises `InputError`."""
    try:
        record = load_certificate(path)
    except CertificateError as exc:
        return (path.name, False, f"unreadable: {exc}")
    if record is None:
        return None
    ok = verify_farkas(record.rows, record.certificate)
    return (path.name, ok, "ok" if ok else "certificate does not verify")


def _summary_failures(root: Path, files: list[Path]) -> list[tuple[str, str]]:
    """A ``histories.json`` records a complete search and counts the
    certificates it wrote; the directory holding it must hold exactly that
    many certificate files."""
    failures = []
    for summary in sorted(p for p in root.rglob("histories.json") if p.is_file()):
        name = summary.relative_to(root).as_posix()
        data = _read_json(summary)
        if data.get("complete") is not True:
            failures.append((name, "records an incomplete search"))
        expected = data.get("certificates")
        found = sum(1 for p in files if summary.parent in p.parents)
        if type(expected) is not int or expected != found:
            failures.append(
                (name, f"lists {expected!r} certificates, found {found} certificate files")
            )
    return failures


def cmd_check_certificates(args) -> int:
    _check_threads(args)
    root = Path(args.bundle)
    if not root.exists():
        raise InputError(f"no such bundle: {root}")
    paths = [root] if root.is_file() else sorted(p for p in root.rglob("*.json") if p.is_file())
    started = time.monotonic()
    with Runner(args.threads) as runner:
        checked = [(p, r) for p, r in zip(paths, runner.map(_check_one, paths)) if r is not None]
    elapsed = time.monotonic() - started
    if root.is_file() and not checked:
        # A file argument is a bundle of that one file, which must be one.
        raise InputError(f"{root}: holds no certificate multipliers")
    results = [result for _, result in checked]
    failures = [(name, msg) for name, ok, msg in results if not ok]
    failures += _summary_failures(root, [path for path, _ in checked])
    payload = {
        "bundle": str(root),
        "checked": len(results),
        "failed": len(failures),
        "seconds": round(elapsed, 3),
        "failures": [{"file": n, "reason": m} for n, m in failures],
    }
    lines = [f"checked {len(results)} certificate(s) in {elapsed:.2f}s"]
    if not results:
        lines.append("warning: no certificate files found")
    for name, msg in failures:
        lines.append(f"  FAIL {name}: {msg}")
    _emit(args, payload, lines)
    return EXIT_OK if not failures else EXIT_CLAIM_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavcore",
        description="Exact committee rules, core verification, and "
        "certificate-producing searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-core", help="check a committee for core stability")
    p.add_argument("profile", help="election profile JSON file")
    p.add_argument("committee", help="1-based members, e.g. '1,2,5-10'")
    p.add_argument("--quota", choices=["hare", "droop"], default="hare")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rule", help="compute a committee")
    p.add_argument("profile")
    p.add_argument(
        "--rule",
        choices=["pav-local", "pav-global", "recursive-pav"],
        default="recursive-pav",
    )
    p.add_argument("--quota", choices=["hare", "droop"], default="hare")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prove", help="run a proof mode, write certificates")
    p.add_argument(
        "--mode", choices=["inequality", "program3", "histories"], required=True
    )
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", help="directory for the certificate bundle")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "check-certificates", help="re-verify a bundle without a solver"
    )
    p.add_argument("bundle", help="bundle directory or one certificate file")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")

    return parser


_parser = cache(lambda: build_parser())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    clear_row_caches()
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationLimitError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
