"""Command-line interface.

Subcommands: ``verify-core`` (check a committee against a profile),
``rule`` (compute committees), ``prove`` (run a proof mode and write a
certificate bundle), ``check-certificates`` (re-verify a bundle without a
solver).

Exit codes are a stable contract: 0 when the run succeeds and the claim
holds, 1 when the claim fails (deviation found, rule failed, violations or
a bad certificate), 2 on input errors, 3 when a size or time budget was
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .elections import EnumerationLimitError

# solve_feasibility is not called here; bench/layers.py wraps it by this name.
from .exactlp import solve_feasibility, verify_farkas  # noqa: F401
from .fileio import (
    CertificateFormatError,
    ProfileFormatError,
    format_fraction,
    history_certificate_dict,
    history_certificate_filename,
    load_certificate,
    load_instance,
    parse_committee,
    shape_certificate_dict,
    write_certificate,
)
from .proofs import (
    check_proposition1,
    enumerate_histories,
    history_verdict,
    inequality_scan,
    iter_shapes,
    program3_history,
)
from .rules import global_pav, local_pav, recursive_pav
from .stability import Quota, find_deviation

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _quota(name: str) -> Quota:
    return Quota.DROOP if name == "droop" else Quota.HARE


def _labels(candidate_set) -> list[str]:
    return list(candidate_set.labels())


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_verify_core(args) -> int:
    instance = load_instance(args.profile)
    committee = parse_committee(args.committee, instance.m)
    if len(committee) != instance.k:
        raise ProfileFormatError(
            f"committee has {len(committee)} members, expected k={instance.k}"
        )
    quota = _quota(args.quota)
    report = find_deviation(instance, committee, quota)
    if report is None:
        _emit(
            args,
            {"stable": True, "quota": quota.value, "committee": _labels(committee)},
            [f"stable: no successful deviation under the {quota.value} quota"],
        )
        return EXIT_OK
    payload = {
        "stable": False,
        "quota": quota.value,
        "committee": _labels(committee),
        "deviation": _labels(report.deviation),
        "support": format_fraction(report.support),
        "threshold": format_fraction(report.threshold),
        "supporters": [_labels(b) for b in report.supporters],
    }
    _emit(
        args,
        payload,
        [
            "unstable: " + report.describe(),
        ],
    )
    return EXIT_CLAIM_FAILS


def cmd_rule(args) -> int:
    instance = load_instance(args.profile)
    quota = _quota(args.quota)
    if args.rule == "pav-local":
        committee = local_pav(instance)
        from .elections import pav_score

        score = pav_score(instance.profile, None, committee)
        _emit(
            args,
            {
                "rule": args.rule,
                "committee": _labels(committee),
                "score": format_fraction(score),
            },
            [
                f"committee: {', '.join(committee.labels())}",
                f"score: {score}",
            ],
        )
        return EXIT_OK
    if args.rule == "pav-global":
        winners = sorted(global_pav(instance), key=lambda w: w.mask)
        from .elections import pav_score

        score = pav_score(instance.profile, None, winners[0])
        _emit(
            args,
            {
                "rule": args.rule,
                "committees": [_labels(w) for w in winners],
                "score": format_fraction(score),
            },
            [f"{len(winners)} optimal committee(s), score {score}:"]
            + [f"  {', '.join(w.labels())}" for w in winners],
        )
        return EXIT_OK
    outcome = recursive_pav(instance, quota)
    trace_payload = [
        {"W": _labels(w), "T": _labels(t)} for w, t in outcome.trace
    ]
    if not outcome.succeeded:
        _emit(
            args,
            {"rule": args.rule, "status": "failed", "trace": trace_payload},
            ["failed: the fixed set outgrew the committee size"]
            + [f"  round {i + 1}: W={t['W']} T={t['T']}" for i, t in enumerate(trace_payload)],
        )
        return EXIT_CLAIM_FAILS
    from .elections import pav_score

    score = pav_score(instance.profile, None, outcome.committee)
    _emit(
        args,
        {
            "rule": args.rule,
            "status": "success",
            "quota": quota.value,
            "committee": _labels(outcome.committee),
            "score": format_fraction(score),
            "trace": trace_payload,
        },
        [f"committee: {', '.join(outcome.committee.labels())}", f"score: {score}"]
        + [
            f"  round {i + 1}: W={{{', '.join(t['W'])}}} fixed T={{{', '.join(t['T'])}}}"
            for i, t in enumerate(trace_payload)
        ],
    )
    return EXIT_OK


def _prove_inequality(args) -> int:
    violations = inequality_scan(args.k)
    payload = {
        "mode": "inequality",
        "k": args.k,
        "violations": [
            {
                "size": v.shape.size,
                "overlap": v.shape.overlap,
                "a": v.a,
                "b": v.b,
                "c": v.c,
                "delta": format_fraction(v.delta),
                "bound": format_fraction(v.bound),
            }
            for v in violations
        ],
    }
    lines = [f"k={args.k}: {len(violations)} violation(s)"]
    for v in violations:
        lines.append(
            f"  shape (|T|={v.shape.size}, |T∩W|={v.shape.overlap}) "
            f"a={v.a} b={v.b} c={v.c}: delta {v.delta} <= bound {v.bound}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"inequality_k{args.k}.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    _emit(args, payload, lines)
    return EXIT_OK if not violations else EXIT_CLAIM_FAILS


def _prove_program3(args) -> int:
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    deadline = (
        time.monotonic() + args.budget_seconds if args.budget_seconds else None
    )
    results = []
    all_infeasible = True
    for shape in iter_shapes(args.k):
        if deadline is not None and time.monotonic() > deadline:
            _emit(
                args,
                {"mode": "program3", "k": args.k, "complete": False, "results": results},
                ["budget exceeded; partial results only"],
            )
            return EXIT_BUDGET
        verdict = history_verdict(program3_history(args.k, shape))
        entry = {"size": shape.size, "overlap": shape.overlap}
        if verdict.certificate is not None:
            # history_verdict returns only certificates it verified exactly.
            entry["status"] = "infeasible"
            entry["certificate_verified"] = True
            if out:
                name = f"p3_k{args.k}_s{shape.size}_o{shape.overlap}.json"
                write_certificate(
                    shape_certificate_dict(args.k, shape, verdict.certificate),
                    out / name,
                )
                entry["file"] = name
        else:
            all_infeasible = False
            entry["status"] = "feasible"
            entry["witness"] = {
                f"{sorted(_mask_to_labels(mask))}": format_fraction(w)
                for mask, w in verdict.witness.mask_items()
            }
        results.append(entry)
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


def _mask_to_labels(mask: int) -> list[str]:
    return [f"c{i + 1}" for i in range(mask.bit_length()) if (mask >> i) & 1]


def _prove_histories(args) -> int:
    result = enumerate_histories(
        args.m,
        args.k,
        threads=args.threads,
        budget_seconds=args.budget_seconds,
    )
    prop1 = check_proposition1(result.histories, args.k)
    out = Path(args.out) if args.out else None
    cert_names = []
    if out:
        cert_dir = out / "certificates"
        cert_dir.mkdir(parents=True, exist_ok=True)
        for hist, cert in result.certificates.items():
            name = history_certificate_filename(hist)
            write_certificate(history_certificate_dict(hist, cert), cert_dir / name)
            cert_names.append(name)
        summary = {
            "m": args.m,
            "k": args.k,
            "complete": result.complete,
            "proposition1": prop1,
            "histories": [
                {
                    "steps": [
                        {"W": _labels(w), "T": _labels(t)} for w, t in h.steps
                    ],
                    "witness": [
                        {
                            "approve": _mask_to_labels(ballot.mask),
                            "weight": format_fraction(weight),
                        }
                        for ballot, weight in result.witnesses[h].items()
                    ]
                    if h.steps
                    else [],
                }
                for h in result.histories
            ],
            "certificates": len(result.certificates),
        }
        (out / "histories.json").write_text(
            json.dumps(summary, indent=1) + "\n", encoding="utf-8"
        )
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


def cmd_prove(args) -> int:
    if args.k is None:
        raise ProfileFormatError(f"{args.mode} mode needs --k")
    if args.k < 1:
        raise ProfileFormatError(f"--k must be at least 1, got {args.k}")
    if args.threads < 1:
        raise ProfileFormatError(f"--threads must be at least 1, got {args.threads}")
    if args.mode == "inequality":
        return _prove_inequality(args)
    if args.mode == "program3":
        return _prove_program3(args)
    if args.m is None:
        raise ProfileFormatError("histories mode needs --m")
    if args.k > args.m:
        raise ProfileFormatError(f"histories mode needs k <= m, got k={args.k} m={args.m}")
    return _prove_histories(args)


def _check_one(path: Path):
    try:
        record = load_certificate(path)
    except CertificateFormatError as exc:
        return (path.name, False, f"unreadable: {exc}")
    ok = verify_farkas(record.system, record.certificate)
    return (path.name, ok, "ok" if ok else "certificate does not verify")


def _is_certificate_file(path: Path) -> bool:
    """Whether a bundle file holds multipliers; every ``*.json`` file of a
    bundle must hold a JSON object."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CertificateFormatError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise CertificateFormatError(f"{path}: does not hold a JSON object")
    return "multipliers" in payload


def cmd_check_certificates(args) -> int:
    root = Path(args.bundle)
    if not root.exists():
        raise ProfileFormatError(f"no such bundle directory: {root}")
    files = sorted(
        p for p in root.rglob("*.json") if p.is_file() and _is_certificate_file(p)
    )
    started = time.monotonic()
    if args.threads > 1 and len(files) > 1:
        import multiprocessing as mp

        with mp.Pool(args.threads) as pool:
            results = pool.map(_check_one, files)
    else:
        results = [_check_one(p) for p in files]
    elapsed = time.monotonic() - started
    failures = [(name, msg) for name, ok, msg in results if not ok]
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
    p.set_defaults(func=cmd_verify_core)

    p = sub.add_parser("rule", help="compute a committee")
    p.add_argument("profile")
    p.add_argument(
        "--rule",
        choices=["pav-local", "pav-global", "recursive-pav"],
        default="recursive-pav",
    )
    p.add_argument("--quota", choices=["hare", "droop"], default="hare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rule)

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
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser(
        "check-certificates", help="re-verify a bundle without a solver"
    )
    p.add_argument("bundle")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_certificates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProfileFormatError, CertificateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationLimitError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
