"""The benchmark's workloads: their inputs, their rounds and their checks.

A workload makes its inputs once (``prepare``), then runs whole rounds of
the same program commands (``run_round``), each through
``pavcore.cli.main`` as a user's command line would. ``controls`` runs the
negative controls after the timed rounds. ``check`` runs in the parent
process, with no pavcore code, and compares every output against the
benchmark's own computations in ``checks``.

Each command is tagged ``solve`` (``prove``, ``rule``) or ``check``
(``check-certificates``, ``verify-core``); the tags split a round's time
into ``solve_s`` and ``check_s``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks


def labels_to_numbers(labels) -> list[int]:
    """Candidate labels as printed (``c3``) to 1-based numbers."""
    return [int(label[1:]) for label in labels]


def committee_spec(numbers) -> str:
    return ",".join(str(c) for c in sorted(numbers))


class Verdicts:
    """Counts program verdicts and collects what the checks found wrong.

    ``failures`` name the operations that did not complete (a crash, an
    exit code other than 0 or 1, no JSON output); ``problems`` name the
    completed outputs that the checks reject.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def command(self, record: dict, count=lambda out: 1) -> dict | None:
        """Count a command's verdicts (``count`` of its JSON output); return
        the output, or None and count one failed operation if the command
        crashed or printed no JSON."""
        if record["code"] not in (0, 1):
            self.attempted += 1
            self.failed += 1
            self.failures.append(
                f"{' '.join(record['argv'][:2])} exited with {record['code']}: "
                f"{record['error'] or record['stderr'][-300:]}"
            )
            return None
        try:
            payload = json.loads(record["stdout"])
        except json.JSONDecodeError:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{' '.join(record['argv'][:2])} printed no JSON")
            return None
        self.attempted += count(payload)
        return payload

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# Proof workloads: prove, then check-certificates on the written bundles.


class CertificateCache:
    """Checks each distinct certificate file once with ``checks``."""

    def __init__(self):
        self.seen: dict[str, bool] = {}

    def holds(self, path: Path) -> bool:
        data = path.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self.seen:
            self.seen[key] = checks.certificate_holds(json.loads(data))
        return self.seen[key]


def _corrupt_certificates(bundle: Path, out_dir: Path, seed: int) -> list[Path]:
    """Two corrupted copies of seeded certificates, each alone in its own
    directory. The first has a nonzero multiplier negated, which the sign
    test rejects. The second has a nonzero multiplier set to 0 where that
    breaks the certificate, which only the y.b and A^T y tests reject."""
    files = sorted(p for p in bundle.rglob("*.json") if p.name != "histories.json")
    rng = random.Random(seed)
    picks = [(f, i) for f in files for i, v in enumerate(_multipliers(f)) if int(v)]
    rng.shuffle(picks)
    source, i = picks[0]
    flipped = json.loads(source.read_text(encoding="utf-8"))
    flipped["multipliers"][i] = str(-int(flipped["multipliers"][i]))
    for source_zeroed, i in picks:
        zeroed = json.loads(source_zeroed.read_text(encoding="utf-8"))
        zeroed["multipliers"][i] = "0"
        if not checks.certificate_holds(zeroed):
            break
    else:
        raise ValueError("no single multiplier is needed by any certificate")
    targets = []
    for name, src, payload in (("flipped", source, flipped), ("zeroed", source_zeroed, zeroed)):
        target = out_dir / name / src.name
        target.parent.mkdir(parents=True)
        target.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        targets.append(target)
    return targets


def _multipliers(path: Path) -> list[str]:
    return json.loads(path.read_text(encoding="utf-8"))["multipliers"]


def _check_bundle_command(
    verdicts: Verdicts, record: dict, bundle: Path, cache: CertificateCache
) -> None:
    """A check-certificates run must pass exactly the files that hold."""
    files = sorted(p for p in bundle.rglob("*.json") if p.name != "histories.json")
    out = verdicts.command(record, lambda out: out["checked"])
    if out is None:
        return
    bad = sorted(p.name for p in files if not cache.holds(p))
    reported = sorted(f["file"] for f in out["failures"])
    verdicts.expect(out["checked"] == len(files), f"{bundle.name}: checked count")
    verdicts.expect(reported == bad, f"{bundle.name}: verdicts {reported} vs {bad}")
    verdicts.expect(record["code"] == (1 if bad else 0), f"{bundle.name}: exit code")


def _check_controls(verdicts: Verdicts, records: list, paths: list) -> None:
    """Each corrupted certificate must fail check-certificates and the
    benchmark's own check."""
    for i, record in enumerate(records):
        out = verdicts.command(record)
        if out is None:
            continue
        name = Path(paths[i]).parent.name
        verdicts.expect(record["code"] == 1, f"a {name} certificate passed check-certificates")
        verdicts.expect(out["failed"] == 1, f"the {name} certificate was not reported")
        payload = json.loads(Path(paths[i]).read_text(encoding="utf-8"))
        verdicts.expect(not checks.certificate_holds(payload),
                        f"the benchmark's own check passed a {name} certificate")


def _check_histories_bundle(
    verdicts: Verdicts,
    record: dict,
    bundle: Path,
    m: int,
    k: int,
    cache: CertificateCache,
) -> dict | None:
    """Check one ``prove --mode histories`` run and its bundle; return the
    summary so the workload can test its paper claims."""
    summary_path = bundle / "histories.json"
    summary = (
        json.loads(summary_path.read_text(encoding="utf-8"))
        if summary_path.exists()
        else None
    )
    # One verdict per certificate and per witness (the root has none).
    out = verdicts.command(
        record, lambda out: out["certificates"] + out["histories"] - 1
    )
    if out is None or summary is None:
        verdicts.expect(summary is not None, f"{bundle}: no histories.json")
        return None
    verdicts.expect(record["code"] == 0, f"histories m={m} k={k}: exit code")
    verdicts.expect(out["complete"] and summary["complete"], "search incomplete")
    cert_files = sorted((bundle / "certificates").glob("*.json"))
    verdicts.expect(
        len(cert_files) == summary["certificates"] == out["certificates"],
        "certificate count",
    )
    leaves = []  # the steps of every certified continuation
    for path in cert_files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        verdicts.expect(
            (payload["m"], payload["k"]) == (m, k), f"{path.name}: wrong m or k"
        )
        verdicts.expect(cache.holds(path), f"{path.name}: Farkas check fails")
        leaves.append(tuple(
            (checks.mask_of(s["W"], m), checks.mask_of(s["T"], m))
            for s in payload["history"]
        ))
    total = 0
    histories = []
    for hist in summary["histories"]:
        steps = [
            (checks.mask_of(labels_to_numbers(s["W"]), m),
             checks.mask_of(labels_to_numbers(s["T"]), m))
            for s in hist["steps"]
        ]
        histories.append(tuple(steps))
        total = max(total, sum(t.bit_count() for _, t in steps))
        if not steps:
            continue
        weights: dict[int, Fraction] = {}
        for entry in hist["witness"]:
            mask = checks.mask_of(labels_to_numbers(entry["approve"]), m)
            weights[mask] = Fraction(entry["weight"])
        try:
            election = checks.Election(m, k, weights)
            realized = election.realizes(steps)
        except ValueError:
            realized = False
        verdicts.expect(realized, f"witness of {hist['steps']} fails the semantics check")
    verdicts.expect(out["max_total_deviation"] == total, "max total deviation")
    verdicts.expect(
        out["proposition1"] == summary["proposition1"] == (total <= k),
        "Proposition 1 verdict",
    )
    _check_search_tree(verdicts, m, k, histories, leaves)
    return summary


def _check_search_tree(verdicts: Verdicts, m: int, k: int, histories, leaves) -> None:
    """The search is complete by the benchmark's own count: every
    continuation of every history, up to relabeling, ends in exactly one
    certificate or one history one step longer. The program's own
    ``complete`` flag would also hold on a search that dropped
    continuations."""
    children: dict[tuple, list[tuple]] = {h: [] for h in histories}
    for steps in leaves + [h for h in histories if h]:
        parent = steps[:-1]
        if parent not in children:
            verdicts.problems.append(f"m={m} k={k}: {steps} continues no history")
            continue
        children[parent].append(checks.orbit_key(m, parent, *steps[-1]))
    for parent, found in children.items():
        expected = checks.continuation_orbits(m, k, parent)
        counted = Counter(found)
        missing = len(expected - counted.keys())
        extra = sum(n for key, n in counted.items() if key not in expected)
        twice = sum(n - 1 for key, n in counted.items() if key in expected and n > 1)
        verdicts.expect(
            not (missing or extra or twice),
            f"m={m} k={k}, history of {len(parent)} step(s): {missing} continuation(s) "
            f"missing, {extra} not continuations, {twice} covered twice",
        )


class _ProofWorkload:
    """The proof workloads take no inputs; the seed only picks the
    certificates and multipliers that the negative controls corrupt."""

    control_bundle = "bundle"

    def prepare(self, run_dir: Path, seed: int) -> dict:
        return {"seed": seed}

    def controls(self, runner, plan: dict, run_dir: Path, first_round: Path) -> None:
        paths = _corrupt_certificates(
            first_round / self.control_bundle, run_dir / "control", plan["seed"]
        )
        plan["controls"] = [str(p) for p in paths]
        for path in paths:
            runner.call("control", ["check-certificates", str(path.parent), "--json"])


def _check_reference_counts(verdicts: Verdicts, summary: dict, m: int, k: int,
                            histories: int, certificates: int) -> None:
    """The search must find the reference figures of README.md."""
    got = (len(summary["histories"]), summary["certificates"])
    verdicts.expect(got == (histories, certificates),
                    f"m={m} k={k}: {got[0]} histories and {got[1]} certificates, "
                    f"the reference is {histories} and {certificates}")


class HistoriesK8M10(_ProofWorkload):
    name = "histories-k8-m10"
    m, k = 10, 8
    #: Reference figures: the root and one (4, 2) history, 99 certificates.
    histories, certificates = 2, 99

    def run_round(self, runner, plan: dict, round_dir: Path) -> None:
        bundle = round_dir / "bundle"
        runner.call("solve", ["prove", "--mode", "histories", "--m", str(self.m),
                              "--k", str(self.k), "--out", str(bundle),
                              "--threads", "1", "--json"])
        runner.call("check", ["check-certificates", str(bundle), "--json"])

    def check(self, plan: dict, rounds: list, controls: list, verdicts: Verdicts) -> None:
        cache = CertificateCache()
        for rnd in rounds:
            prove, check = rnd["commands"]
            bundle = Path(rnd["dir"]) / "bundle"
            summary = _check_histories_bundle(verdicts, prove, bundle, self.m, self.k, cache)
            if summary is not None:
                # Proposition 1 at k = 8: the search ends, every history
                # fixes at most k candidates, and the only realizable
                # first step is the (|T| = 4, |T ∩ W| = 2) shape.
                verdicts.expect(summary["proposition1"], "Proposition 1 fails")
                shapes = []
                for hist in summary["histories"]:
                    if len(hist["steps"]) == 1:
                        w, t = (set(hist["steps"][0][key]) for key in ("W", "T"))
                        shapes.append((len(t), len(t & w)))
                verdicts.expect(shapes and set(shapes) == {(4, 2)},
                                f"one-step histories of shapes {shapes}, not only (4, 2)")
                _check_reference_counts(verdicts, summary, self.m, self.k,
                                        self.histories, self.certificates)
            _check_bundle_command(verdicts, check, bundle, cache)
        _check_controls(verdicts, controls, plan.get("controls", []))


class TheoremK7M12(_ProofWorkload):
    name = "theorem-k7-m12"
    m, k, k3 = 12, 7, 4
    #: Reference figures: only the root history, 25 certificates.
    histories, certificates = 1, 25
    control_bundle = "histories"

    def run_round(self, runner, plan: dict, round_dir: Path) -> None:
        shapes, hist = round_dir / "program3", round_dir / "histories"
        runner.call("solve", ["prove", "--mode", "program3", "--k", str(self.k3),
                              "--out", str(shapes), "--json"])
        runner.call("solve", ["prove", "--mode", "histories", "--m", str(self.m),
                              "--k", str(self.k), "--out", str(hist),
                              "--threads", "1", "--json"])
        runner.call("check", ["check-certificates", str(shapes), "--json"])
        runner.call("check", ["check-certificates", str(hist), "--json"])

    def check(self, plan: dict, rounds: list, controls: list, verdicts: Verdicts) -> None:
        cache = CertificateCache()
        expected_shapes = {
            (size, overlap) for size in range(1, self.k3 + 1) for overlap in range(size)
        }
        for rnd in rounds:
            p3, hist, check3, check_h = rnd["commands"]
            shapes, bundle = Path(rnd["dir"]) / "program3", Path(rnd["dir"]) / "histories"
            out = verdicts.command(p3, lambda out: len(out["results"]))
            if out is not None:
                # The k <= 7 theorem in program form: no shape is feasible.
                found = {(e["size"], e["overlap"]) for e in out["results"]}
                verdicts.expect(found == expected_shapes, "program3 shape list")
                verdicts.expect(out["all_infeasible"] and p3["code"] == 0,
                                "a program3 shape is feasible at k=4")
                for e in out["results"]:
                    path = shapes / e.get("file", "missing")
                    verdicts.expect(e["status"] == "infeasible" and path.exists(),
                                    f"shape {e['size']},{e['overlap']}: no certificate")
                    if path.exists():
                        verdicts.expect(cache.holds(path), f"{path.name}: Farkas check fails")
            summary = _check_histories_bundle(verdicts, hist, bundle, self.m, self.k, cache)
            if summary is not None:
                # The k <= 7 theorem in history form: no first step is
                # realizable, so the root is the only history.
                verdicts.expect(
                    [h["steps"] for h in summary["histories"]] == [[]],
                    "histories beyond the root at k=7",
                )
                _check_reference_counts(verdicts, summary, self.m, self.k,
                                        self.histories, self.certificates)
            _check_bundle_command(verdicts, check3, shapes, cache)
            _check_bundle_command(verdicts, check_h, bundle, cache)
        _check_controls(verdicts, controls, plan.get("controls", []))


# ---------------------------------------------------------------------------
# The elections mix: rules, then verify-core on what they return.

#: (kind, m, k) of every profile in a round; the seed draws the ballots and
#: the candidate labels, never the sizes, so every seed costs about the same.
#: Each kind comes four times, so that a round averages over more draws:
#: with one profile of each kind, a round's cost moved by 8 % (IQR /
#: median) from seed to seed, against 3 % between runs of one seed.
ELECTION_SLOTS = (
    ("random", 12, 3),
    ("random", 13, 4),
    ("random", 14, 5),
    ("random", 15, 7),
    ("lemma2", 13, 8),
    ("lemma2", 14, 9),
) * 4


def random_profile(rng: random.Random, m: int, k: int) -> dict:
    """m + 4 ballots of 2 to 4 candidates with counts 1 to 99. Ballot i < m
    holds the i-th candidate, so every candidate is approved; with counts
    that rarely coincide, committees rarely tie. Ties would add
    ``verify-core`` calls on some seeds only. Popular candidates are drawn
    more often."""
    popularity = [1.0 / (i + 1) for i in range(m)]
    order = list(range(1, m + 1))
    rng.shuffle(order)
    ballots: dict[tuple, int] = {}
    for i in range(m + 4):
        chosen = {order[i]} if i < m else set()
        size = rng.randint(2, 4)
        while len(chosen) < size:
            chosen.add(order[rng.choices(range(m), popularity)[0]])
        key = tuple(sorted(chosen))
        ballots[key] = ballots.get(key, 0) + rng.randint(1, 99)
    return {
        "m": m,
        "k": k,
        "ballots": [{"approve": list(b), "count": c} for b, c in sorted(ballots.items())],
    }


def lemma2_profile(rng: random.Random, m: int, k: int) -> dict:
    """The forced k = 8 failure (Lemma 2), relabeled and padded: weight
    1/4 on {a, b, x}, 1/4 on {a, b, y}, and the rest on k - 2 candidates
    disjoint from T = {a, b, x, y}. At k = 9 the two special ballots carry
    6/27 each, as in the instance whose unique PAV committee fails."""
    order = list(range(1, m + 1))
    rng.shuffle(order)
    a, b, x, y = order[:4]
    rest = order[4:4 + k - 2]
    special = Fraction(1, 4) if k == 8 else Fraction(6, 27)
    return {
        "m": m,
        "k": k,
        "ballots": [
            {"approve": sorted([a, b, x]), "weight": str(special)},
            {"approve": sorted([a, b, y]), "weight": str(special)},
            {"approve": sorted(rest), "weight": str(1 - 2 * special)},
        ],
    }


#: A fixed unstable committee: in the padded tied-pair instance the
#: committee {1, 2, 5..10} falls to T = {1, 2, 3, 4} with support 1/2.
PLANTED = (
    {
        "m": 12,
        "k": 8,
        "ballots": [
            {"approve": [1, 2, 3], "count": 1},
            {"approve": [1, 2, 4], "count": 1},
            {"approve": [5, 6, 7, 8, 9, 10], "count": 2},
        ],
    },
    [1, 2, 5, 6, 7, 8, 9, 10],
)

RULES = ("recursive-pav", "pav-global", "pav-local")


def rule_committees(rule: str, out: dict) -> list[list[int]]:
    if rule == "pav-global":
        return [labels_to_numbers(c) for c in out["committees"]]
    if rule == "recursive-pav" and out.get("status") != "success":
        return []
    return [labels_to_numbers(out["committee"])]


class ElectionsM15:
    name = "elections-m15"

    def prepare(self, run_dir: Path, seed: int) -> dict:
        rng = random.Random(seed)
        profiles = []
        for i, (kind, m, k) in enumerate(ELECTION_SLOTS):
            make = random_profile if kind == "random" else lemma2_profile
            data = make(rng, m, k)
            path = run_dir / f"profile{i}_{kind}_m{m}_k{k}.json"
            path.write_text(json.dumps(data) + "\n", encoding="utf-8")
            profiles.append({"kind": kind, "file": str(path), "data": data})
        planted = run_dir / "planted.json"
        planted.write_text(json.dumps(PLANTED[0]) + "\n", encoding="utf-8")
        return {
            "seed": seed,
            "profiles": profiles,
            "planted": {"file": str(planted), "data": PLANTED[0], "committee": PLANTED[1]},
        }

    def run_round(self, runner, plan: dict, round_dir: Path) -> None:
        for profile in plan["profiles"]:
            committees = []
            for rule in RULES:
                record = runner.call("solve", ["rule", profile["file"], "--rule", rule, "--json"])
                try:
                    found = rule_committees(rule, json.loads(record["stdout"]))
                except (json.JSONDecodeError, KeyError, ValueError):
                    found = []
                # No deduplication: every seed then checks the same number
                # of committees, even where two rules agree.
                committees.extend(found)
            for committee in committees:
                runner.call("check", ["verify-core", profile["file"],
                                      committee_spec(committee), "--json"])
        planted = plan["planted"]
        runner.call("check", ["verify-core", planted["file"],
                              committee_spec(planted["committee"]), "--json"])

    def controls(self, runner, plan: dict, run_dir: Path, first_round: Path) -> None:
        pass

    def check(self, plan: dict, rounds: list, controls: list, verdicts: Verdicts) -> None:
        elections = [
            checks.Election.from_file_dict(p["data"]) for p in plan["profiles"]
        ]
        by_file = {p["file"]: e for p, e in zip(plan["profiles"], elections)}
        planted = plan["planted"]
        by_file[planted["file"]] = checks.Election.from_file_dict(planted["data"])
        stable_cache: dict[tuple, list[int]] = {}

        def deviations(election, w_mask):
            key = (id(election), w_mask)
            if key not in stable_cache:
                stable_cache[key] = election.deviations(w_mask)
            return stable_cache[key]

        for rnd in rounds:
            for record in rnd["commands"]:
                argv = record["argv"]
                election = by_file[argv[1]]
                if argv[0] == "rule":
                    self._check_rule(verdicts, record, election, argv[3], deviations)
                else:
                    self._check_core(verdicts, record, election, argv[2], deviations)
                    if argv[1] == planted["file"]:
                        verdicts.expect(record["code"] == 1, "planted committee passed verify-core")

    @staticmethod
    def _check_rule(verdicts, record, election, rule, deviations) -> None:
        out = verdicts.command(record, lambda out: len(out.get("committees", [0])))
        if out is None:
            return
        m, k = election.m, election.k
        where = f"{rule} on m={m} k={k}"
        if rule == "recursive-pav":
            # Core existence for m <= 15: the recursive rule never fails.
            verdicts.expect(out["status"] == "success" and record["code"] == 0, f"{where}: failed")
            fixed = 0
            for step in out["trace"]:
                w = checks.mask_of(labels_to_numbers(step["W"]), m)
                t = checks.mask_of(labels_to_numbers(step["T"]), m)
                verdicts.expect(
                    w.bit_count() == k and fixed & ~w == 0
                    and election.support(w, t) >= Fraction(t.bit_count(), k),
                    f"{where}: a trace step is not a successful deviation",
                )
                fixed |= t
            if out["status"] != "success":
                return
            w = checks.mask_of(labels_to_numbers(out["committee"]), m)
            verdicts.expect(fixed & ~w == 0, f"{where}: committee drops a fixed set")
            verdicts.expect(not deviations(election, w), f"{where}: committee is not in the core")
            verdicts.expect(election.score(w) == Fraction(out["score"]), f"{where}: score")
            return
        if rule == "pav-global":
            best, top = election.best_committees()
            got = {checks.mask_of(labels_to_numbers(c), m) for c in out["committees"]}
            verdicts.expect(got == top, f"{where}: optimal committees differ")
            verdicts.expect(Fraction(out["score"]) == best, f"{where}: optimal score")
            members = got
        else:
            w = checks.mask_of(labels_to_numbers(out["committee"]), m)
            verdicts.expect(w.bit_count() == k, f"{where}: committee size")
            verdicts.expect(not election.improving_swap(w), f"{where}: a swap improves")
            verdicts.expect(election.score(w) == Fraction(out["score"]), f"{where}: score")
            members = {w}
        if k <= 7:
            # Swap-optimal committees are core stable for k <= 7.
            for w in members:
                verdicts.expect(not deviations(election, w), f"{where}: not in the core")

    @staticmethod
    def _check_core(verdicts, record, election, spec, deviations) -> None:
        out = verdicts.command(record)
        if out is None:
            return
        m, k = election.m, election.k
        numbers = [int(c) for c in spec.split(",")]
        w = checks.mask_of(numbers, m)
        found = deviations(election, w)
        where = f"verify-core m={m} k={k} W={spec}"
        verdicts.expect(out["stable"] == (not found), f"{where}: wrong verdict")
        verdicts.expect(record["code"] == (0 if out["stable"] else 1), f"{where}: exit code")
        if out["stable"] or not found:
            return
        t = checks.mask_of(labels_to_numbers(out["deviation"]), m)
        support = election.support(w, t)
        smallest = min(d.bit_count() for d in found)
        verdicts.expect(t in found, f"{where}: reported deviation does not succeed")
        verdicts.expect(Fraction(out["support"]) == support, f"{where}: support")
        verdicts.expect(Fraction(out["threshold"]) == Fraction(t.bit_count(), k),
                        f"{where}: threshold")
        verdicts.expect(t.bit_count() == smallest, f"{where}: deviation is not minimal")


WORKLOADS = {w.name: w for w in (HistoriesK8M10(), TheoremK7M12(), ElectionsM15())}
