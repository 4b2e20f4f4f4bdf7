"""Benchmark of the pavcore proof engine, driven through its command line.

    python3 bench/run.py --workload histories-k8-m10 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. One worker process (``worker.py``) imports
pavcore from ``src``, makes the workload's inputs from the seed and runs
whole rounds of the workload's commands for ``--seconds``; this process
then checks every output with the benchmark's own code (``checks.py``,
which uses no pavcore code) and prints the metrics, one per line, and
finally one JSON object as the last line of its output.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (a
whole round), ``solve_s`` (its ``prove`` and ``rule`` commands) and
``check_s`` (its ``check-certificates`` and ``verify-core`` commands), each
built from per-command medians over the rounds; the worker's
``peak_rss_mb`` over set-up and the first round; and ``setup_s``, the
median CPU time of seven set-ups that import pavcore and make the inputs:
three set-up-only processes before the worker, the worker's own and three
more after it. The times are given at a reference speed (``speed.py`` for
the rounds, ``worker.py`` for set-up), so that the swings of a shared
host's speed drop out; the times at the host's own speed are printed too,
but are no metric. With
``--trace 1`` they are the per-layer self times and counts of a traced run
(see ``layers.py``) and the tracing overhead.

Exit codes: 0 with a result, 2 when the checkout has no pavcore sources or
the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Fresh set-up-only processes timed for setup_s before the worker, and
#: again after it.
SETUP_RUNS = 3


def _worker(result: Path, args, run_dir: Path, setup_only: bool) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), str(result), args.workload,
        str(args.seed), str(args.seconds), str(args.trace), str(run_dir),
    ] + (["--setup-only"] if setup_only else [])
    # The last round may start just before --seconds are up; with --trace 1
    # an untraced and a traced round both run in full.
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=2 * args.seconds + 120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr[-3000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def _median_of(rounds: list[dict], value) -> float:
    return statistics.median(value(r) for r in rounds)


def round_times(rounds: list[dict], suffix: str = "") -> dict[str, float]:
    """Typical wall, solve and check seconds of one round: raw, or at the
    reference speed with ``suffix="_ref"``.

    Every round runs the same commands, so each command's time is taken as
    its median over the rounds, and the round's times are sums of those
    medians. The time between commands (parsing outputs for the next
    command) is the median of its own. Short bursts of load on the host
    slow a few commands of a few rounds; medians per command leave them
    out, where a median of whole rounds would not.
    """
    seconds, wall = "seconds" + suffix, "wall" + suffix
    n = len(rounds[0]["commands"])
    if any(len(r["commands"]) != n for r in rounds):
        raise ValueError("rounds ran different commands")
    kinds = [c["kind"] for c in rounds[0]["commands"]]
    medians = [
        statistics.median(r["commands"][i][seconds] for r in rounds)
        for i in range(n)
    ]
    between = _median_of(
        rounds, lambda r: r[wall] - sum(c[seconds] for c in r["commands"])
    )
    return {
        "wall_s": sum(medians) + between,
        "solve_s": sum(t for t, kind in zip(medians, kinds) if kind == "solve"),
        "check_s": sum(t for t, kind in zip(medians, kinds) if kind == "check"),
    }


def end_to_end(result: dict, setup: list[float]) -> dict:
    rounds = result["rounds"]
    metrics = {name: (value, "s") for name, value in round_times(rounds, "_ref").items()}
    # Of set-up and the first round: a run holds one round or more,
    # depending on the host's speed.
    metrics["peak_rss_mb"] = (rounds[0]["peak_rss_mb"], "MB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    return metrics


def per_layer(result: dict, verdicts: workloads.Verdicts) -> dict:
    rounds = result["rounds"]
    metrics = {}
    for layer in layers.TIMED_LAYERS:
        name = "cli.self_s" if layer == "cli" else f"{layer}_s"
        metrics[name] = (_median_of(rounds, lambda r: r["self_s"].get(layer, 0.0)), "s")
    for count in layers.COUNTS:
        values = {r["counts"].get(count, 0) for r in rounds}
        verdicts.expect(len(values) == 1, f"{count} differs between rounds: {values}")
        metrics[count] = (rounds[0]["counts"].get(count, 0), "count")
    traced = round_times(rounds)["wall_s"]
    untraced = round_times(result["untraced"])["wall_s"]
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pavcore" / "cli.py").is_file():
        print(f"error: no pavcore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def setups(first: int) -> list[float]:
        if args.trace:
            return []
        return [_worker(run_dir / f"setup{i}" / "result.json", args,
                        run_dir / f"setup{i}", True)["setup_ref"]
                for i in range(first, first + SETUP_RUNS)]

    try:
        setup = setups(0)
        result = _worker(run_dir / "result.json", args, run_dir / "run", False)
        setup += [result["setup_ref"]] + setups(SETUP_RUNS)
        verdicts = workloads.Verdicts()
        workload = workloads.WORKLOADS[args.workload]
        rounds = result["rounds"] + result.get("untraced", [])
        try:
            workload.check(result["plan"], rounds, result["controls"], verdicts)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            verdicts.problems.append(f"output not in the documented format: {exc!r}")
        if args.trace:
            metrics = per_layer(result, verdicts)
        else:
            metrics = end_to_end(result, setup)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in verdicts.failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    for line in verdicts.problems[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} round(s), "
          f"{verdicts.attempted} verdicts, {verdicts.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    if not args.trace:
        raw = round_times(result["rounds"])
        raw["setup_s"] = result["setup_s"]
        print("  at the host's own speed, not at the reference speed: "
              + ", ".join(f"{name} {value:.3f} s" for name, value in raw.items()))
    print(json.dumps({
        "correct": not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
