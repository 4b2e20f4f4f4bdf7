"""The benchmark's program process: set-up, timed rounds, controls.

Started by ``run.py`` as ``worker.py <result.json> <workload> <seed>
<seconds> <trace> <run_dir> [--setup-only]``. It imports pavcore from the
checkout's ``src``, makes the workload's inputs, runs whole rounds of the
workload's commands through ``pavcore.cli.main`` until ``seconds`` have
passed, records its peak memory after each round, runs the negative
controls and writes everything to ``result.json``. The checks of the outputs run in the parent
process, so they add nothing to this process's peak memory.

Set-up time is the process's own CPU time (user and system) from its
start until the inputs are made: the interpreter's start, the imports and
the inputs. Unlike wall time it leaves out waits for the disk. It is also
given at the reference speed (``setup_ref``): scaled by ``YARDSTICK_S`` over
the CPU time this process took to start and import numpy, which it does
first. Starting Python and importing numpy is work of the same kind as the
rest of set-up (loading code, touching fresh memory), so the ratio follows
the host's speed at that work, which the arithmetic probe of ``speed.py``
does not.

The timed rounds of a run without tracing run with ``speed.Sampler`` on,
and every command's time and the round's are also given at the reference
speed (``*_ref``), with the probes' own time taken out. A command with
fewer than ``MIN_PROBES`` probes of its own takes its round's speed.

With tracing on, rounds run untraced for half the time and traced for the
other half, so the traced run also gives the tracing overhead. No probes
run then, so that they add nothing to any layer.
"""

import resource

import numpy  # noqa: F401  (first: its import is set-up's yardstick)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


YARDSTICK = cpu_seconds()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PROBES = 20
#: CPU seconds to start Python and import numpy on the reference machine
#: (median of 20 fresh processes).
YARDSTICK_S = 0.228


def import_program():
    sys.path.insert(0, str(SRC))
    from pavcore import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pavcore was imported from {cli.__file__}, not {SRC}")
    return cli


class Runner:
    """Runs one command line through ``cli.main`` and times it."""

    def __init__(self, cli, sampler=None):
        self.main = cli.main
        self.sampler = sampler
        self.commands: list[dict] = []

    def call(self, kind: str, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        error = None
        first = len(self.sampler.durations) if self.sampler else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            code, error = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        record = {
            "kind": kind,
            "argv": argv,
            "code": code,
            "seconds": seconds,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "error": error,
        }
        if self.sampler:
            record["probes"] = self.sampler.durations[first:]
        self.commands.append(record)
        return record


def at_reference(rnd: dict, probes: list[float]) -> None:
    """Add the round's and each command's time at the reference speed;
    ``probes`` are those taken during the round."""
    round_speed = speed.speed_of(probes)
    in_commands = 0.0
    for command in rnd["commands"]:
        own = command.pop("probes")
        in_commands += sum(own)
        pace = speed.speed_of(own) if len(own) >= MIN_PROBES else round_speed
        command["seconds_ref"] = (command["seconds"] - sum(own)) * pace
    between = rnd["wall"] - sum(c["seconds"] for c in rnd["commands"])
    rnd["wall_ref"] = sum(c["seconds_ref"] for c in rnd["commands"]) + (
        between - (sum(probes) - in_commands)
    ) * round_speed


def run_rounds(workload, cli, plan, run_dir: Path, seconds: float, first: int,
               tracer=None, sampler=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        round_dir = run_dir / f"round{first + len(rounds)}"
        round_dir.mkdir()
        runner = Runner(cli, sampler)
        gc.collect()  # every round starts from the same heap, untimed
        first_probe = len(sampler.durations) if sampler else 0
        start = time.perf_counter()
        workload.run_round(runner, plan, round_dir)
        wall = time.perf_counter() - start
        rnd = {"dir": str(round_dir), "wall": wall, "commands": runner.commands,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if sampler:
            at_reference(rnd, sampler.durations[first_probe:])
        if tracer is not None:
            rnd["self_s"], rnd["counts"] = tracer.take()
        rounds.append(rnd)
    return rounds


def main(argv: list[str]) -> int:
    result_path, name, seed, seconds, trace, run_dir = argv[:6]
    setup_only = argv[6:] == ["--setup-only"]
    import workloads

    workload = workloads.WORKLOADS[name]
    run_dir = Path(run_dir)
    cli = import_program()
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    plan = workload.prepare(inputs, int(seed))
    setup = cpu_seconds()
    result = {"setup_s": setup, "setup_ref": setup * YARDSTICK_S / YARDSTICK}
    if not setup_only:
        seconds = float(seconds)
        if trace == "1":
            import layers

            result["untraced"] = run_rounds(workload, cli, plan, run_dir, seconds / 2, 0)
            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                result["rounds"] = run_rounds(
                    workload, cli, plan, run_dir, seconds / 2,
                    len(result["untraced"]), tracer,
                )
            finally:
                tracer.uninstall()
        else:
            sampler = speed.Sampler()
            sampler.start()
            try:
                result["rounds"] = run_rounds(workload, cli, plan, run_dir, seconds, 0,
                                              sampler=sampler)
            finally:
                sampler.stop()
        runner = Runner(cli)
        try:
            workload.controls(runner, plan, run_dir, Path(result["rounds"][0]["dir"]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # No bundle to corrupt: the control is a failed operation.
            runner.commands.append({"kind": "control", "argv": ["control"], "code": None,
                                    "seconds": 0.0, "stdout": "", "stderr": "",
                                    "error": repr(exc)})
        result["controls"] = runner.commands
        result["plan"] = plan
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
