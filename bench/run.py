"""totpos benchmark.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One process, one thread, one caller in a closed
loop: the next operation starts when the previous one has returned (the
``cli`` workload starts one child process at a time).  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it name every metric with its
unit, the machine, the measured input properties and the known defects.
Times are scaled to a reference host speed by a probe timed between the
operations (``hostclock.py``); the same figures as wall time are printed
on the line that starts ``host probe``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
sys.path.insert(0, str(SRC))

MIN_OPS = 100  # so that at least ten samples lie beyond op_p90_ms
SETUP_MIN_REPEATS = 7
SETUP_SLICE_S = 0.6  # set-up samples after each pass add up to at least this
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120


def _import_package():
    if not (SRC / "totpos" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'totpos'}")
    import totpos

    if Path(totpos.__file__).resolve().parent != SRC / "totpos":
        sys.exit(f"error: totpos imported from {totpos.__file__}, not from {SRC}")
    return totpos


totpos = _import_package()
import totpos.cli  # noqa: E402  (imported so the tracer patches its namespace)
import numpy  # noqa: E402
from totpos.errors import StrictnessWarning  # noqa: E402

import cli_cases  # noqa: E402
from hostclock import IMPORT_EVERY_S, IMPORT_REFERENCE_S, HostClock, import_probe  # noqa: E402
from tracer import DERIVED, TRACED, Tracer  # noqa: E402
from workloads import CERTIFY, GEOMETRY, SPECTRAL, Kind, compare, slot_rng  # noqa: E402

# workload -> (kinds, passes in a traced run)
LIBRARY = {
    "certify": (CERTIFY, 1),
    "spectral": (SPECTRAL, 2),
    "geometry": (GEOMETRY, 2),
}
CLI_TRACE_PASSES = 2
_EXPECTED_PATH = BENCH / "expected.json"
EXPECTED = json.loads(_EXPECTED_PATH.read_text()) if _EXPECTED_PATH.exists() else {}


@dataclass
class Op:
    kind: Kind
    n: int
    slot: int
    input: Any

    @property
    def key(self) -> str:
        return f"{self.kind.name}/{self.n}/{self.slot}"


@dataclass
class Sample:
    """One timed op, kept without its result once it has been checked."""

    op: Any  # Op or cli_cases.Case
    seconds: float  # wall time
    at: float = 0.0  # perf_counter when the op started
    warned: bool = False
    failure: str | None = None  # why the op is wrong; None when it is right
    known: str | None = None  # a failure recorded for its slot, reproduced


class Plan:
    """The inputs of one run, built once at set-up.

    A pass holds ``per_pass`` slots of every size of every kind, the same
    ones in every run; the seed shuffles each pass anew, so it sets the
    order and nothing else.  Kinds derived from one matrix (a TP matrix,
    its deep negative, its float copy) share its slot and its synthesis.
    """

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(seed)
        cache: dict = {}
        self.ops = [
            Op(kind, n, i, kind.build(slot_rng(workload, kind.name, n, i), n, i, cache))
            for kind in LIBRARY[workload][0] for n in kind.sizes for i in range(kind.per_pass)
        ]

    def next_pass(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        """One pass without each kind's largest size: every code path, less time."""
        return [op for op in self.ops if op.n < max(op.kind.sizes)]


# -- running and checking library ops -------------------------------------------


def execute(op: Op, tracer: Tracer | None = None) -> tuple[Sample, Any]:
    """One op and its result; with a tracer it is a root span named "op"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StrictnessWarning)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.kind.call(op.input)
            else:
                result = tracer.span("op", op.kind.call, op.input)
        except Exception as exc:  # an op that raises is a failed op
            seconds = time.perf_counter() - start
            return Sample(op, seconds, failure=f"{type(exc).__name__}: {exc}"), None
        seconds = time.perf_counter() - start
    warned = any(issubclass(w.category, StrictnessWarning) for w in caught)
    return Sample(op, seconds, warned=warned), result


def settle(s: Sample, want: dict) -> Sample:
    """A failure that repeats the one recorded for its slot is a known
    defect: the sample is marked known and the failure is not counted."""
    if s.failure is not None and s.failure == want.get("known"):
        s.known, s.failure = s.failure, None
    return s


def check(workload: str, s: Sample, result: Any) -> Sample:
    """Set ``s.failure`` when the result is wrong; the result is not kept."""
    op = s.op
    want = EXPECTED[workload].get(op.key)
    if want is None:
        s.failure = "no expected result recorded"
        return s
    if s.failure is None:
        try:
            if want.keys() <= {"known", "w"}:
                # the reference run raised, so only the label can judge a result
                s.failure = op.kind.label(op.input, result)
            else:
                s.failure = compare(op.kind.record(op.input, result), want) or op.kind.label(
                    op.input, result)
        except Exception as exc:  # a result of unexpected shape is a wrong result
            s.failure = f"check raised {type(exc).__name__}: {exc}"
    return settle(s, want)


def run_loop(next_pass, seconds: float, run_one, between, clock: HostClock) -> list[Sample]:
    """Closed loop over whole passes until `seconds` and MIN_OPS are reached.

    Results are checked as they come, between the timed calls, and the host
    clock probes there too; ``between`` runs after each pass.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_OPS:
        for op in next_pass():
            at = time.perf_counter()
            samples.append(run_one(op))
            samples[-1].at = at
            clock.tick()
        between()
    return samples


# -- cli ops ------------------------------------------------------------------------


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def execute_cli(case: cli_cases.Case, inputs: Path) -> tuple[Sample, tuple]:
    start = time.perf_counter()
    proc = run_child([sys.executable, "-m", "totpos.cli", *case.resolved(inputs)])
    seconds = time.perf_counter() - start
    return Sample(case, seconds), (proc.returncode, proc.stdout, proc.stderr)


def execute_cli_inprocess(case: cli_cases.Case, inputs: Path,
                          tracer: Tracer | None = None) -> tuple[Sample, tuple]:
    """totpos.cli.main(argv) in this process, looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            argv = case.resolved(inputs)
            if tracer is None:
                code = totpos.cli.main(argv)
            else:
                code = tracer.span("op", totpos.cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    return Sample(case, seconds), (code, out.getvalue(), err.getvalue())


def check_cli(s: Sample, result: tuple) -> Sample:
    want = EXPECTED["cli"].get(s.op.name)
    if want is None:
        s.failure = "no expected result recorded"
        return s
    try:
        rec, s.failure = cli_cases.case_record(s.op, *result)
        if s.failure is None and "known" not in want:
            s.failure = compare(rec, want)
    except Exception as exc:  # unreadable --json output, or fields missing from it
        s.failure = f"check raised {type(exc).__name__}: {exc}"
    return settle(s, want)


@contextlib.contextmanager
def cli_inputs():
    """Case files in a per-process directory inside the checkout."""
    directory = ROOT / ".bench_tmp" / f"cli-{os.getpid()}"
    try:
        yield cli_cases.write_inputs(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            directory.parent.rmdir()


# -- measurements around the loop -------------------------------------------------


def timed_child(argv: list[str]) -> tuple[float, float]:
    """(start, wall seconds) of a child that must succeed."""
    start = time.perf_counter()
    proc = run_child(argv)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return start, seconds


class SetupTimer:
    """Wall times of fresh processes that import totpos and build the inputs.

    Sampled after every pass, so the samples spread over the whole run, as
    the ops do, and topped up to SETUP_MIN_REPEATS at the end; setup_s is
    the median of their times at the reference host speed.
    """

    def __init__(self, workload: str, seed: int, clock: HostClock):
        if workload == "cli":
            self.argv = [sys.executable, "-c", "import totpos"]
        else:
            self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                         "--seed", str(seed), "--setup-only"]
        self.clock = clock
        self.times: list[tuple[float, float]] = []

    def take(self) -> float:
        self.times.append(timed_child(self.argv))
        self.clock.probe()
        return self.times[-1][1]

    def sample(self) -> None:
        taken = 0.0
        while taken < SETUP_SLICE_S:
            taken += self.take()

    def median(self) -> tuple[float, float]:
        """(scaled, wall) median set-up seconds."""
        while len(self.times) < SETUP_MIN_REPEATS:
            self.take()
        return (statistics.median(s * self.clock.scale(at) for at, s in self.times),
                statistics.median(s for _, s in self.times))


def import_times() -> tuple[float, float]:
    """(numpy ms, totpos ms without numpy) from -X importtime, median of runs."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import totpos"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        numpy_ms.append(cumulative["numpy"] / 1000)
        own_ms.append((cumulative["totpos"] - cumulative["numpy"]) / 1000)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def latency_metrics(samples: list[Sample], clock: HostClock | None = None) -> dict[str, float]:
    """Throughput over the timed time (the sum of the op times) and latency
    percentiles over every sample of the run; with a clock, each op's time
    is scaled to the reference host speed, without one it is wall time."""
    ms = sorted(s.seconds * 1000 * (clock.scale(s.at) if clock else 1) for s in samples)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "ops_per_s": 1000 * len(ms) / sum(ms),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def machine() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} platform={platform.platform()} "
            f"cpus={sorted(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else '?'}")


def shares(counter: Counter, total: int) -> str:
    return ", ".join(f"{k}: {100 * v / total:.1f}%" for k, v in sorted(counter.items()))


def input_report(workload: str, samples: list[Sample]) -> list[str]:
    """Measured shares of the input properties later claims cite."""
    total = len(samples)
    if workload == "cli":
        kinds = Counter("error" if s.op.exit_code else ("json" if s.op.json else "text")
                        for s in samples)
        return [f"inputs: {total} cli calls over {len(cli_cases.CASES)} cases; {shares(kinds, total)}"]
    ops = [s.op for s in samples]
    lines = [f"inputs: n histogram {dict(sorted(Counter(op.n for op in ops).items()))}",
             f"inputs: kinds {shares(Counter(op.kind.name for op in ops), total)}"]
    if workload == "certify":
        kinds = Counter(op.kind.name for op in ops)
        quick = kinds["qr_entry"] + kinds["qr_minor"]
        floats = [s for s in samples if s.op.kind.float_verdict]
        witness = Counter(EXPECTED["certify"][op.key]["w"] for op in ops if op.kind.name == "deep")
        lines.append(
            f"inputs: quick rejects {100 * quick / total:.1f}%, deep negatives "
            f"{100 * kinds['deep'] / total:.1f}%, float verdicts {100 * len(floats) / total:.1f}%"
        )
        lines.append(f"inputs: deep-negative witness orders {dict(sorted(witness.items()))}")
        if floats:
            warned = sum(s.warned for s in floats)
            lines.append(f"inputs: float verdicts resolved by the zero band "
                         f"{warned}/{len(floats)} ({100 * warned / len(floats):.1f}%)")
    if workload == "geometry":
        quads = Counter(op.kind.name for op in ops if op.kind.name.startswith("quad"))
        q = sum(quads.values())
        lines.append(f"inputs: quadruple ops positive {100 * quads['quad_pos'] / q:.1f}%, "
                     f"corrupted {100 * quads['quad_bad'] / q:.1f}% (each curve op adds 15 positive)")
    return lines


def known_report(samples: list[Sample]) -> list[str]:
    """Known defects reproduced in this run, by case."""
    known = Counter((s.op.name if isinstance(s.op, cli_cases.Case) else s.op.key, s.known)
                    for s in samples if s.known)
    return [f"known failure {name} x{count}: {reason}" for (name, reason), count in
            sorted(known.items())]


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    lines: list[str] = []
    clock = (HostClock(import_probe, IMPORT_REFERENCE_S, IMPORT_EVERY_S) if workload == "cli"
             else HostClock())
    setup = SetupTimer(workload, seed, clock)
    if workload == "cli":
        with cli_inputs() as inputs:
            rng = random.Random(seed)

            def next_pass() -> list[cli_cases.Case]:
                cases = list(cli_cases.CASES)
                rng.shuffle(cases)
                return cases

            for case in cli_cases.CASES[:2]:
                execute_cli(case, inputs)  # warm-up
            samples = run_loop(next_pass, seconds, lambda c: check_cli(*execute_cli(c, inputs)),
                               setup.sample, clock)
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        plan = Plan(workload, seed)
        for op in plan.warm_up():
            execute(op)
        samples = run_loop(plan.next_pass, seconds, lambda op: check(workload, *execute(op)),
                           setup.sample, clock)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, wall = latency_metrics(samples, clock), latency_metrics(samples)
    setup_s, setup_wall_s = setup.median()
    failed = [s for s in samples if s.failure is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (lat["ops_per_s"], "ops/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_p90_ms": (lat["op_p90_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"samples {len(samples)} ops, {sum(s.seconds for s in samples):.3f} s timed; "
                 f"{lat['beyond_p90']} samples beyond op_p90_ms; "
                 f"{len(setup.times)} set-up samples")
    lines.append(f"host probe median {1000 * clock.median_s():.4g} ms over {len(clock.seconds)} "
                 f"probes (reference {1000 * clock.reference_s:g} ms); as wall time: setup_s "
                 f"{setup_wall_s:.6g} s, ops_per_s {wall['ops_per_s']:.6g} ops/s, op_p50_ms "
                 f"{wall['op_p50_ms']:.6g} ms, op_p90_ms {wall['op_p90_ms']:.6g} ms")
    lines.append(f"error_rate {len(failed) / len(samples):.6g} ratio "
                 f"({len(failed)} of {len(samples)} ops failed)")
    for s in failed:
        name = s.op.name if workload == "cli" else s.op.key
        lines.append(f"failed op {name}: {s.failure}")
    lines = input_report(workload, samples) + known_report(samples) + lines
    return samples, lines, metrics, len(failed)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        # linalg.solve has no caller at the seed; a constant zero is no timing
        if name != "linalg.solve" and name != "classify.classify":
            out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    out["linalg.minor_levels.minors"] = (tracer.counts["linalg.minor_levels.minors"], "count")
    for counter, _, _ in DERIVED:
        out[counter] = (tracer.counts[counter], "count")
    return out


def routing(tracer: Tracer, library_s: float) -> list[str]:
    """Shares of traced op time by layer group, for the routing table."""
    groups = {
        "minor table": ["linalg.minor_levels"],
        "exact elimination": ["linalg.det", "linalg.rank", "linalg.inverse", "linalg.solve",
                              "linalg.nullspace", "whitney.gauss_ldu"],
        "classify": ["classify.classify", "classify.is_totally_positive",
                     "classify.is_totally_nonnegative", "classify.is_oscillatory"],
        "spectra+bilinear": [n for n in tracer.self_s if n.startswith(("spectra.", "bilinear."))],
        "flags+curves": [n for n in tracer.self_s if n.startswith(("flags.", "curves."))],
        "whitney": ["whitney.synthesize", "whitney.factorize", "whitney.membership_uni"],
        "cli+serialization": ["cli.main", "serialization.parse_matrix"],
        "untraced": ["op"],
    }
    # exact elimination as a whole also covers flag canonicalization, which
    # row-reduces a flag's representative
    groups["exact elimination with flag canonicalization"] = [
        *groups["exact elimination"], "flags.flag_from_matrix"]
    return [f"layer share {g}: {100 * sum(tracer.self_s[n] for n in names) / library_s:.1f}%"
            for g, names in groups.items()]


def traced(workload: str, seed: int, seconds: float):
    """Fixed op list run untraced then traced; counts repeat exactly."""
    lines: list[str] = []
    tracer = Tracer()
    with cli_inputs() as inputs:
        if workload == "cli":
            # cli.main in this process: the cli and serialization layers that
            # a child process hides
            warm, ops = cli_cases.CASES[:2], cli_cases.CASES * CLI_TRACE_PASSES
            run_one, check_one = functools.partial(execute_cli_inprocess, inputs=inputs), check_cli
        else:
            plan = Plan(workload, seed)
            warm = plan.warm_up()
            ops = [op for _ in range(LIBRARY[workload][1]) for op in plan.next_pass()]
            run_one, check_one = execute, functools.partial(check, workload)

        for op in warm:
            run_one(op)
        start = time.perf_counter()
        plain = [run_one(op) for op in ops]
        plain_s = time.perf_counter() - start
        with tracer:
            start = time.perf_counter()
            timed = [run_one(op, tracer=tracer) for op in ops]
            traced_s = time.perf_counter() - start
        if workload == "cli":
            call_ms = 1000 * statistics.median(
                execute_cli(cli_cases.CASES[0], inputs)[0].seconds for _ in range(5))
    # checked after the tracer is removed, so checks add no spans
    plain = [check_one(*p) for p in plain]
    samples = [check_one(*p) for p in timed]
    failed = [s for s in plain + samples if s.failure is not None]
    numpy_ms, own_ms = import_times()
    metrics = layer_metrics(tracer)
    metrics["scalars.strictness_warnings"] = (sum(s.warned for s in samples), "count")
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.totpos_ms"] = (own_ms, "ms")
    library_s = sum(s.seconds for s in samples)
    metrics["trace.library_s"] = (library_s, "s")
    delta = len(ops) / traced_s - len(ops) / plain_s
    metrics["trace.ops_per_s_delta"] = (delta, "ops/s")
    lines += input_report(workload, samples) + known_report(plain + samples)
    lines.append(f"traced pass {len(ops)} ops: {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
                 f"(overhead {delta:.4g} ops/s)")
    lines += routing(tracer, library_s)
    if workload == "cli":
        lines.append(f"import share of a cli call: {100 * (numpy_ms + own_ms) / call_ms:.1f}% "
                     f"({numpy_ms + own_ms:.1f} ms of {call_ms:.1f} ms)")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for s in failed:
        lines.append(f"failed op {getattr(s.op, 'name', None) or s.op.key}: {s.failure}")
    return plain + samples, lines, metrics, len(failed)


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on the CPU it runs on now.

    The host probe runs on this process's CPU; on a shared host each virtual
    CPU slows on its own, so an op or a set-up child on another CPU would be
    scaled by the speed of a CPU it did not run on.
    """
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError, IndexError, ValueError):
            # field 39 of /proc/self/stat: the CPU this process last ran on
            cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
            os.sched_setaffinity(0, {cpu})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*LIBRARY, "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (set-up time is measured on this)")
    args = parser.parse_args(argv)
    if args.setup_only:
        if args.workload == "cli":
            parser.error("--setup-only builds library inputs; cli has none")
        Plan(args.workload, args.seed)
        return 0
    pin_to_one_cpu()
    print(machine())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    run = traced if args.trace else end_to_end
    samples, lines, metrics, failed = run(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
