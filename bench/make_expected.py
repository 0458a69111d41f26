"""Write expected.json: the recorded result of every catalogue slot and cli case.

    python3 bench/make_expected.py [workload ...]

Run once, on the commit whose results are the reference; the benchmark then
checks every run against this file.  Naming workloads rewrites only theirs.
A failure is recorded as ``known`` only for kinds that allow it and for cli
cases; any other failure stops the script.  Deep negatives also record
``w``, the order of their first negative minor, an input property.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import CATALOGUE


def witness_order(m) -> int:
    for k, table in run.totpos.minor_levels(m):
        if any(v < 0 for v in table.values()):
            return k
    raise ValueError("deep negative without a negative minor")


def library(workload: str) -> dict:
    kinds = run.LIBRARY[workload][0]
    cache: dict = {}
    out = {}
    for kind in kinds:
        for n in kind.sizes:
            for i in range(CATALOGUE):
                op = run.Op(kind, n, i, kind.build(run.slot_rng(workload, kind.name, n, i), n, i, cache))
                sample, result = run.execute(op)
                rec = {}
                if sample.failure is None:
                    rec = kind.record(op.input, result)
                reason = sample.failure or kind.label(op.input, result)
                if reason is not None:
                    if not kind.recorded_failures:
                        sys.exit(f"{workload} {op.key}: {reason}")
                    rec["known"] = reason
                    print(f"{workload} {op.key}: known failure recorded: {reason}", file=sys.stderr)
                if kind.name == "deep":
                    rec["w"] = witness_order(op.input)
                out[op.key] = rec
        print(f"{workload} {kind.name} done", file=sys.stderr)
    return out


def cli() -> dict:
    out = {}
    with run.cli_inputs() as inputs:
        for case in run.cli_cases.CASES:
            rec, reason = run.cli_cases.case_record(case, *run.execute_cli(case, inputs)[1])
            if reason is not None:
                rec["known"] = reason
                print(f"cli {case.name}: known failure recorded: {reason}", file=sys.stderr)
            out[case.name] = rec
    return out


def main() -> None:
    names = sys.argv[1:] or [*run.LIBRARY, "cli"]
    expected = dict(run.EXPECTED)
    for name in names:
        expected[name] = cli() if name == "cli" else library(name)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
