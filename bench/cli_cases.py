"""Fixed command-line cases: every subcommand in text and --json form, plus
one malformed input per documented error class.

Inputs are small fixed files, so a call costs little beyond interpreter
start and ``import totpos``.  A case is checked on its exit code, on the
absence of a traceback, and, in --json form, on selected fields compared
with ``expected.json``; raw stdout is never compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from workloads import record

VAND3 = "1 1 1\n1 2 4\n1 3 9\n"
PASCAL4 = "[[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]]\n"
TRIDIAG3 = "2 1 0\n1 2 1\n0 1 2\n"  # oscillatory, TN but not TP
LOWER_PASCAL3 = "1 0 0\n1 1 0\n1 2 1\n"
REVERSAL3 = "0 0 1\n0 1 0\n1 0 0\n"
# Gram matrix of the form attached to VAND3 (bilinear.A_to_form)
GRAM3 = "-1 -4 -9\n1 2 3\n-1 -1 -1\n"
# osculating flags of the degree-2 moment curve at 0, 1/2, 2 and infinity
OSCULATING = {
    "q0": "1 0 0\n0 1 0\n0 0 1\n",
    "q1": "1 0 0\n1/2 1 0\n1/4 1 1\n",
    "q2": "1 0 0\n2 1 0\n4 4 1\n",
    "q3": "0 0 1\n0 1 0\n1 0 0\n",
}
PARAMS3 = json.dumps({"n": 3, "word": [1, 2, 1], "a": ["1", "2", "1/2"],
                      "t": ["1", "3", "2"], "b": ["2", "1", "1"]})

FILES = {
    "vand3.txt": VAND3,
    "pascal4.json": PASCAL4,
    "tridiag3.txt": TRIDIAG3,
    "lower3.txt": LOWER_PASCAL3,
    "reversal3.txt": REVERSAL3,
    "gram3.txt": GRAM3,
    "params3.json": PARAMS3,
    **{f"{k}.txt": v for k, v in OSCULATING.items()},
    # malformed inputs
    "bad_scalar.txt": "1 x\n2 3\n",
    "ragged.txt": "1 2\n3\n",
    "empty.txt": "# no rows\n",
    "bad_json.json": "[[1, 2], [3\n",
    "nonsquare.txt": "1 2 3\n4 5 6\n",
    "params_missing.json": json.dumps({"n": 2, "word": [1], "a": ["1"], "t": ["1", "1"]}),
    "not_tp.txt": "1 2\n3 4\n",
    "params_noword.json": json.dumps({"n": 2, "a": ["1"], "t": ["1", "1"], "b": ["1"]}),
}


def _params(p: dict) -> tuple:
    return (p["word"], p["a"], p["t"], p["b"])


# Fields compared in --json output, per subcommand.
SELECT: dict[str, Callable[[dict], dict]] = {
    "classify": lambda d: record(exact=(d["kind"], d["oscillatory_exponent"])),
    "factor": lambda d: record(exact=_params(d["params"])),
    "synth": lambda d: record(exact=(d["matrix"]["entries"], _params(d["params"]))),
    "spectrum": lambda d: record(exact=d["report"]["passed"], rel=d["report"]["eigenvalues"]),
    "canonical-form": lambda d: record(
        exact=d["result"]["comparison"]["entries"],
        rel=d["result"]["eigenvalues"] + d["result"]["chain"],
    ),
    "tilde": lambda d: record(exact=d["matrix"]["entries"]),
    "flag-pos": lambda d: record(exact=(d["positive_cell_params"], d["primed_cell"])),
    "opposed": lambda d: record(exact=d["opposed"]),
    "stable-flags": lambda d: record(
        exact=d["pair"]["sigma_mode"],
        rel=d["pair"]["eigenvalues"],
        vec=[float(Fraction(x)) for row in d["pair"]["flag"]["rep"]["entries"] for x in row],
        loose=d["pair"]["dilation_moduli"] + d["pair"]["contraction_moduli"],
    ),
    "quadruple": lambda d: record(exact=d["positive"]),
    "curve-check": lambda d: record(
        exact=(d["report"]["total"], d["report"]["passed"], d["report"]["failed"])
    ),
    "convex-check": lambda d: record(exact=d["report"]["max_count"]),
}


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]  # file names are resolved against the input directory
    exit_code: int

    @property
    def json(self) -> bool:
        return "--json" in self.argv

    def resolved(self, inputs: Path) -> list[str]:
        return [str(inputs / a) if a in FILES or a == "missing.txt" else a for a in self.argv]


_COMMANDS = (
    ("classify-tp", ("classify", "vand3.txt")),
    ("classify-tn", ("classify", "tridiag3.txt")),
    ("factor", ("factor", "pascal4.json")),
    ("synth-seed", ("synth", "--n", "4", "--seed", "7")),
    ("synth-params", ("synth", "--params", "params3.json")),
    ("spectrum", ("spectrum", "vand3.txt")),
    ("canonical-form", ("canonical-form", "gram3.txt")),
    ("tilde", ("tilde", "vand3.txt")),
    ("flag-pos", ("flag-pos", "lower3.txt")),
    ("opposed", ("opposed", "lower3.txt", "reversal3.txt")),
    ("stable-flags", ("stable-flags", "vand3.txt", "--sigma", "tilde")),
    ("quadruple", ("quadruple", "q0.txt", "q1.txt", "q2.txt", "q3.txt",
                   "--points", "0,1/2,2,inf")),
    ("curve-check", ("curve-check", "--degree", "2", "--samples", "5")),
    ("convex-check", ("convex-check", "--degree", "3", "--trials", "200", "--seed", "1")),
)

# One malformed input per error class the CLI documents (exit 2), and one
# domain error (exit 1).
_ERRORS = (
    ("err-scalar", ("classify", "bad_scalar.txt"), 2),
    ("err-ragged", ("classify", "ragged.txt"), 2),
    ("err-empty", ("classify", "empty.txt"), 2),
    ("err-json", ("classify", "bad_json.json"), 2),
    ("err-missing-file", ("classify", "missing.txt"), 2),
    ("err-nonsquare", ("classify", "nonsquare.txt"), 2),
    ("err-params-field", ("synth", "--params", "params_missing.json"), 2),
    ("err-points", ("quadruple", "q0.txt", "q1.txt", "q2.txt", "q3.txt", "--points", "0,1,2"), 2),
    ("err-usage", ("classify",), 2),
    # known defect: exits 1 with a TypeError traceback (recorded)
    ("err-params-no-word", ("synth", "--params", "params_noword.json"), 2),
    ("err-domain", ("factor", "not_tp.txt"), 1),
)

CASES = tuple(
    [Case(name, argv, 0) for name, argv in _COMMANDS]
    + [Case(name + "-json", argv + ("--json",), 0) for name, argv in _COMMANDS]
    + [Case(name, argv, code) for name, argv, code in _ERRORS]
)


def write_inputs(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def case_record(case: Case, code: int, stdout: str, stderr: str) -> tuple[dict, str | None]:
    """Record of one call and the reason it is wrong by construction, if any."""
    if "Traceback" in stderr:
        return {"exit": code}, f"traceback: {stderr.strip().splitlines()[-1]}"
    if code != case.exit_code:
        return {"exit": code}, f"exit code {code}, expected {case.exit_code}"
    rec = {"exit": code}
    if case.json and code == 0:
        rec.update(SELECT[case.argv[0]](json.loads(stdout)))
    return rec, None
