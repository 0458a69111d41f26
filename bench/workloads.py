"""Seeded inputs, operations and output checks for the library workloads.

Every input comes from a catalogue slot ``<kind>/<n>/<i>``: the slot name
seeds its own random generator, so a slot always yields the same input, and
``expected.json`` (written once by ``make_expected.py``) holds the result
the library gave for every slot.  A pass of a run uses the first slots of
every (kind, n), the same ones in every run; the run's seed only sets their
order, so two runs differ by order and by the host, not by their inputs.  Inputs are built through ``totpos.sampling`` and
``totpos.whitney``, so set-up time includes synthesis, as it does for users.

An operation is one call into the public API (a round trip is two).  Each
result is checked twice: against a label known by construction, and against
the recorded result (exact parts exactly, float parts within the library's
own tolerances).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import totpos
from totpos import sampling
from totpos.classify import TPKind
from totpos.curves import CirclePoint, MomentCurve
from totpos.linalg import Matrix

# Slots per (kind, n) recorded in expected.json; a pass uses the first
# ``per_pass`` of them.
CATALOGUE = 16

# Float parts of a result are compared at the library's tolerances: the
# eigenpair residual tolerance for spectra, and the stability tolerance of
# stable flags for the moduli taken from a float eigensolver.
REL_TOL = 1e-8
LOOSE_TOL = 1e-6


def slot_rng(workload: str, kind: str, n: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{kind}/{n}/{i}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_text(value: Any) -> str:
    """Canonical text of an exact result (fractions, tuples, matrices)."""
    if isinstance(value, Matrix):
        return repr(value.to_lists())
    if dataclasses.is_dataclass(value):
        return repr(
            [(f.name, exact_text(getattr(value, f.name))) for f in dataclasses.fields(value)]
        )
    if isinstance(value, (list, tuple)):
        return repr([exact_text(v) for v in value])
    if isinstance(value, TPKind):
        return value.value
    return repr(value)


def floats(m: Matrix) -> list[float]:
    return [float(x) for row in m.to_lists() for x in row]


def _close(a: float, b: float, tol: float, scale: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), scale)


def compare(got: dict, want: dict) -> str | None:
    """None when a result record matches the recorded one.

    ``x`` is an exact digest; ``rel`` floats match entry by entry;
    ``vec`` floats match relative to the largest entry; ``loose`` floats
    match entry by entry at the looser tolerance.
    """
    if got.get("x") != want.get("x"):
        return "exact result differs from expected"
    for key, tol in (("rel", REL_TOL), ("vec", REL_TOL), ("loose", LOOSE_TOL)):
        a, b = got.get(key, []), want.get(key, [])
        if len(a) != len(b):
            return f"{key} length differs from expected"
        scale = max((abs(v) for v in b), default=0.0) if key == "vec" else 0.0
        if not all(_close(p, q, tol, scale) for p, q in zip(a, b)):
            return f"{key} values differ from expected beyond {tol:g}"
    return None


NO_EXACT = object()  # a result with float parts only


def record(exact: Any = NO_EXACT, rel=(), vec=(), loose=()) -> dict:
    out: dict = {}
    if exact is not NO_EXACT:
        out["x"] = digest(exact_text(exact))
    for key, values in (("rel", rel), ("vec", vec), ("loose", loose)):
        if values:
            out[key] = [float(v) for v in values]
    return out


@dataclass(frozen=True)
class Kind:
    """One family of operations.

    ``build(rng, n, i, cache)`` makes the input of a slot, ``call`` is the
    timed operation, ``record`` turns its result into the stored form and
    ``label`` checks what construction guarantees (None means correct).
    A pass holds ``per_pass`` ops of every size, on slots 0 to
    ``per_pass - 1``.  With ``recorded_failures``, a slot whose reference run
    failed (a known defect) keeps that failure in ``expected.json``; a run
    that reproduces it exactly reports it as known instead of failed.
    """

    name: str
    sizes: tuple[int, ...]
    build: Callable[[random.Random, int, int, dict], Any]
    call: Callable[[Any], Any]
    record: Callable[[Any, Any], dict]
    label: Callable[[Any, Any], str | None]
    per_pass: int = 2
    float_verdict: bool = False
    recorded_failures: bool = False


def _ok(cond: bool, reason: str) -> str | None:
    return None if cond else reason


# -- certify -----------------------------------------------------------------


def _tp_matrix(workload: str, n: int, i: int, cache: dict) -> Matrix:
    """TP matrix of slot i, shared by the kinds derived from it."""
    key = (workload, n, i)
    if key not in cache:
        rng = slot_rng(workload, "tp", n, i)
        cache[key] = sampling.random_tp_matrix(n, rng)
    return cache[key]


def _tn_only(rng: random.Random, n: int, i: int, cache: dict) -> Matrix:
    """Relaxed parameters with at least one zero: TN but not TP (Whitney)."""
    p = sampling.random_tp_parameters(n, rng, strict=False)
    if all(x > 0 for x in p.a + p.b):
        a = list(p.a)
        a[rng.randrange(len(a))] = Fraction(0)
        p = dataclasses.replace(p, a=tuple(a))
    return totpos.synthesize(p)


def _deep_negative(rng: random.Random, n: int, i: int, cache: dict) -> Matrix:
    """Lower the (1,1) entry of a TP matrix 0.1 % past det = 0.

    det is affine in the (1,1) entry with slope C11 > 0, so det < 0 by
    construction, while most smaller minors stay positive: the first
    negative minor sits at a high order and a scan runs deep before it
    finds it.
    """
    m = _tp_matrix("certify", n, i, cache)
    c11 = totpos.minor(m, range(2, n + 1), range(2, n + 1))
    rows = m.to_lists()
    rows[0][0] -= totpos.det(m) / c11 * Fraction(1001, 1000)
    return Matrix(rows)


def _positive_ints(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]


def _nonsingular(rng: random.Random, n: int, make) -> Matrix:
    # monoid_generate_check rejects singular input, so redraw on det = 0
    while True:
        m = Matrix(make(rng, n))
        if totpos.det(m) != 0:
            return m


def _negative_entry(rows_rng: random.Random, n: int) -> list[list[int]]:
    rows = _positive_ints(rows_rng, n)
    rows[rows_rng.randrange(n)][rows_rng.randrange(n)] *= -1
    return rows


def _negative_2x2(rows_rng: random.Random, n: int) -> list[list[int]]:
    rows = _positive_ints(rows_rng, n)
    r1, r2 = sorted(rows_rng.sample(range(n), 2))
    c1, c2 = sorted(rows_rng.sample(range(n), 2))
    rows[r1][c1], rows[r2][c2] = 1, 1
    rows[r1][c2], rows[r2][c1] = 9, 9
    return rows


# quick rejects rotate over the four verdict functions by slot
_VERDICTS = ("classify", "is_totally_positive", "is_totally_nonnegative", "monoid_generate_check")


def _quick_reject(name: str, make) -> Kind:
    """Twelve per size, so quick rejects are the majority of ops."""

    def build(rng, n, i, cache):
        return (_VERDICTS[i % 4], _nonsingular(rng, n, make))

    def call(inp):
        fn, m = inp
        return getattr(totpos, fn)(m)

    def rec(inp, res):
        return record(exact=res if isinstance(res, bool) else (res.kind, res.oscillatory_m))

    def label(inp, res):
        if inp[0] == "classify":
            return _ok(res.kind is TPKind.NEITHER, "quick reject not classified Neither")
        return _ok(res is False, f"{inp[0]} accepted a matrix with a negative minor")

    return Kind(name, (4, 5, 6, 7, 8), build, call, rec, label, per_pass=12)


def _classify(m):
    return totpos.classify(m)


def _rec_class(inp, res) -> dict:
    return record(exact=(res.kind, res.oscillatory_m))


def _round_trip_build(rng, n, i, cache):
    word = "reversed" if i % 2 else "standard"
    return word, sampling.random_tp_parameters(n, rng, strict=True, word=word)


def _round_trip(inp):
    word, params = inp
    m = totpos.synthesize(params)
    return m, totpos.factorize(m, word=word)


def _round_trip_label(inp, res):
    p, q = inp[1], res[1]
    same = (p.word, p.a, p.t, p.b) == (q.word, q.a, q.t, q.b)
    return _ok(same, "factorize did not recover the synthesis parameters")


CERTIFY = (
    # TP from strict parameters: classify's first scan runs in full and decides.
    Kind("tp", (4, 5, 6, 7, 8),
         lambda rng, n, i, c: _tp_matrix("certify", n, i, c), _classify, _rec_class,
         lambda inp, r: _ok(r.kind is TPKind.TOTALLY_POSITIVE and r.oscillatory_m == 1,
                            "strict parameters not classified TP")),
    # TN-only from relaxed parameters: classify also scans powers for the
    # oscillatory exponent.  Its cost depends on the exponent (0.2-1.1 s
    # at n = 8), so n stops at 7 and one input cannot set a run's speed.
    Kind("tn", (4, 5, 6, 7), _tn_only, _classify, _rec_class,
         lambda inp, r: _ok(r.kind is TPKind.TOTALLY_NONNEGATIVE_ONLY,
                            "relaxed parameters not classified TN-only")),
    # Deep negatives: the TP scan and the TN scan both run to a high order.
    Kind("deep", (4, 5, 6, 7, 8), _deep_negative, _classify, _rec_class,
         lambda inp, r: _ok(r.kind is TPKind.NEITHER, "det < 0 but not classified Neither")),
    # Float copies of TP matrices: the zero band decides the answer, which is
    # compared with the recorded one.  At n = 8 the power scan overflows on
    # most inputs (a known defect, recorded).
    Kind("float", (4, 5, 6, 7, 8),
         lambda rng, n, i, c: _tp_matrix("certify", n, i, c).to_float(), _classify, _rec_class,
         lambda inp, r: _ok(r.kind is not TPKind.NEITHER, "float TP copy classified Neither"),
         float_verdict=True, recorded_failures=True),
    # Quick rejects (a negative entry, or positive entries with a negative
    # 2x2 minor) are the majority, so op_p50_ms tracks the early abort.
    _quick_reject("qr_entry", _negative_entry),
    _quick_reject("qr_minor", _negative_2x2),
    # synthesize -> factorize; synthesis grows fast with n (0.6 s at n = 12),
    # so one per even size from 4 to 12 keeps the minor table the dominant cost.
    Kind("roundtrip", (4, 6, 8, 10, 12), _round_trip_build, _round_trip,
         lambda inp, r: record(exact=r), _round_trip_label, per_pass=1),
)


# -- spectral ----------------------------------------------------------------


def _gk_label(inp, r):
    return _ok(r.passed, "verify_gk cross-checks failed: " + "; ".join(r.failures))


def _canon_label(inp, r):
    c = r.chain
    increasing = all(a < b for a, b in zip(c, c[1:]))
    reciprocal = all(abs(x * e - 1) <= REL_TOL for x, e in zip(c, r.eigenvalues))
    return _ok(increasing and reciprocal, "chain not increasing or not reciprocal")


SPECTRAL = (
    # verify_gk: TP gate, compound ladder, refinement and all cross-checks.
    # Its compound cross-check fails on many TP inputs at n >= 6 (a known
    # limitation, recorded).
    Kind("gk", (3, 4, 5, 6, 7, 8),
         lambda rng, n, i, c: _tp_matrix("spectral", n, i, c), lambda m: totpos.verify_gk(m),
         lambda inp, r: record(rel=r.eigenvalues + r.perron_roots),
         _gk_label, recorded_failures=True, per_pass=1),
    # canonical_basis: two TP gates, tilde, the ladder and refine_eigenbasis,
    # on the positive form attached to a TP matrix (sampling.random_positive_form).
    # Six per size against one verify_gk, so op_p90_ms falls in the middle
    # of the n = 7 calls, not at the edge of a size where a slow stretch of
    # the host moves it most.
    Kind("canon", (3, 4, 5, 6, 7),
         lambda rng, n, i, c: totpos.A_to_form(_tp_matrix("spectral", n, i, c)),
         lambda f: totpos.canonical_basis(f),
         lambda inp, r: record(exact=r.comparison, rel=r.eigenvalues + r.chain + r.z_values,
                               vec=floats(r.basis)),
         _canon_label, per_pass=6),
)


# -- geometry ----------------------------------------------------------------


def _primed_cell_flag(rng: random.Random, n: int) -> totpos.Flag:
    u = totpos.synthesize_uni(sampling.random_uni_params(n, rng, side="lower", strict=True))
    return totpos.flag_from_matrix(totpos.inverse(u))


def _stable(mode: str) -> Kind:
    return Kind(
        f"sf_{mode}", (3, 4, 5, 6),
        lambda rng, n, i, c: _tp_matrix("geometry", n, i, c),
        lambda g: totpos.stable_flags(g, sigma_mode=mode),
        lambda inp, r: record(
            exact=r.sigma_mode,
            rel=r.eigenvalues,
            vec=floats(r.flag.rep) + floats(r.flag_prime.rep),
            loose=r.dilation_moduli + r.contraction_moduli,
        ),
        lambda inp, r: _ok(
            min(r.dilation_moduli) > 1 and max(r.contraction_moduli) < 1,
            "stable flags lack dilation/contraction",
        ),
    )


def _cert_record(inp, r):
    return record(exact=r)


class _Osculating:
    """Flag curve of a moment curve, looked up through the package at call time."""

    def __init__(self, degree: int):
        self.curve = MomentCurve(degree)
        self.degree = degree

    def flag_at(self, point: CirclePoint) -> totpos.Flag:
        return totpos.osculating_flag(self.curve, point)


def _circle_points(rng: random.Random, count: int) -> list[CirclePoint]:
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(Fraction(rng.randint(-12, 12), rng.randint(1, 3)))
    return [CirclePoint(v) for v in sorted(values)]


def _quadruple(rng: random.Random, n: int, corrupt: bool):
    """Osculating flags at four cyclically ordered points.

    Corrupted quadruples list the flags out of cyclic order (the second and
    third swapped), which is never positive: the sign search then tries
    all 2^n classes.
    """
    pts = _circle_points(rng, 4)
    curve = MomentCurve(n - 1)
    flags = [totpos.osculating_flag(curve, p) for p in pts]
    if corrupt:
        flags = [flags[0], flags[2], flags[1], flags[3]]
    return flags, totpos.dihedral_partition(*pts)


_QUAD_BAD = Kind("quad_bad", (3, 4, 5), lambda rng, n, i, c: _quadruple(rng, n, True),
                 lambda inp: totpos.is_positive_quadruple(*inp), _cert_record,
                 lambda inp, r: _ok(r is False, "corrupted quadruple accepted"))

GEOMETRY = (
    # Stable flags: refined eigenbasis, flag canonicalization, cells, adapted
    # basis; exact elimination dominates, the TP gate is small at n <= 6.
    _stable("identity"),
    _stable("tilde"),
    # Cell certificates and opposedness on sampled cell flags.  These cheap,
    # elimination-bound calls and the random-flag ones below come four per
    # size, so they hold the median: op_p50_ms sits inside a dense run of
    # them rather than on the gap before the costlier kinds.
    Kind("cell", (3, 4, 5, 6), lambda rng, n, i, c: sampling.random_positive_cell_flag(n, rng),
         lambda f: totpos.in_B_pos(f), _cert_record,
         lambda inp, r: _ok(r is not None and r.strict, "sampled cell flag left the cell"),
         per_pass=4),
    Kind("cell_prime", (3, 4, 5, 6), lambda rng, n, i, c: _primed_cell_flag(rng, n),
         lambda f: totpos.in_B_pos_prime(f), _cert_record,
         lambda inp, r: _ok(r is not None and r.strict, "primed flag left the primed cell"),
         per_pass=4),
    Kind("opposed_cells", (3, 4, 5, 6),
         lambda rng, n, i, c: (sampling.random_positive_cell_flag(n, rng), _primed_cell_flag(rng, n)),
         lambda fs: totpos.opposed(*fs), _cert_record,
         lambda inp, r: _ok(r is True, "cell flags not opposed"), per_pass=4),
    # Random flags: answers come from the recorded results only.
    Kind("random_cells", (3, 4, 5, 6),
         lambda rng, n, i, c: (i % 2, sampling.random_flag(n, rng)),
         lambda inp: (totpos.in_B_pos_prime if inp[0] else totpos.in_B_pos)(inp[1]),
         _cert_record, lambda inp, r: None, per_pass=4),
    Kind("opposed_random", (3, 4, 5, 6),
         lambda rng, n, i, c: (sampling.random_flag(n, rng), sampling.random_flag(n, rng)),
         lambda fs: totpos.opposed(*fs), _cert_record, lambda inp, r: None, per_pass=4),
    # Exhaustive curve check over 15 quadruples of six sample points, on the
    # moment curve of degree n - 1.
    Kind("curve", (3, 4, 5), lambda rng, n, i, c: (_Osculating(n - 1), _circle_points(rng, 6)),
         lambda inp: totpos.is_positive_curve_sampled(inp[0], points=inp[1], mode="exhaustive"),
         lambda inp, r: record(exact=(r.total, r.passed, r.failed)),
         lambda inp, r: _ok(r.ok, "moment curve quadruple not positive")),
    # Convexity by exact Sturm counts.
    Kind("convex", (3, 4, 5, 6), lambda rng, n, i, c: (n - 1, rng.randrange(10**6)),
         lambda inp: totpos.convex_curve_check(MomentCurve(inp[0]), trials=100, seed=inp[1]),
         lambda inp, r: record(exact=r.max_count),
         lambda inp, r: _ok(r.max_count <= r.degree, "hyperplane count above the degree")),
    # Positive quadruples stop the sign search early; corrupted ones try
    # every sign class.
    Kind("quad_pos", (3, 4, 5, 6), lambda rng, n, i, c: _quadruple(rng, n, False),
         lambda inp: totpos.is_positive_quadruple(*inp), _cert_record,
         lambda inp, r: _ok(r is True, "osculating quadruple not positive")),
    _QUAD_BAD,
    # Corrupted quadruples at n = 6 cost nearly the same on every slot, and
    # twelve of them per pass hold op_p90_ms inside their run; with two per
    # size it sat on the gap between two costlier kinds and jumped by 20 %.
    dataclasses.replace(_QUAD_BAD, sizes=(6,), per_pass=12),
)
