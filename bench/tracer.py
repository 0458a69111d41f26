"""Outside-in tracing of totpos layers.

The package imports its functions by name (``from .linalg import inverse``),
so a function object lives in several module namespaces at once.  The
tracer replaces the object in every ``totpos.*`` namespace that holds it,
which also catches calls made inside the package, and puts every original
back on exit.  Each wrapped call is a span; a span's self time is its
duration minus the time covered by the spans it caused.  Generator
functions (``minor_levels``) are timed across their iterations, since the
call itself only creates the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run.  The benchmark's own
# operations are the root spans, so untraced library work lands in "op".
TRACED = (
    ("linalg", "minor_levels"),
    ("linalg", "det"),
    ("linalg", "rank"),
    ("linalg", "inverse"),
    ("linalg", "solve"),
    ("linalg", "nullspace"),
    ("classify", "classify"),
    ("classify", "is_totally_positive"),
    ("classify", "is_totally_nonnegative"),
    ("classify", "is_oscillatory"),
    ("whitney", "gauss_ldu"),
    ("whitney", "synthesize"),
    ("whitney", "factorize"),
    ("whitney", "membership_uni"),
    ("spectra", "gk_spectrum"),
    ("spectra", "verify_gk"),
    ("spectra", "refine_eigenbasis"),
    ("bilinear", "canonical_basis"),
    ("bilinear", "tilde"),
    ("bilinear", "is_totally_positive_form"),
    ("flags", "flag_from_matrix"),
    ("flags", "in_B_pos"),
    ("flags", "in_B_pos_prime"),
    ("flags", "opposed"),
    ("flags", "adapted_basis"),
    ("flags", "stable_flags"),
    ("curves", "is_positive_quadruple"),
    ("curves", "hyperplane_intersection_count"),
    ("curves", "osculating_flag"),
    ("cli", "main"),
    ("serialization", "parse_matrix"),
)

# Counts of one span taken under another: (counter, child, ancestor).
DERIVED = (
    ("curves.is_positive_quadruple.sign_classes", "flags.in_B_pos", "curves.is_positive_quadruple"),
    ("spectra.refine_eigenbasis.kernel_fallbacks", "linalg.nullspace", "spectra.refine_eigenbasis"),
)


class Tracer:
    """Span collector; install() patches the package, uninstall() restores it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._child_time.append(0.0)
        self._open[name] += 1
        for counter, child, ancestor in DERIVED:
            if name == child and self._open[ancestor]:
                self.counts[counter] += 1
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self._open[name] -= 1
        self.self_s[name] += elapsed - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn as a span called ``name``."""
        self.calls[name] += 1
        start = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, start)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    start = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, start)
                    if name == "linalg.minor_levels":
                        self.counts["linalg.minor_levels.minors"] += len(item[1])
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "totpos" or key.startswith("totpos."))
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"totpos.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
