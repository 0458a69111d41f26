"""Public signatures: defaulted parameters are limited to a fixed set.

Tolerances, iteration caps and sampling bounds are module constants; a
keyword belongs in a public signature only when callers use more than
one value of it.
"""

import enum
import inspect

import totpos
from totpos import sampling

KEPT_KEYWORDS = {
    "policy",
    "scale",
    "exact",
    "max_order",
    "m_max",
    "word",
    "side",
    "strict",
    "sigma_mode",
    "samples",
    "mode",
    "seed",
    "points",
    "trials",
    "coeff_bound",
    "eps_abs",
    "eps_rel",
}


def _public_callables():
    for module in (totpos, sampling):
        for name in dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("totpos"):
                continue
            if isinstance(obj, type) and issubclass(obj, (enum.Enum, BaseException)):
                continue
            yield f"{module.__name__}.{name}", obj


def test_only_kept_keywords_have_defaults():
    extra = []
    for name, obj in _public_callables():
        for param in inspect.signature(obj).parameters.values():
            if param.default is not inspect.Parameter.empty:
                if param.name not in KEPT_KEYWORDS:
                    extra.append(f"{name}({param.name}={param.default!r})")
    assert not extra, extra


def test_walk_covers_the_public_api():
    names = {name for name, _ in _public_callables()}
    assert {"totpos.verify_gk", "totpos.stable_flags", "totpos.TolerancePolicy"} <= names
    assert "totpos.sampling.positive_fraction" in names
