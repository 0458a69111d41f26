"""Public signatures: defaulted parameters are limited to a fixed set.

Tolerances, iteration caps and sampling bounds are module constants; a
keyword belongs in a public signature only when callers use more than
one value of it, and every parameter of a public function is read.  No
module of the package but ``__init__`` imports a name it never reads, and
only the sign rules read the float zero band.
"""

import ast
import enum
import inspect
import textwrap
from pathlib import Path

import totpos
from totpos import sampling, whitney

KEPT_KEYWORDS = {
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
}


def _public_callables():
    for module in (totpos, sampling, whitney):
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
    assert {"totpos.verify_gk", "totpos.stable_flags", "totpos.Matrix"} <= names
    assert {"totpos.sampling.positive_fraction", "totpos.whitney.gauss_ldu"} <= names


def _unread_parameters(func) -> list[str]:
    """Parameters of a function that its body (nested scopes included) never
    loads by name; names starting with an underscore are exempt."""
    source = textwrap.dedent(inspect.getsource(inspect.unwrap(func)))
    node = ast.parse(source).body[0]
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    params = [
        a.arg
        for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
        if a is not None
    ]
    loaded = {
        n.id
        for stmt in node.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [p for p in params if not p.startswith("_") and p not in loaded]


def _source_functions():
    """Each public function, and each public class's own ``__init__`` when
    its source exists (dataclass-generated ones store every field)."""
    for name, obj in _public_callables():
        if inspect.isfunction(obj):
            yield name, obj
        elif isinstance(obj, type) and inspect.isfunction(vars(obj).get("__init__")):
            init = obj.__init__
            try:
                inspect.getsource(init)
            except OSError:
                continue
            yield f"{name}.__init__", init


def test_every_public_parameter_is_read():
    unread = [
        f"{name}({param})"
        for name, func in _source_functions()
        for param in _unread_parameters(func)
    ]
    assert not unread, unread


def test_unread_parameter_walk_sees_dead_keywords():
    def dead(m, policy=None):
        return m

    def nested(m, policy=None):
        return lambda: (m, policy)

    assert _unread_parameters(dead) == ["policy"]
    assert _unread_parameters(nested) == []


def _unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` is exempt.

    A name counts as read when it is loaded anywhere in the module, as the
    root of a dotted access too (``np.array`` reads ``np``)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{line} {name}" for line, name in imported if name not in loaded]


def test_no_module_imports_a_name_it_never_reads():
    package = Path(totpos.__file__).parent
    dead = [
        f"{path.name}:{entry}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert not dead, dead


def test_unread_import_walk_sees_dead_imports():
    source = textwrap.dedent(
        """
        from __future__ import annotations
        import numpy as np
        import os.path
        from .linalg import Matrix, inverse

        def f(m: Matrix):
            return np.array(os.path.sep)
        """
    )
    assert _unread_imports(source) == ["5 inverse"]


# The zero band is read by the minor-table sign rule and sign_variation
# (classify) and by Matrix.approx_equal (linalg, is_zero only); scalars
# defines it, and __init__ re-exports sign_of as public API.
_BAND_NAMES = {"is_zero", "sign_of", "zero_threshold", "minor_scale"}
_BAND_READERS = {"scalars.py": _BAND_NAMES, "classify.py": _BAND_NAMES, "linalg.py": {"is_zero"}}


def _band_names_used(source: str) -> set[str]:
    """Band names a module imports, or reads as an attribute of a module."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names} & _BAND_NAMES
        elif isinstance(node, ast.Attribute) and node.attr in _BAND_NAMES:
            used.add(node.attr)
    return used


def test_only_the_sign_rules_read_the_zero_band():
    package = Path(totpos.__file__).parent
    stray = {
        path.name: sorted(extra)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for extra in [
            _band_names_used(path.read_text(encoding="utf-8"))
            - _BAND_READERS.get(path.name, set())
        ]
        if extra
    }
    assert not stray, stray


def test_band_walk_sees_imports_and_attributes():
    source = "from .scalars import as_fraction, sign_of\nscalars.is_zero(x, 1.0)\n"
    assert _band_names_used(source) == {"sign_of", "is_zero"}
