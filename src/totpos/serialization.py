"""Text and JSON interchange for matrices and result objects.

Two matrix formats are accepted: a whitespace grid (one row per line,
``#`` comments and blank lines ignored) and a JSON array of row arrays.
Every number, a grid token or a JSON string or number, is read from its
text by ``parse_scalar``; an error names the grid line, or the JSON row and
column, it comes from.  Exact scalars render as integer or ``p/q``
strings so round-trips lose nothing; float matrices use plain JSON
numbers.  ``payload`` converts the package's result dataclasses into
JSON-ready trees for the CLI.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from fractions import Fraction
from typing import Any

from .curves import CirclePoint
from .errors import InputError
from .linalg import Matrix
from .scalars import _MAX_DIGITS, format_scalar, parse_scalar


def input_digest(text: str) -> str:
    """sha256 of the raw input text, for echoing provenance in output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_matrix_grid(text: str, exact: bool = True) -> Matrix:
    rows: list[list[Any]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([parse_scalar(tok, exact=exact) for tok in line.split()])
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if not rows:
        raise InputError("no matrix rows found")
    return Matrix(rows)


def parse_matrix_json(data: Any, exact: bool = True) -> Matrix:
    """Rows of strings and numbers, each read from its text (a number's repr);
    an error names the cell's row and column, 1-based."""
    if isinstance(data, dict) and "entries" in data:
        data = data["entries"]
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError("JSON matrix must be a non-empty array of row arrays")
    rows = []
    for i, row in enumerate(data, start=1):
        parsed = []
        for j, cell in enumerate(row, start=1):
            try:
                parsed.append(parse_scalar(_cell_text(cell), exact=exact))
            except InputError as exc:
                raise InputError(f"row {i}, column {j}: {exc}") from None
        rows.append(parsed)
    return Matrix(rows)


def _cell_text(cell: Any) -> str:
    if isinstance(cell, bool) or not isinstance(cell, (str, int, float)):
        raise InputError(f"unsupported matrix entry {_json_repr(cell)}")
    try:
        return str(cell) if isinstance(cell, str) else repr(cell)
    except ValueError:  # an int past the int-to-str digit limit
        raise InputError(f"integer entry has more than {_MAX_DIGITS} digits") from None


def _json_repr(value: Any) -> str:
    """A value as an error shows it: true, false and null in JSON's spelling,
    a number token from :func:`_load_json` bare, anything else by repr."""
    return json.dumps(value) if value is None or isinstance(value, bool) else repr(value)


class _Number(str):
    """A JSON number, NaN or Infinity kept as its token text (an integer only in a
    matrix); its repr is the bare token, so an error tells it from a string."""

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


def _load_json(text: str, what: str, parse_int=lambda token: int(parse_scalar(token))) -> Any:
    """JSON input, its integers held to the digit bound of parse_scalar (or read by
    ``parse_int``) and its other numbers, NaN and Infinity kept as their text for it."""
    try:
        return json.loads(text, parse_int=parse_int, parse_float=_Number, parse_constant=_Number)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad JSON {what}: {exc}") from None


def parse_matrix(text: str, exact: bool = True) -> Matrix:
    """Auto-detect grid versus JSON by the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith(("[", "{")):
        # integers too are kept as text, so an error names the cell they are in
        return parse_matrix_json(_load_json(stripped, "matrix", _Number), exact=exact)
    return parse_matrix_grid(text, exact=exact)


def format_matrix_grid(m: Matrix) -> str:
    cells = [[format_scalar(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(
        " ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols))
        for i in range(m.rows)
    )


def payload(obj: Any) -> Any:
    """Recursively convert results to JSON-serializable trees."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return format_scalar(obj)
    if isinstance(obj, CirclePoint):
        return str(obj)
    if isinstance(obj, Matrix):
        return {
            "rows": obj.rows,
            "cols": obj.cols,
            "exact": obj.is_exact,
            "entries": [
                [payload(obj[i, j]) for j in range(obj.cols)] for i in range(obj.rows)
            ],
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        for name in ("ok", "passed"):
            prop = getattr(type(obj), name, None)
            if isinstance(prop, property):
                out[name] = payload(getattr(obj, name))
        return out
    if isinstance(obj, (frozenset, set)):
        return sorted((payload(x) for x in obj), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(obj, dict):
        return {str(k): payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [payload(x) for x in obj]
    return str(obj)
