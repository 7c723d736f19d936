"""JSON codecs for fields and configurations, and the envelope renderer.

The configuration document is:

    {"field": "Q" | {"Fp": p}, "d": d, "n": n, "columns": [[...], ...]}

with rational scalars as fraction strings ("3", "-5/7") and prime-field
scalars as plain ints. Round-tripping preserves configurations up to nothing
at all — coordinates are written verbatim.

`Field` decides the form of each scalar. `config_from_json` checks the
shape of each column, then reads the whole document in one pass by
`Field.ints_from_json` when every coordinate is of the common kind (exact
ints over F_p, plain ASCII integer strings over Q), as core ints, and keeps
them as the int columns of the coordinate matrix
(`Matrix._from_int_columns`): the minors start from them, and the
`Fraction` entries over Q are built only if read. Any other document, and
one with a string `int` refuses, goes entry by entry through
`Field.scalar_from_json`, the one rule of acceptance and of error text, so
both paths give the same scalars and the same errors. `config_to_json`
writes a column at a time (`Matrix._raw_columns`), by
`Field.scalars_to_json`: a column of clearing factor 1 as its ints, any
other as the `Fraction`s of its ints over the factor.

`envelope_text` renders a CLI envelope as `json.dumps(doc, sort_keys=True,
indent=2)` does, byte for byte, without the stdlib's pure-Python `indent`
encoder. A list whose items are all ints or all strings, and a list of
nonempty lists whose items all are (configuration columns, hypergraph
edges, `nonvanishing`), is rendered in one join.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _esc
from typing import Any

from .configurations import PointConfiguration
from .fields import Field
from .linalg import Matrix


def field_to_json(f: Field) -> Any:
    return "Q" if f.kind == "Q" else {"Fp": f.p}


def _exact_int(value: Any, name: str) -> int:
    """An integer field of a document; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def field_from_json(doc: Any) -> Field:
    if doc == "Q":
        return Field.rationals()
    if isinstance(doc, dict) and set(doc) == {"Fp"}:
        return Field.prime(_exact_int(doc["Fp"], "Fp"))
    raise ValueError(f"bad field document: {doc!r}")


def parse_field_spec(spec: str) -> Field:
    """CLI shorthand: 'Q', 'Fp' (default prime), or 'Fp:65521'."""
    s = spec.strip()
    if s in ("Q", "q"):
        return Field.rationals()
    if s in ("Fp", "fp"):
        return Field.prime()
    for sep in (":", "="):
        if s.lower().startswith("fp" + sep):
            return Field.prime(int(s[3:]))
    raise ValueError(f"bad field spec {spec!r}; use Q, Fp, or Fp:<prime>")


def config_to_json(p: PointConfiguration) -> dict:
    f = p.field
    return {
        "field": field_to_json(f),
        "d": p.d,
        "n": p.n,
        "columns": list(map(f.scalars_to_json, p.coords._raw_columns())),
    }


def config_from_json(doc: dict) -> PointConfiguration:
    if not isinstance(doc, dict):
        raise ValueError("configuration document must be an object")
    missing = {"field", "d", "n", "columns"} - set(doc)
    if missing:
        raise ValueError(f"configuration document missing keys: {sorted(missing)}")
    f = field_from_json(doc["field"])
    d, n = _exact_int(doc["d"], "d"), _exact_int(doc["n"], "n")
    cols = doc["columns"]
    if not isinstance(cols, list) or len(cols) != n:
        raise ValueError(f"expected {n} columns")
    h = d + 1
    for j, col in enumerate(cols, start=1):
        if not isinstance(col, list) or len(col) != h:
            raise ValueError(f"column {j} must be a list of {h} coordinates, got {col!r}")
    flat = f.ints_from_json(list(chain.from_iterable(cols)))
    if flat is not None:
        columns = [flat[i : i + h] for i in range(0, len(flat), h)]
        return PointConfiguration(f, d, n, Matrix._from_int_columns(f, columns))
    parsed = [
        [_scalar_from_json(f, x, j, i) for i, x in enumerate(col, start=1)] for j, col in enumerate(cols, start=1)
    ]
    return PointConfiguration(f, d, n, Matrix.from_columns(f, parsed))


def _scalar_from_json(f: Field, x: Any, j: int, i: int):
    """Coordinate i of column j (both 1-based); a bad scalar is a ValueError naming both."""
    try:
        return f.scalar_from_json(x)
    except ZeroDivisionError:
        reason = f"{x!r} has a zero denominator"
    except (TypeError, ValueError) as e:
        reason = str(e)
    raise ValueError(f"column {j}, coordinate {i}: {reason}")


#: How each item of a list whose items are all of one exact type is
#: rendered, by one C-level `map` for the whole list, keyed by the set of item
#: types as a tuple (a bool is not an exact int, so bool lists recurse).
_LEAF_ITEMS = {(int,): int.__repr__, (str,): _esc}


def envelope_text(doc: Any) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte, in one join.

    Dict keys must be strings (a TypeError otherwise; no envelope has
    another). Scalars other than str, int, bool and None go through
    `json.dumps`, so floats and unsupported types come out as they would
    there. The renderer is a module-level function, not a closure that calls
    itself: a closure would make a reference cycle per envelope and keep its
    fragments alive until the garbage collector ran.
    """
    parts: list[str] = []
    _render(doc, parts, "\n")
    return "".join(parts)


def _render(o: Any, parts: list[str], nl: str) -> None:
    """Append the text of o to parts; nl is a newline and o's indentation."""
    t = type(o)
    if t is str:
        parts.append(_esc(o))
    elif t is int:
        parts.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        types = set(map(type, o))
        leaf = _LEAF_ITEMS.get(tuple(types))
        if leaf is not None:
            parts.append(f"[{inner}{sep.join(map(leaf, o))}{nl}]")
            return
        if types <= {list, tuple} and all(o):
            # a list of nonempty lists whose items are all of one leaf type
            leaf = _LEAF_ITEMS.get(tuple(set(map(type, chain.from_iterable(o)))))
            if leaf is not None:
                row = inner + "  "
                text = f"{inner}],{inner}[{row}".join(map(("," + row).join, map(map, repeat(leaf), o)))
                parts.append(f"[{inner}[{row}{text}{inner}]{nl}]")
                return
        head = "[" + inner
        for x in o:
            parts.append(head)
            _render(x, parts, inner)
            head = sep
        parts.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        head = "{" + inner
        for k, v in sorted(o.items()):
            parts.append(f"{head}{_esc(k)}: ")
            _render(v, parts, inner)
            head = sep
        parts.append(nl + "}")
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    else:
        parts.append(json.dumps(o))
