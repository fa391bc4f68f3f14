"""Stable file formats: JSON and text ideals, JSON complexes.

JSON ideal: {"n": 3, "generators": [[1,1,0],[1,0,1],[0,1,1]]}.
Text ideal: a line "n=3" followed by one generator per line, e.g.
"x1*x2" or "x1^2*x3"; a bare "1" denotes the unit ideal.
JSON complex: {"n": 4, "facets": [[1,2],[3,4]]} with 1-based vertices;
"facets": [] is the void complex and [[]] the empty complex.
"""

from __future__ import annotations

import json
import re

from .complexes import SimplicialComplex, vertices_of
from .monomial import MonomialIdeal

_TERM = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _json_int(value, what):
    """A JSON integer, rejecting floats, strings and booleans rather than
    truncating or converting them."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _ring_size(value, what):
    n = _json_int(value, f"{what} n")
    if n < 1:
        raise ValueError(f"{what} must be >= 1")
    return n


def ideal_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = _ring_size(data["n"], "variable count")
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ideal JSON: {exc}") from exc
    if not isinstance(generators, list) or \
            not all(isinstance(g, list) for g in generators):
        raise ValueError("generators must be a list of exponent lists")
    return MonomialIdeal.from_generators(
        (tuple(_json_int(a, "exponent") for a in g) for g in generators), n
    )


def ideal_to_json(ideal):
    return {"n": ideal.n, "generators": [list(g) for g in ideal.gens]}


def ideal_from_text(text):
    n = None
    generators = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            n = _ring_size(int(line[2:].strip()), "variable count")
            continue
        if n is None:
            raise ValueError("ring size n=<count> must come before generators")
        generators.append(_parse_monomial(line, n))
    if n is None:
        raise ValueError("missing ring size declaration n=<count>")
    return MonomialIdeal.from_generators(generators, n)


def ideal_to_text(ideal):
    lines = [f"n={ideal.n}"]
    for g in ideal.gens:
        terms = [
            f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}"
            for i, a in enumerate(g) if a > 0
        ]
        lines.append("*".join(terms) if terms else "1")
    return "\n".join(lines) + "\n"


def _parse_monomial(line, n):
    exponents = [0] * n
    if line == "1":
        return tuple(exponents)
    for term in line.split("*"):
        match = _TERM.match(term.strip())
        if not match:
            raise ValueError(f"cannot parse monomial term {term!r}")
        index = int(match.group(1))
        if not 1 <= index <= n:
            raise ValueError(f"variable x{index} outside ring with n={n}")
        exponents[index - 1] += int(match.group(2) or 1)
    return tuple(exponents)


def complex_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = _ring_size(data["n"], "vertex count")
        facets = data["facets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex JSON: {exc}") from exc
    if not isinstance(facets, list) or \
            not all(isinstance(f, list) for f in facets):
        raise ValueError("facets must be a list of vertex lists")
    converted = []
    for facet in facets:
        vertices = [_json_int(v, "vertex") - 1 for v in facet]
        if any(v < 0 or v >= n for v in vertices):
            raise ValueError(f"facet {facet} has a vertex outside 1..{n}")
        converted.append(vertices)
    return SimplicialComplex.from_facets(n, converted)


def complex_to_json(delta):
    return {
        "n": delta.n,
        "facets": [[v + 1 for v in vertices_of(f)] for f in delta.facets],
    }


def load_ideal(path):
    """Read an ideal file, JSON or text, deciding by content."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return ideal_from_json(stripped)
    return ideal_from_text(text)


def load_complex(path):
    with open(path) as fh:
        return complex_from_json(fh.read())
