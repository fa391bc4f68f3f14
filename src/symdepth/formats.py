"""Stable file formats: JSON and text ideals, JSON complexes.

JSON ideal: {"n": 3, "generators": [[1,1,0],[1,0,1],[0,1,1]]}.
Text ideal: a line "n=3" followed by one generator per line, e.g.
"x1*x2" or "x1^2*x3"; a bare "1" denotes the unit ideal.
JSON complex: {"n": 4, "facets": [[1,2],[3,4]]} with 1-based vertices;
"facets": [] is the void complex and [[]] the empty complex.
"""

import json
import re

from .complexes import SimplicialComplex
from .monomial import MonomialIdeal

_TERM = re.compile(r"^x(\d+)(?:\^(\d+))?$")

# The most digits an integer read from a file or an option may have: the
# interpreter's default limit for int(), checked here first so that the
# message names what was read rather than sys.set_int_max_str_digits.
MAX_DIGITS = 4300


def parse_int(text, what, bound=None):
    """int(text), refusing more than MAX_DIGITS digits before converting.
    The message names what was read and the bound it broke: `bound`, which
    a positive number that long exceeds, or else the digit limit."""
    digits = sum(map(str.isdigit, text))
    if digits > MAX_DIGITS:
        limit = (f"be below {bound}" if bound and "-" not in text
                 else f"have at most {MAX_DIGITS} digits")
        raise ValueError(f"{what} must {limit}, got {digits} digits")
    return int(text)


class _LongInt(str):
    """The text of a JSON integer too long for int(), kept for _json_int
    to refuse with the name of its field."""


def _json_int(value, what):
    """A JSON integer, rejecting floats, strings and booleans rather than
    truncating or converting them."""
    if isinstance(value, _LongInt):
        return parse_int(value, what)  # refused unless a sign made it long
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# The largest ring size a file may declare, checked before a reader
# allocates one slot per variable.
MAX_RING_SIZE = 10_000


def _ring_size(value, what):
    n = _json_int(value, f"{what} n")
    if n < 1:
        raise ValueError(f"{what} must be >= 1")
    if n > MAX_RING_SIZE:
        raise ValueError(f"{what} n must be at most {MAX_RING_SIZE}")
    return n


def _envelope(data, kind, count, key, entry):
    """(n, data[key]) of a JSON ideal or complex, as text or decoded: n
    read as the `count` count, data[key] a list of lists of `entry`."""
    if isinstance(data, str):
        data = json.loads(data, parse_int=lambda digits: int(digits)
                          if len(digits) <= MAX_DIGITS else _LongInt(digits))
    try:
        n = _ring_size(data["n"], f"{count} count")
        items = data[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc
    if not isinstance(items, list) or \
            not all(isinstance(item, list) for item in items):
        raise ValueError(f"{key} must be a list of {entry} lists")
    return n, items


def ideal_from_json(data):
    n, gens = _envelope(data, "ideal", "variable", "generators", "exponent")
    return MonomialIdeal.from_generators(
        (tuple(_json_int(a, "exponent") for a in g) for g in gens), n
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
            n = _ring_size(parse_int(line[2:], "variable count n"),
                           "variable count")
            continue
        if n is None:
            raise ValueError("ring size n=<count> must come before generators")
        generators.append(_parse_monomial(line, n))
    if n is None:
        raise ValueError("missing ring size declaration n=<count>")
    return MonomialIdeal.from_generators(generators, n)


def _parse_monomial(line, n):
    exponents = [0] * n
    if line == "1":
        return tuple(exponents)
    for term in line.split("*"):
        match = _TERM.match(term.strip())
        if not match:
            raise ValueError(f"cannot parse monomial term {term!r}")
        index = parse_int(match.group(1), "variable index")
        if not 1 <= index <= n:
            raise ValueError(f"variable x{index} outside ring with n={n}")
        exponents[index - 1] += parse_int(match.group(2) or "1", "exponent")
    return tuple(exponents)


def complex_from_json(data):
    n, facets = _envelope(data, "complex", "vertex", "facets", "vertex")
    converted = []
    for facet in facets:
        vertices = [_json_int(v, "vertex") - 1 for v in facet]
        if any(v < 0 or v >= n for v in vertices):
            raise ValueError(f"facet {facet} has a vertex outside 1..{n}")
        converted.append(vertices)
    return SimplicialComplex.from_facets(n, converted)


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
