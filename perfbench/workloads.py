"""Workloads of the spindle benchmark: invocation lists and output checks.

Each workload is a list of ``Call``s, run as one ``spindle`` process each.
Heavy anchors are fixed; the seed chooses only the light ``compute`` calls
of ``cli-short``.  Every call declares its exit code and a check of its
standard output.  Checks use references that the mathematics fixes, or
identities against other CLI calls that take a different route; those
reference calls run untimed, before measuring starts.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

# Recorded check counts of each verify suite at default options.
SUITE_CHECKS = {
    "table1": 207, "spindle": 200, "lusztig-vs-jump": 39,
    "dynkin-cross": 252, "wmf-iff": 64, "minuscule-series": 142,
    "kostant-t0": 33, "hermite": 64, "endalg": 64, "truncsym": 64,
    "tensor-mf": 150,
}


@dataclass
class Call:
    """One CLI invocation; ``check(stdout)`` returns an error or None."""

    argv: tuple
    check: Callable[[str], Optional[str]]
    expect_rc: int = 0
    cached: bool = False  # runs with the pass's fresh --cache-dir


# -- output parsing ---------------------------------------------------------

_TEXT_POLY = re.compile(r"[0-9q+\-*^() ]+")
_BASE = 10 ** 40  # above every coefficient spindle prints here


def _eval_text_poly(text):
    """Coefficients of a text polynomial, expanded or factored into blocks.

    The text is evaluated at q = _BASE and read back in base _BASE, which
    is exact for nonnegative coefficients below _BASE.
    """
    text = text.strip()
    if not _TEXT_POLY.fullmatch(text):
        raise ValueError(f"not a polynomial: {text[:60]!r}")
    expr = text.replace(")(", ")*(").replace("^", "**")
    value = eval(expr, {"__builtins__": {}}, {"q": _BASE})  # noqa: S307
    if value < 0:
        raise ValueError("negative polynomial value")
    coeffs = []
    while value:
        value, c = divmod(value, _BASE)
        coeffs.append(c)
    return coeffs


def parse_poly(out, fmt):
    """Coefficient list (index = exponent) of a polynomial output."""
    if fmt == "json":
        return [int(c) for c in json.loads(out)["coefficients"]]
    if fmt == "csv":
        lines = out.strip().splitlines()
        if lines[0] != "exponent,coefficient":
            raise ValueError("bad csv header")
        coeffs = {}
        for line in lines[1:]:
            if line.startswith("#"):
                continue
            e, c = line.split(",")
            coeffs[int(e)] = int(c)
        return [coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)]
    return _eval_text_poly(out)


def parse_series(out, fmt):
    """(numerator coefficients, denominator exponents) of a series output."""
    if fmt == "json":
        obj = json.loads(out)
        return parse_poly(out, "json"), list(obj["denominator_exponents"])
    if fmt == "csv":
        tail = out.strip().splitlines()[-1]
        if not tail.startswith("# denominator exponents: "):
            raise ValueError("missing denominator line")
        dens = [int(d) for d in tail.split(": ", 1)[1].split(",")]
        return parse_poly(out, "csv"), dens
    numer, denom = out.strip().split(" / ", 1)
    return _eval_text_poly(numer), [
        int(d) for d in re.findall(r"\(1 - q\^(\d+)\)", denom)
    ]


def parse_rows(out, fmt, header):
    """Two-column table output as a list of (key, value) strings."""
    if fmt == "json":
        return [(str(r[header[0]]), str(r[header[1]])) for r in json.loads(out)]
    lines = out.strip().splitlines()
    if fmt == "csv":
        if lines[0] != ",".join(header):
            raise ValueError("bad csv header")
        return [tuple(line.rsplit(",", 1)) for line in lines[1:]]
    if lines[0].split() != list(header):
        raise ValueError("bad table header")
    return [tuple(re.split(r"\s{2,}", line.strip(), maxsplit=1))
            for line in lines[1:]]


# -- checks ---------------------------------------------------------------

def _guard(fn):
    """Turn a predicate raising on malformed output into an error string."""
    def check(out):
        try:
            return fn(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {exc}"
    return check


def verify_check(suite):
    want = f"{SUITE_CHECKS[suite]}/{SUITE_CHECKS[suite]} checks passed"

    def check(out):
        lines = out.strip().splitlines()
        last = lines[-1] if lines else ""
        return None if last == want else f"last line {last!r}, expected {want!r}"
    return check


def poly_equals(fmt, want):
    @_guard
    def check(out):
        got = parse_poly(out, fmt)
        return None if got == list(want) else f"got {got}, expected {list(want)}"
    return check


def poly_value_at_1(fmt, want, what):
    @_guard
    def check(out):
        got = sum(parse_poly(out, fmt))
        return None if got == want else f"{what}: value at 1 is {got}, expected {want}"
    return check


def exponents(*exps):
    coeffs = [0] * (max(exps) + 1)
    for e in exps:
        coeffs[e] += 1
    return coeffs


def weyl_group(letter, rank):
    """(|W|, number of positive roots), from the classification."""
    f = math.factorial
    if letter == "A":
        return f(rank + 1), rank * (rank + 1) // 2
    if letter in "BC":
        return 2 ** rank * f(rank), rank * rank
    if letter == "D":
        return 2 ** (rank - 1) * f(rank), rank * (rank - 1)
    return {("E", 6): (51840, 36), ("E", 7): (2903040, 63),
            ("E", 8): (696729600, 120), ("F", 4): (1152, 24),
            ("G", 2): (12, 6)}[(letter, rank)]


# -- reference data from other routes --------------------------------------

class References:
    """Untimed reference CLI calls, memoized; ``run(argv) -> stdout``."""

    def __init__(self, run):
        self._run = run
        self._memo = {}

    def _get(self, argv):
        if argv not in self._memo:
            self._memo[argv] = self._run(argv)
        return self._memo[argv]

    def character(self, letter, rank, weight):
        """weight string -> multiplicity, from Freudenthal's recursion."""
        out = self._get(("compute", "character", "--type", letter,
                         "--rank", str(rank), "--weight", weight,
                         "--format", "json"))
        return {r["weight"]: r["multiplicity"] for r in json.loads(out)}

    def dimension_by_product(self, letter, rank, weight):
        """D_lam(1) from the root product formula."""
        out = self._get(("compute", "dynkin", "--type", letter, "--rank",
                         str(rank), "--weight", weight, "--format", "json"))
        return sum(parse_poly(out, "json"))


# -- workloads --------------------------------------------------------------

def _argv(*parts):
    return tuple(str(p) for p in parts)


def verify_characters(seed, refs):
    return [Call(_argv("verify", s), verify_check(s))
            for s in ("dynkin-cross", "tensor-mf")]


def verify_oracle(seed, refs):
    return [Call(_argv("verify", "lusztig-vs-jump"),
                 verify_check("lusztig-vs-jump"))]


def compute_qanalogue(seed, refs):
    f4 = refs.character("F", 4, "1,0,0,1")
    return [
        # Generalized exponents of the E6 adjoint: the exponents of E6.
        Call(_argv("compute", "lusztig", "--type", "E", "--rank", 6,
                   "--weight", "0,1,0,0,0,0"),
             poly_equals("text", exponents(1, 4, 5, 7, 8, 11))),
        Call(_argv("compute", "f-lambda", "--type", "F", "--rank", 4,
                   "--weight", "1,0,0,1"),
             poly_value_at_1("text", sum(m * m for m in f4.values()),
                             "F(1) = sum of squared multiplicities")),
        # Generalized exponents of the F4 adjoint: the exponents of F4.
        Call(_argv("compute", "lusztig", "--type", "F", "--rank", 4,
                   "--weight", "1,0,0,0"),
             poly_equals("text", exponents(1, 5, 7, 11))),
        Call(_argv("verify", "minuscule-series"),
             verify_check("minuscule-series")),
    ]


LIGHT_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
               ("C", 3), ("D", 4), ("G", 2))
ALL_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
             + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
FORMATS = ("text", "json", "csv")
SEEDED_KINDS = ("f-lambda", "f-lambda", "jump", "lusztig", "dynkin",
                "character", "poincare-cg", "poincare-ct", "truncsym",
                "root-system")


def _seeded_call(kind, rng, refs):
    """One light compute call of the given kind with its cross-route check."""
    fmt = rng.choice(FORMATS)
    if kind == "truncsym":
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        return Call(_argv("compute", kind, "--n", n, "--m", m, "--format", fmt),
                    poly_value_at_1(fmt, math.comb(n + m, n),
                                    "box partitions count C(n+m, n)"))
    if kind == "root-system":
        letter, rank = rng.choice(ALL_TYPES)
        order, npos = weyl_group(letter, rank)
        want = {"positive_roots": str(npos), "weyl_order": str(order)}

        @_guard
        def check(out):
            rows = dict(parse_rows(out, fmt, ("property", "value")))
            got = {k: rows.get(k) for k in want}
            return None if got == want else f"got {got}, expected {want}"
        return Call(_argv("compute", kind, "--type", letter, "--rank", rank,
                          "--format", fmt), check)

    letter, rank = rng.choice(LIGHT_TYPES)
    coords = [0] * rank
    for _ in range(rng.choice((1, 2))):
        coords[rng.randrange(rank)] += 1
    weight = ",".join(map(str, coords))
    argv = _argv("compute", kind, "--type", letter, "--rank", rank,
                 "--weight", weight, "--format", fmt)
    char = refs.character(letter, rank, weight)
    squares = sum(m * m for m in char.values())
    if kind in ("f-lambda", "jump"):
        return Call(argv, poly_value_at_1(
            fmt, squares, "F(1) = sum of squared multiplicities"))
    if kind == "lusztig":
        return Call(argv + ("--mu", ",".join("0" * rank)), poly_value_at_1(
            fmt, char.get("(" + ",".join("0" * rank) + ")", 0),
            "m(1) = zero-weight multiplicity"))
    if kind == "dynkin":
        return Call(argv, poly_value_at_1(
            fmt, sum(char.values()), "D(1) = dimension"))
    if kind == "character":
        dim = refs.dimension_by_product(letter, rank, weight)

        @_guard
        def check(out):
            rows = parse_rows(out, fmt, ("weight", "multiplicity"))
            got = {w: int(m) for w, m in rows}
            if got != char:
                return "weights differ from the json rendering"
            total = sum(got.values())
            return None if total == dim else f"dimension {total}, D(1) = {dim}"
        return Call(argv, check)
    # poincare-cg: numerator is F_lam; poincare-ct: numerator(1) counts
    # weights.  The denominator exponents are the degrees of W, whose
    # product is |W|.
    want_num = squares if kind == "poincare-cg" else len(char)
    order = weyl_group(letter, rank)[0]

    @_guard
    def check(out):
        numer, degrees = parse_series(out, fmt)
        if math.prod(degrees) != order:
            return f"degrees {degrees} do not multiply to |W| = {order}"
        got = sum(numer)
        return None if got == want_num else f"numerator(1) {got}, expected {want_num}"
    return Call(argv, check)


def cli_short(seed, refs):
    rng = random.Random(seed)
    calls = [Call(_argv("verify", s), verify_check(s))
             for s in ("table1", "spindle", "wmf-iff", "kostant-t0",
                       "hermite", "endalg", "truncsym")]
    calls += [_seeded_call(kind, rng, refs) for kind in SEEDED_KINDS]

    @_guard
    def e7_character(out):
        # V(w1 + w7) of E7 has dimension 6480.
        rows = parse_rows(out, "text", ("weight", "multiplicity"))
        total = sum(int(m) for _, m in rows)
        return None if total == 6480 else f"dimension {total}, expected 6480"

    @_guard
    def e8_adjoint_dynkin(out):
        # 248 weights with multiplicity; degree 2 * height(theta) = 58.
        coeffs = parse_poly(out, "text")
        if sum(coeffs) == 248 and len(coeffs) == 59:
            return None
        return f"D(1) = {sum(coeffs)}, degree {len(coeffs) - 1}"

    d5 = refs.character("D", 5, "0,1,0,0,0")
    cached = [
        Call(_argv("compute", "character", "--type", "E", "--rank", 7,
                   "--weight", "1,0,0,0,0,0,1"), e7_character, cached=True),
        Call(_argv("compute", "dynkin", "--type", "E", "--rank", 8,
                   "--weight", "0,0,0,0,0,0,0,1"), e8_adjoint_dynkin,
             cached=True),
        Call(_argv("compute", "f-lambda", "--type", "D", "--rank", 5,
                   "--weight", "0,1,0,0,0"),
             poly_value_at_1("text", sum(m * m for m in d5.values()),
                             "F(1) = sum of squared multiplicities"),
             cached=True),
    ]
    # Each cached call runs twice against the pass's fresh cache directory:
    # the first writes the entry, the second reads it.
    return calls + [call for call in cached for _ in range(2)]


WORKLOADS = {
    "verify-characters": verify_characters,
    "verify-oracle": verify_oracle,
    "compute-qanalogue": compute_qanalogue,
    "cli-short": cli_short,
}


def build(name, seed, run_reference):
    """The call list of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed, References(run_reference))
