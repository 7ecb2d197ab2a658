"""Command-line entry point: compute invariants, run verification suites,
serve cached results.

Each compute subcommand is one row of ``COMPUTE``: the options it reads,
its --method values and the function that returns its result, which
``_emit`` turns into the lines ``main`` writes.  An error prints one
``error:`` line and the call exits with the code its class carries
(``errors``); a failed check of a verification suite, or output that
cannot be written, exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import budget, cache
from . import characters as ch
from . import dynkin as dy
from . import endalg as ea
from . import modulerep as mr
from . import qanalogues as qa
from . import truncsym as ts
from . import verify as vf
from .errors import SpindleError, UsageError
from .qpoly import GradedSeries, QPolynomial, factored_str
from .rootsystem import build_root_system, checked_weight

FULL_WEYL_BUDGET = 10**10


def _parse_weight(text, rank):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"weight must be comma-separated integers, got {text!r}")
    return checked_weight(coords, rank)


def _emit(value, fmt):
    """The lines of a QPolynomial, a GradedSeries or a (header, rows) pair,
    whose rows are tuples of scalars, as text, json or csv.  A row value json
    cannot encode (a QPolynomial) prints as its str, as in text and csv."""
    table = isinstance(value, tuple)
    if fmt == "json":
        import json

        obj = ([dict(zip(value[0], r)) for r in value[1]] if table
               else value.to_json())
        yield json.dumps(obj, sort_keys=True, default=str) + "\n"
    elif table:
        lines = [value[0], *value[1]]
        sep, widths = ",", [0] * len(value[0])
        if fmt == "text":
            sep = "  "
            widths = [max(len(str(x)) for x in column)
                      for column in zip(*lines)]
        for r in lines:
            yield sep.join(str(x).ljust(w) for x, w in zip(r, widths)) + "\n"
    else:
        series = isinstance(value, GradedSeries)
        poly = value.numerator if series else value
        if fmt == "text":
            line = factored_str(poly)
            if series:
                line = f"({line}) / " + "".join(
                    f"(1 - q^{d})" for d in value.denominator_exponents)
            yield line + "\n"
            return
        yield "exponent,coefficient\n"
        for e, c in enumerate(poly.coeffs):
            yield f"{e},{c}\n"
        if series:
            yield ("# denominator exponents: "
                   + ",".join(str(d) for d in value.denominator_exponents)
                   + "\n")


def _weight_str(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _cached(args, rs, cls, compute, extra=None):
    """compute(), a value of cls, through the result cache under the
    subcommand's name."""
    return cache.cached(cls, args.subcommand, rs.type_letter, rs.rank,
                        args.weight, compute, extra=extra,
                        directory=args.cache_dir)


def _root_system(args, rs):
    return ("property", "value"), [
        ("type", f"{rs.type_letter}{rs.rank}"),
        ("positive_roots", len(rs.positive_roots)),
        ("exponents", " ".join(str(e) for e in rs.exponents)),
        ("degrees", " ".join(str(d) for d in rs.degrees)),
        ("weyl_order", rs.weyl_order),
        ("highest_root_height", max(rs.root_heights)),
    ]


def _character(args, rs):
    # charged before the cache, as a miss charges it, so that a hit meets
    # the same limit; either route holds up to dim V entries
    budget.charge("dim", "character dimension", rs.weyl_dimension(args.weight))
    char = _cached(args, rs, ch.WeightCharacter,
                   lambda: ch.irreducible_character(rs, args.weight))
    return ("weight", "multiplicity"), [
        (_weight_str(mu), m) for mu, m in sorted(char.entries.items())]


def _dynkin(args, rs):
    # the product has 2(lam, rho^vee) + 1 coefficients, charged before the
    # cache so that neither route allocates an unbounded list
    budget.charge("dim", "Dynkin polynomial length",
                  rs.doubled_height(args.weight) + 1)
    return _cached(args, rs, QPolynomial,
                   lambda: dy.dynkin_product(rs, args.weight))


def _lusztig(args, rs):
    mu = args.mu or (0,) * rs.rank
    if args.method == "module":
        return mr.filtration_q_multiplicity(rs, args.weight, mu)
    return qa.lusztig_q_multiplicity(rs, args.weight, mu)


def _f_lambda(args, rs):
    # charged before the cache, as a miss charges it
    budget.charge("dim", "character dimension", rs.weyl_dimension(args.weight))
    return _cached(
        args, rs, QPolynomial,
        lambda: qa.f_lambda(rs, args.weight, method=args.method),
        extra=args.method)


def _tensor_square(args, rs):
    pieces = ch.decompose_tensor_square(rs, args.weight)
    return ("highest_weight", "multiplicity"), [
        (_weight_str(nu), c) for nu, c in pieces]


def _end_alg_a(args, rs):
    module = ea.type_a_module(args.n, args.kind)
    return ("property", "value"), [
        ("dimension", module.dimension),
        ("highest_weight", _weight_str(module.lam)),
        *ea.structure(ea.commutant(module)),
    ]


def _truncsym(args, rs):
    _require_positive(args, ("n", "m"))
    return ts.box_partition_poincare(args.n, args.m)


_WEIGHT = ("type", "rank", "weight")
_CLOSED = qa.METHODS

# The limit options each --method value reads besides those of its row:
# the Weyl limit for a route that may run the Weyl sum, none for the
# closed form, and the dimension limit for the module route.
ROUTE_LIMITS = {
    "auto": ("weyl_budget", "full_weyl"),
    "weyl": ("weyl_budget", "full_weyl"),
    "closed": (),
    "module": ("dim_budget",),
}

# One row per compute subcommand: the options it reads besides --format
# (the top-level --cache-dir counts as "cache_dir"; no other command reads
# it) and besides the ROUTE_LIMITS of its chosen --method, its --method
# values, and the function of (options, root system) that returns its
# result.  A row that reads --type gets the root system, else None, and
# one that reads --weight gets it and --mu as tuples.  jump, f-lambda and
# poincare-cg read the dimension limit on every route, as each first
# finds whether the weight is wmf from its character.
COMPUTE = {
    "root-system": (("type", "rank"), (), _root_system),
    "character": (_WEIGHT + ("dim_budget", "cache_dir"), (), _character),
    "dynkin": (_WEIGHT + ("dim_budget", "cache_dir"), (), _dynkin),
    "jump": (_WEIGHT + ("mu", "method", "dim_budget"), _CLOSED,
             lambda args, rs: qa.jump_tensor(
                 rs, args.weight, args.mu or args.weight, method=args.method)),
    "lusztig": (_WEIGHT + ("mu", "method"), ("auto", "weyl", "module"),
                _lusztig),
    "t-poly": (_WEIGHT, (), lambda args, rs: qa.t_poly(rs, args.weight)),
    "f-lambda": (_WEIGHT + ("method", "dim_budget", "cache_dir"), _CLOSED,
                 _f_lambda),
    "poincare-cg": (_WEIGHT + ("method", "dim_budget"), _CLOSED,
                    lambda args, rs:
                    qa.poincare_cg(rs, args.weight, method=args.method)),
    "poincare-ct": (_WEIGHT + ("dim_budget",), (), lambda args, rs:
                    qa.poincare_ct(rs, args.weight)),
    "tensor-square": (_WEIGHT + ("dim_budget",), (), _tensor_square),
    "end-alg-a": (("n", "kind", "matrix_budget"), (), _end_alg_a),
    "truncsym": (("n", "m", "dim_budget"), (), _truncsym),
}

# Defaults of the options that have one; every option parses to None when
# it is not given, so that an option a subcommand does not read is seen.
COMPUTE_DEFAULTS = {
    "method": "auto",
    "weyl_budget": budget.DEFAULTS["weyl"],
    "full_weyl": False,
    "dim_budget": budget.DEFAULTS["dim"],
    "matrix_budget": budget.DEFAULTS["matrix"],
}


def _require_positive(args, names):
    """Reject a value below 1 for any of the named options."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def cmd_compute(args):
    """Check the options against the subcommand's row of COMPUTE, then run
    it under the limits they set: (exit code, lines of its result)."""
    sub = args.subcommand
    reads, methods, run = COMPUTE[sub]
    if methods:
        if args.method not in methods + (None,):
            raise UsageError(
                f"compute {sub} does not take --method {args.method}")
        reads += ROUTE_LIMITS[args.method or "auto"]
    unread = [
        "--" + name.replace("_", "-")
        for name in dict.fromkeys(
            n for opts, ms, _ in COMPUTE.values()
            for n in opts + sum((ROUTE_LIMITS[m] for m in ms), ()))
        if name not in reads and getattr(args, name) is not None
    ]
    if unread:
        raise UsageError(f"compute {sub} does not take {', '.join(unread)}")
    _require_positive(args, ("weyl_budget", "dim_budget", "matrix_budget"))
    for name, value in COMPUTE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    weyl = FULL_WEYL_BUDGET if args.full_weyl else args.weyl_budget
    with budget.limits(weyl=weyl, dim=args.dim_budget,
                       matrix=args.matrix_budget):
        # every option a row reads but --mu, --method, the limits and the
        # cache is required; the weight is asked for after the others
        for group in (("type", "rank", "n", "m", "kind"), ("weight",)):
            needed = [n for n in group if n in reads]
            if any(getattr(args, n) is None for n in needed):
                raise UsageError(
                    f"{sub} needs " + " and ".join("--" + n for n in needed))
        if "weight" in reads:
            # parsed before the build, whose cost grows with the rank, so
            # that a weight of the wrong length is refused at once
            args.weight = _parse_weight(args.weight, args.rank)
            if args.mu is not None:
                args.mu = _parse_weight(args.mu, args.rank)
        rs = build_root_system(args.type, args.rank) if "type" in reads else None
        return 0, _emit(run(args, rs), args.format)


def cmd_verify(args):
    """Run the suite: (exit code, lines of its report)."""
    if args.cache_dir is not None:
        raise UsageError("verify does not take --cache-dir")
    _require_positive(args, ("max_rank", "height_bound"))
    results = vf.run_suite(args.suite, max_rank=args.max_rank,
                           height_bound=args.height_bound)
    lines = []
    failures = 0
    for suite, check in results:
        status = "PASS" if check.ok else "FAIL"
        line = f"{status} [{suite}] {check.label}"
        if not check.ok:
            failures += 1
            if check.detail:
                line += f" :: {check.detail}"
        lines.append(line + "\n")
    lines.append(f"{len(results) - failures}/{len(results)} checks passed\n")
    return (0 if failures == 0 else 1), lines


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, like every
    other error; subparsers are made of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="spindle",
        description=(
            "Exact invariants of simple Lie algebra representations: "
            "Dynkin polynomials, q-multiplicities, jump polynomials, graded "
            "series, and their verification suites.  Weights are given in "
            "fundamental-weight coordinates with Bourbaki node numbering."
        ),
    )
    cached = [k for k, row in COMPUTE.items() if "cache_dir" in row[0]]
    parser.add_argument("--cache-dir", help=(
        "result cache directory (also via SPINDLE_CACHE_DIR), read by "
        f"compute {', '.join(cached)}"))
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one invariant")
    pc.add_argument(
        "subcommand",
        choices=list(COMPUTE),
    )
    pc.add_argument("--type", help="type letter A-G")
    pc.add_argument("--rank", type=int)
    pc.add_argument("--weight", help="comma-separated fundamental coordinates")
    pc.add_argument("--mu", help="second weight where applicable")
    pc.add_argument("--format", choices=["text", "json", "csv"],
                    default="text")
    takers = {}
    for name, (_, methods, _) in COMPUTE.items():
        for method in methods:
            takers.setdefault(method, []).append(name)
    routes = [
        f"{method} for " + " and ".join(
            filter(None, (", ".join(subs[:-1]), subs[-1])))
        for method, subs in takers.items() if method not in ("auto", "weyl")
    ]
    pc.add_argument("--method", choices=list(takers),
                    help="default auto; " + ", ".join(routes))
    pc.add_argument("--n", type=int, help="for end-alg-a / truncsym")
    pc.add_argument("--m", type=int, help="for truncsym")
    pc.add_argument("--kind", help="S<m> or E<k> for end-alg-a")
    pc.add_argument("--weyl-budget", type=int,
                    help="bound on Weyl alternation walk points plus "
                         "Kostant table cells, and plus the table's packed "
                         "64-bit words, per q-multiplicity (default "
                         f"{budget.DEFAULTS['weyl']})")
    pc.add_argument("--dim-budget", type=int,
                    help=f"default {budget.DEFAULTS['dim']}")
    pc.add_argument("--matrix-budget", type=int,
                    help=f"default {budget.DEFAULTS['matrix']}")
    pc.add_argument("--full-weyl", action="store_true", default=None,
                    help="lift the --weyl-budget cap")

    pv = sub.add_parser("verify", help="run an identity suite")
    pv.add_argument("suite", choices=list(vf.SUITES) + ["all"])
    pv.add_argument("--max-rank", type=int, default=None)
    pv.add_argument("--height-bound", type=int, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            code, lines = cmd_compute(args)
        else:
            code, lines = cmd_verify(args)
    except SpindleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    # an OSError of the computation is not caught, only one of the output
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # what is left in the buffer of a closed pipe or a full disk would
        # fail again at the interpreter's exit flush
        sys.stdout = open(os.devnull, "w")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
