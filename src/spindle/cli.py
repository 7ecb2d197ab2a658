"""Command-line entry point: compute invariants, run verification suites,
serve cached results.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import cache
from . import characters as ch
from . import dynkin as dy
from . import endalg as ea
from . import modulerep as mr
from . import qanalogues as qa
from . import truncsym as ts
from . import verify as vf
from .errors import (
    DomainError,
    ExactDivisionError,
    ResourceBudgetError,
    SpindleError,
    UsageError,
)
from .qpoly import QPolynomial, factored_str, poly_str
from .rootsystem import DEFAULT_WEYL_BUDGET, build_root_system

FULL_WEYL_BUDGET = 10**10


def _parse_weight(text, rank):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"weight must be comma-separated integers, got {text!r}")
    if len(coords) != rank:
        raise UsageError(
            f"weight has {len(coords)} coordinates, rank is {rank}"
        )
    if any(c < 0 for c in coords):
        raise UsageError("weight coordinates must be nonnegative")
    return coords


def _emit_json(obj, out):
    import json

    out.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_poly(poly, fmt, out):
    if fmt == "text":
        out.write(factored_str(poly) + "\n")
    elif fmt == "json":
        _emit_json(poly.to_json(), out)
    else:
        out.write("exponent,coefficient\n")
        for e, c in enumerate(poly.coeffs):
            out.write(f"{e},{c}\n")


def _emit_series(series, fmt, out):
    if fmt == "text":
        denom = "".join(
            f"(1 - q^{d})" for d in series.denominator_exponents
        )
        out.write(f"({factored_str(series.numerator)}) / {denom}\n")
    elif fmt == "json":
        _emit_json(series.to_json(), out)
    else:
        out.write("exponent,coefficient\n")
        for e, c in enumerate(series.numerator.coeffs):
            out.write(f"{e},{c}\n")
        out.write("# denominator exponents: "
                  + ",".join(str(d) for d in series.denominator_exponents)
                  + "\n")


def _emit_rows(rows, header, fmt, out):
    """rows: list of tuples of printable scalars."""
    if fmt == "json":
        _emit_json([dict(zip(header, r)) for r in rows], out)
        return
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(str(x) for x in r) + "\n")
        return
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for r in rows:
        out.write("  ".join(str(x).ljust(w) for x, w in zip(r, widths)) + "\n")


def _weight_str(w):
    return "(" + ",".join(str(x) for x in w) + ")"


_WEIGHT = ("type", "rank", "weight")
_WEYL = ("method", "weyl_budget", "full_weyl", "dim_budget")

# The options each compute subcommand reads, besides --format; the
# top-level --cache-dir counts as "cache_dir".  No other command reads it.
COMPUTE_OPTIONS = {
    "root-system": ("type", "rank"),
    "character": _WEIGHT + ("dim_budget", "cache_dir"),
    "dynkin": _WEIGHT + ("cache_dir",),
    "jump": _WEIGHT + ("mu",) + _WEYL,
    "lusztig": _WEIGHT + ("mu", "method", "weyl_budget", "full_weyl"),
    "t-poly": _WEIGHT,
    "f-lambda": _WEIGHT + _WEYL + ("cache_dir",),
    "poincare-cg": _WEIGHT + _WEYL,
    "poincare-ct": _WEIGHT + ("dim_budget",),
    "tensor-square": _WEIGHT + ("dim_budget",),
    "end-alg-a": ("n", "kind", "matrix_budget"),
    "truncsym": ("n", "m"),
}

# The --method values of each subcommand that reads --method.  Only
# lusztig has a module route, which reads no Weyl budget, and it has no
# closed form.
COMPUTE_METHODS = {
    "jump": ("auto", "weyl", "closed"),
    "lusztig": ("auto", "weyl", "module"),
    "f-lambda": ("auto", "weyl", "closed"),
    "poincare-cg": ("auto", "weyl", "closed"),
}

# Defaults of the options that have one; every option parses to None when
# it is not given, so that an option a subcommand does not read is seen.
COMPUTE_DEFAULTS = {
    "method": "auto",
    "weyl_budget": DEFAULT_WEYL_BUDGET,
    "full_weyl": False,
    "dim_budget": ch.DEFAULT_DIM_BUDGET,
    "matrix_budget": ea.DEFAULT_DIM_BOUND,
}


def _require_positive(args, names):
    """Reject a value below 1 for any of the named options."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _check_compute_options(args):
    """Reject options the subcommand does not read; fill in defaults."""
    reads = COMPUTE_OPTIONS[args.subcommand]
    methods = COMPUTE_METHODS.get(args.subcommand, ())
    if args.method == "module" and "module" in methods:
        reads = tuple(n for n in reads if n not in ("weyl_budget", "full_weyl"))
    unread = [
        "--" + name.replace("_", "-")
        for name in dict.fromkeys(n for opts in COMPUTE_OPTIONS.values()
                                  for n in opts)
        if name not in reads and getattr(args, name) is not None
    ]
    if unread:
        raise UsageError(
            f"compute {args.subcommand} does not take {', '.join(unread)}"
        )
    if args.method is not None and args.method not in methods:
        raise UsageError(
            f"compute {args.subcommand} does not take --method {args.method}"
        )
    _require_positive(args, ("weyl_budget", "dim_budget", "matrix_budget"))
    for name, value in COMPUTE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def cmd_compute(args, out):
    _check_compute_options(args)
    sub = args.subcommand
    fmt = args.format
    if sub == "truncsym":
        if args.n is None or args.m is None:
            raise UsageError("truncsym needs --n and --m")
        _require_positive(args, ("n", "m"))
        _emit_poly(ts.box_partition_poincare(args.n, args.m), fmt, out)
        return 0
    if sub == "end-alg-a":
        if args.n is None or args.kind is None:
            raise UsageError("end-alg-a needs --n and --kind")
        module = ea.type_a_module(args.n, args.kind,
                                  dim_bound=args.matrix_budget)
        comm = ea.commutant(module)
        rows = [
            ("dimension", module.dimension),
            ("highest_weight", _weight_str(module.lam)),
            ("commutant_dimension", comm.dimension),
            ("graded_polynomial",
             poly_str(QPolynomial(comm.graded_dimensions()))),
            ("commutative", comm.is_commutative()),
            ("socle_dimension", ea.socle_dimension(comm)),
            ("lowest_vector_bijection", ea.check_bijection(comm)),
            ("lefschetz", ea.lefschetz_check(comm)),
            ("e_power_projections", ea.e_power_projections(module)),
            ("invariants_dimension", ea.a_invariants_dimension(comm)),
        ]
        _emit_rows(rows, ("property", "value"), fmt, out)
        return 0

    if args.type is None or args.rank is None:
        raise UsageError(f"{sub} needs --type and --rank")
    if sub != "root-system":
        # parsed before the build, whose cost grows with the rank, so that
        # a weight of the wrong length is refused at once
        if args.weight is None:
            raise UsageError(f"{sub} needs --weight")
        lam = _parse_weight(args.weight, args.rank)
        mu = _parse_weight(args.mu, args.rank) if args.mu else None
    rs = build_root_system(args.type, args.rank)

    if sub == "root-system":
        rows = [
            ("type", f"{rs.type_letter}{rs.rank}"),
            ("positive_roots", len(rs.positive_roots)),
            ("exponents", " ".join(str(e) for e in rs.exponents)),
            ("degrees", " ".join(str(d) for d in rs.degrees)),
            ("weyl_order", rs.weyl_order),
            ("highest_root_height", max(rs.root_heights)),
        ]
        _emit_rows(rows, ("property", "value"), fmt, out)
        return 0

    weyl_budget = FULL_WEYL_BUDGET if args.full_weyl else args.weyl_budget

    if sub == "character":
        entries = cache.cached(
            "character", rs.type_letter, rs.rank, lam,
            lambda: ch.irreducible_character(
                rs, lam, dim_budget=args.dim_budget
            ).to_json(),
            directory=args.cache_dir,
        )
        rows = [(_weight_str(mu), m) for mu, m in entries]
        _emit_rows(rows, ("weight", "multiplicity"), fmt, out)
        return 0
    if sub == "dynkin":
        data = cache.cached(
            "dynkin", rs.type_letter, rs.rank, lam,
            lambda: dy.dynkin_product(rs, lam).to_json(),
            directory=args.cache_dir,
        )
        _emit_poly(QPolynomial.from_json(data), fmt, out)
        return 0
    if sub == "t-poly":
        _emit_poly(qa.t_poly(rs, lam), fmt, out)
        return 0
    if sub == "lusztig":
        mu = mu or (0,) * rs.rank
        if args.method == "module":
            poly = mr.filtration_q_multiplicity(rs, lam, mu)
        else:
            poly = qa.lusztig_q_multiplicity(rs, lam, mu, budget=weyl_budget)
        _emit_poly(poly, fmt, out)
        return 0
    if sub == "jump":
        _emit_poly(
            qa.jump_tensor(rs, lam, mu or lam, method=args.method,
                           budget=weyl_budget, dim_budget=args.dim_budget),
            fmt, out,
        )
        return 0
    if sub == "f-lambda":
        data = cache.cached(
            "f-lambda", rs.type_letter, rs.rank, lam,
            lambda: qa.f_lambda(
                rs, lam, method=args.method,
                budget=weyl_budget, dim_budget=args.dim_budget,
            ).to_json(),
            extra=args.method, directory=args.cache_dir,
        )
        _emit_poly(QPolynomial.from_json(data), fmt, out)
        return 0
    if sub == "poincare-cg":
        _emit_series(
            qa.poincare_cg(rs, lam, method=args.method,
                           budget=weyl_budget, dim_budget=args.dim_budget),
            fmt, out,
        )
        return 0
    if sub == "poincare-ct":
        _emit_series(
            qa.poincare_ct(rs, lam, dim_budget=args.dim_budget), fmt, out
        )
        return 0
    if sub == "tensor-square":
        pieces = ch.decompose_tensor_square(rs, lam, dim_budget=args.dim_budget)
        rows = [(_weight_str(nu), c) for nu, c in pieces]
        _emit_rows(rows, ("highest_weight", "multiplicity"), fmt, out)
        return 0
    raise UsageError(f"unknown compute subcommand {sub!r}")


def cmd_verify(args, out):
    if args.cache_dir is not None:
        raise UsageError("verify does not take --cache-dir")
    _require_positive(args, ("max_rank", "height_bound"))
    results = vf.run_suite(args.suite, max_rank=args.max_rank,
                           height_bound=args.height_bound)
    failures = 0
    for suite, check in results:
        status = "PASS" if check.ok else "FAIL"
        line = f"{status} [{suite}] {check.label}"
        if not check.ok:
            failures += 1
            if check.detail:
                line += f" :: {check.detail}"
        out.write(line + "\n")
    out.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return 0 if failures == 0 else 1


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
    cached = [k for k, opts in COMPUTE_OPTIONS.items() if "cache_dir" in opts]
    parser.add_argument("--cache-dir", help=(
        "result cache directory (also via SPINDLE_CACHE_DIR), read by "
        f"compute {', '.join(cached)}"))
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one invariant")
    pc.add_argument(
        "subcommand",
        choices=list(COMPUTE_OPTIONS),
    )
    pc.add_argument("--type", help="type letter A-G")
    pc.add_argument("--rank", type=int)
    pc.add_argument("--weight", help="comma-separated fundamental coordinates")
    pc.add_argument("--mu", help="second weight where applicable")
    pc.add_argument("--format", choices=["text", "json", "csv"],
                    default="text")
    pc.add_argument("--method", choices=["auto", "weyl", "closed", "module"],
                    help="default auto; closed for jump, f-lambda and "
                         "poincare-cg, module for lusztig")
    pc.add_argument("--n", type=int, help="for end-alg-a / truncsym")
    pc.add_argument("--m", type=int, help="for truncsym")
    pc.add_argument("--kind", help="S<m> or E<k> for end-alg-a")
    pc.add_argument("--weyl-budget", type=int,
                    help="bound on Weyl alternation walk points plus "
                         "Kostant table cells, and plus the table's packed "
                         "64-bit words, per q-multiplicity (default "
                         f"{DEFAULT_WEYL_BUDGET})")
    pc.add_argument("--dim-budget", type=int,
                    help=f"default {ch.DEFAULT_DIM_BUDGET}")
    pc.add_argument("--matrix-budget", type=int,
                    help=f"default {ea.DEFAULT_DIM_BOUND}")
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
    out = sys.stdout
    try:
        if args.command == "compute":
            return cmd_compute(args, out)
        return cmd_verify(args, out)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, DomainError, ExactDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpindleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
