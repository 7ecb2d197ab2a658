"""Identity suites: every structural claim the package exposes, run as
named batches of exact checks.  Each check yields a CheckResult; a suite
passes iff every check does.  Report ordering is fixed by definition
order, never by completion order.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import partial
from itertools import product as iproduct
from math import comb

from . import characters as ch
from . import dynkin as dy
from . import endalg as ea
from . import modulerep as mr
from . import qanalogues as qa
from . import truncsym as ts
from .errors import UsageError
from .qpoly import QPolynomial, gaussian_binomial, poly_str
from .rootsystem import build_root_system

CheckResult = namedtuple("CheckResult", ["label", "ok", "detail"])

SUITES = (
    "table1",
    "spindle",
    "lusztig-vs-jump",
    "dynkin-cross",
    "wmf-iff",
    "minuscule-series",
    "kostant-t0",
    "hermite",
    "endalg",
    "truncsym",
    "tensor-mf",
)

RANDOM_SEED = 20230815
SPINDLE_SAMPLES = 200
TENSOR_MF_DIM_CAP = 60


def _fundamental(rank, i):
    """varpi_{i+1} as a coordinate tuple (0-based node index)."""
    return tuple(1 if k == i else 0 for k in range(rank))


def _geometric(length):
    return QPolynomial.geometric(length)


def _check_poly(label, got, want):
    ok = got == want
    detail = "" if ok else f"got {poly_str(got)}; expected {poly_str(want)}"
    return CheckResult(label, ok, detail)


def _check(label, ok, detail=""):
    return CheckResult(label, bool(ok), "" if ok else detail)


def _simple_types(max_rank):
    """All simple types of rank at most max_rank."""
    out = [("A", r) for r in range(1, max_rank + 1)]
    for r in range(2, max_rank + 1):
        out.append(("B", r))
        out.append(("C", r))
    out.extend(("D", r) for r in range(3, max_rank + 1))
    out.extend(("E", r) for r in (6, 7, 8) if r <= max_rank)
    if max_rank >= 4:
        out.append(("F", 4))
    if max_rank >= 2:
        out.append(("G", 2))
    return out


def _dominant_by_height(rs, bound):
    """All dominant weights lam with (lam, rho^vee) <= bound."""
    two = rs.two_rho_check
    out = [
        lam
        for lam in iproduct(*(range(2 * bound // t + 1) for t in two))
        if rs.doubled_height(lam) <= 2 * bound
    ]
    out.sort()
    return out


# -- the closed forms checked row by row ------------------------------------

def _spin(n):
    """prod_{i=1}^{n} (1 + q^i): the spin and half-spin rows."""
    spin = QPolynomial.one()
    for i in range(1, n + 1):
        spin = spin * (QPolynomial.one() + QPolynomial.monomial(i))
    return spin


def _d_vector(n):
    return (QPolynomial.one() + QPolynomial.monomial(n - 1)) * _geometric(n)


def _table1_rows(max_rank):
    """(label, rs, lam, closed form) for every row of the wmf table; the
    closed form is a call without arguments, made only by suite_table1."""
    rows = []
    for n in range(1, max_rank + 1):
        rs = build_root_system("A", n)
        for i in range(1, n + 1):
            rows.append((f"A{n} w{i} fundamental", rs, _fundamental(n, i - 1),
                         partial(gaussian_binomial, n + 1 - i, i)))
        for m in range(1, max_rank + 1):
            want = partial(gaussian_binomial, m, n)
            rows.append((f"A{n} {m}*w1 symmetric power", rs,
                         (m,) + (0,) * (n - 1), want))
            rows.append((f"A{n} {m}*w{n} dual", rs, (0,) * (n - 1) + (m,),
                         want))
    for n in range(2, max_rank + 1):
        rs = build_root_system("B", n)
        rows.append((f"B{n} w{n} spin", rs, _fundamental(n, n - 1),
                     partial(_spin, n)))
        rows.append((f"B{n} w1 vector", rs, _fundamental(n, 0),
                     partial(_geometric, 2 * n + 1)))
        rows.append((f"C{n} w1 vector", build_root_system("C", n),
                     _fundamental(n, 0), partial(_geometric, 2 * n)))
    rows.append(("C3 w3", build_root_system("C", 3), (0, 0, 1),
                 partial(QPolynomial, [1, 1, 1, 2, 2, 2, 2, 1, 1, 1])))
    for n in range(3, max_rank + 1):
        rs = build_root_system("D", n)
        rows.append((f"D{n} w1 vector", rs, _fundamental(n, 0),
                     partial(_d_vector, n)))
        for node in (n - 2, n - 1):
            rows.append((f"D{n} w{node + 1} half-spin", rs,
                         _fundamental(n, node), partial(_spin, n - 1)))
    if max_rank >= 6:
        rows.append(("E6 w1", build_root_system("E", 6), _fundamental(6, 0),
                     lambda: QPolynomial([1, 0, 0, 0, 1, 0, 0, 0, 1])
                     * _geometric(9)))
    if max_rank >= 7:
        rows.append(("E7 w7 (56-dim)", build_root_system("E", 7),
                     _fundamental(7, 6),
                     lambda: (QPolynomial.one() + QPolynomial.monomial(5))
                     * (QPolynomial.one() + QPolynomial.monomial(9))
                     * _geometric(14)))
    rows.append(("G2 w1", build_root_system("G", 2), (1, 0),
                 partial(_geometric, 7)))
    return rows


def suite_table1(max_rank=8):
    """Closed factored forms of the Dynkin polynomial for every wmf family."""
    return [_check_poly(label, dy.dynkin_product(rs, lam), want())
            for label, rs, lam, want in _table1_rows(max_rank)]


def suite_spindle(max_rank=6):
    """Symmetry and unimodality on SPINDLE_SAMPLES randomly sampled
    dominant weights."""
    rng = random.Random(RANDOM_SEED)
    types = _simple_types(max_rank)
    checks = []
    for k in range(SPINDLE_SAMPLES):
        letter, rank = types[rng.randrange(len(types))]
        rs = build_root_system(letter, rank)
        lam = tuple(rng.randrange(4) for _ in range(rank))
        report = dy.verify_spindle(rs, lam)
        checks.append(_check(
            f"sample {k}: {letter}{rank} {lam}",
            report["ok"],
            f"report {report}",
        ))
    return checks


def suite_lusztig_vs_jump(height_bound=6):
    """Zero-weight q-multiplicity vs the jump polynomial computed from the
    module itself (the Brylinski-Kostant filtration of its zero weight
    space by a regular nilpotent), two fully independent algorithms."""
    checks = []
    for letter, rank in (("A", 1), ("A", 2), ("A", 3),
                         ("B", 2), ("C", 3), ("G", 2)):
        rs = build_root_system(letter, rank)
        for lam in _dominant_by_height(rs, height_bound):
            if not rs.in_root_lattice(lam):
                continue
            via_sum = qa.lusztig_q_multiplicity(rs, lam, (0,) * rank)
            via_module = mr.jump_polynomial(rs, lam)
            checks.append(_check_poly(
                f"{letter}{rank} {lam} zero-weight q-analogue",
                via_sum, via_module,
            ))
    return checks


def _table1_entries(dim_cap=10**5):
    """The distinct (rs, lam) of the wmf table up to rank 8, without its
    dual rows, of dimension at most ``dim_cap``."""
    entries = {}
    for label, rs, lam, _ in _table1_rows(8):
        if not label.endswith(" dual") and rs.weyl_dimension(lam) <= dim_cap:
            entries.setdefault((rs.type_letter, rs.rank, lam), (rs, lam))
    return list(entries.values())


def suite_dynkin_cross(max_rank=4, height_bound=5):
    """Floor-count sum vs root-product formula for the Dynkin polynomial."""
    checks = []
    for letter, rank in _simple_types(max_rank):
        rs = build_root_system(letter, rank)
        for lam in _dominant_by_height(rs, height_bound):
            checks.append(_check_poly(
                f"{letter}{rank} {lam} sum=product",
                dy.dynkin_sum(rs, lam),
                dy.dynkin_product(rs, lam),
            ))
    for rs, lam in _table1_entries():
        checks.append(_check_poly(
            f"{rs.type_letter}{rs.rank} {lam} closed-form row sum=product",
            dy.dynkin_sum(rs, lam),
            dy.dynkin_product(rs, lam),
        ))
    return checks


def suite_wmf_iff(max_rank=3, height_bound=4):
    """F = D exactly on wmf weights and only on wmf weights."""
    checks = []
    for letter, rank in _simple_types(max_rank):
        rs = build_root_system(letter, rank)
        for lam in _dominant_by_height(rs, height_bound):
            wmf = ch.is_wmf(rs, lam)
            f = qa.f_lambda(rs, lam)
            d = dy.dynkin_product(rs, lam)
            agree = f == d
            checks.append(_check(
                f"{letter}{rank} {lam} wmf={wmf}",
                agree == wmf,
                f"F = {poly_str(f)}; D = {poly_str(d)}",
            ))
    return checks


def _minuscule_fundamentals(max_rank=8):
    out = []
    for letter, rank in _simple_types(max_rank):
        rs = build_root_system(letter, rank)
        for i in range(rank):
            lam = _fundamental(rank, i)
            if ch.minuscule_by_pairing(rs, lam):
                out.append((rs, lam))
    return out


def suite_minuscule_series(max_rank=8):
    """Graded series of the two endomorphism algebras agree on minuscule
    weights, with numerator t_0/t_lam."""
    checks = []
    for rs, lam in _minuscule_fundamentals(max_rank):
        name = f"{rs.type_letter}{rs.rank} {lam}"
        cg = qa.poincare_cg(rs, lam)
        ct = qa.poincare_ct(rs, lam)
        quotient = qa.parabolic_quotient(rs, lam)
        checks.append(_check(
            f"{name} series equality", cg == ct,
            f"cg num {poly_str(cg.numerator)}; ct num {poly_str(ct.numerator)}",
        ))
        checks.append(_check_poly(
            f"{name} numerator is the parabolic quotient",
            cg.numerator, quotient,
        ))
    return checks


def suite_kostant_t0(max_rank=8):
    """Parabolic t_0 from the degrees vs the root-height product."""
    checks = []
    for letter, rank in _simple_types(max_rank):
        rs = build_root_system(letter, rank)
        checks.append(_check_poly(
            f"{letter}{rank} t_0 factorization",
            qa.t_poly(rs, (0,) * rank),
            qa.kostant_t0_factorization(rs),
        ))
    return checks


def suite_hermite(max_rank=8):
    """The two classical sl2 identities at polynomial level."""
    checks = []
    for m in range(1, max_rank + 1):
        for n in range(1, max_rank + 1):
            rep = dy.hermite_identities(m, n)
            checks.append(_check(
                f"(m,n)=({m},{n}) reciprocity+wedge",
                rep["ok"],
                f"value {poly_str(rep['value'])}, flags {rep}",
            ))
    return checks


ENDALG_GRID = (
    (1, "S2"), (1, "S3"), (1, "S4"),
    (2, "S1"), (2, "S2"), (2, "S3"),
    (3, "S1"), (3, "E2"),
)


def suite_endalg():
    """Graded commutant of z(e) on the type-A grid, from the module route."""
    checks = []
    for n, kind in ENDALG_GRID:
        name = f"sl{n + 1} {kind}"
        try:
            module = ea.type_a_module(n, kind)
            comm = ea.commutant(module)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            checks.append(_check(f"{name} construction", False, repr(exc)))
            continue
        d_poly = dy.dynkin_product(module.rs, module.lam)
        socle = ea.socle_dimension(comm)
        invariants = ea.a_invariants_dimension(comm)
        checks.append(_check(
            f"{name} commutant dimension",
            comm.dimension == module.dimension,
            f"{comm.dimension} != {module.dimension}",
        ))
        checks.append(_check_poly(
            f"{name} graded dimensions",
            QPolynomial(comm.graded_dimensions()), d_poly,
        ))
        checks.append(_check(
            f"{name} commutative", comm.is_commutative(), "products differ"))
        checks.append(_check(
            f"{name} socle", socle == 1, f"socle dim {socle}"))
        checks.append(_check(
            f"{name} lowest-vector bijection", ea.check_bijection(comm)))
        checks.append(_check(
            f"{name} hard Lefschetz ranges", ea.lefschetz_check(comm)))
        checks.append(_check(
            f"{name} e-power projections", ea.e_power_projections(module)))
        checks.append(_check(
            f"{name} invariants of the nilpotent algebra",
            invariants == 1, f"dim {invariants}",
        ))
    return checks


def suite_truncsym(max_rank=8):
    """Box partitions vs Gaussian binomial vs type-A Dynkin polynomial."""
    checks = []
    for n in range(1, max_rank + 1):
        for m in range(1, max_rank + 1):
            box = ts.box_partition_poincare(n, m)
            checks.append(_check(
                f"(n,m)=({n},{m}) three-way identity",
                ts.verify_section6_identity(n, m)
                and box(1) == comb(m + n, m),
                f"box {poly_str(box)}",
            ))
    return checks


def suite_tensor_mf():
    """Tensor square of each wmf module of the table of dimension at most
    TENSOR_MF_DIM_CAP is multiplicity free; for minuscule weights every
    constituent is small."""
    checks = []
    for rs, lam in _table1_entries(dim_cap=TENSOR_MF_DIM_CAP):
        if not ch.is_wmf(rs, lam):
            continue
        name = f"{rs.type_letter}{rs.rank} {lam}"
        pieces = ch.decompose_tensor_square(rs, lam)
        checks.append(_check(
            f"{name} multiplicity-free square",
            all(c == 1 for _, c in pieces),
            f"multiplicities {[c for _, c in pieces]}",
        ))
        if ch.is_minuscule(rs, lam):
            bad = [nu for nu, _ in pieces if not ch.is_small(rs, nu)]
            checks.append(_check(
                f"{name} constituents small", not bad, f"not small: {bad}"))
    return checks


_SUITE_FNS = {
    "table1": suite_table1,
    "spindle": suite_spindle,
    "lusztig-vs-jump": suite_lusztig_vs_jump,
    "dynkin-cross": suite_dynkin_cross,
    "wmf-iff": suite_wmf_iff,
    "minuscule-series": suite_minuscule_series,
    "kostant-t0": suite_kostant_t0,
    "hermite": suite_hermite,
    "endalg": suite_endalg,
    "truncsym": suite_truncsym,
    "tensor-mf": suite_tensor_mf,
}


def suite_parameters(name):
    """Option names a suite reads: each suite takes only defaulted
    positional-or-keyword parameters, so they lead ``co_varnames``."""
    code = _SUITE_FNS[name].__code__
    return code.co_varnames[:code.co_argcount]


def run_suite(name, **options):
    """Run one named suite (or 'all'); returns [(suite, CheckResult), ...].

    Options set to None are left at the suite's default.  'all' passes each
    suite the options it reads; a named suite given an option it does not
    read raises UsageError.
    """
    opts = {k: v for k, v in options.items() if v is not None}
    if name == "all":
        results = []
        for s in SUITES:
            params = suite_parameters(s)
            results.extend(run_suite(
                s, **{k: v for k, v in opts.items() if k in params}
            ))
        return results
    fn = _SUITE_FNS.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}")
    params = suite_parameters(name)
    for k in opts:
        if k not in params:
            flag = "--" + k.replace("_", "-")
            raise UsageError(f"verify {name} does not take {flag}")
    return [(name, c) for c in fn(**opts)]
