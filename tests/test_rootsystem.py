import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindle.errors import (
    InternalConsistencyError,
    ResourceBudgetError,
    UsageError,
)
from spindle.rootsystem import (
    RootSystem,
    _closure,
    _degrees,
    _symmetrizer,
    build_root_system,
)

# (type, rank) -> (#positive roots, degrees, Weyl order, highest root height)
CLASSICAL = {
    ("A", 1): (1, (2,), 2, 1),
    ("A", 2): (3, (2, 3), 6, 2),
    ("A", 3): (6, (2, 3, 4), 24, 3),
    ("B", 2): (4, (2, 4), 8, 3),
    ("B", 3): (9, (2, 4, 6), 48, 5),
    ("C", 3): (9, (2, 4, 6), 48, 5),
    ("D", 4): (12, (2, 4, 4, 6), 192, 5),
    ("E", 6): (36, (2, 5, 6, 8, 9, 12), 51840, 11),
    ("E", 7): (63, (2, 6, 8, 10, 12, 14, 18), 2903040, 17),
    ("E", 8): (120, (2, 8, 12, 14, 18, 20, 24, 30), 696729600, 29),
    ("F", 4): (24, (2, 6, 8, 12), 1152, 11),
    ("G", 2): (6, (2, 6), 12, 5),
}


@pytest.mark.parametrize("key", sorted(CLASSICAL))
def test_classical_tables(key):
    letter, rank = key
    nroots, degrees, order, hight = CLASSICAL[key]
    rs = build_root_system(letter, rank)
    assert len(rs.positive_roots) == nroots
    assert rs.degrees == degrees
    assert rs.weyl_order == order
    assert max(rs.root_heights) == hight
    assert sum(rs.exponents) == nroots


def test_invalid_inputs():
    with pytest.raises(UsageError):
        build_root_system("Z", 2)
    with pytest.raises(UsageError):
        build_root_system("E", 5)
    with pytest.raises(UsageError):
        build_root_system("G", 3)
    with pytest.raises(UsageError):
        build_root_system("A", 0)
    with pytest.raises(UsageError):
        build_root_system("A", "2")


def test_cartan_bourbaki_g2():
    g2 = build_root_system("G", 2)
    # alpha_1 short: <alpha_2, alpha_1^vee> = -3
    assert g2.cartan_matrix == ((2, -1), (-3, 2))
    assert max(g2.positive_roots, key=sum) == (3, 2)


def test_coordinate_roundtrip():
    for letter, rank in [("A", 3), ("B", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(letter, rank)
        for r in rs.positive_roots:
            w = rs.root_to_weight_coords(r)
            assert rs.root_lattice_coords(w) == r
        assert rs.in_root_lattice(rs.root_to_weight_coords(rs.positive_roots[0]))


def _pairings(rs, mu):
    """(mu, gamma^vee) over the positive coroots, each a dot product."""
    return [sum(m * c for m, c in zip(mu, cr)) for cr in rs.positive_coroots]


def test_pairing_and_height():
    a2 = build_root_system("A", 2)
    rho = (1, 1)
    # (rho, alpha^vee) = height of alpha^vee
    for p, cr in zip(_pairings(a2, rho), a2.positive_coroots):
        assert p == sum(cr)
    assert a2.doubled_height((1, 1)) == 4
    a1 = build_root_system("A", 1)
    assert a1.doubled_height((1,)) == 1


def test_orbits_and_stabilizers():
    b2 = build_root_system("B", 2)
    assert len(b2.weyl_orbit((1, 0))) == 4
    assert len(b2.weyl_orbit((0, 1))) == 4
    assert len(b2.weyl_orbit((1, 1))) == 8
    assert b2.orbit_size((1, 1)) == 8
    assert b2.orbit_size((0, 0)) == 1
    assert b2.stabilizer_order((1, 0)) == 2


def test_parabolic_degrees():
    a3 = build_root_system("A", 3)
    # stabilizer of varpi_2 is A1 x A1
    assert a3.parabolic_degrees((0, 1, 0)) == [1, 2, 2]
    assert a3.parabolic_degrees((0, 0, 0)) == [2, 3, 4]
    assert a3.parabolic_degrees((1, 1, 1)) == [1, 1, 1]
    e7 = build_root_system("E", 7)
    # stabilizer of varpi_7 is E6
    assert e7.parabolic_degrees((0, 0, 0, 0, 0, 0, 1)) == [1, 2, 5, 6, 8, 9, 12]
    # memoized per zero set; callers get their own list
    degs = e7.parabolic_degrees((0, 0, 0, 0, 0, 0, 2))
    degs.append(0)
    assert e7.parabolic_degrees((0, 0, 0, 0, 0, 0, 1)) == [1, 2, 5, 6, 8, 9, 12]


def test_dual_weight():
    a3 = build_root_system("A", 3)
    assert a3.dual_weight((1, 0, 0)) == (0, 0, 1)
    assert a3.dual_weight((1, 2, 3)) == (3, 2, 1)
    b3 = build_root_system("B", 3)
    assert b3.dual_weight((1, 2, 3)) == (1, 2, 3)
    e6 = build_root_system("E", 6)
    assert e6.dual_weight((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)


def test_alternation_walk_covers_group():
    # with a gap no step can overdraw, the walk visits all of W once each
    b2 = build_root_system("B", 2)
    points = b2.alternation_walk((1, 1), (100, 100))
    assert len(points) == 8
    assert sum(sign for _, sign in points) == 0
    assert len({g for g, _ in points}) == 8
    # gap 0: only the identity survives the pruning
    assert b2.alternation_walk((1, 1), (0, 0)) == [((0, 0), 1)]


def test_alternation_walk_budget():
    e8 = build_root_system("E", 8)
    theta = max(e8.positive_roots, key=sum)
    rho_plus_theta = (1, 1, 1, 1, 1, 1, 1, 2)
    with pytest.raises(ResourceBudgetError, match="1000 points"):
        e8.alternation_walk(rho_plus_theta, theta, budget=1000)
    assert len(e8.alternation_walk(rho_plus_theta, theta)) == 2318


def test_weyl_dimension():
    assert build_root_system("A", 2).weyl_dimension((1, 1)) == 8
    assert build_root_system("C", 3).weyl_dimension((0, 0, 1)) == 14
    assert build_root_system("G", 2).weyl_dimension((1, 0)) == 7
    assert build_root_system("E", 7).weyl_dimension(
        (0, 0, 0, 0, 0, 0, 1)
    ) == 56
    assert build_root_system("E", 8).weyl_dimension(
        (0, 0, 0, 0, 0, 0, 0, 1)
    ) == 248


def test_build_is_memoized():
    assert build_root_system("A", 2) is build_root_system("A", 2)


# Every type whose Weyl group has at most 1152 elements.
SMALL_WEYL = (
    [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)]
    + [("C", r) for r in range(2, 5)] + [("D", 3), ("D", 4), ("F", 4),
                                          ("G", 2)]
)


def _bfs_height_histogram(rs, mu):
    """Doubled heights of W mu by a seen-set search over simple reflections."""
    seen = {mu}
    frontier = [mu]
    while frontier:
        new = []
        for x in frontier:
            for j in range(rs.rank):
                y = rs.simple_reflection(x, j)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    hist = {}
    for x in seen:
        h = sum(m * t for m, t in zip(x, rs.two_rho_check))
        hist[h] = hist.get(h, 0) + 1
    return seen, hist


@st.composite
def small_weyl_weights(draw, low=0):
    letter, rank = draw(st.sampled_from(SMALL_WEYL))
    rs = build_root_system(letter, rank)
    return rs, tuple(draw(st.integers(low, 2)) for _ in range(rank))


@settings(max_examples=80, deadline=None)
@given(small_weyl_weights())
def test_orbit_heights_match_seen_set_search(case):
    rs, mu = case
    orbit, hist = _bfs_height_histogram(rs, mu)
    assert rs.orbit_heights(mu) == hist
    assert sum(hist.values()) == rs.orbit_size(mu)
    walked = rs.weyl_orbit(mu)
    assert len(walked) == len(orbit) and set(walked) == orbit


def _unpruned_orbit_walk(rs, mu):
    """The orbit tree walk that reflects at every positive coordinate and
    then discards each s_j x whose first negative coordinate is not j."""
    x = rs.dominant_representative(mu)
    stack = [(x, sum(m * t for m, t in zip(x, rs.two_rho_check)))]
    while stack:
        x, h = stack.pop()
        yield x, h
        for j, c in enumerate(x):
            if c > 0:
                y = rs.simple_reflection(x, j)
                if j == 0 or min(y[:j]) >= 0:
                    stack.append((y, h - 2 * c))


def _check_orbit_walk(rs, mu):
    walked = list(_unpruned_orbit_walk(rs, mu))
    assert rs.weyl_orbit(mu) == [x for x, _ in walked]
    # the depth bound cuts exactly the points below it, keeping the order
    top = walked[0][1]
    for bound in range(top + 1):
        assert [(x, bound - r) for x, r, _, _ in
                rs._orbit_walk(mu, depth=bound)] == [
            (x, (top - h) // 2) for x, h in walked if top - h <= 2 * bound]
    hist = {}
    for _, h in walked:
        hist[h] = hist.get(h, 0) + 1
    fresh = RootSystem(rs.type_letter, rs.rank)
    assert fresh.orbit_heights(rs.dominant_representative(mu)) == hist


def test_orbit_heights_checks_the_mirrored_total(monkeypatch):
    rs = RootSystem("B", 3)
    size = rs.orbit_size
    monkeypatch.setattr(rs, "orbit_size", lambda mu: size(mu) + 1)
    with pytest.raises(InternalConsistencyError,
                       match=r"orbit walk of \(1, 0, 1\) found 24 points, "
                             r"orbit size is 25"):
        rs.orbit_heights((1, 0, 1))


@settings(max_examples=80, deadline=None)
@given(small_weyl_weights(low=-2))
def test_orbit_walk_equals_unpruned_walk(case):
    _check_orbit_walk(*case)


@pytest.mark.parametrize("key,mu", [
    (("E", 6), (1, 0, 0, 0, 0, 0)),
    (("E", 6), (0, -1, 1, 0, 0, 1)),
    (("E", 6), (1, 0, -1, 1, 0, 0)),
    (("F", 4), (1, -2, 0, 1)),
    (("F", 4), (1, 1, 1, 1)),
    (("G", 2), (-3, 2)),
    (("G", 2), (1, 1)),
])
def test_orbit_walk_equals_unpruned_walk_exceptional(key, mu):
    _check_orbit_walk(build_root_system(*key), mu)


ALL_TYPES = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _reference_tables(rs):
    """Roots, root weights and coroots computed without the closure's
    carried weights and length classes: each pairing as sum_i r_i C_ij,
    each coroot from (gamma, gamma)/2 as a Gram sum."""
    cartan, sym, l = rs.cartan_matrix, rs.symmetrizer, rs.rank
    simple = [tuple(int(k == i) for k in range(l)) for i in range(l)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for r in frontier:
            for j in range(l):
                s = list(r)
                s[j] -= sum(r[i] * cartan[i][j] for i in range(l))
                s = tuple(s)
                if min(s) >= 0 and s not in roots:
                    roots.add(s)
                    new.append(s)
        frontier = new
    roots = sorted(roots, key=lambda r: (sum(r), r))
    coroots = []
    for r in roots:
        e_gamma = sum(ni * nj * cartan[i][j] * sym[j]
                      for i, ni in enumerate(r) for j, nj in enumerate(r)) // 2
        assert all(ni * sym[i] % e_gamma == 0 for i, ni in enumerate(r))
        coroots.append(tuple(ni * sym[i] // e_gamma for i, ni in enumerate(r)))
    weights = [rs.root_to_weight_coords(r) for r in roots]
    return tuple(roots), tuple(weights), tuple(coroots)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_root_tables_match_reference(key):
    rs = build_root_system(*key)
    assert (rs.positive_roots, rs.positive_root_weights,
            rs.positive_coroots) == _reference_tables(rs)


@pytest.mark.parametrize(
    "key", [k for k in ALL_TYPES if build_root_system(*k).weyl_order <= 2000])
def test_stabilizer_orders_match_orbit_walks(key):
    # every 0/1 weight: every set of zero coordinates, so every
    # stabilizer component type of this root system
    rs = build_root_system(*key)
    for lam in itertools.product((0, 1), repeat=rs.rank):
        assert rs.stabilizer_order(lam) == (
            rs.weyl_order // len(rs.weyl_orbit(lam)))


def _gauss_jordan(rows):
    """Textbook Gauss-Jordan over Fraction of an invertible block
    followed by more columns: the reduced rows, pivot 1 on the diagonal."""
    red = [[Fraction(x) for x in row] for row in rows]
    for c in range(len(red)):
        k = next(i for i in range(c, len(red)) if red[i][c])
        red[c], red[k] = red[k], red[c]
        red[c] = [x / red[c][c] for x in red[c]]
        for i in range(len(red)):
            if i != c and red[i][c]:
                f = red[i][c]
                red[i] = [x - f * y for x, y in zip(red[i], red[c])]
    return red


def _reference_fixed_tables(rs):
    """The symmetrizer, the scaled inverse of cartan^T with its
    denominator, and -w_0 as the root system built them before they went
    integer-only: Fraction propagation, Fraction Gauss-Jordan, and one
    dominant_representative walk per fundamental weight."""
    cartan, l = rs.cartan_matrix, rs.rank
    e = [None] * l
    e[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(l):
            if i != j and cartan[i][j] != 0 and e[j] is None:
                e[j] = e[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    ints = [int(x * math.lcm(*(y.denominator for y in e))) for x in e]
    sym = tuple(x // math.gcd(*ints) for x in ints)
    red = _gauss_jordan([[cartan[j][i] for j in range(l)]
                         + [int(i == j) for j in range(l)] for i in range(l)])
    den = math.lcm(*(x.denominator for row in red for x in row[l:]))
    inv = tuple(tuple(int(x * den) for x in row[l:]) for row in red)
    perm = []
    for i in range(l):
        w = rs.dominant_representative(tuple(-int(k == i) for k in range(l)))
        assert sorted(w) == [0] * (l - 1) + [1]
        perm.append(w.index(1))
    return sym, den, inv, tuple(perm)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_fixed_tables_match_fraction_reference(key):
    rs = build_root_system(*key)
    assert (rs.symmetrizer, rs._root_denominator, rs._scaled_cartan_t_inv,
            rs.longest_element) == _reference_fixed_tables(rs)


def _reference_weyl_dimension(rs, lam):
    """prod <lam+rho, alpha^vee> / prod ht(alpha^vee), each pairing a
    rank-length dot product over the coroot table."""
    num = den = 1
    for cr in rs.positive_coroots:
        num *= sum((l + 1) * c for l, c in zip(lam, cr))
        den *= sum(cr)
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("key", ALL_TYPES)
def test_weyl_dimension_matches_dot_product_formula(key):
    # B, C, F and G order their coroots differently from their roots, so
    # the one-add chain must follow coroot height; the whole 0-2 grid up
    # to rank 6, a seeded sample of it above
    rs = build_root_system(*key)
    grid = list(itertools.product(range(3), repeat=rs.rank))
    if rs.rank > 6:
        grid = random.Random(rs.rank).sample(grid, 400)
    for lam in grid:
        assert rs.weyl_dimension(lam) == _reference_weyl_dimension(rs, lam)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_rho_pairings_are_the_coroot_dot_products(key):
    # at 0 and at each fundamental weight, in the order of the coroots
    rs = build_root_system(*key)
    for lam in [(0,) * rs.rank] + [tuple(int(k == i) for k in range(rs.rank))
                                   for i in range(rs.rank)]:
        assert rs.rho_pairings(lam) == [
            sum((l + 1) * c for l, c in zip(lam, cr))
            for cr in rs.positive_coroots]


def _reference_root_orbits(rs, support):
    """W_J-orbits of the positive roots by closure under s_j, j in J:
    {index of the J-dominant member: c}, c = |O| for an orbit inside Phi_J
    and 2|O| otherwise."""
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    seen = set()
    out = {}
    for root in rs.positive_roots:
        if root in seen:
            continue
        orbit = {root}
        frontier = [root]
        while frontier:
            new = []
            for r in frontier:
                w = rs.root_to_weight_coords(r)
                for j in support:
                    s = r[:j] + (r[j] - w[j],) + r[j + 1:]
                    if s not in orbit:
                        orbit.add(s)
                        new.append(s)
            frontier = new
        seen |= orbit
        top = [r for r in orbit
               if all(rs.root_to_weight_coords(r)[j] >= 0 for j in support)]
        assert len(top) == 1
        inside = all(n == 0 for k, n in enumerate(root) if k not in support)
        out[index[top[0]]] = len(orbit) if inside else 2 * len(orbit)
    return out


def _zero_sets(rs):
    """Every set of zero coordinates up to rank 4, a seeded sample above."""
    subsets = [tuple(j for j in range(rs.rank) if bits >> j & 1)
               for bits in range(2 ** rs.rank)]
    if rs.rank > 4:
        subsets = random.Random(rs.rank).sample(subsets, 12)
    return subsets


@pytest.mark.parametrize("key", ALL_TYPES)
def test_stabilizer_root_orbits_match_closure(key):
    rs = build_root_system(*key)
    for support in _zero_sets(rs):
        mu = tuple(int(j not in support) for j in range(rs.rank))
        table = rs.stabilizer_root_orbits(mu)
        want = _reference_root_orbits(rs, support)
        assert list(table) == sorted(want.items())
        assert sum(c for _, c in table) == 2 * len(rs.positive_roots)
    # mu = 0: W permutes each root length class of Phi transitively
    table = rs.stabilizer_root_orbits((0,) * rs.rank)
    assert len(table) == (1 if key[0] in "ADE" else 2)


def _bfs_alternation_walk(rs, start, gap):
    """The alternation walk breadth-first, as an independent reference:
    one frontier dict per length of w, a step s_j at p kept while
    0 < p_j <= gap_j."""
    frontier = {tuple(start): tuple(gap)}
    points = []
    sign = 1
    while frontier:
        nxt = {}
        for p, g in frontier.items():
            points.append((g, sign))
            for j, c in enumerate(p):
                if 0 < c <= g[j]:
                    nxt.setdefault(rs.simple_reflection(p, j),
                                   g[:j] + (g[j] - c,) + g[j + 1:])
        frontier = nxt
        sign = -sign
    return points


@st.composite
def alternation_cases(draw):
    letter, rank = draw(st.sampled_from(ALL_TYPES))
    rs = build_root_system(letter, rank)
    start = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    gap = tuple(draw(st.integers(0, 6)) for _ in range(rank))
    return rs, start, gap


@settings(max_examples=150, deadline=None)
@given(alternation_cases())
def test_alternation_walk_equals_breadth_first_walk(case):
    rs, start, gap = case
    walked = rs.alternation_walk(start, gap)
    assert sorted(walked) == sorted(_bfs_alternation_walk(rs, start, gap))
    assert len(set(walked)) == len(walked)


def test_alternation_walk_equals_breadth_first_walk_e8_theta():
    e8 = build_root_system("E", 8)
    theta = max(e8.positive_roots, key=sum)
    start = (1, 1, 1, 1, 1, 1, 1, 2)
    assert sorted(e8.alternation_walk(start, theta)) == sorted(
        _bfs_alternation_walk(e8, start, theta))


_COMPONENT_DEGREES = {}


def _component_parabolic_degrees(rs, lam):
    """Degrees of W_lam by components, as an independent reference: the
    zero set split into diagram components, each closed on its own."""
    support = [i for i, c in enumerate(lam) if c == 0]
    degs, seen = [], set()
    for i in support:
        if i in seen:
            continue
        comp, stack = [i], [i]
        seen.add(i)
        while stack:
            u = stack.pop()
            for v in support:
                if v not in seen and rs.cartan_matrix[u][v] != 0:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        sub = tuple(tuple(rs.cartan_matrix[u][v] for v in comp) for u in comp)
        if sub not in _COMPONENT_DEGREES:
            coroots = _closure(sub, _symmetrizer(sub))[2]
            _COMPONENT_DEGREES[sub] = _degrees([sum(c) for c in coroots])
        degs.extend(_COMPONENT_DEGREES[sub])
    return sorted(degs + [1] * (rs.rank - len(degs)))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_parabolic_degrees_match_component_closures(key):
    rs = RootSystem(*key)
    for lam in itertools.product((0, 1), repeat=rs.rank):
        assert rs.parabolic_degrees(lam) == (
            _component_parabolic_degrees(rs, lam)), lam


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES), st.data())
def test_descent_sign_is_parity_of_inversions(key, data):
    rs = build_root_system(*key)
    mu = tuple(data.draw(st.integers(-3, 3)) for _ in range(rs.rank))
    top, sign = rs.dominant_descent(mu)
    pairings = _pairings(rs, mu)
    assert sign == (-1) ** sum(p < 0 for p in pairings)
    assert rs.is_dominant(top)
    assert (0 in top) == (0 in pairings)  # on a wall
    if rs.weyl_order <= 2000:
        assert top in rs.weyl_orbit(mu)
