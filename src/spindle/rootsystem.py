"""Simple root systems of types A-G: Cartan data, positive roots by one
reflection closure, the degrees of W and of each stabilizer W_J read off
the coroot heights, and one Weyl walk (an orbit tree, pruned to the
alternation set given a gap) with one signed dominant descent.

Conventions (fixed throughout the package):
  * Bourbaki node numbering for every type.
  * cartan[i][j] = <alpha_i, alpha_j^vee>, so row i of the Cartan matrix is
    alpha_i written in the fundamental-weight basis.
  * Weights are tuples of integers in the fundamental-weight basis;
    roots are tuples of integers in the simple-root basis.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd, prod

from . import exactla as la
from .errors import InternalConsistencyError, ResourceBudgetError, UsageError

DEFAULT_WEYL_BUDGET = 10**7

Weight = tuple

# Bourbaki numbering, for reference in CLI help and docs:
#   A_n: path 1-2-...-n
#   B_n: path, node n short
#   C_n: path, node n long
#   D_n: path 1..n-2, nodes n-1 and n both attached to n-2
#   E_n: path 1-3-4-5-...-n, node 2 attached to node 4
#   F_4: path 1-2-3-4, nodes 3,4 short
#   G_2: node 1 short, node 2 long


def _cartan_matrix(letter, rank):
    """Bourbaki Cartan matrix; entry [i][j] = <alpha_i, alpha_j^vee>."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter == "A":
        if rank < 1:
            raise UsageError("type A needs rank >= 1")
        for i in range(rank - 1):
            bond(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise UsageError("type B needs rank >= 2")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)  # alpha_n short
    elif letter == "C":
        if rank < 2:
            raise UsageError("type C needs rank >= 2")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)  # alpha_n long
    elif letter == "D":
        if rank < 3:
            raise UsageError("type D needs rank >= 3")
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise UsageError("type E needs rank 6, 7 or 8")
        chain = [0] + list(range(2, rank))  # nodes 1,3,4,...,n
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)  # node 2 attached to node 4
    elif letter == "F":
        if rank != 4:
            raise UsageError("type F needs rank 4")
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_3, alpha_4 short
        bond(2, 3)
    elif letter == "G":
        if rank != 2:
            raise UsageError("type G needs rank 2")
        bond(0, 1, -1, -3)  # alpha_1 short
    else:
        raise UsageError(f"unknown type letter {letter!r}")
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan):
    """Coprime integers e_i proportional to (alpha_i, alpha_i)/2.

    Solves e_j a_ij = e_i a_ji (both proportional to (alpha_i, alpha_j)) by
    integer propagation along the Dynkin diagram, scaling e up as needed.
    """
    l = len(cartan)
    e = [0] * l
    for start in range(l):
        if e[start]:
            continue
        e[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if i != j and cartan[i][j] != 0 and not e[j]:
                    num, den = e[i] * cartan[j][i], cartan[i][j]
                    k = abs(den) // gcd(num, den)
                    e = [x * k for x in e]
                    e[j] = num * k // den
                    stack.append(j)
    g = gcd(*e)
    return tuple(x // g for x in e)


def _closure(cartan, sym):
    """Positive roots, their weight coordinates and their coroots, each
    sorted by (height, root), from one upward reflection closure of the
    simple roots.

    A root r with weights w steps to s_j r = r - w_j alpha_j, with weights
    w - w_j (row j of ``cartan``), wherever w_j < 0.  A reflection keeps
    the length, so each root carries the entry e of ``sym`` for its length
    class, and gamma^vee = sum_i n_i e_i / e alpha_i^vee.
    """
    l = len(cartan)
    found = {}
    for i in range(l):
        found[tuple(int(k == i) for k in range(l))] = (cartan[i], sym[i])
    order = list(found)
    for r in order:  # grows while it is read
        w, e = found[r]
        for j, c in enumerate(w):
            if c < 0:
                s = r[:j] + (r[j] - c,) + r[j + 1:]
                if s not in found:
                    found[s] = (
                        tuple(x - c * y for x, y in zip(w, cartan[j])), e
                    )
                    order.append(s)
    roots = tuple(sorted(found, key=lambda r: (sum(r), r)))
    coroots = []
    for r in roots:
        e = found[r][1]
        cc = [divmod(n * ei, e) for n, ei in zip(r, sym)]
        if any(rem for _, rem in cc):
            raise InternalConsistencyError(f"coroot of {r} is not integral")
        coroots.append(tuple(q for q, _ in cc))
    return roots, tuple(found[r][0] for r in roots), tuple(coroots)


def _coroot_chain(coroots):
    """Each non-simple positive coroot as an earlier coroot plus a simple
    one: ((t, p, q), ...) in order of coroot height, where t, p and q index
    ``coroots`` and coroot t is coroot p plus the simple coroot q.  Also
    returns the index of each simple coroot in ``coroots``.

    The order is by coroot height, not by the order of ``coroots``: in the
    non-simply-laced types a root's coroot can be lower than the coroot of
    a lower root.
    """
    rank = len(coroots[0])
    index = {c: t for t, c in enumerate(coroots)}
    simple = tuple(index[tuple(int(k == j) for k in range(rank))]
                   for j in range(rank))
    chain = []
    for c in sorted(coroots, key=lambda c: (sum(c), c))[rank:]:
        for j, n in enumerate(c):
            p = index.get(c[:j] + (n - 1,) + c[j + 1:]) if n else None
            if p is not None:
                break
        else:
            raise InternalConsistencyError(f"coroot {c} has no parent")
        chain.append((index[c], p, simple[j]))
    return tuple(chain), simple


def _degrees(heights):
    """Degrees of the reflection group of a set of positive coroots, given
    by their heights: one more than the exponents, the conjugate partition
    of the height distribution (Kostant, Amer. J. Math. 81, 1959)."""
    hist = {}
    for h in heights:
        hist[h] = hist.get(h, 0) + 1
    degs = []
    for k in range(1, max(hist, default=0) + 1):
        degs.extend([k + 1] * (hist.get(k, 0) - hist.get(k + 1, 0)))
    return tuple(degs)


class RootSystem:
    """Immutable tables for one simple type.  All methods are pure."""

    def __init__(self, type_letter, rank):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan_matrix = _cartan_matrix(type_letter, rank)
        self._bonds = tuple(
            tuple((k, a) for k, a in enumerate(row) if a and k != j)
            for j, row in enumerate(self.cartan_matrix)
        )
        # the nodes _orbit_walk may reflect at below a point made by s_f
        # (index rank for the dominant point): every j < f, then the
        # neighbours of f above it
        self._walk_steps = tuple(
            tuple(range(f)) + tuple(k for k, _ in self._bonds[f] if k > f)
            for f in range(rank)
        ) + (tuple(range(rank)),)
        self.symmetrizer = _symmetrizer(self.cartan_matrix)
        (self.positive_roots, self.positive_root_weights,
         self.positive_coroots) = _closure(
            self.cartan_matrix, self.symmetrizer)
        self.root_heights = tuple(sum(r) for r in self.positive_roots)
        self.coroot_heights = tuple(sum(c) for c in self.positive_coroots)
        # the nodes each positive coroot is supported on, as a bit mask
        self._coroot_supports = tuple(sum(1 << i for i, n in enumerate(c) if n)
                                      for c in self.positive_coroots)
        self._coroot_chain, self._simple_coroots = _coroot_chain(
            self.positive_coroots)
        self._weyl_denominator = prod(self.coroot_heights)
        self.degrees = _degrees(self.coroot_heights)
        self.exponents = tuple(d - 1 for d in self.degrees)
        if len(self.degrees) != rank or sum(self.exponents) != len(
            self.positive_roots
        ):
            raise InternalConsistencyError(
                f"degrees {self.degrees} do not fit {type_letter}{rank}"
            )
        self.weyl_order = prod(self.degrees)

        # Fundamental-basis -> root-basis conversion: the inverse of
        # cartan^T, kept as the integer matrix N * inverse with N the least
        # common denominator of its entries.
        self._root_denominator, self._scaled_cartan_t_inv = la.scaled_inverse(
            tuple(zip(*self.cartan_matrix)))

        # 2(varpi_i, rho^vee) = column sums of the coroot table.
        self.two_rho_check = tuple(
            sum(c[i] for c in self.positive_coroots) for i in range(rank)
        )

        # -w_0 as a permutation sigma of the fundamental weights.  As -w_0
        # maps sum c_i varpi_i to sum c_i varpi_sigma(i), one walk from
        # -sum (i+1) varpi_i, whose coordinates are distinct, gives sigma.
        w = self.dominant_representative(tuple(-i - 1 for i in range(rank)))
        if sorted(w) != list(range(1, rank + 1)):
            raise InternalConsistencyError(
                f"-w_0 does not permute the fundamental weights: {w}"
            )
        self.longest_element = tuple(w.index(i + 1) for i in range(rank))

    # -- coordinate plumbing ------------------------------------------------

    def root_to_weight_coords(self, root):
        """Simple-root coordinates -> fundamental-weight coordinates."""
        return tuple(
            sum(root[i] * self.cartan_matrix[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )

    def _scaled_root_coords(self, weight):
        """``_root_denominator`` times the simple-root coordinates."""
        return tuple(
            sum(a * w for a, w in zip(row, weight))
            for row in self._scaled_cartan_t_inv
        )

    def root_lattice_coords(self, weight):
        """Integer simple-root coordinates of ``weight``, or None when it
        lies outside the root lattice."""
        coords = []
        for x in self._scaled_root_coords(weight):
            q, r = divmod(x, self._root_denominator)
            if r:
                return None
            coords.append(q)
        return tuple(coords)

    def in_root_lattice(self, weight):
        return self.root_lattice_coords(weight) is not None

    # -- pairings and heights --------------------------------------------------

    def doubled_height(self, mu):
        """2(mu, rho^vee), an integer for every weight; 2 Sum n_i for mu in
        Q.  The one place this pairing is computed."""
        return sum(m * t for m, t in zip(mu, self.two_rho_check))

    def simple_reflection(self, mu, j):
        """s_j mu: only coordinate j and the neighbours of node j in the
        Dynkin diagram change."""
        c = mu[j]
        y = list(mu)
        y[j] = -c
        for k, a in self._bonds[j]:
            y[k] -= c * a
        return tuple(y)

    def dominant_descent(self, mu):
        """(w mu, det w) for w mu the dominant point of W mu, reached by
        reflecting at the first negative coordinate until none is left.  As
        s_j permutes the positive roots other than alpha_j, each step
        removes one inversion {alpha > 0 : (mu, alpha^vee) < 0}, so det w is
        (-1)^inversions.  mu is on a wall iff w mu has a zero coordinate."""
        bonds = self._bonds
        y = list(mu)
        sign = 1
        j = 0
        while j < self.rank:
            c = y[j]
            if c < 0:
                y[j] = -c
                for k, a in bonds[j]:
                    y[k] -= c * a
                sign = -sign
                j = 0
            else:
                j += 1
        return tuple(y), sign

    def dominant_representative(self, mu):
        return self.dominant_descent(mu)[0]

    def is_dominant(self, mu):
        return all(m >= 0 for m in mu)

    def _orbit_walk(self, mu, gap=None, depth=None):
        """Yield (x, r, g, s) once for each x in the orbit W mu down to
        depth ``depth``, where x lies at depth d = depth - r, that is
        2(x, rho^vee) = 2(mu+, rho^vee) - 2d for mu+ the dominant point,
        and s is (-1) to the number of tree steps from mu+ to x.

        The walk is a tree rooted at mu+: the parent of a non-dominant y is
        s_j y for j its first negative coordinate.  So the children of x
        are the s_j x with x_j > 0 whose first negative coordinate is j, and
        no point is reached twice.  With f the first negative coordinate of
        x (the j that made x), every s_j x with j < f and x_j > 0 is a
        child; s_j only raises the neighbours of j, so for j > f only the
        neighbours of f can be children, and only those are built
        (``_walk_steps``); the coordinates before f stay nonnegative, and
        a child is most often refused at f itself, so y_f is tested first.
        Children are pushed in ascending j.  Since (alpha_j, rho^vee) = 1,
        the depth grows by x_j at s_j.  The reflection is done inline: this
        loop is the cost of every orbit.

        The depth bound prunes the tree: a step past it is cut with its
        subtree, which is exact as the depth grows along every tree edge,
        so the walk yields the points of depth at most ``depth`` in the
        order of the full walk.  The default is the depth 2(mu+, rho^vee)
        of the lowest point, which cuts nothing.  A ``gap`` (simple-root
        coordinates of mu+ minus a target) prunes too: g is the gap of x,
        s_j lowers g_j by x_j, and a step to a negative g_j is cut with its
        subtree.  A parent y + |y_j| alpha_j lies above its child, so the
        pruned tree yields each point with g >= 0 once.  Without a gap, g
        is None.
        """
        bonds = self._bonds
        steps = self._walk_steps
        dom = self.dominant_representative(mu)
        if depth is None:
            depth = self.doubled_height(dom)
        stack = [(dom, depth, self.rank, gap, 1)]
        while stack:
            x, r, f, g, s = stack.pop()
            yield x, r, g, s
            for j in steps[f]:
                c = x[j]
                if 0 < c <= r and (g is None or c <= g[j]):
                    y = list(x)
                    y[j] = -c
                    for k, a in bonds[j]:
                        y[k] -= c * a
                    if j < f or y[f] >= 0 and min(y[f:j]) >= 0:
                        stack.append((tuple(y), r - c, j, g and (
                            g[:j] + (g[j] - c,) + g[j + 1:]), -s))

    def weyl_orbit(self, mu):
        """Full W-orbit of mu, as a list of distinct weight tuples."""
        return [x for x, _, _, _ in self._orbit_walk(mu)]

    def orbit_heights(self, mu):
        """Doubled-height histogram {2(x, rho^vee): count} of the orbit of
        dominant mu, memoized per mu.  The walk counts points by depth down
        to the middle depth only: w0 maps W mu onto itself and negates
        (x, rho^vee), so it maps depth d onto depth top - d, and each
        deeper count is read off its mirror.  The mirrored total is
        checked against orbit_size, which comes from the parabolic degrees
        instead of the walk."""
        return self._height_histogram(mu)

    @cache
    def _height_histogram(self, mu):
        top = self.doubled_height(self.dominant_representative(mu))
        half = top // 2
        counts = [0] * (half + 1)
        for _, r, _, _ in self._orbit_walk(mu, depth=half):
            counts[half - r] += 1
        counts += [counts[top - d] for d in range(half + 1, top + 1)]
        if sum(counts) != self.orbit_size(mu):
            raise InternalConsistencyError(
                f"orbit walk of {mu} found {sum(counts)} points, "
                f"orbit size is {self.orbit_size(mu)}"
            )
        return {top - 2 * d: n for d, n in enumerate(counts) if n}

    def orbit_size(self, mu):
        """|W| / |W_mu| without enumerating the orbit."""
        return self.weyl_order // self.stabilizer_order(mu)

    def dual_weight(self, lam):
        """-w_0(lam) for dominant lam; an involution."""
        return tuple(lam[i] for i in self.longest_element)

    def parabolic_degrees(self, lam):
        """Degrees of the stabilizer W_lam, padded with 1's to full rank.

        W_lam is generated by the s_j with lam_j = 0; its positive coroots
        are those supported on that zero set J.  Kostant's count (as many
        positive roots of height k as exponents >= k) holds on each diagram
        component of J, so it holds on their union, and ``_degrees`` reads
        the degrees off the heights of those coroots.  Memoized per J, as
        the bit mask of its complement.
        """
        return list(self._parabolic(
            sum(1 << i for i, c in enumerate(lam) if c)))

    @cache
    def _parabolic(self, off):
        degs = _degrees([h for h, s in zip(self.coroot_heights,
                                           self._coroot_supports)
                         if not s & off])
        return (1,) * (self.rank - len(degs)) + degs

    def stabilizer_order(self, lam):
        return prod(self.parabolic_degrees(lam))

    def stabilizer_root_orbits(self, mu):
        """The positive roots up to the stabilizer W_J, J the zero
        coordinates of mu: ((i, c), ...) over the J-dominant positive roots
        (weight coordinates w_j >= 0 for j in J), one per W_J-orbit O of
        roots that meets the positive ones.

        W_J permutes the positive roots outside Phi_J; such an orbit counts
        c = 2|O|.  An orbit inside Phi_J (root coordinates supported on J)
        is half positive, so it counts c = |O|.  |O| is |W_J| over the
        order of the stabilizer of the J-dominant member, which is
        generated by the s_j, j in J, with w_j = 0.  Memoized per J, and
        checked on build: sum c = 2|Phi+|.
        """
        return self._root_orbit_table(
            tuple(j for j, m in enumerate(mu) if m == 0))

    @cache
    def _root_orbit_table(self, support):
        # a weight with zero set J; the table depends on nothing else
        mu = tuple(int(j not in support) for j in range(self.rank))
        whole = self.stabilizer_order(mu)
        table = []
        for i, (r, w) in enumerate(
                zip(self.positive_roots, self.positive_root_weights)):
            if all(w[j] >= 0 for j in support):
                # zero exactly where mu_j = w_j = 0
                fixer = [m or a for m, a in zip(mu, w)]
                size = whole // self.stabilizer_order(fixer)
                inside = all(n == 0 or m == 0 for n, m in zip(r, mu))
                table.append((i, size if inside else 2 * size))
        if (total := sum(c for _, c in table)) != 2 * len(self.positive_roots):
            raise InternalConsistencyError(
                f"W_J-orbits of the roots for J = {support} count {total}, "
                f"not 2|Phi+| = {2 * len(self.positive_roots)}"
            )
        return tuple(table)

    @cached_property
    def freudenthal_tables(self):
        """(steps, strings), one entry per positive root alpha = sum n_i
        alpha_i with weight coordinates w, built on first use for
        ``characters.dominant_multiplicities``.  steps holds (n, w, raised)
        with raised the (j, w_j) where w_j > 0: for dominant mu, mu - alpha
        is dominant iff mu_j >= w_j there.  strings holds (w, ne) with
        ne_i = n_i e_i for e the symmetrizer, so (nu, alpha) is
        proportional to sum ne_i nu_i."""
        pairs = tuple(zip(self.positive_roots, self.positive_root_weights))
        steps = tuple((r, w, tuple((j, a) for j, a in enumerate(w) if a > 0))
                      for r, w in pairs)
        strings = tuple((w, tuple(n * e for n, e in zip(r, self.symmetrizer)))
                        for r, w in pairs)
        return steps, strings

    def alternation_walk(self, start, gap, budget=DEFAULT_WEYL_BUDGET):
        """Signed points w(start) - target with nonnegative root coordinates.

        ``start`` is regular dominant and ``gap`` holds the simple-root
        coordinates of start - target: the orbit walk from ``start``,
        pruned at a negative gap, yields each such point once.  From a
        regular point every tree step makes w one longer, so det w is the
        parity of the steps.  Returns [(gap, det w)], one entry per w in the
        Weyl alternation set.
        """
        points = []
        for _, _, g, sign in self._orbit_walk(start, tuple(gap)):
            if len(points) >= budget:
                raise ResourceBudgetError(
                    "Weyl alternation walk",
                    f"{len(points)} points + 0 cells", budget,
                )
            points.append((g, sign))
        return points

    def rho_pairings(self, lam):
        """<lam+rho, gamma^vee> for each positive coroot gamma^vee, in the
        order of ``positive_coroots``.  The simple coroots give lam_j + 1,
        and each other pairing is one add along ``_coroot_chain``."""
        vals = [0] * len(self.positive_coroots)
        for t, l in zip(self._simple_coroots, lam):
            vals[t] = l + 1
        for t, p, q in self._coroot_chain:
            vals[t] = vals[p] + vals[q]
        return vals

    def weyl_dimension(self, lam):
        """Weyl dimension formula, exact: the product of the
        ``rho_pairings`` of lam divided by the product of the coroot
        heights."""
        num, rem = divmod(prod(self.rho_pairings(lam)), self._weyl_denominator)
        if rem:
            raise InternalConsistencyError(
                f"Weyl dimension of {lam} is not an integer"
            )
        return num

    def __repr__(self):
        return f"RootSystem({self.type_letter}{self.rank})"


def build_root_system(type_letter, rank):
    """Construct (and memoize) the root system of the given simple type:
    one instance per (type, rank), however the arguments are passed."""
    if not isinstance(rank, int) or rank < 1:
        raise UsageError(f"rank must be a positive integer, got {rank!r}")
    return _build(type_letter, rank)


_build = cache(RootSystem)
