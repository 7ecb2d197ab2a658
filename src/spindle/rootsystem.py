"""Simple root systems of types A-G: the Cartan matrix and the
symmetrizer read off one table of Dynkin diagrams and node lengths,
positive roots by one reflection closure, the degrees of W and of each
stabilizer W_J read off the coroot heights, and one Weyl walk (an orbit
tree, pruned to the alternation set given a gap) with one signed
dominant descent.

Conventions (fixed throughout the package):
  * Bourbaki node numbering for every type.
  * cartan[i][j] = <alpha_i, alpha_j^vee>, so row i of the Cartan matrix is
    alpha_i written in the fundamental-weight basis.
  * Weights are tuples of integers in the fundamental-weight basis,
    checked once by ``checked_weight``, and the methods take them checked;
    roots are tuples of integers in the simple-root basis.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import prod

from . import budget
from . import exactla as la
from .errors import (
    DomainError, InternalConsistencyError, ResourceBudgetError, UsageError)


def checked_weight(lam, rank, dominant=True):
    """``lam`` as a tuple of ``rank`` integers; UsageError on a wrong
    length, DomainError on a negative coordinate if ``dominant``."""
    lam = tuple(lam)
    if len(lam) != rank:
        raise UsageError(f"weight has {len(lam)} coordinates, rank is {rank}")
    if dominant and min(lam) < 0:
        raise DomainError(f"{lam} is not dominant")
    return lam


def _path(n):
    """The edges of the path 0-1-...-(n-1)."""
    return [(i, i + 1) for i in range(n - 1)]


_TYPES = {
    "A": (1, None, lambda n: (_path(n), (1,) * n)),
    "B": (2, None, lambda n: (_path(n), (2,) * (n - 1) + (1,))),
    "C": (2, None, lambda n: (_path(n), (1,) * (n - 1) + (2,))),
    "D": (3, None, lambda n: (_path(n - 1) + [(n - 3, n - 1)], (1,) * n)),
    "E": (6, 8, lambda n: ([(0, 2), (1, 3)] + _path(n)[2:], (1,) * n)),
    "F": (4, 4, lambda n: (_path(4), (2, 2, 1, 1))),
    "G": (2, 2, lambda n: (_path(2), (1, 3))),
}
"""The simple types, one row per letter: its least and greatest rank (None
when unbounded) and, of the rank n, its Dynkin diagram (edges, lengths).
Nodes are numbered from 0 in Bourbaki order; lengths are coprime e_i
proportional to (alpha_i, alpha_i).

  A_n: path 1-2-...-n
  B_n: path, node n short
  C_n: path, node n long
  D_n: path 1..n-2, nodes n-1 and n both attached to n-2
  E_n: path 1-3-4-5-...-n, node 2 attached to node 4
  F_4: path 1-2-3-4, nodes 3,4 short
  G_2: node 1 short, node 2 long
"""


def _diagram(letter, rank):
    """(edges, lengths) of the type's Dynkin diagram, from ``_TYPES``."""
    if letter not in _TYPES:
        raise UsageError(f"unknown type letter {letter!r}")
    low, high, diagram = _TYPES[letter]
    if high is None and rank < low:
        raise UsageError(f"type {letter} needs rank >= {low}")
    if high is not None and not low <= rank <= high:
        ranks = [str(r) for r in range(low, high + 1)]
        raise UsageError(f"type {letter} needs rank " + " or ".join(
            filter(None, (", ".join(ranks[:-1]), ranks[-1]))))
    return diagram(rank)


def _cartan_matrix(edges, lengths):
    """The Cartan matrix of a diagram with node lengths e; entry [i][j] =
    <alpha_i, alpha_j^vee> = 2(alpha_i, alpha_j)/(alpha_j, alpha_j): 2 on
    the diagonal and -max(1, e_i / e_j) on each edge {i, j}, that is
    -e_i/e_j from the longer node and -1 from the shorter."""
    a = [[2 * (i == j) for j in range(len(lengths))]
         for i in range(len(lengths))]
    for i, j in edges:
        a[i][j] = -max(1, lengths[i] // lengths[j])
        a[j][i] = -max(1, lengths[j] // lengths[i])
    return tuple(map(tuple, a))


def _closure(cartan, sym):
    """Positive roots, their weight coordinates, their coroots and the
    steps that reached them, each sorted by (height, root), from one upward
    reflection closure of the simple roots.

    A root gamma with weights w steps to s_j gamma = gamma - w_j alpha_j,
    with weights w - w_j (row j of ``cartan``), wherever w_j < 0.  A
    reflection keeps the length, so each root carries the entry e of
    ``sym`` for its length class, and its coroot steps along with it:
    s_j gamma^vee = gamma^vee + k alpha_j^vee with k = -w_j e_j / e, as
    <alpha_j, gamma^vee> = w_j e_j / e.  Each k must be an integer, so a
    wrong ``sym`` raises InternalConsistencyError.

    The steps hold one (t, p, j, k) per root t, in the sorted order: root t
    was first reached from root p by s_j, so coroot t is coroot p plus
    k alpha_j^vee.  A parent is lower than its child, so it sorts first.
    A simple root alpha_j steps from itself with k = 1, its coroot from 0.
    """
    l = len(cartan)
    found = {}
    for i in range(l):
        unit = tuple(int(k == i) for k in range(l))
        found[unit] = (cartan[i], sym[i], unit, (unit, i, 1))
    order = list(found)
    for r in order:  # grows while it is read
        w, e, v, _ = found[r]
        for j, c in enumerate(w):
            if c < 0:
                s = r[:j] + (r[j] - c,) + r[j + 1:]
                if s not in found:
                    k, rem = divmod(-c * sym[j], e)
                    if rem:
                        raise InternalConsistencyError(
                            f"coroot of {s} is not integral")
                    found[s] = (
                        tuple([x - c * y for x, y in zip(w, cartan[j])]), e,
                        v[:j] + (v[j] + k,) + v[j + 1:], (r, j, k),
                    )
                    order.append(s)
    roots = tuple(sorted(found, key=lambda r: (sum(r), r)))
    index = {r: t for t, r in enumerate(roots)}
    steps = tuple((t, index[p], j, k) for t, (p, j, k) in enumerate(
        found[r][3] for r in roots))
    return (roots, tuple(found[r][0] for r in roots),
            tuple(found[r][2] for r in roots), steps)


def _mask(coords):
    """The bit mask of the nonzero coordinates."""
    return sum(1 << j for j, a in enumerate(coords) if a)


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
        edges, self.symmetrizer = _diagram(type_letter, rank)
        self.cartan_matrix = _cartan_matrix(edges, self.symmetrizer)
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
        (self.positive_roots, self.positive_root_weights,
         self.positive_coroots, self._closure_steps) = _closure(
            self.cartan_matrix, self.symmetrizer)
        self.root_heights = tuple(map(sum, self.positive_roots))
        self.coroot_heights = tuple(map(sum, self.positive_coroots))
        # the nodes each positive coroot is supported on, as a bit mask
        self._coroot_supports = tuple(map(_mask, self.positive_coroots))
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

        # 2(varpi_i, rho^vee) = column sums of the coroot table.
        self.two_rho_check = tuple(map(sum, zip(*self.positive_coroots)))

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

    @cached_property
    def _root_inverse(self):
        """(N, N * (cartan^T)^-1), N the least common denominator of the
        inverse: the fundamental-basis -> root-basis conversion, built on
        first use for ``root_lattice_coords``."""
        return la.scaled_inverse(tuple(zip(*self.cartan_matrix)))

    def root_to_weight_coords(self, root):
        """Simple-root coordinates -> fundamental-weight coordinates."""
        return tuple(
            sum(root[i] * self.cartan_matrix[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )

    def root_lattice_coords(self, weight):
        """Integer simple-root coordinates of ``weight``, or None when it
        lies outside the root lattice."""
        den, inv = self._root_inverse
        coords = []
        for row in inv:
            q, r = divmod(sum(a * w for a, w in zip(row, weight)), den)
            if r:
                return None
            coords.append(q)
        return tuple(coords)

    def in_root_lattice(self, weight):
        return self.root_lattice_coords(weight) is not None

    def gap(self, lam, mu):
        """Simple-root coordinates of lam - mu if it is in Q+, else None."""
        gap = self.root_lattice_coords([l - m for l, m in zip(lam, mu)])
        return None if gap is None or min(gap) < 0 else gap

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
        return list(self._parabolic(_mask(lam)))

    @cache
    def _parabolic(self, off):
        degs = _degrees([h for h, s in zip(self.coroot_heights,
                                           self._coroot_supports)
                         if not s & off])
        return (1,) * (self.rank - len(degs)) + degs

    def stabilizer_order(self, lam):
        return self._stabilizer_order(_mask(lam))

    @cache
    def _stabilizer_order(self, off):
        """|W_J|, J the complement of the bit mask off."""
        return prod(self._parabolic(off))

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
        return self._root_orbit_table(_mask(mu))

    @cached_property
    def _root_masks(self):
        """(negative, nonzero, support) per positive root: bit masks of its
        negative and its nonzero weight coordinates and of its support."""
        return tuple(
            (_mask(a < 0 for a in w), _mask(w), support)
            for w, support in zip(self.positive_root_weights,
                                  self._coroot_supports))

    @cache
    def _root_orbit_table(self, off):
        # J is the complement of off; a root's fixer in W_J is W_K, K the
        # j in J with w_j = 0, so the complement of K is off | nonzero
        whole = self._stabilizer_order(off)
        table = []
        for i, (negative, nonzero, support) in enumerate(self._root_masks):
            if not negative & ~off:
                size = whole // self._stabilizer_order(off | nonzero)
                table.append((i, 2 * size if support & off else size))
        if (total := sum(c for _, c in table)) != 2 * len(self.positive_roots):
            zero_set = tuple(j for j in range(self.rank) if not off >> j & 1)
            raise InternalConsistencyError(
                f"W_J-orbits of the roots for J = {zero_set} count {total}, "
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

    def alternation_walk(self, start, gap):
        """Signed points w(start) - target with nonnegative root coordinates.

        ``start`` is regular dominant and ``gap`` holds the simple-root
        coordinates of start - target: the orbit walk from ``start``,
        pruned at a negative gap, yields each such point once.  From a
        regular point every tree step makes w one longer, so det w is the
        parity of the steps.  Returns [(gap, det w)], one entry per w in the
        Weyl alternation set; the walk stops at the ``weyl`` limit.
        """
        cap = budget.limit("weyl")
        points = []
        for _, _, g, sign in self._orbit_walk(start, tuple(gap)):
            if len(points) >= cap:
                raise ResourceBudgetError(
                    "Weyl alternation walk",
                    f"{len(points)} points + 0 cells", cap,
                )
            points.append((g, sign))
        return points

    def rho_pairings(self, lam):
        """<lam+rho, gamma^vee> for each positive coroot gamma^vee, in the
        order of ``positive_coroots``.  <lam+rho, alpha_j^vee> = lam_j + 1,
        so each pairing is one step of the closure: where coroot t is coroot
        p plus k alpha_j^vee, pairing t is pairing p plus k (lam_j + 1)."""
        vals = [0] * len(self.positive_coroots)
        for t, p, j, k in self._closure_steps:
            vals[t] = vals[p] + k * (lam[j] + 1)
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
