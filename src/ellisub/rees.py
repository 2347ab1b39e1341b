"""Rees matrix semigroups M[G; I, Lambda; A] over permutation groups.

Elements are triples (i, g, lam) with the product
(i, g, lam)(j, h, mu) = (i, g * A[lam][j] * h, mu); group products follow the
same apply-right-factor-first convention as everywhere else.  A presentation
is *normalized* w.r.t. a slot (i0, lam0) when row lam0 and column i0 of the
sandwich matrix are all identity; the idempotent (i0, 1, lam0) is then the
distinguished one.

Includes the construction of a completely simple transformation semigroup's
normalized Rees form (R-classes indexed by I, L-classes by Lambda, the chosen
idempotent's H-class as structure group) and, for substitution sandwiches,
the faithful action on the two-word fiber.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .perms import Perm, PermGroup, closure, compose, identity, inverse
from .semigroups import (FiberMap, GreenStructure, TransformationSemigroup,
                         green_structure, green_summary, is_completely_simple,
                         map_compose)
from .substitution import TwoWordFiber

PLUS, MINUS = 0, 1
SIGN_LABELS = ("+", "-")

ISO_SEARCH_GROUP_MAX = 120
ISO_SEARCH_DEGREE_MAX = 6


class ReesElement(NamedTuple):
    """A triple (i, g, lam).  As a named tuple it hashes and compares equal to
    the plain tuple (i, g, lam), so the product kernels form plain tuples and
    skip its constructor, a Python-level call."""

    i: int  # index into I
    g: Perm
    lam: int  # index into Lambda


@dataclass(frozen=True)
class ReesMatrixSemigroup:
    group: PermGroup
    i_labels: tuple
    lam_labels: tuple
    sandwich: tuple[tuple[Perm, ...], ...]  # Lambda x I
    base: tuple[int, int] = (0, 0)  # (i0, lam0) of the normalizing idempotent

    def __post_init__(self):
        if len(self.sandwich) != len(self.lam_labels):
            raise ValidationError("sandwich matrix has wrong number of rows")
        for row in self.sandwich:
            if len(row) != len(self.i_labels):
                raise ValidationError("sandwich matrix has wrong number of columns")
            for entry in row:
                if entry not in self.group:
                    raise ValidationError("sandwich entry outside the structure group")

    @property
    def size(self) -> int:
        return len(self.i_labels) * self.group.order * len(self.lam_labels)

    def elements(self):
        for i in range(len(self.i_labels)):
            for g in self.group.elements:
                for lam in range(len(self.lam_labels)):
                    yield ReesElement(i, g, lam)

    def is_normalized(self) -> bool:
        i0, lam0 = self.base
        ident = identity(self.group.degree)
        return (all(entry == ident for entry in self.sandwich[lam0])
                and all(row[i0] == ident for row in self.sandwich))

    def green_summary(self) -> dict:
        """Green's structure by Rees's theorem (Howie, *Fundamentals of
        Semigroup Theory*, Thm 3.4.1): with every sandwich entry in G the
        semigroup is completely simple, x R y exactly when x and y share i,
        and x L y exactly when they share lam.  So there are |Lambda|
        L-classes of size |I||G|, |I| R-classes of size |Lambda||G|, |I||Lambda|
        H-classes of size |G|, each a group with one idempotent, and one
        D-class, which is the whole semigroup and its kernel."""
        n_i, n_lam, order = len(self.i_labels), len(self.lam_labels), self.group.order
        return green_summary([n_i * order] * n_lam, [n_lam * order] * n_i,
                             [order] * (n_i * n_lam), [self.size],
                             n_i * n_lam, self.size)

    @cached_property
    def generators(self) -> tuple[ReesElement, ...]:
        """A generating set X of M, built once per presentation and not
        closed here: with (i0, lam0) the base and a = A[lam0][i0], X holds

        * (i, 1, lam0) for every i in I,
        * (i0, 1, lam) for every lam != lam0,
        * (i0, s * a^-1, lam0) for every generator s of G,

        |I| + |Lambda| - 1 + (number of generators of G) elements, so 2|I| + 1
        for a substitution sandwich, whose G is generated by the R-set.

        X generates M, for every sandwich matrix.  The H-class of the triples
        (i0, h, lam0) is a group, and h -> h * a is an isomorphism onto G, since
        (i0, g, lam0)(i0, h, lam0) = (i0, g a h, lam0) and g a h a = (g a)(h a).
        The third part maps onto the generators of G, so it generates the whole
        H-class.  Then (i, 1, lam0)(i0, h, lam0)(i0, 1, lam) = (i, a h a, lam),
        and a h a runs through G as h does, so every triple is a product of
        elements of X; (i0, 1, lam0) lies in the first part.

        ``tests/test_rees.py`` closes X on every golden presentation and on a
        three-row sandwich at each base, and :func:`green_structure` checks
        that the images of X reach every map whenever it is run on them.
        """
        i0, lam0 = self.base
        ident = identity(self.group.degree)
        a_inv = inverse(self.sandwich[lam0][i0])
        gens = [ReesElement(i, ident, lam0) for i in range(len(self.i_labels))]
        gens += [ReesElement(i0, ident, lam) for lam in range(len(self.lam_labels)) if lam != lam0]
        gens += [ReesElement(i0, compose(s, a_inv), lam0) for s in self.group.generators]
        return tuple(dict.fromkeys(gens))


def multiply(m: ReesMatrixSemigroup, x: ReesElement, y: ReesElement) -> ReesElement:
    middle = compose(compose(x.g, m.sandwich[x.lam][y.i]), y.g)
    return ReesElement(x.i, middle, y.lam)


def idempotents_of(m: ReesMatrixSemigroup) -> list[ReesElement]:
    """Exactly the triples (i, A[lam][i]^-1, lam); count |I|*|Lambda|."""
    return [ReesElement(i, inverse(m.sandwich[lam][i]), lam)
            for i in range(len(m.i_labels)) for lam in range(len(m.lam_labels))]


def _left_row(m: ReesMatrixSemigroup, x: ReesElement) -> list[Perm]:
    """x.g * A[x.lam][j] for every j: the product x (j, h, mu) is then
    (x.i, row[j] * h, mu), one composition instead of two."""
    g = x.g
    return [tuple([g[k] for k in entry]) for entry in m.sandwich[x.lam]]


def _element_closure(m: ReesMatrixSemigroup, seeds: Sequence[ReesElement]) -> set[tuple]:
    """The subsemigroup generated by ``seeds``, closed under left
    multiplication by the seeds: |result| * |seeds| products, each formed as a
    plain (i, g, lam) tuple, which hashes and compares like the ReesElement.
    """
    lefts = [(x.i, _left_row(m, x)) for x in seeds]
    reached = set(seeds)
    frontier = seeds
    while frontier:
        new = []
        for i, row in lefts:
            for y in frontier:
                yi, yg, ylam = y
                left = row[yi]
                xy = (i, tuple([left[k] for k in yg]), ylam)
                if xy not in reached:
                    reached.add(xy)
                    new.append(xy)
        frontier = new
    return reached


GROUP_LAW, SANDWICH_RELATION, FACTORIZATION = "group law", "sandwich relation", "factorization"


def _product_law_failure(m: ReesMatrixSemigroup,
                         phi: dict) -> tuple[str, ReesElement] | None:
    """The first of the three product-law checks that ``phi`` fails, as
    (law, triple), or None when it passes all three; the proof that they make
    phi a homomorphism is in :func:`as_transformation_semigroup`.  With
    (i0, lam0) the base, a = A[lam0][i0] and theta(h) = phi(i0, h a^-1, lam0):

    * GROUP_LAW: theta(s g) = theta(s) theta(g) for every g in G and every
      generator s of G, along a breadth-first search from the identity;
    * SANDWICH_RELATION: phi(i0, 1, mu) phi(j, 1, lam0) = phi(i0, A[mu][j], lam0)
      for every mu and j;
    * FACTORIZATION: phi(j, h, mu) = phi(j, 1, lam0) theta(a^-1 h) phi(i0, 1, mu)
      for every triple.

    |G| * (number of generators) + |Lambda||I| + |Lambda||G| + |S| map
    compositions: the factorization composes theta(a^-1 h) phi(i0, 1, mu) once
    per (h, mu).  Raises InternalCheckError, naming the group law, when the
    search does not reach all of G, since then the generators of G fall short
    and the group law is not proved.
    """
    compose_maps = map_compose  # one global read, so a rebound rees.map_compose applies
    i0, lam0 = m.base
    group = m.group
    a_inv = inverse(m.sandwich[lam0][i0])
    ident = identity(group.degree)

    def triple(h: Perm) -> ReesElement:  # theta(h) is phi of this triple
        return ReesElement(i0, compose(h, a_inv), lam0)
    theta = {h: phi[triple(h)] for h in group.elements}

    gens = group.generators or (ident,)  # the trivial group: check theta(1) theta(1)
    reached, frontier = {ident}, [ident]
    while frontier:
        new = []
        for g in frontier:
            theta_g = theta[g]
            for s in gens:
                sg = compose(s, g)
                if theta[sg] != compose_maps(theta[s], theta_g):
                    return GROUP_LAW, triple(sg)
                if sg not in reached:
                    reached.add(sg)
                    new.append(sg)
        frontier = new
    if len(reached) != group.order:
        missing = min(group.element_set - reached)
        raise InternalCheckError(
            f"the generators of G reach {len(reached)} of {group.order} elements, "
            "so the group law is not proved", law=GROUP_LAW, witness=triple(missing))

    i_range, lam_range = range(len(m.i_labels)), range(len(m.lam_labels))
    lefts = [phi[(j, ident, lam0)] for j in i_range]      # phi(j, 1, lam0)
    rights = [phi[(i0, ident, mu)] for mu in lam_range]   # phi(i0, 1, mu)
    for mu in lam_range:
        for j in i_range:
            x = ReesElement(i0, m.sandwich[mu][j], lam0)
            if phi[x] != compose_maps(rights[mu], lefts[j]):
                return SANDWICH_RELATION, x

    for h in group.elements:
        theta_h = theta[compose(a_inv, h)]
        for mu in lam_range:
            middle = compose_maps(theta_h, rights[mu])
            for j in i_range:
                if phi[(j, h, mu)] != compose_maps(lefts[j], middle):
                    return FACTORIZATION, ReesElement(j, h, mu)
    return None


def substitution_sandwich(group: PermGroup, i_perms: list[Perm] | tuple[Perm, ...],
                          g0: Perm) -> ReesMatrixSemigroup:
    """The two-row sandwich over the structure group G = <I>: plus row all
    identity, minus row g0 * g^-1 per column g.  Normalized w.r.t. the
    idempotent (g0, 1, +).  ``group`` is taken as given, not closed again;
    each column label must lie in it."""
    i_perms = tuple(i_perms)
    if g0 not in i_perms:
        raise ValidationError("g0 must be one of the given permutations")
    if any(g not in group.element_set for g in i_perms):
        raise ValidationError("the given permutations must lie in the structure group")
    ident = identity(group.degree)
    plus_row = tuple(ident for _ in i_perms)
    minus_row = tuple(compose(g0, inverse(g)) for g in i_perms)
    m = ReesMatrixSemigroup(group, i_perms, SIGN_LABELS, (plus_row, minus_row),
                            base=(i_perms.index(g0), PLUS))
    if not m.is_normalized():
        raise InternalCheckError("substitution sandwich failed its normalization check")
    return m


def little_structure_group(m: ReesMatrixSemigroup) -> PermGroup:
    """Group generated by the sandwich entries of a normalized presentation."""
    if not m.is_normalized():
        raise ValidationError("little structure group is defined for normalized presentations")
    entries = [entry for row in m.sandwich for entry in row]
    return closure(entries, m.group.degree)


def idempotent_generated(m: ReesMatrixSemigroup) -> ReesMatrixSemigroup:
    """M[Gamma; I, Lambda; A] with Gamma the little structure group; checked
    against the actual closure of the idempotents, element by element."""
    gamma = little_structure_group(m)
    expected = {ReesElement(i, g, lam)
                for i in range(len(m.i_labels))
                for g in gamma.elements
                for lam in range(len(m.lam_labels))}
    generated = _element_closure(m, idempotents_of(m))
    if generated != expected:
        raise InternalCheckError("closure of idempotents differs from M[Gamma; I, Lambda; A]")
    return ReesMatrixSemigroup(gamma, m.i_labels, m.lam_labels, m.sandwich, m.base)


def presentations_isomorphic(m1: ReesMatrixSemigroup, m2: ReesMatrixSemigroup) -> bool:
    """Isomorphism test up to index relabeling, gauge and structure-group
    isomorphism (conjugation inside the ambient symmetric group).

    Uses the classification of Rees matrix isomorphisms: M1 ~ M2 iff there are
    bijections alpha: I1->I2, beta: L1->L2, an isomorphism phi: G1->G2 and
    gauge factors u_lam, v_i with phi(A1[lam][i]) = u_lam A2[beta lam][alpha i] v_i.
    Exhaustive over small shapes only.
    """
    if (len(m1.i_labels), len(m1.lam_labels)) != (len(m2.i_labels), len(m2.lam_labels)):
        return False
    if m1.group.order != m2.group.order or m1.group.degree != m2.group.degree:
        return False
    degree = m1.group.degree
    if m1.group.order > ISO_SEARCH_GROUP_MAX or degree > ISO_SEARCH_DEGREE_MAX:
        raise ResourceLimitError("presentation isomorphism search is capped at "
                                 f"|G| <= {ISO_SEARCH_GROUP_MAX}, degree <= {ISO_SEARCH_DEGREE_MAX}")
    g2set = m2.group.element_set
    ni, nlam = len(m1.i_labels), len(m1.lam_labels)

    conjugators = []
    for w in itertools.permutations(range(degree)):
        winv = inverse(w)
        if all(compose(compose(w, g), winv) in g2set for g in m1.group.generators):
            if {compose(compose(w, g), winv) for g in m1.group.elements} == g2set:
                conjugators.append((w, winv))

    for w, winv in conjugators:
        phi1 = [[compose(compose(w, m1.sandwich[lam][i]), winv) for i in range(ni)]
                for lam in range(nlam)]
        for alpha in itertools.permutations(range(ni)):
            for beta in itertools.permutations(range(nlam)):
                a2 = [[m2.sandwich[beta[lam]][alpha[i]] for i in range(ni)] for lam in range(nlam)]
                for v_ref in m2.group.elements:
                    v = [None] * ni
                    v[0] = v_ref
                    u = [compose(phi1[lam][0], inverse(compose(a2[lam][0], v_ref)))
                         for lam in range(nlam)]
                    ok = all(u_l in g2set for u_l in u)
                    if not ok:
                        continue
                    for i in range(1, ni):
                        v[i] = compose(inverse(compose(u[0], a2[0][i])), phi1[0][i])
                        if v[i] not in g2set:
                            ok = False
                            break
                    if not ok:
                        continue
                    if all(phi1[lam][i] == compose(compose(u[lam], a2[lam][i]), v[i])
                           for lam in range(nlam) for i in range(ni)):
                        return True
    return False


# ---------------------------------------------------------------------------
# between Rees presentations and transformation semigroups

def as_transformation_semigroup(m: ReesMatrixSemigroup, fiber: TwoWordFiber
                                ) -> tuple[TransformationSemigroup, dict[ReesElement, FiberMap]]:
    """Faithful action of a substitution sandwich on its two-word fiber.

    The triple (i, g, +) acts as a.b -> L(b).R(b) and (i, g, -) as
    a.b -> L(a).R(a), where R = g (resp. g*g0) and L = i^-1 * R; this inverts
    the bijection used to put the fiber semigroup into matrix form.  For the
    sandwich of a substitution, with I its R-set and G = <I>, three
    statements hold by construction, and each is still checked here:

    * The maps stay in the fiber.  A target is (i^-1 c, c) for a letter c.
      With i = c_j c_(j-1)^-1 for columns c_j of the substitution and
      x = c_j^-1 c, it is the word (c_(j-1)(x), c_j(x)), letters j-1, j of
      the rule of x.
    * The action is faithful.  A + map reads b, and b runs through every
      letter, so it fixes R = g and then L, hence i; a - map likewise.  With
      |I| >= 2 some letter has two predecessors in the fiber, which a + map
      sends to the same word and a - map to different ones.
    * The product law (i, g, lam)(j, h, mu) = (i, g A[lam][j] h, mu), with
      A[+][j] = 1 and A[-][j] = g0 j^-1, holds as an identity in G.  The
      left factor reads the word its right factor writes, (j^-1 R', R') with
      R' = h (mu = +) or h g0 (mu = -), read at b (mu = +) or a (mu = -):
      - (i, g, +)(j, h, +) = (i, g h, +): a.b -> i^-1 g h(b) . g h(b);
      - (i, g, +)(j, h, -) = (i, g h, -): a.b -> i^-1 g h g0(a) . g h g0(a);
      - (i, g, -)(j, h, +) = (i, g g0 j^-1 h, +):
        a.b -> i^-1 g g0 j^-1 h(b) . g g0 j^-1 h(b);
      - (i, g, -)(j, h, -) = (i, g g0 j^-1 h, -):
        a.b -> i^-1 g g0 j^-1 h g0(a) . g g0 j^-1 h g0(a).
      A + left factor reads R', so its R becomes g R'; a - left factor reads
      j^-1 R', so its R becomes g g0 j^-1 R'.

    The returned semigroup is the image of this action phi, generated by the
    images of X = ``m.generators``, 2|I| + 1 triples at most.  The maps are
    checked to be distinct, and phi is proved a homomorphism through the Rees
    factorization, at a cost of |S| + 2|G| + |G||I| + 2|I| map compositions
    rather than one per product; the image of a homomorphism is closed under
    composition, so no closure of maps is run.  The sandwich is normalized,
    so with (i0, +) the base every triple factors as

        (j, h, mu) = (j, 1, +)(i0, h, +)(i0, 1, mu),

    since (j, 1, +)(i0, h, +) = (j, A[+][i0] h, +) = (j, h, +) and
    (j, h, +)(i0, 1, mu) = (j, h A[+][i0], mu).  Write L_j = phi(j, 1, +),
    R_mu = phi(i0, 1, mu) and theta(h) = phi(i0, h, +).  Three checks
    (:func:`_product_law_failure`) each raise InternalCheckError naming the
    law and the triple it failed at:

    * (a) group law: theta(s g) = theta(s) theta(g) for every g in G and every
      generator s of G, by a breadth-first search from the identity along
      g -> s g that must reach all of G.  Every element is a nonempty word in
      the generators, so by induction on its length
      theta(s x g) = theta(s) theta(x g) = theta(s) theta(x) theta(g)
      = theta(s x) theta(g): theta is a homomorphism on G;
    * (b) sandwich relation: R_mu L_j = theta(A[mu][j]) for each of the 2|I|
      pairs (mu, j), the image of (i0, 1, mu)(j, 1, +) = (i0, A[mu][j], +);
    * (c) factorization: phi(j, h, mu) = L_j theta(h) R_mu for all |S| triples.

    Then for x = (i, g, lam) and y = (j, h, mu), by (c), (b), (a) and (c):

        phi(x) phi(y) = L_i theta(g) R_lam L_j theta(h) R_mu
                      = L_i theta(g) theta(A[lam][j]) theta(h) R_mu
                      = L_i theta(g A[lam][j] h) R_mu = phi(xy).

    :func:`verify_rees_isomorphism` runs the same checks on any Rees matrix
    semigroup, where a = A[lam0][i0] need not be 1 and the middle factor of
    (j, h, mu) is (i0, a^-1 h a^-1, lam0).
    """
    if m.lam_labels != SIGN_LABELS:
        raise ValidationError("fiber action requires a substitution sandwich with signs {+,-}")
    g0 = m.i_labels[m.base[0]]
    pair_index = {p: k for k, p in enumerate(fiber.pairs)}
    # a + map reads each fixed point a.b at b, a - map at a
    read_at = ([b for _, b in fiber.pairs], [a for a, _ in fiber.pairs])
    rights = [(g, (g, compose(g, g0))) for g in m.group.elements]  # R per sign
    phi: dict[ReesElement, FiberMap] = {}
    for i, i_perm in enumerate(m.i_labels):
        i_inv = inverse(i_perm)
        # the fixed point (i^-1 r, r) for each letter r, as a fiber index
        target = [pair_index.get((i_inv[r], r)) for r in range(len(i_perm))]
        if None in target:
            r = target.index(None)
            raise InternalCheckError(
                f"fiber action left the fiber: {(i_inv[r], r)} is not an allowed two-word")
        for g, by_sign in rights:
            for lam in (PLUS, MINUS):
                # the fixed point written for each letter c: (i^-1 R(c), R(c))
                written = [target[r] for r in by_sign[lam]]
                phi[ReesElement(i, g, lam)] = tuple([written[c] for c in read_at[lam]])
    maps = sorted(set(phi.values()))
    if len(maps) != m.size:
        raise InternalCheckError("fiber action is not faithful; distinct triples collided")
    failure = _product_law_failure(m, phi)
    if failure is not None:
        law, x = failure
        raise InternalCheckError(f"fiber action breaks the {law} at the triple {tuple(x)}",
                                 law=law, witness=x)
    sg = TransformationSemigroup(fiber.size, tuple(maps),
                                 tuple(sorted({phi[x] for x in m.generators})))
    return sg, phi


def verify_rees_isomorphism(sg: TransformationSemigroup, m: ReesMatrixSemigroup,
                            phi: dict[ReesElement, FiberMap]) -> bool:
    """Check that phi is a bijective homomorphism of M onto sg.

    Bijectivity is checked on every element; the product law through the Rees
    factorization (j, h, mu) = (j, 1, lam0)(i0, a^-1 h a^-1, lam0)(i0, 1, mu),
    with a = A[lam0][i0], by the group law on G, the |Lambda||I| sandwich
    relations and the factorization of every triple
    (:func:`_product_law_failure`; :func:`as_transformation_semigroup` gives
    the proof for a = 1, and it carries over with theta(h) = phi(i0, h a^-1,
    lam0)).  Returns False when phi fails a check; raises InternalCheckError
    when the generators of G do not reach all of G.
    """
    if phi.keys() != set(m.elements()):
        return False
    images = set(phi.values())
    if len(images) != m.size or images != set(sg.elements):
        return False
    return _product_law_failure(m, phi) is None


@dataclass
class ReesDecomposition:
    matrix: ReesMatrixSemigroup
    embedding: dict[ReesElement, FiberMap]
    point_order: tuple[int, ...]  # image of e, as fiber indices; G permutes positions


def rees_decomposition(sg: TransformationSemigroup, e: FiberMap,
                       green: GreenStructure | None = None) -> ReesDecomposition:
    """Normalized Rees matrix form of a completely simple transformation
    semigroup w.r.t. the idempotent e.

    R-classes are indexed by I, L-classes by Lambda, both labeled by their
    idempotent in e's row/column and sorted by that label; G is the H-class
    of e acting on the image of e; the sandwich entry at (lam, i) is the
    product q_lam * r_i of those idempotents.  The returned embedding is
    (i, g, lam) -> r_i * g * q_lam.
    """
    green = green or green_structure(sg)
    if not is_completely_simple(sg, green):
        raise ValidationError("Rees decomposition needs a completely simple semigroup")
    if e not in sg.index or not map_compose(e, e) == e:
        raise ValidationError("the chosen element is not an idempotent of the semigroup")
    e_idx = sg.index[e]
    idem = set(green.idempotents)

    def class_of(classes, idx):
        for c in classes:
            if idx in c:
                return frozenset(c)
        raise InternalCheckError("element missing from its own Green class")

    r0 = class_of(green.r_classes, e_idx)
    l0 = class_of(green.l_classes, e_idx)

    def unique_idempotent(h_class: frozenset[int]) -> int:
        found = [i for i in h_class if i in idem]
        if len(found) != 1:
            raise InternalCheckError("H-class of a completely simple semigroup must "
                                     f"contain exactly one idempotent, found {len(found)}")
        return found[0]

    # r_i: idempotent of (R-class i) intersect (L-class of e); q_lam dually
    r_reps = []
    for c in green.r_classes:
        r_reps.append(sg.elements[unique_idempotent(frozenset(c) & l0)])
    q_reps = []
    for c in green.l_classes:
        q_reps.append(sg.elements[unique_idempotent(frozenset(c) & r0)])
    r_reps.sort()
    q_reps.sort()
    i0 = r_reps.index(e)
    lam0 = q_reps.index(e)

    points = tuple(sorted(set(e)))
    position = {p: k for k, p in enumerate(points)}

    def restrict(f: FiberMap) -> Perm:
        images = tuple(position[f[p]] for p in points)
        if sorted(images) != list(range(len(points))):
            raise InternalCheckError("H-class element does not permute the image of e")
        return images

    h_class = frozenset(r0 & l0)
    h_elements = [sg.elements[i] for i in sorted(h_class)]
    perm_of = {f: restrict(f) for f in h_elements}
    if len(set(perm_of.values())) != len(h_elements):
        raise InternalCheckError("H-class of e does not act faithfully on the image of e")
    by_perm = {p: f for f, p in perm_of.items()}
    # a few generators, each outside the group of those before it
    gens: list[Perm] = []
    group = closure(gens, len(points))
    for p in sorted(by_perm):
        if p not in group:
            gens.append(p)
            group = closure(gens, len(points))
    if group.element_set != by_perm.keys():
        raise InternalCheckError("H-class of e is not closed under composition")

    sandwich = tuple(
        tuple(perm_of[map_compose(q, r)] for r in r_reps) for q in q_reps)
    matrix = ReesMatrixSemigroup(group, tuple(r_reps), tuple(q_reps), sandwich,
                                 base=(i0, lam0))
    if not matrix.is_normalized():
        raise InternalCheckError("normalized decomposition has a non-identity base row/column")
    embedding = {}
    for x in matrix.elements():
        f = map_compose(map_compose(r_reps[x.i], by_perm[x.g]), q_reps[x.lam])
        embedding[x] = f
    if not verify_rees_isomorphism(sg, matrix, embedding):
        raise InternalCheckError("Rees decomposition embedding failed its product check")
    return ReesDecomposition(matrix, embedding, points)
