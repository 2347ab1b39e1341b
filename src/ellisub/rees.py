"""Rees matrix semigroups M[G; I, Lambda; A] over permutation groups.

Elements are triples (i, g, lam) with the product
(i, g, lam)(j, h, mu) = (i, g * A[lam][j] * h, mu); group products follow the
same apply-right-factor-first convention as everywhere else.  A presentation
is *normalized* w.r.t. a slot (i0, lam0) when row lam0 and column i0 of the
sandwich matrix are all identity; the idempotent (i0, 1, lam0) is then the
distinguished one.

For substitution sandwiches the module builds the faithful action on the
two-word fiber and proves it a homomorphism through the Rees factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalCheckError, ValidationError
from .perms import Perm, PermGroup, after, compose, identity, inverse
from .semigroups import FiberMap, green_summary, map_after, map_compose
from .substitution import TwoWordFiber

PLUS, MINUS = 0, 1
SIGN_LABELS = ("+", "-")


class ReesElement(NamedTuple):
    """A triple (i, g, lam).  As a named tuple it hashes and compares equal to
    the plain tuple (i, g, lam), so the product-law checks look triples up
    as plain tuples and skip its constructor, a Python-level call."""

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
        return green_summary({n_i * order: n_lam}, {n_lam * order: n_i},
                             {order: n_i * n_lam}, {self.size: 1},
                             n_i * n_lam, self.size)


def idempotents_of(m: ReesMatrixSemigroup) -> list[ReesElement]:
    """Exactly the triples (i, A[lam][i]^-1, lam); count |I|*|Lambda|."""
    return [ReesElement(i, inverse(m.sandwich[lam][i]), lam)
            for i in range(len(m.i_labels)) for lam in range(len(m.lam_labels))]


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
    per (h, mu) and builds its getter, which then reads each of the |I| maps
    phi(j, 1, lam0); the group law builds one getter for g and one for
    theta(g) per element g, each read by every generator.  Raises
    InternalCheckError, naming the group law, when the search does not reach
    all of G, since then the generators of G fall short and the group law is
    not proved.
    """
    # one global read each, so a rebound rees.map_compose or rees.map_after applies
    compose_maps, map_getter = map_compose, map_after
    i0, lam0 = m.base
    group = m.group
    a_inv = inverse(m.sandwich[lam0][i0])
    ident = identity(group.degree)

    def triple(h: Perm) -> ReesElement:  # theta(h) is phi of this triple
        return ReesElement(i0, compose(h, a_inv), lam0)
    a_inv_after = after(a_inv)
    theta = {h: phi[(i0, a_inv_after(h), lam0)] for h in group.elements}

    gens = group.generators or (ident,)  # the trivial group: check theta(1) theta(1)
    reached, frontier = {ident}, [ident]
    while frontier:
        new = []
        for g in frontier:
            g_after, theta_g_after = after(g), map_getter(theta[g])
            for s in gens:
                sg = g_after(s)
                if theta[sg] != theta_g_after(theta[s]):
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
            middle_after = map_getter(compose_maps(theta_h, rights[mu]))
            for j in i_range:
                if phi[(j, h, mu)] != middle_after(lefts[j]):
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


# ---------------------------------------------------------------------------
# between Rees presentations and transformation semigroups

def as_transformation_semigroup(m: ReesMatrixSemigroup,
                                fiber: TwoWordFiber) -> dict[ReesElement, FiberMap]:
    """The faithful action phi of a substitution sandwich on its two-word
    fiber, as a map from each triple to its fiber map.

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

    Each map costs two getter calls, one for R and one for the reads, with
    one getter per element and sign and one per sign.  The maps are checked
    to be distinct, and phi is proved a homomorphism through the Rees
    factorization, at a cost of |S| + 2|G| + |G||I| + 2|I| map compositions
    rather than one per product, all but 2|G| + 2|I| of them one getter
    call; the image of a homomorphism is closed under composition, so the
    image of phi is the fiber semigroup and no closure of maps is run.  The sandwich is
    normalized, so with (i0, +) the base every triple factors as

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

    :func:`_product_law_failure` runs the same checks on any Rees matrix
    semigroup, where a = A[lam0][i0] need not be 1 and the middle factor of
    (j, h, mu) is (i0, a^-1 h a^-1, lam0).
    """
    if m.lam_labels != SIGN_LABELS:
        raise ValidationError("fiber action requires a substitution sandwich with signs {+,-}")
    g0 = m.i_labels[m.base[0]]
    pair_index = {p: k for k, p in enumerate(fiber.pairs)}
    # a + map reads each fixed point a.b at b, a - map at a
    read_at = (after([b for _, b in fiber.pairs]), after([a for a, _ in fiber.pairs]))
    g0_after = after(g0)
    # per element g and sign: the getter of R (g for +, g g0 for -) and of the reads
    slots = [(g, lam, after(r), read_at[lam])
             for g in m.group.elements for lam, r in ((PLUS, g), (MINUS, g0_after(g)))]
    phi: dict[ReesElement, FiberMap] = {}
    for i, i_perm in enumerate(m.i_labels):
        i_inv = inverse(i_perm)
        # the fixed point (i^-1 r, r) for each letter r, as a fiber index
        target = [pair_index.get((i_inv[r], r)) for r in range(len(i_perm))]
        if None in target:
            r = target.index(None)
            raise InternalCheckError(
                f"fiber action left the fiber: {(i_inv[r], r)} is not an allowed two-word")
        for g, lam, r_after, read in slots:
            # r_after writes the fixed point (i^-1 R(c), R(c)) for each letter c
            phi[ReesElement(i, g, lam)] = read(r_after(target))
    if len(set(phi.values())) != m.size:
        raise InternalCheckError("fiber action is not faithful; distinct triples collided")
    failure = _product_law_failure(m, phi)
    if failure is not None:
        law, x = failure
        raise InternalCheckError(f"fiber action breaks the {law} at the triple {tuple(x)}",
                                 law=law, witness=x)
    return phi
