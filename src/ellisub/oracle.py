"""Independent verification by actual shift dynamics on fixed-point windows.

The maps under test are built from nothing but the substitution rules: the
maps induced on the singular fiber by the shift powers sigma^(nu * l^k) are
read off the letters of the two-sided fixed points.  Only the comparison step
looks at the algebra, and the construction of the maps never does.

The comparison decides whether the maps generate exactly the algebraic fiber
semigroup phi(M), the image of the matrix action phi of M = M[G; I, {+,-}; A]
(:func:`oracle_equivalence`).  It may use phi without costing the oracle its
independence.  The pipeline proves phi an injective homomorphism without
looking at the oracle (``ellisub.rees.FiberAction``), from 2|I| letter
identities and O(|I| s + fiber) further work, and writes out none of its
|S| = 2|I||G| maps.  The comparison uses phi only to name each distinct
oracle map by its triple: ``FiberAction.decode`` reads the triple off the
map's images and accepts it only when it encodes back to the map, O(fiber)
per map, and a map without a name is reported as a discrepancy, so no map
the rules produce is taken on trust.  Once every map is named, the maps
generate phi(M) exactly when their triples generate M, since phi is an
isomorphism.  That is decided in G by :func:`triples_generate`, at a cost
of |G| * (number of maps + 2|I|) compositions of permutations, instead of
closing the maps, |S| * (number of maps) compositions.  Only when the
triples fall short are all |S| maps encoded and the oracle's maps closed,
to list the difference.

The paper builds E^fib from limits of sigma^(n_k) along n_k -> 0 in the
l-adic factor; here n_k = nu * l^k.  For a simplified substitution the map
of sigma^(nu * l^k) does not depend on k (Dekking, *The spectrum of dynamical
systems arising from substitutions of constant length*, 1978).  The fixed
point x = a.b satisfies x[p*l + r] = rule(x[p])[r] for every integer p and
0 <= r < l, and its boundary columns c_0 = c_(l-1) = id give rule(y)[0] = y
and rule(y)[l-1] = y for every letter y.  So

    x[nu*l] = rule(x[nu])[0] = x[nu],
    x[nu*l - 1] = x[(nu-1)*l + (l-1)] = rule(x[nu-1])[l-1] = x[nu - 1],

and by induction x[nu*l^k] = x[nu] and x[nu*l^k - 1] = x[nu - 1] for every
k >= 0.  The two-letter word that sigma^(nu*l^k) puts over each fixed point,
and with it the induced fiber map, is the same at every level k.  For
0 < |nu| < l that word lies in the central block of x: x[p] = rule(b)[p] for
0 <= p < l and x[p] = rule(a)[p + l] for -l <= p < 0, so the limit map is
read straight off the rule words.  The tests check the collapse against
maps read by base-l digit walks at levels 1 to 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .perms import after, identity
from .semigroups import (FiberMap, TransformationSemigroup,
                         semigroup_closure)
from .substitution import (Substitution, TwoWordFiber, allowed_two_words,
                           is_simplified)

LIMIT_LEVEL = 1  # the level reported for every shift; the map is constant in the level
REPORTED_MAX_LEVEL = 4  # ellis-report/1 keeps the ceiling the old level search printed by default


def _fiber_map(words: list[tuple[int, int]], index: dict[tuple[int, int], int]) -> FiberMap:
    """The fiber indices of the shifted two-words, one per fixed point."""
    images = tuple([index.get(word) for word in words])
    if None in images:
        word = words[images.index(None)]
        raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
    return images


def _limit_map(sub: Substitution, pairs: tuple[tuple[int, int], ...],
               index: dict[tuple[int, int], int], nu: int) -> FiberMap:
    """The limit map of sigma^(nu * l^k) for 0 < |nu| < l: the map of sigma^nu,
    read off the rule words (positions nu-1, nu of a.b)."""
    rules, length = sub.rules, sub.length
    if nu > 0:
        words = [(rules[b][nu - 1], rules[b][nu]) for _, b in pairs]
    else:
        words = [(rules[a][nu - 1 + length], rules[a][nu + length]) for a, _ in pairs]
    return _fiber_map(words, index)


@dataclass(frozen=True)
class OracleMap:
    nu: int
    fiber_map: FiberMap  # the map of sigma^(nu * l^k), the same for every k


@dataclass
class OracleResult:
    fiber: TwoWordFiber
    maps: tuple[OracleMap, ...]

    @cached_property
    def semigroup(self) -> TransformationSemigroup:
        """The closure of the maps, generated by the sorted distinct maps.
        Built on first use: :func:`oracle_equivalence` decides generation
        without it, and closes the maps only when they fall short."""
        seeds = sorted({m.fiber_map for m in self.maps})
        return semigroup_closure(seeds, degree=self.fiber.size)

    def stabilization_by_nu(self) -> dict[int, int]:
        """The level each map is reached at: 1 for every shift, by the proof
        in the module docstring."""
        return {m.nu: LIMIT_LEVEL for m in self.maps}


def limit_maps(sub: Substitution) -> OracleResult:
    """The limit maps of sigma^(nu * l^k) on the fiber for 0 < |nu| < l.

    Each map is read once, off the rule words.  That is the limit: for a
    simplified substitution x[nu*l^k] = x[nu] and x[nu*l^k - 1] = x[nu - 1] at
    every level k, since x[p*l + r] = rule(x[p])[r] and the boundary columns
    are the identity (the module docstring spells out the induction), so the
    map does not depend on k.  No closure is run here; ``semigroup`` closes
    the maps when it is first read.
    """
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
    if not is_simplified(sub, fiber):
        raise ValidationError("the window oracle needs a simplified substitution")
    index = {p: k for k, p in enumerate(fiber.pairs)}
    length = sub.length
    shifts = list(range(1, length)) + list(range(-length + 1, 0))
    return OracleResult(fiber, tuple(OracleMap(nu, _limit_map(sub, fiber.pairs, index, nu))
                                     for nu in shifts))


def triples_generate(matrix, triples) -> bool:
    """Whether ``triples`` generate the Rees matrix semigroup ``matrix``,
    M = M[G; I, Lambda; A] with base (i0, lam0), decided by a walk search in G.

    A product (i1, g1, lam1) ... (ik, gk, lamk) is
    (i1, g1 A[lam1][i2] g2 ... A[lam(k-1)][ik] gk, lamk).  So the triples T
    generate M exactly when T meets every row i and every column lam, and the
    labels g1 A[lam1][i2] g2 ... gk of the words over T that start in row i0
    and end in column lam0 cover G.  Both are necessary: each (i, g, lam) is
    a product whose first factor lies in row i and whose last lies in column
    lam, and each (i0, g, lam0) is such a word with label g.  They suffice:
    with t = (i, gt, lamt) in T in row i, u = (iu, gu, lam) in T in column lam
    and w a word from row i0 to column lam0 with label h,
    t w u = (i, gt A[lamt][i0] h A[lam0][iu] gu, lam), and as h runs through
    G the middle runs through G.  (Howie, *Fundamentals of Semigroup Theory*,
    Thm 3.4.1; Gray & Ruskuc, *Generating sets of completely 0-simple
    semigroups*, Comm. Algebra 33, 2005.)

    The search walks the bipartite graph with an edge i -> lam of label g
    for each (i, g, lam) in T and an edge lam -> j of label A[lam][j], over
    the states (vertex, label) reachable from (i0, 1): at most |G| per
    vertex, so |G| * (|T| + |Lambda||I|) compositions, each one call of the
    getter of its edge label, built once per edge.  It stops as soon as
    column lam0 holds every label.
    """
    i0, lam0 = matrix.base
    n_i, n_lam = len(matrix.i_labels), len(matrix.lam_labels)
    if ({i for i, _, _ in triples} != set(range(n_i))
            or {lam for _, _, lam in triples} != set(range(n_lam))):
        return False
    order = matrix.group.order
    # each edge as (getter of its label, head): label h reaches h * label
    by_row: list[list[tuple]] = [[] for _ in range(n_i)]
    for i, g, lam in triples:
        by_row[i].append((after(g), lam))
    by_column = [[(after(entry), j) for j, entry in enumerate(row)] for row in matrix.sandwich]
    start = identity(matrix.group.degree)
    at_row = [set() for _ in range(n_i)]
    at_column = [set() for _ in range(n_lam)]
    at_row[i0].add(start)
    frontier = [(i0, start)]
    while frontier:
        reached = []  # new column states
        for i, h in frontier:
            for g_after, lam in by_row[i]:
                label = g_after(h)
                if label not in at_column[lam]:
                    at_column[lam].add(label)
                    reached.append((lam, label))
        if len(at_column[lam0]) == order:
            return True
        frontier = []
        for lam, h in reached:
            for entry_after, j in by_column[lam]:
                label = entry_after(h)
                if label not in at_row[j]:
                    at_row[j].add(label)
                    frontier.append((j, label))
    return False


@dataclass
class OracleComparison:
    equal: bool
    discrepancies: tuple[str, ...]
    oracle: OracleResult
    map_count: int  # the size of the closure of the oracle's maps


def compare_map_semigroups(oracle_sg: TransformationSemigroup,
                           algebraic: TransformationSemigroup) -> tuple[str, ...]:
    """Discrepancies between two map semigroups: the maps each has and the
    other lacks.  Equal map sets are equal semigroups, since both multiply by
    composing maps."""
    discrepancies: list[str] = []
    orc, alg = set(oracle_sg.elements), set(algebraic.elements)
    for f in sorted(orc - alg):
        discrepancies.append(f"oracle map {f} missing from the algebraic semigroup")
    for f in sorted(alg - orc):
        discrepancies.append(f"algebraic map {f} not produced by the oracle")
    return tuple(discrepancies)


def _compare_with_action(result: OracleResult, matrix, action) -> OracleComparison:
    """Compare the oracle's maps with phi(M): name each distinct map by its
    triple with ``action.decode``, and decide by :func:`triples_generate`
    whether the triples generate M.  When a map has no triple or the
    triples fall short, encode all |S| triples, close the maps and list the
    maps each side lacks."""
    seeds = sorted({m.fiber_map for m in result.maps})
    triples = [action.decode(f) for f in seeds]
    if None not in triples and triples_generate(matrix, triples):
        return OracleComparison(True, (), result, matrix.size)
    images = tuple(sorted({action.encode(*x) for x in matrix.elements()}))
    algebraic = TransformationSemigroup(result.fiber.size, images, ())
    discrepancies = compare_map_semigroups(result.semigroup, algebraic)
    return OracleComparison(not discrepancies, discrepancies, result, result.semigroup.size)


def oracle_equivalence(sub: Substitution, matrix, action) -> OracleComparison:
    """Compare the semigroup that the oracle's maps generate with the
    algebraic fiber semigroup phi(M): equal, or a discrepancy list.

    ``matrix`` is the substitution sandwich M and ``action`` its action phi
    on the fiber, ``FiberAction(matrix, fiber)``, proved an injective
    homomorphism when it was built; they enter only the comparison, never
    the construction of the oracle's maps (the module docstring says why).
    """
    return _compare_with_action(limit_maps(sub), matrix, action)
