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
generate phi(M) exactly when their triples generate M
(:func:`_compare_with_action` proves it): when they meet every row and
column and their loop group at row i0 is G.  :func:`generation_shortfall`
closes that group inside G from its Schreier generators, stopping once it
has |G| elements, and its order names what the triples miss.  No map is closed and no triple outside the oracle's is encoded.

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

The maps of sigma^nu and sigma^(nu - l) share a column pair.  For
0 < nu < l,

    sigma^nu puts x[nu-1] x[nu] = letters nu-1, nu of rule(b) over a.b,
    sigma^(nu-l) puts x[nu-l-1] x[nu-l] = letters nu-1, nu of rule(a) over it.

So one table, the fiber index of (c_(nu-1)(y), c_nu(y)) for each letter y,
gives both: the + map reads it at the right letter b of each fixed point and
the - map at the left letter a, through two getters built once.  That is
l - 1 tables of s lookups for the 2(l - 1) maps, where reading each fixed
point's two-letter word would take 2(l - 1) * fiber.

The oracle validates the substitution itself: :func:`limit_maps` computes
its own ``allowed_two_words`` and checks ``is_simplified`` on it, although
the pipeline has validated the same power.  Taking the pipeline's fiber
would save two scans of the rule words and cost the oracle its own reading
of the fixed points.  Its fiber indices are what ``FiberAction.decode``
compares with the action's, which the pipeline builds on its own fiber, so
a wrong fiber there shows up as a discrepancy rather than being taken on
trust.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, NamedTuple

from .errors import ValidationError
from .perms import after, closure, compose, identity, inverse
from .semigroups import FiberMap, map_after
from .substitution import (Substitution, TwoWordFiber, allowed_two_words,
                           columns, is_simplified)


def _column_pair_table(cols: tuple[tuple[int, ...], ...], index: dict[tuple[int, int], int],
                       nu: int) -> list[int]:
    """The fiber index of (c_(nu-1)(x), c_nu(x)), letters nu-1 and nu of the
    rule word of x, for each letter x: the maps of sigma^nu and of
    sigma^(nu - l) both read it."""
    table = list(map(index.get, zip(cols[nu - 1], cols[nu])))
    if None in table:
        x = table.index(None)
        word = (cols[nu - 1][x], cols[nu][x])
        raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
    return table


def _fixed_point_reads(fiber: TwoWordFiber) -> tuple[Callable, Callable]:
    """Getters that read a letter table at the right letter b and at the left
    letter a of each fixed point a.b, built once for the 2(l-1) maps."""
    return (map_after(tuple([b for _, b in fiber.pairs])),
            map_after(tuple([a for a, _ in fiber.pairs])))


class OracleMap(NamedTuple):
    """The map of sigma^(nu * l^k) on the fiber, the same for every k."""

    nu: int
    fiber_map: FiberMap


class OracleResult(NamedTuple):
    fiber: TwoWordFiber
    maps: tuple[OracleMap, ...]


def limit_maps(sub: Substitution) -> OracleResult:
    """The limit maps of sigma^(nu * l^k) on the fiber for 0 < |nu| < l, in
    the order 1, ..., l-1, 1-l, ..., -1.

    Each map is read once, off the rule words.  That is the limit: for a
    simplified substitution x[nu*l^k] = x[nu] and x[nu*l^k - 1] = x[nu - 1] at
    every level k, since x[p*l + r] = rule(x[p])[r] and the boundary columns
    are the identity (the module docstring spells out the induction), so the
    map does not depend on k.  For 0 < nu < l, sigma^nu puts letters nu-1
    and nu of rule(b) over a.b, and sigma^(nu - l) puts letters nu-1 and nu
    of rule(a) over it.  So both maps read one table of the column pair
    (c_(nu-1), c_nu), at b and at a: l - 1 tables of s lookups, where reading
    each fixed point's word takes 2(l-1) * fiber.  No closure is run.
    """
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
    if not is_simplified(sub, fiber):
        raise ValidationError("the window oracle needs a simplified substitution")
    index = {p: k for k, p in enumerate(fiber.pairs)}
    cols, length = columns(sub), sub.length
    read_right, read_left = _fixed_point_reads(fiber)
    plus, minus = [], []
    for nu in range(1, length):
        table = _column_pair_table(cols, index, nu)
        plus.append(OracleMap(nu, read_right(table)))
        minus.append(OracleMap(nu - length, read_left(table)))
    return OracleResult(fiber, tuple(plus + minus))


def generation_shortfall(matrix, triples) -> tuple[str, ...]:
    """What keeps ``triples`` from generating the Rees matrix semigroup
    ``matrix``, M = M[G; I, Lambda; A] with base (i0, lam0): each row and
    each column that no triple meets, or else the k < |G| labels that the
    triples reach from row i0 to column lam0.  Empty exactly when the
    triples generate M.

    A product (i1, g1, lam1) ... (ik, gk, lamk) is
    (i1, g1 A[lam1][i2] g2 ... A[lam(k-1)][ik] gk, lamk): a walk, labelled by
    the product of its edge labels, in the graph on the rows and columns with
    an edge i -> lam of label g for each (i, g, lam) in T and an edge
    lam -> j of label A[lam][j].  T generates M exactly when it meets every
    row and column and its walks from i0 to lam0 take every label: each
    (i0, g, lam0) is such a walk, and for such a walk w, t in T in row i
    and u in T in column lam, t w u = (i, x w y, lam) with x and y fixed,
    which takes every label as w does.  (Howie, *Fundamentals of Semigroup
    Theory*, Thm 3.4.1; Gray & Ruskuc, *Generating sets of completely
    0-simple semigroups*, 2005.)  These labels are a coset of the group H of
    the labels of closed walks at i0, so k = |H|:
    - the graph is strongly connected once T meets every row and column:
      a column has an edge to every row, a row one out, a column one in;
    - H is a subgroup of G: it is closed under products, and h^-1 = h^(n-1)
      when h^n = 1 in the finite group G;
    - for q the label of a walk lam0 -> i0 and w, w' of walks i0 -> lam0,
      w' = (w' q)(w q)^-1 w lies in H w, and each h w is a walk's label;
    - Schreier's lemma: for p_v the label of one walk i0 -> v, p_i0 = 1, H is
      generated by the p_u g p_v^-1 of the edges u -> v of label g.  Each is
      (p_u g q)(p_v q)^-1 in H, for q the label of a walk v -> i0, and a
      closed walk telescopes into them: g1 ... gk is the product over t of
      p_v(t-1) g_t p_vt^-1.  (Holt, Eick & O'Brien, *Handbook of
      Computational Group Theory*, 2005.)
    The p_v come from a triple in row i0, the sandwich entries of its column
    and the triples; the |T| + |Lambda||I| generators take one inverse per
    vertex, one at a time, and H is closed again inside G only on one it
    misses.  H only grows inside G, so it equals G exactly when |H| = |G|,
    and the search stops there; a set that does not generate closes all.
    """
    i0, lam0 = matrix.base
    n_i, n_lam = len(matrix.i_labels), len(matrix.lam_labels)
    rows_met, columns_met = {i for i, _, _ in triples}, {lam for _, _, lam in triples}
    unmet = tuple([f"no oracle map lies in row {i}" for i in range(n_i) if i not in rows_met]
                  + [f"no oracle map lies in column {matrix.lam_labels[lam]}"
                     for lam in range(n_lam) if lam not in columns_met])
    if unmet:
        return unmet
    group, order = matrix.group, matrix.group.order
    _, first, lam1 = next(t for t in triples if t[0] == i0)
    to_row = [compose(first, entry) for entry in matrix.sandwich[lam1]]
    to_row[i0] = identity(group.degree)
    walked = [(lam, compose(to_row[i], g)) for i, g, lam in triples]  # p_i g per triple
    to_column = dict(walked)  # the label of any walk to each column will do
    # the getter of p_v^-1 for each vertex: the rows, then the columns
    back = [after(inverse(p)) for p in to_row + [to_column[lam] for lam in range(n_lam)]]
    loops = chain((back[n_i + lam](label) for lam, label in walked),
                  (back[j](compose(to_column[lam], entry))
                   for lam, row in enumerate(matrix.sandwich) for j, entry in enumerate(row)))
    gens, loop_group = [], closure([], ambient=group)
    for loop in loops:
        if loop not in loop_group:
            gens.append(loop)
            loop_group = closure(gens, ambient=group)
            if loop_group is group:  # |H| = |G|
                break
    reached = loop_group.order
    if reached == order:
        return ()
    return (f"the oracle's maps reach {reached} of the {order} labels "
            f"from row {i0} to column {matrix.lam_labels[lam0]}",)


class OracleComparison(NamedTuple):
    equal: bool
    discrepancies: tuple[str, ...]
    oracle: OracleResult
    map_count: int  # |S|, the size of phi(M), which the maps are compared with


def _compare_with_action(result: OracleResult, matrix, action) -> OracleComparison:
    """Compare the oracle's maps F with phi(M): name each distinct map by its
    triple with ``action.decode``, list each map without one, and when every
    map has one, let :func:`generation_shortfall` decide from the order of
    their loop group whether the triples generate M, and say what they miss.

    F generates phi(M) exactly when every map of F has a triple and the
    triples generate M.  phi is an injective homomorphism, so its image
    phi(M) is closed under composition, and ``decode`` finds the one triple
    of every map in phi(M) and of no other map.
    - A map f of F without a triple lies outside phi(M), and so does the
      semigroup <F> that holds it: the maps are not equal.
    - Otherwise F = phi(T) for the set T of triples, and
      <F> = phi(<T>), since phi is a homomorphism.  When T generates M,
      <F> = phi(M).  When it does not, <T> is a proper subset of M, and
      phi(<T>) is a proper subset of phi(M), since phi is injective.
    So the decision closes one subgroup of G and never F, encodes no triple
    outside T, and names only the oracle's own maps outside phi(M).
    """
    seeds = sorted({m.fiber_map for m in result.maps})
    triples = [action.decode(f) for f in seeds]
    discrepancies = tuple(f"oracle map {f} missing from the algebraic semigroup"
                          for f, x in zip(seeds, triples) if x is None)
    if not discrepancies:
        discrepancies = generation_shortfall(matrix, triples)
    return OracleComparison(not discrepancies, discrepancies, result, matrix.size)


def oracle_equivalence(sub: Substitution, matrix, action) -> OracleComparison:
    """Compare the semigroup that the oracle's maps generate with the
    algebraic fiber semigroup phi(M): equal, or a discrepancy list.

    ``matrix`` is the substitution sandwich M and ``action`` its action phi
    on the fiber, ``FiberAction(matrix, fiber)``, proved an injective
    homomorphism when it was built; they enter only the comparison, never
    the construction of the oracle's maps (the module docstring says why).
    """
    return _compare_with_action(limit_maps(sub), matrix, action)
