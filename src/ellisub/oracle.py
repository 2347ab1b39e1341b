"""Independent verification by actual shift dynamics on fixed-point windows.

The maps under test are built from nothing but the substitution rules: the
maps induced on the singular fiber by the shift powers sigma^(nu * L^k) are
read off the letters of the two-sided fixed points, which the rule letters
of the input theta determine.  Only the comparison step looks at the
algebra, and the construction of the maps never does.

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
has |G| elements, and its order names what the triples miss.  No map is
closed and no triple outside the oracle's is encoded.

The paper builds E^fib from limits of sigma^(n_k) along n_k -> 0 in the
l-adic factor; here n_k = nu * l^k.  That factor is the same for theta and
for its simplified power tau = theta^n, whose rule words have L = l^n
letters, so the oracle takes theta and n and never writes a word of tau.
For a simplified tau the map of sigma^(nu * L^k) does not depend on k
(Dekking, *The spectrum of dynamical systems arising from substitutions of
constant length*, 1978).  The fixed point x = a.b of tau satisfies
x[p*L + r] = tau(x[p])[r] for every integer p and 0 <= r < L, and its
boundary columns are the identity, so tau(y)[0] = y and tau(y)[L-1] = y for
every letter y.  So

    x[nu*L] = tau(x[nu])[0] = x[nu],
    x[nu*L - 1] = x[(nu-1)*L + (L-1)] = tau(x[nu-1])[L-1] = x[nu - 1],

and by induction x[nu*L^k] = x[nu] and x[nu*L^k - 1] = x[nu - 1] for every
k >= 0.  The two-letter word that sigma^(nu*L^k) puts over each fixed
point, and with it the induced fiber map, is the same at every level k.
For 0 < |nu| < L that word lies in the central block of x: x[p] = tau(b)[p]
for 0 <= p < L and x[p] = tau(a)[p + L] for -L <= p < 0.  The tests check
the collapse against maps read by base-L digit walks at levels 1 to 4.

The maps of sigma^nu and sigma^(nu - L) share a column pair.  For
0 < nu < L, with C_0, ..., C_(L-1) the columns of tau,

    sigma^nu puts x[nu-1] x[nu] = letters nu-1, nu of tau(b) over a.b,
    sigma^(nu-L) puts x[nu-L-1] x[nu-L] = letters nu-1, nu of tau(a) over it.

So the table T_nu, the fiber index of (C_(nu-1)(y), C_nu(y)) for each
letter y, gives both: the + map reads it at the right letter b of each
fixed point and the - map at the left letter a.  Equal tables give equal
maps, so the oracle keeps only the distinct tables, each once.

*The tables by recursion over theta's columns.*  Let theta have the columns
c_0, ..., c_(l-1), and let P_0, ..., P_(l^(k-1) - 1) be the columns of
theta^(k-1), P_0 = id for k = 1.  Since theta^k(y) = theta(theta^(k-1)(y)),
column q*l + r of theta^k is c_r P_q.  Write E_r(y) for the fiber index of
(c_(r-1)(y), c_r(y)), 1 <= r < l, and J for theta's junction map
(a, b) -> (c_(l-1)(a), c_0(b)) on fiber indices.  The table q*l + r of
theta^k reads the columns q*l + r - 1 and q*l + r:
- for r >= 1 they are c_(r-1) P_q and c_r P_q, so the table is E_r P_q;
- for r = 0 and q >= 1 they are c_(l-1) P_(q-1) and c_0 P_q, the junction
  of the word (P_(q-1)(y), P_q(y)), so the table is J T_q, with T_q the
  table q of theta^(k-1).
The distinct tables of theta^k are therefore E_r P over the distinct
columns P of theta^(k-1), and J T over the distinct tables T of level k-1.
The distinct columns of theta^k are c_r P in the same way.  There are at
most |G| of them for k <= n: column q*l^(n-k) of tau is c_0^(n-k) P_q for
P_q column q of theta^k, and tau's columns lie in the structure group G,
as its first column is the identity and its column quotients form the
R-set.  n - 1 steps over
sets give the tables of tau from theta's l - 1 tables E_r; for n = 1 no
step runs.  Every word read is a two-letter factor of theta^k, and theta^k
has theta's fiber (``pipeline.check_input`` proves it), so every table
lands in the fiber of theta, which the oracle computes itself, and J maps
that fiber into itself, as :func:`allowed_two_words` closes it under the
junction map.

*Simplified-ness from theta.*  The oracle needs tau simplified and checks
it from theta and n alone.  tau is simplified exactly when
1. theta is bijective: a column c_r P_q of tau takes no more values than
   c_r, and compositions of permutations are permutations;
2. c_0^n = c_(l-1)^n = id: tau's first column is c_0^n and its last
   c_(l-1)^n, by the column formula above;
3. J^n fixes every fiber word: tau's junction map is
   (a, b) -> (c_(l-1)^n(a), c_0^n(b)) = J^n(a, b) on the fiber that the two
   share;
4. theta's all-letters exponent is at most n: the rule words of tau are
   those of theta^n, and if every rule word of theta^e holds every letter,
   so does every rule word of theta^(e+1) = theta^e o theta.
Fact 3 follows from fact 2, and gives it back: a primitive substitution's
fiber has every letter as a left letter and as a right letter, so J^n = id
there says c_(l-1)^n = id and c_0^n = id.  The oracle checks facts 1 and 4,
then fact 3 by composing J n times on the fiber, and refuses any other
input as not simplified.  It checks on purpose what the pipeline
proved: the oracle is the independent witness and takes nothing from the
pipeline but theta and n.  It reads its own fiber too; its fiber indices are
what ``FiberAction.decode`` compares with the action's, which the pipeline
builds on its own fiber, so a wrong fiber there shows up as a discrepancy
rather than being taken on trust.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, NamedTuple

from .errors import ValidationError
from .perms import Perm, after, closure, compose, identity, inverse, is_perm
from .substitution import (Substitution, TwoWordFiber, _all_letters_exponent,
                           allowed_two_words, columns)


NOT_SIMPLIFIED = "the window oracle needs a simplified substitution"


def _fiber_indices(words: list[tuple[int, int]], index: dict[tuple[int, int], int]) -> Perm:
    """The fiber index of each two-letter word, refusing a word outside the
    fiber."""
    table = tuple(map(index.get, words))
    if None in table:
        word = words[table.index(None)]
        raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
    return table


def _fixed_point_reads(fiber: TwoWordFiber) -> tuple[Callable, Callable]:
    """Getters that read a letter table at the right letter b and at the left
    letter a of each fixed point a.b, built once for all tables."""
    return (after(tuple([b for _, b in fiber.pairs])),
            after(tuple([a for a, _ in fiber.pairs])))


class OracleResult(NamedTuple):
    """The fiber of theta and the distinct column-pair tables of tau =
    theta^n, sorted: each table names the map of some sigma^nu and of
    sigma^(nu - L), 0 < nu < L, the same at every level."""

    fiber: TwoWordFiber
    tables: tuple[Perm, ...]

    def map_pairs(self) -> list[tuple[Perm, Perm]]:
        """The + map and the - map of each table: the table read at the
        right letter and at the left letter of each fixed point."""
        read_right, read_left = _fixed_point_reads(self.fiber)
        return [(read_right(t), read_left(t)) for t in self.tables]


def limit_maps(sub: Substitution, n: int) -> OracleResult:
    """The distinct column-pair tables of tau = sub^n, from the rule letters
    of sub alone (the module docstring proves the recursion and the check).

    sub^n must be simplified: sub bijective, its all-letters exponent at
    most n and the nth power of its junction map the identity on the
    fiber.  E_r is the table of sub's column pair (c_(r-1), c_r) and J its
    junction map on the fiber; the tables of sub^k are E_r P for the
    distinct columns P of sub^(k-1) and J T for the tables T of sub^(k-1),
    and the last step builds no columns.  That is n - 1 steps over sets of at
    most (l - 1)|G| + |tables| tables, where reading tau takes L - 1 tables
    of s lookups.
    """
    cols = columns(sub)
    exponent = _all_letters_exponent(sub)
    if not all(map(is_perm, cols)) or exponent is None or exponent > n:
        raise ValidationError(NOT_SIMPLIFIED)
    fiber = allowed_two_words(sub)
    index = {p: k for k, p in enumerate(fiber.pairs)}
    pair_tables = [_fiber_indices(list(zip(cols[r - 1], cols[r])), index)
                   for r in range(1, sub.length)]
    junction = _fiber_indices([(cols[-1][a], cols[0][b]) for a, b in fiber.pairs], index)
    ident = power = identity(fiber.size)
    for _ in range(n):
        power = compose(junction, power)
    if power != ident:  # J^n moves a fiber word
        raise ValidationError(NOT_SIMPLIFIED)
    below, tables = set(cols), set(pair_tables)  # the columns and tables of sub
    for k in range(2, n + 1):  # the tables of sub^k, and its columns if a later step reads them
        tables = {compose(e, p) for p in below for e in pair_tables}.union(
            [compose(junction, t) for t in tables])
        if k < n:
            below = {compose(c, p) for p in below for c in cols}
    return OracleResult(fiber, tuple(sorted(tables)))


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
    seeds = sorted({f for pair in result.map_pairs() for f in pair})
    triples = [action.decode(f) for f in seeds]
    discrepancies = tuple(f"oracle map {f} missing from the algebraic semigroup"
                          for f, x in zip(seeds, triples) if x is None)
    if not discrepancies:
        discrepancies = generation_shortfall(matrix, triples)
    return OracleComparison(not discrepancies, discrepancies, result, matrix.size)


def oracle_equivalence(sub: Substitution, n: int, matrix, action) -> OracleComparison:
    """Compare the semigroup that the oracle's maps of sub^n generate with
    the algebraic fiber semigroup phi(M): equal, or a discrepancy list.

    ``matrix`` is the substitution sandwich M and ``action`` its action phi
    on the fiber, ``FiberAction(matrix, fiber)``, proved an injective
    homomorphism when it was built; they enter only the comparison, never
    the construction of the oracle's maps (the module docstring says why).
    """
    return _compare_with_action(limit_maps(sub, n), matrix, action)
