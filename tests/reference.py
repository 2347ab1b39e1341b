"""Reference computations that the tests compare the library against.

The library builds one construction: the Rees matrix M[G; I, {+,-}; A] and
its action phi on the fiber, encoded one map at a time and proved an
injective homomorphism from 2|I| letter identities.  The computations here
work on the maps themselves, or search where the library proves: the
reference phi, with all |S| maps written out and its product law checked
through the Rees factorization; Green's classes from Cayley graphs; the
normalized Rees form of a completely simple map semigroup; a capped
isomorphism search between presentations; closures of Rees triples and of
map sets; a walk search in G for whether Rees triples generate; primitivity
by boolean matrix powers; the R-set and the grading height read off a
written power; the window oracle's maps shift by shift, off the rule
words of a written power; digit walks into the fixed points and the
proximality classes of the fiber; the text report read off the JSON report.
It also holds the checks that no stage of the library calls: element
orders from cycle lengths, subgroup and normality tests, and whether a
written substitution is simplified.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from ellisub.errors import InternalCheckError, ResourceLimitError, ValidationError
from ellisub.oracle import OracleResult, limit_maps
from ellisub.perms import (Perm, PermGroup, _conjugates, _graded_walk, after, compose,
                           cycles, identity, inverse)
from ellisub.rees import (MINUS, PLUS, SIGN_LABELS, FiberAction, ReesElement,
                          ReesMatrixSemigroup)
from ellisub.report import report_to_json
from ellisub.semigroups import TransformationSemigroup
from ellisub.substitution import (Substitution, TwoWordFiber, _all_letters_exponent,
                                  allowed_two_words, columns, is_bijective, junction_map,
                                  substitution_power)

ISO_SEARCH_GROUP_MAX = 120
ISO_SEARCH_DEGREE_MAX = 6


# ---------------------------------------------------------------------------
# Rees matrix semigroups, element by element

def multiply(m: ReesMatrixSemigroup, x: ReesElement, y: ReesElement) -> ReesElement:
    middle = compose(compose(x.g, m.sandwich[x.lam][y.i]), y.g)
    return ReesElement(x.i, middle, y.lam)


def idempotents_of(m: ReesMatrixSemigroup) -> list[ReesElement]:
    """Exactly the triples (i, A[lam][i]^-1, lam); count |I|*|Lambda|."""
    return [ReesElement(i, inverse(m.sandwich[lam][i]), lam)
            for i in range(len(m.i_labels)) for lam in range(len(m.lam_labels))]


def rees_generators(m: ReesMatrixSemigroup) -> tuple[ReesElement, ...]:
    """A generating set X of M: with (i0, lam0) the base and a = A[lam0][i0],
    X holds

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
    """
    i0, lam0 = m.base
    ident = identity(m.group.degree)
    a_inv = inverse(m.sandwich[lam0][i0])
    gens = [ReesElement(i, ident, lam0) for i in range(len(m.i_labels))]
    gens += [ReesElement(i0, ident, lam) for lam in range(len(m.lam_labels)) if lam != lam0]
    gens += [ReesElement(i0, compose(s, a_inv), lam0) for s in m.group.generators]
    return tuple(dict.fromkeys(gens))


def _left_row(m: ReesMatrixSemigroup, x: ReesElement) -> list[Perm]:
    """x.g * A[x.lam][j] for every j: the product x (j, h, mu) is then
    (x.i, row[j] * h, mu), one composition instead of two."""
    g = x.g
    return [tuple([g[k] for k in entry]) for entry in m.sandwich[x.lam]]


def element_closure(m: ReesMatrixSemigroup, seeds: Sequence[ReesElement]) -> set[tuple]:
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


def walk_shortfall(m: ReesMatrixSemigroup, triples) -> tuple[str, ...]:
    """What keeps ``triples`` from generating ``m``, found by a walk search
    in G: the reference for ``oracle.generation_shortfall``, with its
    messages.

    The search walks the graph with an edge i -> lam of label g for each
    triple (i, g, lam) and an edge lam -> j of label A[lam][j], over the
    states (vertex, label) reachable from (i0, 1): at most |G| per vertex,
    and it stops as soon as column lam0 holds every label.  The triples
    generate M exactly when they meet every row and column and column lam0
    holds every label (Gray & Ruskuc, *Generating sets of completely
    0-simple semigroups*, 2005).
    """
    i0, lam0 = m.base
    n_i, n_lam = len(m.i_labels), len(m.lam_labels)
    rows_met, columns_met = {i for i, _, _ in triples}, {lam for _, _, lam in triples}
    unmet = tuple([f"no oracle map lies in row {i}" for i in range(n_i) if i not in rows_met]
                  + [f"no oracle map lies in column {m.lam_labels[lam]}"
                     for lam in range(n_lam) if lam not in columns_met])
    if unmet:
        return unmet
    order = m.group.order
    # each edge as (getter of its label, head): label h reaches h * label
    by_row: list[list[tuple]] = [[] for _ in range(n_i)]
    for i, g, lam in triples:
        by_row[i].append((after(g), lam))
    by_column = [[(after(entry), j) for j, entry in enumerate(row)] for row in m.sandwich]
    start = identity(m.group.degree)
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
            return ()
        frontier = []
        for lam, h in reached:
            for entry_after, j in by_column[lam]:
                label = entry_after(h)
                if label not in at_row[j]:
                    at_row[j].add(label)
                    frontier.append((j, label))
    return (f"the oracle's maps reach {len(at_column[lam0])} of the {order} labels "
            f"from row {i0} to column {m.lam_labels[lam0]}",)


def little_structure_group(m: ReesMatrixSemigroup) -> PermGroup:
    """Group generated by the sandwich entries of a normalized presentation."""
    if not m.is_normalized():
        raise ValidationError("little structure group is defined for normalized presentations")
    return generated_group([entry for row in m.sandwich for entry in row])


def idempotent_generated(m: ReesMatrixSemigroup) -> ReesMatrixSemigroup:
    """M[Gamma; I, Lambda; A] with Gamma the little structure group; checked
    against the actual closure of the idempotents, element by element."""
    gamma = little_structure_group(m)
    expected = {ReesElement(i, g, lam)
                for i in range(len(m.i_labels))
                for g in gamma.elements
                for lam in range(len(m.lam_labels))}
    if element_closure(m, idempotents_of(m)) != expected:
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
                    if not all(u_l in g2set for u_l in u):
                        continue
                    ok = True
                    for i in range(1, ni):
                        v[i] = compose(inverse(compose(u[0], a2[0][i])), phi1[0][i])
                        if v[i] not in g2set:
                            ok = False
                            break
                    if ok and all(phi1[lam][i] == compose(compose(u[lam], a2[lam][i]), v[i])
                                  for lam in range(nlam) for i in range(ni)):
                        return True
    return False


# ---------------------------------------------------------------------------
# the fiber action written out: the reference phi

GROUP_LAW, SANDWICH_RELATION, FACTORIZATION = "group law", "sandwich relation", "factorization"


def product_law_failure(m: ReesMatrixSemigroup,
                        phi: dict) -> tuple[str, ReesElement] | None:
    """The first of three product-law checks that ``phi`` fails, as
    (law, triple), or None when it passes all three.  With (i0, lam0) the
    base, a = A[lam0][i0] and theta(h) = phi(i0, h a^-1, lam0):

    * GROUP_LAW: theta(s g) = theta(s) theta(g) for every g in G and every
      generator s of G, along a breadth-first search from the identity;
    * SANDWICH_RELATION: phi(i0, 1, mu) phi(j, 1, lam0) = phi(i0, A[mu][j], lam0)
      for every mu and j;
    * FACTORIZATION: phi(j, h, mu) = phi(j, 1, lam0) theta(a^-1 h) phi(i0, 1, mu)
      for every triple.

    Together they make phi a homomorphism: every triple factors as
    (j, h, mu) = (j, 1, lam0)(i0, a^-1 h a^-1, lam0)(i0, 1, mu), so with
    L_j = phi(j, 1, lam0), R_mu = phi(i0, 1, mu), and x = (i, g, lam),
    y = (j, h, mu), by the factorization, the sandwich relation, the group
    law and the factorization again,

        phi(x) phi(y) = L_i theta(a^-1 g) R_lam L_j theta(a^-1 h) R_mu
                      = L_i theta(a^-1 g) theta(A[lam][j] a) theta(a^-1 h) R_mu
                      = L_i theta(a^-1 g A[lam][j] h) R_mu = phi(xy),

    where theta(s g) = theta(s) theta(g) for generators s extends to all of
    G by induction on the length of a word in the generators.  Raises
    InternalCheckError, naming the group law, when the search does not reach
    all of G, since then the generators of G fall short and the group law is
    not proved.  |G| * (number of generators) + |Lambda||I| + |Lambda||G| + |S|
    map compositions.
    """
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
            g_after, theta_g_after = after(g), after(theta[g])
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
            if phi[x] != compose(rights[mu], lefts[j]):
                return SANDWICH_RELATION, x

    for h in group.elements:
        theta_h = theta[compose(a_inv, h)]
        for mu in lam_range:
            middle_after = after(compose(theta_h, rights[mu]))
            for j in i_range:
                if phi[(j, h, mu)] != middle_after(lefts[j]):
                    return FACTORIZATION, ReesElement(j, h, mu)
    return None


def reference_action(m: ReesMatrixSemigroup, fiber: TwoWordFiber) -> dict[ReesElement, Perm]:
    """The fiber action phi of a substitution sandwich, all |S| maps written
    out: (i, g, +) sends a.b to L(b).R(b) and (i, g, -) to L(a).R(a), with
    R = g (resp. g g0) and L = i^-1 R.  Checks that the maps stay in the
    fiber and are distinct and that phi passes :func:`product_law_failure`,
    raising InternalCheckError naming the law and the triple."""
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
    phi: dict[ReesElement, Perm] = {}
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
    failure = product_law_failure(m, phi)
    if failure is not None:
        law, x = failure
        raise InternalCheckError(f"fiber action breaks the {law} at the triple {tuple(x)}",
                                 law=law, witness=x)
    return phi


def as_transformation_semigroup(m: ReesMatrixSemigroup,
                                fiber: TwoWordFiber) -> dict[ReesElement, Perm]:
    """phi written out by the library's own encoder, a dict from each of the
    |S| triples to its fiber map; ``--verify`` encodes only the maps it
    names (:class:`ellisub.rees.FiberAction`)."""
    action = FiberAction(m, fiber)
    return {x: action.encode(*x) for x in m.elements()}


# ---------------------------------------------------------------------------
# map semigroups

CLOSURE_CAP = 10**5


def semigroup_closure(gens: list[Perm] | tuple[Perm, ...],
                      degree: int | None = None) -> TransformationSemigroup:
    """Smallest composition-closed set of maps containing ``gens``.

    Right multiplication by the generators suffices: g1 g2 ... gk is reached
    from g1 in k - 1 steps, so the cost is |S| * |gens| compositions, one
    getter call each, with each distinct generator walked once.  Raises
    ResourceLimitError past ``CLOSURE_CAP`` elements.
    """
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    if not gens and degree is None:
        raise ValidationError("closure of an empty generator list needs an explicit degree")
    if degree is None:
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValidationError(f"map acts on {len(g)} points, expected {degree}")
        if any(not 0 <= v < degree for v in g):
            raise ValidationError(f"map {g} has out-of-range images")
    elements = set(gens)
    frontier = list(elements)
    getters = [after(g) for g in gens]
    while frontier:
        new = []
        for g_after in getters:
            for y in map(g_after, frontier):
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > CLOSURE_CAP:
                        raise ResourceLimitError(
                            f"semigroup closure exceeded cap of {CLOSURE_CAP} elements")
        frontier = new
    return TransformationSemigroup(degree, tuple(sorted(elements)), tuple(sorted(gens)))


def oracle_maps(result: OracleResult) -> list[Perm]:
    """The window oracle's distinct maps, sorted: the + and the - map of
    each of its tables."""
    return sorted({f for pair in result.map_pairs() for f in pair})


def oracle_closure(result: OracleResult) -> TransformationSemigroup:
    """The closure of the window oracle's maps, generated by the sorted
    distinct maps."""
    return semigroup_closure(oracle_maps(result), degree=result.fiber.size)


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


def image_semigroup(m: ReesMatrixSemigroup, phi: dict) -> TransformationSemigroup:
    """The image of phi as a map semigroup, generated by the images of
    :func:`rees_generators`: closed under composition when phi is a
    homomorphism."""
    degree = len(next(iter(phi.values())))
    return TransformationSemigroup(degree, tuple(sorted(set(phi.values()))),
                                   tuple(sorted({phi[x] for x in rees_generators(m)})))


def fiber_semigroup(m: ReesMatrixSemigroup,
                    fiber: TwoWordFiber) -> tuple[TransformationSemigroup, dict]:
    """The fiber maps of a substitution sandwich as a map semigroup, and the
    reference phi."""
    phi = reference_action(m, fiber)
    return image_semigroup(m, phi), phi


def left_regular_action(m: ReesMatrixSemigroup) -> tuple[TransformationSemigroup, dict]:
    """x -> (y -> xy, 1 -> x) on the points M u {1}, built with multiply: a
    faithful representation that knows nothing of Rees's theorem."""
    elements = list(m.elements())
    index = {x: k for k, x in enumerate(elements)}
    phi = {x: tuple(index[multiply(m, x, y)] for y in elements) + (index[x],)
           for x in elements}
    return image_semigroup(m, phi), phi


def mul(sg: TransformationSemigroup, i: int, j: int) -> int:
    return sg.index[compose(sg.elements[i], sg.elements[j])]


def idempotent_indices(sg: TransformationSemigroup) -> list[int]:
    return [i for i in range(sg.size) if mul(sg, i, i) == i]


def verify_rees_isomorphism(sg: TransformationSemigroup, m: ReesMatrixSemigroup,
                            phi: dict[ReesElement, Perm]) -> bool:
    """Whether phi is a bijective homomorphism of M onto sg: bijective onto
    the maps of sg, and through :func:`product_law_failure`.  Raises
    InternalCheckError when the generators of G do not reach all of G."""
    if phi.keys() != set(m.elements()):
        return False
    images = set(phi.values())
    if len(images) != m.size or images != set(sg.elements):
        return False
    return product_law_failure(m, phi) is None


@dataclass(frozen=True)
class GreenStructure:
    """Partitions of element indices by Green's relations, plus idempotents
    and the kernel (minimal two-sided ideal)."""

    l_classes: tuple[tuple[int, ...], ...]
    r_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    d_classes: tuple[tuple[int, ...], ...]
    idempotents: tuple[int, ...]
    kernel: tuple[int, ...]

    def summary(self) -> dict:
        """The reported shape, counted from the classes themselves: per
        relation the class count and the count of each class size, then the
        idempotent count and the kernel size."""
        def shape(classes):
            sizes = Counter(len(c) for c in classes)
            return {"count": len(classes),
                    "sizes": {str(k): v for k, v in sorted(sizes.items())}}
        return {
            "l_classes": shape(self.l_classes),
            "r_classes": shape(self.r_classes),
            "h_classes": shape(self.h_classes),
            "d_classes": shape(self.d_classes),
            "idempotents": len(self.idempotents),
            "kernel_size": len(self.kernel),
        }


def _components(edges: list[list[int]]) -> list[int]:
    """Strongly connected component of every vertex of a directed graph
    given by successor lists (iterative Tarjan)."""
    n = len(edges)
    order = [-1] * n
    low = [0] * n
    component = [-1] * n
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            if k < len(edges[v]):
                work[-1] = (v, k + 1)
                w = edges[v][k]
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, 0))
                elif component[w] == -1:  # w is still on the stack
                    low[v] = min(low[v], order[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == order[v]:
                while True:
                    w = stack.pop()
                    component[w] = count
                    if w == v:
                        break
                count += 1
    return component


def _partition(labels) -> tuple[tuple[int, ...], ...]:
    """Indices grouped by equal label: each class ascending, classes sorted."""
    buckets: dict[object, list[int]] = {}
    for i, label in enumerate(labels):
        buckets.setdefault(label, []).append(i)
    return tuple(tuple(b) for b in sorted(buckets.values()))


def green_structure(sg: TransformationSemigroup) -> GreenStructure:
    """Green's classes, idempotents and kernel from the Cayley graphs over
    ``sg.generators`` (East, Egri-Nagy, Mitchell & Peresse, *Computing finite
    semigroups*, 2019).

    Along right edges x -> x g the vertices reachable from x are x S^1, so
    R-classes are the strongly connected components of the right Cayley
    graph; L-classes are those of the left graph (x -> g x), and the
    components of the two-sided graph are the J-classes, which equal the
    D-classes in a finite semigroup.  The kernel is the unique J-class that
    no edge leaves.  This is exact for every finite semigroup, regular or
    not, once the generators generate it, which is checked: every element
    must be reachable from a generator along right edges.
    """
    n = sg.size
    index, elements = sg.index, sg.elements
    gens = [index[g] for g in sg.generators]
    right = [[index[compose(x, elements[g])] for g in gens] for x in elements]
    left = [[index[compose(elements[g], x)] for g in gens] for x in elements]

    reached = set(gens)
    frontier = list(reached)
    while frontier:
        frontier = {y for x in frontier for y in right[x]} - reached
        reached.update(frontier)
    if len(reached) != n:
        raise InternalCheckError(
            f"the {len(gens)} generators reach {len(reached)} of {n} elements")

    r_labels = _components(right)
    l_labels = _components(left)
    both = [right[i] + left[i] for i in range(n)]
    j_labels = _components(both)
    leaving = {j_labels[i] for i in range(n) for k in both[i] if j_labels[k] != j_labels[i]}
    sinks = set(j_labels) - leaving
    if len(sinks) != 1:
        raise InternalCheckError(
            f"finite semigroup with {len(sinks)} minimal ideals; ideal computation is broken")
    [sink] = sinks
    return GreenStructure(
        l_classes=_partition(l_labels),
        r_classes=_partition(r_labels),
        h_classes=_partition(list(zip(l_labels, r_labels))),
        d_classes=_partition(j_labels),
        idempotents=tuple(idempotent_indices(sg)),
        kernel=tuple(i for i in range(n) if j_labels[i] == sink))


def is_completely_simple(sg: TransformationSemigroup,
                         green: GreenStructure | None = None) -> bool:
    """Finite case: simple (kernel is everything) plus an idempotent."""
    green = green or green_structure(sg)
    return len(green.kernel) == sg.size and bool(green.idempotents)


@dataclass
class ReesDecomposition:
    matrix: ReesMatrixSemigroup
    embedding: dict[ReesElement, Perm]
    point_order: tuple[int, ...]  # image of e, as fiber indices; G permutes positions


def rees_decomposition(sg: TransformationSemigroup, e: Perm,
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
    if e not in sg.index or not compose(e, e) == e:
        raise ValidationError("the chosen element is not an idempotent of the semigroup")
    e_idx = sg.index[e]
    idem = set(green.idempotents)

    def class_of(classes, idx):
        return next(frozenset(c) for c in classes if idx in c)

    r0 = class_of(green.r_classes, e_idx)
    l0 = class_of(green.l_classes, e_idx)

    def unique_idempotent(h_class: frozenset[int]) -> Perm:
        found = [i for i in h_class if i in idem]
        if len(found) != 1:
            raise InternalCheckError("H-class of a completely simple semigroup must "
                                     f"contain exactly one idempotent, found {len(found)}")
        return sg.elements[found[0]]

    # r_i: idempotent of (R-class i) intersect (L-class of e); q_lam dually
    r_reps = sorted(unique_idempotent(frozenset(c) & l0) for c in green.r_classes)
    q_reps = sorted(unique_idempotent(frozenset(c) & r0) for c in green.l_classes)
    i0, lam0 = r_reps.index(e), q_reps.index(e)

    points = tuple(sorted(set(e)))
    position = {p: k for k, p in enumerate(points)}

    def restrict(f: Perm) -> Perm:
        images = tuple(position[f[p]] for p in points)
        if sorted(images) != list(range(len(points))):
            raise InternalCheckError("H-class element does not permute the image of e")
        return images

    h_elements = [sg.elements[i] for i in sorted(r0 & l0)]
    perm_of = {f: restrict(f) for f in h_elements}
    if len(set(perm_of.values())) != len(h_elements):
        raise InternalCheckError("H-class of e does not act faithfully on the image of e")
    by_perm = {p: f for f, p in perm_of.items()}
    # a few generators, each outside the group of those before it
    gens: list[Perm] = []
    group = generated_group([identity(len(points))])
    for p in sorted(by_perm):
        if p not in group:
            gens.append(p)
            group = generated_group(gens)
    if group.element_set != by_perm.keys():
        raise InternalCheckError("H-class of e is not closed under composition")

    sandwich = tuple(tuple(perm_of[compose(q, r)] for r in r_reps) for q in q_reps)
    matrix = ReesMatrixSemigroup(group, tuple(r_reps), tuple(q_reps), sandwich,
                                 base=(i0, lam0))
    if not matrix.is_normalized():
        raise InternalCheckError("normalized decomposition has a non-identity base row/column")
    embedding = {x: compose(compose(r_reps[x.i], by_perm[x.g]), q_reps[x.lam])
                 for x in matrix.elements()}
    if not verify_rees_isomorphism(sg, matrix, embedding):
        raise InternalCheckError("Rees decomposition embedding failed its product check")
    return ReesDecomposition(matrix, embedding, points)


# ---------------------------------------------------------------------------
# groups

def generated_group(gens) -> PermGroup:
    """The group that a non-empty ``gens`` generates, listed by one walk from
    the identity, as :func:`ellisub.pipeline.structure_group` lists G:
    the reference that closures inside a group are checked against.
    ``[identity(n)]`` gives the trivial group on n points."""
    gens = sorted(set(map(tuple, gens)))
    levels, _ = _graded_walk(identity(len(gens[0])), [after(g) for g in gens])
    return PermGroup(len(gens[0]), tuple(gens), tuple(sorted(levels)))


def element_order(p: Perm) -> int:
    """Least n >= 1 with p^n = id (lcm of cycle lengths)."""
    return lcm(*[len(c) for c in cycles(p)]) if p else 1


def is_subgroup_of(sub: PermGroup, other: PermGroup) -> bool:
    return sub.degree == other.degree and sub.element_set <= other.element_set


def is_normal(sub: PermGroup, ambient: PermGroup) -> bool:
    """Whether ``sub`` is a normal subgroup of ``ambient``.  A subgroup with
    as many elements as ``ambient`` is ``ambient``, normal in itself;
    otherwise each conjugate of an element of ``sub`` by a generator of
    ``ambient`` must lie in ``sub``."""
    if not is_subgroup_of(sub, ambient):
        return False
    if sub.order == ambient.order:
        return True
    elems = sub.element_set
    return all(c in elems for c in _conjugates(sub.elements, ambient.generators))


def quotient_data(group: PermGroup, normal: PermGroup) -> tuple[int, bool]:
    """(order, is_cyclic) of group/normal; normality is verified, not assumed."""
    if not is_subgroup_of(normal, group):
        raise ValidationError("quotient: not a subgroup")
    if not is_normal(normal, group):
        raise ValidationError("quotient: subgroup is not normal")
    nset = normal.element_set
    cosets: dict[frozenset[Perm], Perm] = {}
    for g in group.elements:
        cosets.setdefault(frozenset(compose(g, x) for x in nset), g)
    order = len(cosets)
    assert order * normal.order == group.order
    for rep in cosets.values():
        seen = set()
        g = identity(group.degree)
        for _ in range(order):
            seen.add(frozenset(compose(g, x) for x in nset))
            g = compose(rep, g)
        if len(seen) == order:
            return order, True
    return order, False


# ---------------------------------------------------------------------------
# the stages on the written power

def written_power(checked) -> Substitution:
    """tau = theta^n written out, for a ``CheckedPower`` of theta: the power
    whose rules the JSON report prints, and which no stage writes."""
    return substitution_power(checked.original, checked.exponent)


def is_simplified(sub: Substitution, fiber: TwoWordFiber | None = None) -> bool:
    """Both simplified conditions on a written substitution: boundary
    columns are the identity, every junction orbit is a fixed point, and
    every rule word contains every letter, that is, the all-letters exponent
    is 1, so sub is primitive.  ``fiber`` is ``allowed_two_words(sub)``,
    when the caller already holds it."""
    if not is_bijective(sub):
        return False
    cols = columns(sub)
    ident = identity(sub.size)
    if cols[0] != ident or cols[-1] != ident or _all_letters_exponent(sub) != 1:
        return False
    if fiber is None:
        fiber = allowed_two_words(sub)
    return all(junction_map(sub, p) == p for p in fiber.pairs)


def written_r_set(power: Substitution) -> tuple[Perm, ...]:
    """The R-set read off a written simplified power: its L - 1
    successive-column quotients, deduplicated and sorted."""
    cols = columns(power)
    return tuple(sorted({compose(cols[i], inverse(cols[i - 1])) for i in range(1, len(cols))}))


def grading_height_full_scan(sub: Substitution) -> int:
    """The classical height by the letter grading, trying every divisor of
    l - 1 found by scanning range(1, l), largest first."""
    length = sub.length
    for n in sorted((d for d in range(1, length) if (length - 1) % d == 0), reverse=True):
        grading: dict[int, int] = {0: 0}
        queue = [0]
        consistent = True
        while queue and consistent:
            a = queue.pop()
            for j, b in enumerate(sub.rules[a]):
                value = (grading[a] + j) % n
                if b in grading:
                    if grading[b] != value:
                        consistent = False
                        break
                else:
                    grading[b] = value
                    queue.append(b)
        if consistent and len(grading) == sub.size:
            return n
    return 1


# ---------------------------------------------------------------------------
# primitivity

def occurrence_matrix_exponent(sub: Substitution) -> int | None:
    """The least k whose boolean power of the letter-occurrence matrix is all
    true, so that every rule word of sub^k holds every letter, or None when
    none is by the Wielandt bound (s-1)^2 + 1: O(s^3) per power."""
    s = sub.size
    occurs = [[False] * s for _ in range(s)]
    for a in range(s):
        for x in sub.rules[a]:
            occurs[a][x] = True
    reach = [row[:] for row in occurs]
    for k in range(1, (s - 1) ** 2 + 2):
        if all(all(row) for row in reach):
            return k
        reach = [[any(reach[a][j] and occurs[j][b] for j in range(s)) for b in range(s)]
                 for a in range(s)]
    return None


# ---------------------------------------------------------------------------
# the fixed points, letter by letter

def letter_at(sub: Substitution, pair: tuple[int, int], position: int) -> int:
    """Letter of the fixed point a.b at an arbitrary position.

    The fixed point satisfies x[p] = rule(x[p // l])[p mod l] with x[0] = b
    and x[-1] = a, so a position is resolved by walking its base-l digits;
    no window is materialized.
    """
    a, b = pair
    rules = sub.rules
    length = len(rules[0])
    digits = []
    p = position
    if p >= 0:
        while p > 0:
            digits.append(p % length)
            p //= length
        x = b
    else:
        while p != -1:
            digits.append(p % length)
            p //= length  # floor division keeps the walk on the left side
        x = a
    for d in reversed(digits):
        x = rules[x][d]
    return x


def induced_fiber_map(sub: Substitution, fiber: TwoWordFiber, nu: int,
                      level: int) -> Perm:
    """Self-map of the fiber induced by sigma^(nu * l^level): each fixed point
    goes to the fixed point named by its shifted two-letter word, read by
    digit walks."""
    index = {p: k for k, p in enumerate(fiber.pairs)}
    shift = nu * sub.length**level
    words = [(letter_at(sub, pair, shift - 1), letter_at(sub, pair, shift))
             for pair in fiber.pairs]
    for word in words:
        if word not in index:
            raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
    return tuple(index[word] for word in words)


class ShiftMap(NamedTuple):
    """The map of sigma^(nu * l^k) on the fiber, the same for every k."""

    nu: int
    fiber_map: Perm


class ShiftMaps(NamedTuple):
    fiber: TwoWordFiber
    maps: tuple[ShiftMap, ...]


def written_limit_maps(sub: Substitution) -> ShiftMaps:
    """The window oracle's maps shift by shift, read off the rule words of a
    written simplified substitution: the maps of sigma^(nu * l^k) for
    0 < |nu| < l, in the order 1, ..., l-1, 1-l, ..., -1.

    For 0 < nu < l, sigma^nu puts letters nu-1 and nu of rule(b) over a.b,
    and sigma^(nu - l) puts letters nu-1 and nu of rule(a) over it, so both
    maps read the table of the column pair (c_(nu-1), c_nu), at b and at a:
    l - 1 tables of s lookups.  ``ellisub.oracle.limit_maps`` builds the
    distinct tables from the columns of the input instead, without the
    written power."""
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
    if not is_simplified(sub, fiber):
        raise ValidationError("the window oracle needs a simplified substitution")
    index = {p: k for k, p in enumerate(fiber.pairs)}
    cols, length = columns(sub), sub.length
    read_right = after(tuple([b for _, b in fiber.pairs]))
    read_left = after(tuple([a for a, _ in fiber.pairs]))
    plus, minus = [], []
    for nu in range(1, length):
        words = list(zip(cols[nu - 1], cols[nu]))
        missing = [w for w in words if w not in index]
        if missing:
            raise ValidationError(f"shifted two-word {missing[0]} is not an allowed two-word")
        table = [index[w] for w in words]
        plus.append(ShiftMap(nu, read_right(table)))
        minus.append(ShiftMap(nu - length, read_left(table)))
    return ShiftMaps(fiber, tuple(plus + minus))


@dataclass
class ProximalityData:
    fiber: TwoWordFiber
    forward: tuple[tuple[int, ...], ...]   # fiber indices grouped by right letter
    backward: tuple[tuple[int, ...], ...]  # grouped by left letter


def proximality_classes(sub: Substitution) -> ProximalityData:
    """Forward classes group fixed points by right letter, backward by left.

    The Ellis-proximality link is verified against the oracle's own maps:
    every stabilized map depends only on the right letter (then it merges
    exactly the forward classes) or only on the left letter (backward), and
    when the fiber is strictly larger than the alphabet both partitions
    contain a merged pair.
    """
    if not is_simplified(sub):
        raise ValidationError("proximality classes need a simplified substitution")
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub

    def group_by(side: int) -> tuple[tuple[int, ...], ...]:
        buckets: dict[int, list[int]] = {}
        for k, pair in enumerate(fiber.pairs):
            buckets.setdefault(pair[side], []).append(k)
        return tuple(tuple(v) for _, v in sorted(buckets.items()))

    data = ProximalityData(fiber, forward=group_by(1), backward=group_by(0))
    n = fiber.size

    def merged_pairs(f) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x in range(n) for y in range(x + 1, n) if f[x] == f[y])
    classes = {frozenset((x, y) for c in side for x in c for y in c if x < y)
               for side in (data.forward, data.backward)}
    for f in oracle_closure(limit_maps(sub, 1)).elements:
        # a stabilized map reads one side of the fixed point, so it must merge
        # exactly one of the two partitions
        if merged_pairs(f) not in classes:
            raise ValidationError(
                f"map {f} merges {sorted(merged_pairs(f))}, matching neither proximality partition")
    if n > sub.size:
        if all(len(c) == 1 for c in data.forward) or all(len(c) == 1 for c in data.backward):
            raise ValidationError("expected non-trivial forward and backward proximality")
    return data


# ---------------------------------------------------------------------------
# the text report, field by field from the JSON report

def text_report(report) -> str:
    """The text report of ``report`` read off ``report_to_json(report)``:
    each line prints the JSON fields it names, and the degree distribution
    counts the rows of the degree table."""
    d = report_to_json(report)
    letters = "".join(d["substitution"]["alphabet"])
    lines = []
    lines.append(f"substitution over {{{letters}}}, analyzed power: {d['analyzed_power']} "
                 f"(length {d['original_length']} -> {d['length']})")
    lines.append(f"normalization g0 = {d['g0']['cycles']} (R-set index {d['g0']['index']})")
    lines.append("")
    lines.append("R-set: " + ", ".join(entry["cycles"] for entry in d["r_set"]))

    def describe(key, label):
        g = d[key]
        name = g["name"] or "unrecognized"
        return f"{label}: order {g['order']} ({name})"

    lines.append(describe("structure_group", "structure group"))
    lines.append(describe("little_group", "little structure group"))
    lines.append(describe("normal_completion", "normal completion"))
    lines.append(f"generalized height: {d['height']}    classical height: {d['classical_height']}")
    lines.append(f"minimal fiber rank: {d['r_pi']}    singular fiber size: {d['fiber_size']}")
    lines.append("fiber two-words: " + ", ".join(d["fiber"]))
    lines.append("")
    lines.append("sandwich matrix (rows +,-):")
    for sign, row in zip(SIGN_LABELS, d["sandwich_matrix"]):
        lines.append(f"  {sign}: [" + ", ".join(row) + "]")
    green = d["green"]
    lines.append(f"structural semigroup: {d['semigroup_size']} elements, "
                 f"{green['idempotents']} idempotents")
    lines.append(f"  minimal left ideals: {green['l_classes']['count']} "
                 f"of sizes {green['l_classes']['sizes']}")
    lines.append(f"  minimal right ideals: {green['r_classes']['count']} "
                 f"of sizes {green['r_classes']['sizes']}")
    lines.append(f"  H-classes: {green['h_classes']['count']} of sizes {green['h_classes']['sizes']}")
    degrees = Counter(row["degree"] for row in d["degree_table"])
    lines.append("degree distribution: " + ", ".join(
        f"{count} elements of degree {deg}" for deg, count in sorted(degrees.items())))
    lines.append("")
    lines.append(describe("aut_fib", "fiber-preserving automorphisms"))
    lines.append(f"automorphism group: {d['aut_fib']['name'] or 'C'} x Z")
    lines.append(f"virtual automorphism group: {d['virtual_aut']} (semi-regular: "
                 f"{str(d['semi_regular']).lower()})")
    if d["order_h_witness"] is not None:
        lines.append(f"order-h witness: {d['order_h_witness']}")
    lines.append("")
    lines.append("global structure:")
    for key, value in d["global_strings"].items():
        lines.append(f"  {key}: {value}")
    if d["unresolved_extension"]:
        lines.append("  note: generalized height exceeds classical height; "
                     "the defining extension is not known to split")
    lines.append(f"aperiodicity: {d['aperiodicity']['kind']}")
    if d["oracle"] is not None:
        o = d["oracle"]
        verdict = "agrees with" if o["equal"] else "DISAGREES with"
        lines.append(f"window oracle: {o['map_count']} stabilized maps, {verdict} "
                     "the algebraic semigroup")
        for item in o["discrepancies"]:
            lines.append(f"  discrepancy: {item}")
    return "\n".join(lines) + "\n"
