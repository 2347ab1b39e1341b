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
from dataclasses import dataclass

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .perms import (Perm, PermGroup, closure, compose, identity, inverse,
                    is_transitive)
from .semigroups import (FiberMap, GreenStructure, TransformationSemigroup,
                         green_structure, is_completely_simple, map_compose)
from .substitution import TwoWordFiber

PLUS, MINUS = 0, 1
SIGN_LABELS = ("+", "-")

ISO_SEARCH_GROUP_MAX = 120
ISO_SEARCH_DEGREE_MAX = 6


@dataclass(frozen=True)
class ReesElement:
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


def multiply(m: ReesMatrixSemigroup, x: ReesElement, y: ReesElement) -> ReesElement:
    middle = compose(compose(x.g, m.sandwich[x.lam][y.i]), y.g)
    return ReesElement(x.i, middle, y.lam)


def idempotents_of(m: ReesMatrixSemigroup) -> list[ReesElement]:
    """Exactly the triples (i, A[lam][i]^-1, lam); count |I|*|Lambda|."""
    return [ReesElement(i, inverse(m.sandwich[lam][i]), lam)
            for i in range(len(m.i_labels)) for lam in range(len(m.lam_labels))]


def normal_inverse(m: ReesMatrixSemigroup, x: ReesElement) -> ReesElement:
    a_inv = inverse(m.sandwich[x.lam][x.i])
    return ReesElement(x.i, compose(compose(a_inv, inverse(x.g)), a_inv), x.lam)


def substitution_sandwich(i_perms: list[Perm] | tuple[Perm, ...], g0: Perm) -> ReesMatrixSemigroup:
    """The two-row sandwich over G = <I>: plus row all identity, minus row
    g0 * g^-1 per column g.  Normalized w.r.t. the idempotent (g0, 1, +)."""
    i_perms = tuple(i_perms)
    if g0 not in i_perms:
        raise ValidationError("g0 must be one of the given permutations")
    group = closure(list(i_perms))
    if not is_transitive(group):
        raise ValidationError("the given permutations generate an intransitive group")
    ident = identity(group.degree)
    plus_row = tuple(ident for _ in i_perms)
    minus_row = tuple(compose(g0, inverse(g)) for g in i_perms)
    m = ReesMatrixSemigroup(group, i_perms, SIGN_LABELS, (plus_row, minus_row),
                            base=(i_perms.index(g0), PLUS))
    if not m.is_normalized():
        raise InternalCheckError("substitution sandwich failed its normalization check")
    return m


def rees_to_json(m: ReesMatrixSemigroup, letters: tuple[str, ...] | None = None) -> dict:
    """JSON form: structure group as generators plus order, index labels, and
    the sandwich matrix entry by entry (cycle notation)."""
    from .perms import cycle_string, is_perm

    def show_label(label) -> str:
        if isinstance(label, tuple):
            # permutation labels from substitution sandwiches render as
            # cycles, idempotent-map labels from decompositions as images
            if is_perm(label):
                return cycle_string(label, letters)
            return str(list(label))
        return str(label)

    return {
        "group": {
            "order": m.group.order,
            "generators": [cycle_string(g, letters) for g in m.group.generators],
        },
        "i_labels": [show_label(label) for label in m.i_labels],
        "lambda_labels": [show_label(label) for label in m.lam_labels],
        "sandwich": [[cycle_string(entry, letters) for entry in row] for row in m.sandwich],
        "base": list(m.base),
        "normalized": m.is_normalized(),
    }


def little_structure_group(m: ReesMatrixSemigroup) -> PermGroup:
    """Group generated by the sandwich entries of a normalized presentation."""
    if not m.is_normalized():
        raise ValidationError("little structure group is defined for normalized presentations")
    entries = [entry for row in m.sandwich for entry in row]
    return closure(entries, m.group.degree)


def _element_closure(m: ReesMatrixSemigroup, seeds: list[ReesElement]) -> set[ReesElement]:
    elements = set(seeds)
    frontier = list(seeds)
    while frontier:
        new = []
        for x in seeds:
            for y in frontier:
                for z in (multiply(m, x, y), multiply(m, y, x)):
                    if z not in elements:
                        elements.add(z)
                        new.append(z)
        frontier = new
    return elements


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


def gauge_renormalize(m: ReesMatrixSemigroup, row_factors: list[Perm],
                      col_factors: list[Perm]) -> tuple[ReesMatrixSemigroup, dict]:
    """Multiply row lam by u_lam on the left and column i by v_i on the right.

    Returns the gauged semigroup plus the induced isomorphism
    (i, g, lam) -> (i, v_i^-1 * g * u_lam^-1, lam), as a dict.
    """
    for f in list(row_factors) + list(col_factors):
        if f not in m.group:
            raise ValidationError("gauge factor outside the structure group")
    sandwich = tuple(
        tuple(compose(compose(row_factors[lam], m.sandwich[lam][i]), col_factors[i])
              for i in range(len(m.i_labels)))
        for lam in range(len(m.lam_labels)))
    gauged = ReesMatrixSemigroup(m.group, m.i_labels, m.lam_labels, sandwich, m.base)
    iso = {x: ReesElement(x.i, compose(compose(inverse(col_factors[x.i]), x.g),
                                       inverse(row_factors[x.lam])), x.lam)
           for x in m.elements()}
    for x in m.elements():
        for y in m.elements():
            if iso[multiply(m, x, y)] != multiply(gauged, iso[x], iso[y]):
                raise InternalCheckError("gauge transformation is not an isomorphism")
    return gauged, iso


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
    the bijection used to put the fiber semigroup into matrix form.
    """
    if m.lam_labels != SIGN_LABELS:
        raise ValidationError("fiber action requires a substitution sandwich with signs {+,-}")
    g0 = m.i_labels[m.base[0]]
    pair_index = {p: k for k, p in enumerate(fiber.pairs)}
    phi: dict[ReesElement, FiberMap] = {}
    for x in m.elements():
        i_perm = m.i_labels[x.i]
        if x.lam == PLUS:
            right = x.g
        else:
            right = compose(x.g, g0)
        left = compose(inverse(i_perm), right)
        images = []
        for (a, b) in fiber.pairs:
            src = b if x.lam == PLUS else a
            target = (left[src], right[src])
            if target not in pair_index:
                raise InternalCheckError(
                    f"fiber action left the fiber: {target} is not an allowed two-word")
            images.append(pair_index[target])
        phi[x] = tuple(images)
    maps = sorted(set(phi.values()))
    if len(maps) != m.size:
        raise InternalCheckError("fiber action is not faithful; distinct triples collided")
    sg = TransformationSemigroup(fiber.size, tuple(maps), tuple(maps))
    for f in maps:
        for h in maps:
            if map_compose(f, h) not in sg.index:
                raise InternalCheckError("fiber action image is not composition-closed")
    return sg, phi


def verify_rees_isomorphism(sg: TransformationSemigroup, m: ReesMatrixSemigroup,
                            phi: dict[ReesElement, FiberMap]) -> bool:
    """Exhaustive check that phi is a bijective homomorphism M -> sg."""
    elements = list(m.elements())
    if sorted(phi.keys(), key=lambda x: (x.i, x.g, x.lam)) != sorted(
            elements, key=lambda x: (x.i, x.g, x.lam)):
        return False
    images = set(phi.values())
    if len(images) != len(elements) or images != set(sg.elements):
        return False
    for x in elements:
        for y in elements:
            if phi[multiply(m, x, y)] != map_compose(phi[x], phi[y]):
                return False
    return True


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
    group = PermGroup(len(points), tuple(sorted(by_perm)), tuple(sorted(by_perm)))

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
