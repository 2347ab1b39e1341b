"""From a simplified bijective substitution to the full structural picture:
R-set, structure group, little structure group and its normal completion,
generalized and classical heights, the fiber semigroup and its normalized
Rees matrix form, the degree grading, automorphism data, and the symbolic
description of the whole Ellis semigroup.

The cross-checks baked into this module are not optional: the fiber action is
rebuilt from the matrix presentation and compared, the matrix presentation is
re-derived from the raw fiber semigroup by Rees decomposition, consecutive
column pairs of the second and third powers are compared against the one-step
closure, the classical height is recomputed from return times of the fixed
point, and the grading is verified to be a morphism.  Any mismatch raises
InternalCheckError rather than producing a report.

No check writes out a power of the substitution.  Column k*l + j of sub^n is
column j of sub after column k of sub^(n-1), and the boundary columns of a
simplified substitution are the identity, so the distinct columns and the
distinct consecutive column pairs of sub^n follow from the distinct columns
of sub^(n-1) by one composition with the distinct level-one columns and
pairs; the return times of the first letter follow level by level in the same
way.  Sets of distinct columns stay inside the structure group, so these
checks cost a multiple of |G| rather than of l^n.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import gcd

from .errors import InternalCheckError, ValidationError
from .oracle import OracleComparison, oracle_equivalence
from .perms import (Perm, PermGroup, centralizer_in_symmetric, closure,
                    compose, element_order, group_name, identity, inverse,
                    is_transitive, normal_closure, quotient_data)
from .rees import (MINUS, PLUS, ReesDecomposition, ReesElement,
                   ReesMatrixSemigroup, as_transformation_semigroup,
                   idempotents_of, multiply, presentations_isomorphic,
                   rees_decomposition, verify_rees_isomorphism)
from .semigroups import (FiberMap, GreenStructure, TransformationSemigroup,
                         green_structure, is_completely_simple, map_compose)
from .substitution import (LETTER_LIMIT, Alphabet, AperiodicityVerdict,
                           Substitution, TwoWordFiber, columns, fixed_points,
                           is_aperiodic, is_bijective, is_primitive,
                           is_simplified, simplify)

ColumnPair = tuple[Perm, Perm]
SignedPair = tuple[Perm, Perm, int]  # (L, R, sign)


def r_set(sub: Substitution) -> tuple[Perm, ...]:
    """Deduplicated successive-column quotients of a simplified substitution,
    in canonical (lexicographic) order.  These label the minimal right ideals."""
    if not is_bijective(sub):
        raise ValidationError("the R-set needs a bijective substitution")
    if not is_simplified(sub):
        raise ValidationError("the R-set is read off level one only for simplified substitutions")
    cols = columns(sub)
    quotients = {compose(cols[i], inverse(cols[i - 1])) for i in range(1, len(cols))}
    return tuple(sorted(quotients))


def structure_group(sub: Substitution) -> PermGroup:
    group = closure(list(r_set(sub)), sub.size)
    if is_primitive(sub) and not is_transitive(group):
        raise InternalCheckError("structure group of a primitive substitution must be transitive")
    return group


@dataclass(frozen=True)
class Heights:
    height: int
    classical_height: int
    little_group: PermGroup
    normal_completion: PermGroup


def _classical_height_by_grading(sub: Substitution) -> int:
    """Largest divisor n of l-1 admitting letter classes c with
    c(column_j(a)) = c(a) + j mod n; found by constraint propagation."""
    length = sub.length
    candidates = sorted((d for d in range(1, length) if (length - 1) % d == 0), reverse=True)
    for n in candidates:
        if n == 1:
            return 1
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


def return_time_gcd(sub: Substitution, level: int) -> int:
    """gcd of the positions of letter 0 in sigma^n(0): for a simplified
    substitution, the level-n prefix of the one-sided fixed point that starts
    with letter 0.

    The prefix is never written out.  Per letter b the recursion carries
    (r_b, d_b): one position of b in sigma^m(0) and the gcd of the differences
    of all positions of b from it.  Position q*l + j of sigma^(m+1)(0) holds
    letter j of the rule of the letter at q, so the first (b, j) that reaches c
    sets r_c = r_b*l + j and d_c = l*d_b, and each later one sets
    d_c = gcd(d_c, l*d_b, r_b*l + j - r_c).  The answer is gcd(r_0, d_0);
    the cost is O(n*s*l) and the result exact.
    """
    if level < 1:
        raise ValidationError("prefix level must be >= 1")
    length = sub.length
    positions = {0: (0, 0)}  # letter -> (r, d) in sigma^0(0) = "0"
    for _ in range(level):
        nxt: dict[int, tuple[int, int]] = {}
        for b, (r, d) in positions.items():
            for j, c in enumerate(sub.rules[b]):
                p = r * length + j
                if c in nxt:
                    rc, dc = nxt[c]
                    nxt[c] = (rc, gcd(dc, length * d, p - rc))
                else:
                    nxt[c] = (p, length * d)
        positions = nxt
    return gcd(*positions[0])


def classical_height_bruteforce(sub: Substitution, prefix_level: int = 3) -> int:
    """Independent oracle: the gcd of the return times of the first letter
    in sigma^n(0) (:func:`return_time_gcd`), then its largest divisor coprime
    to the length."""
    if not is_simplified(sub):
        raise ValidationError("classical height brute force needs a simplified substitution")
    g = return_time_gcd(sub, prefix_level)
    if g == 0:
        raise InternalCheckError("a simplified substitution must return to its first letter")
    for d in sorted((d for d in range(1, g + 1) if g % d == 0), reverse=True):
        if gcd(d, sub.length) == 1:
            return d
    return 1


def heights(sub: Substitution) -> Heights:
    """Little structure group, its normal completion, and both heights.

    The generalized height is the order of the (necessarily cyclic) quotient
    of the structure group by the normal completion; the classical height
    comes from the letter grading and must divide it.
    """
    group = structure_group(sub)
    rset = r_set(sub)
    little = closure([compose(g, inverse(h)) for g in rset for h in rset], sub.size)
    completion = normal_closure(little.elements, group)
    order, cyclic = quotient_data(group, completion)
    if not cyclic:
        raise InternalCheckError("quotient by the normal completion must be cyclic")
    classical = _classical_height_by_grading(sub)
    length = sub.length
    if (length - 1) % order != 0 or (length - 1) % classical != 0 or order % classical != 0:
        raise InternalCheckError(
            f"height invariants violated: h={order}, h_cl={classical}, l-1={length - 1}")
    completion_set = completion.element_set
    cosets = {frozenset(compose(g, x) for x in completion_set) for g in rset}
    if len(cosets) != 1:
        raise InternalCheckError("R-set elements must share a single coset of the normal completion")
    return Heights(order, classical, little, completion)


def column_levels(sub: Substitution
                  ) -> Iterator[tuple[frozenset[Perm], frozenset[ColumnPair]]]:
    """The distinct columns and the distinct consecutive column pairs of
    sub^n, for n = 1, 2, 3, ... in turn, without writing out sub^n.

    Column k*l + j of sub^n is column c_j of sub after column P_k of
    sub^(n-1), so cols(n) = {cP : c in cols(1), P in cols(n-1)}, and the
    pairs inside block k are (aP_k, bP_k) for (a, b) in pairs(1).  Since
    c_0 = c_(l-1) = id, the pair across a block boundary, (P_(k-1), P_k), is
    a consecutive pair of sub^(n-1).  With id in cols(1), cols(n-2) lies in
    cols(n-1), so those pairs are among the block pairs already, and
    pairs(n) = {(aP, bP) : (a, b) in pairs(1), P in cols(n-1)}.
    """
    cols = columns(sub)
    ident = identity(sub.size)
    if cols[0] != ident or cols[-1] != ident:
        raise ValidationError("the column recursion needs identity boundary columns")
    base_cols = frozenset(cols)
    base_pairs = frozenset(zip(cols, cols[1:]))
    level_cols, level_pairs = base_cols, base_pairs
    while True:
        yield level_cols, level_pairs
        level_pairs = frozenset((compose(a, p), compose(b, p))
                                for a, b in base_pairs for p in level_cols)
        level_cols = frozenset(compose(c, p) for c in base_cols for p in level_cols)


def _translates(pairs: Iterable[ColumnPair], group: PermGroup) -> set[ColumnPair]:
    """{(a g, b g) : (a, b) in pairs, g in G}."""
    return {(compose(a, g), compose(b, g)) for a, b in pairs for g in group.elements}


def gtwo_pairs(sub: Substitution) -> tuple[ColumnPair, ...]:
    """All consecutive-column pairs of all powers, computed as the one-step
    closure {(a g, b g) : (a, b) a distinct consecutive column pair, g in G}.

    Cross-checked at levels two and three: the distinct consecutive pairs of
    sub^n, from the recursion of :func:`column_levels`, lie in the closure,
    and translating them by G regenerates the closure exactly.
    """
    group = structure_group(sub)
    rset = set(r_set(sub))
    levels = column_levels(sub)
    _, level_one = next(levels)
    pairs = _translates(level_one, group)
    if len(pairs) != len(rset) * group.order:
        raise InternalCheckError("pair closure size must be |I| * |G|")
    for left, right in pairs:
        if compose(right, inverse(left)) not in rset:
            raise InternalCheckError("pair quotient escaped the R-set")
    for level, (_, raw) in zip((2, 3), levels):
        if not raw <= pairs:
            raise InternalCheckError(f"level-{level} consecutive pairs escape the closure")
        if _translates(raw, group) != pairs:
            raise InternalCheckError(f"closure from level {level} disagrees with level 1")
    return tuple(sorted(pairs))


@dataclass
class FiberAction:
    """The fiber semigroup together with the signed-pair labeling of its maps."""

    fiber: TwoWordFiber
    semigroup: TransformationSemigroup
    by_signed_pair: dict[SignedPair, FiberMap]
    green: GreenStructure = field(init=False)

    def __post_init__(self):
        self.green = green_structure(self.semigroup)


def fiber_semigroup(sub: Substitution) -> FiberAction:
    """Realize every signed pair [L.R; +/-] as a self-map of the fixed-point
    fiber and collect them into a completely simple transformation semigroup.

    Asserts: all 2|I||G| maps are distinct, the set is composition-closed,
    the four signed product rules hold exhaustively, and the result is
    completely simple.
    """
    fiber = fixed_points(sub)
    pairs = gtwo_pairs(sub)
    index = {p: k for k, p in enumerate(fiber.pairs)}
    by_signed: dict[SignedPair, FiberMap] = {}
    for left, right in pairs:
        plus_images = []
        minus_images = []
        for (a, b) in fiber.pairs:
            target_plus = (left[b], right[b])
            target_minus = (left[a], right[a])
            if target_plus not in index or target_minus not in index:
                raise InternalCheckError("signed pair action left the allowed two-words")
            plus_images.append(index[target_plus])
            minus_images.append(index[target_minus])
        by_signed[(left, right, PLUS)] = tuple(plus_images)
        by_signed[(left, right, MINUS)] = tuple(minus_images)
    maps = set(by_signed.values())
    if len(maps) != len(by_signed):
        raise InternalCheckError("distinct signed pairs produced identical fiber maps")
    mapset = tuple(sorted(maps))
    semigroup = TransformationSemigroup(fiber.size, mapset, mapset)
    # the four product rules: [L.R;e][L'.R';e'] composes with R' (e=+) or L' (e=-)
    for (l1, r1, e1), f1 in by_signed.items():
        for (l2, r2, e2), f2 in by_signed.items():
            inner = r2 if e1 == PLUS else l2
            predicted = by_signed[(compose(l1, inner), compose(r1, inner), e2)]
            if map_compose(f1, f2) != predicted:
                raise InternalCheckError("signed product rules failed on the fiber")
    action = FiberAction(fiber, semigroup, by_signed)
    if not is_completely_simple(semigroup, action.green):
        raise InternalCheckError("fiber semigroup must be completely simple")
    if len(action.green.idempotents) != 2 * len(r_set(sub)):
        raise InternalCheckError("fiber semigroup must have exactly 2|I| idempotents")
    return action


def structural_semigroup(sub: Substitution, g0: Perm | None = None,
                         action: FiberAction | None = None) -> ReesMatrixSemigroup:
    """The normalized matrix presentation M[G; I, {+,-}; A] of the fiber
    semigroup, with the minus row g0 * g^-1.

    The presentation is validated the long way around: its fiber action must
    reproduce the fiber semigroup map-for-map, and the normalized Rees
    decomposition of the raw fiber semigroup at the matching idempotent must
    be isomorphic to it as a presentation.
    """
    from .rees import substitution_sandwich

    rset = r_set(sub)
    if g0 is None:
        g0 = rset[0]
    elif g0 not in rset:
        raise ValidationError("g0 must be an element of the R-set")
    matrix = substitution_sandwich(rset, g0)
    action = action or fiber_semigroup(sub)
    realized, phi = as_transformation_semigroup(matrix, action.fiber)
    if realized != action.semigroup:
        raise InternalCheckError("matrix action and fiber semigroup are different map sets")
    if not verify_rees_isomorphism(action.semigroup, matrix, phi):
        raise InternalCheckError("matrix presentation is not isomorphic to the fiber semigroup")
    base_idempotent = phi[ReesElement(matrix.base[0], identity(sub.size), PLUS)]
    decomposition = rees_decomposition(action.semigroup, base_idempotent, action.green)
    _check_decomposition_matches(matrix, decomposition, action)
    return matrix


def _check_decomposition_matches(matrix: ReesMatrixSemigroup,
                                 decomposition: ReesDecomposition,
                                 action: FiberAction) -> None:
    """The decomposition's structure group acts on the image of e; relabel
    those points by their right letters and compare presentations."""
    dec = decomposition.matrix
    if (dec.group.order != matrix.group.order
            or len(dec.i_labels) != len(matrix.i_labels)
            or len(dec.lam_labels) != len(matrix.lam_labels)):
        raise InternalCheckError("decomposition shape differs from the algebraic presentation")
    relabel = tuple(action.fiber.pairs[p][1] for p in decomposition.point_order)
    if sorted(relabel) != list(range(matrix.group.degree)):
        raise InternalCheckError("image of the base idempotent does not see every letter once")

    def to_letters(p: Perm) -> Perm:
        out = [0] * len(relabel)
        for pos, image in enumerate(p):
            out[relabel[pos]] = relabel[image]
        return tuple(out)

    letter_group = {to_letters(p) for p in dec.group.elements}
    if letter_group != matrix.group.element_set:
        raise InternalCheckError("decomposed structure group differs from the closure of the R-set")
    letter_sandwich = tuple(tuple(to_letters(entry) for entry in row) for row in dec.sandwich)
    letter_dec = ReesMatrixSemigroup(matrix.group, dec.i_labels, dec.lam_labels,
                                     letter_sandwich, dec.base)
    if not letter_dec.is_normalized():
        raise InternalCheckError("relabeled decomposition lost its normalization")
    if matrix.group.degree <= 6:
        if not presentations_isomorphic(matrix, letter_dec):
            raise InternalCheckError("decomposition and algebraic presentation are not "
                                     "isomorphic up to gauge and relabeling")


@dataclass
class DegreeData:
    modulus: int
    table: dict[ReesElement, int]


def degree_map(sub: Substitution, matrix: ReesMatrixSemigroup,
               completion: PermGroup) -> DegreeData:
    """Degree of (i, g, sign) is the class of g modulo the normal completion,
    written as an integer via the common coset of the R-set.

    Verified to be a semigroup morphism onto Z/hZ with idempotents at 0.
    """
    completion_set = completion.element_set
    rset = r_set(sub)
    generator_coset_rep = rset[0]
    cosets = [completion_set]
    current = completion_set
    while True:
        nxt = frozenset(compose(generator_coset_rep, x) for x in current)
        if nxt == completion_set:
            break
        cosets.append(nxt)
        current = nxt
    modulus = len(cosets)
    coset_index = {c: k for k, c in enumerate(cosets)}
    degree_of_perm = {}
    for g in matrix.group.elements:
        c = frozenset(compose(g, x) for x in completion_set)
        if c not in coset_index:
            raise InternalCheckError("group element escaped the coset decomposition")
        degree_of_perm[g] = coset_index[c]
    table = {x: degree_of_perm[x.g] for x in matrix.elements()}
    elements = list(matrix.elements())
    for x in elements:
        for y in elements:
            if table[multiply(matrix, x, y)] != (table[x] + table[y]) % modulus:
                raise InternalCheckError("degree map is not a semigroup morphism")
    for p in idempotents_of(matrix):
        if table[p] != 0:
            raise InternalCheckError("idempotents must have degree 0")
    return DegreeData(modulus, table)


@dataclass
class AutomorphismData:
    fiber_group: PermGroup      # centralizer of the structure group
    virtual: str                # symbolic product with the acting group
    semi_regular: bool
    witness: str


def automorphism_data(sub: Substitution) -> AutomorphismData:
    group = structure_group(sub)
    cent = centralizer_in_symmetric(group)
    if cent.order > sub.size:
        raise InternalCheckError("centralizer of a transitive group is semiregular, so at most s")
    ident = identity(sub.size)
    for c in cent.elements:
        if c != ident and any(c[x] == x for x in range(sub.size)):
            raise InternalCheckError("non-identity centralizing maps must be fixed-point-free")
    name = group_name(cent) or f"group of order {cent.order}"
    return AutomorphismData(
        fiber_group=cent,
        virtual=f"{name} x Z",
        semi_regular=True,
        witness="identity on the fiber-preserving automorphisms",
    )


def _order_h_witness(rset: tuple[Perm, ...], group: PermGroup, h: int) -> Perm | None:
    for g in rset:
        if element_order(g) == h:
            return g
    for g in group.elements:
        if element_order(g) == h:
            return g
    return None


def _global_strings(h: int, h_cl: int, length: int, g_name: str | None,
                    bar_name: str | None, has_order_h: bool) -> dict[str, str]:
    gname = g_name or "G"
    bname = bar_name or "GammaBar"
    strings = {"ellis": "E(X) = Z u M(X)"}
    if h == 1:
        strings["efib"] = (f"Efib(X) ~= (Mfib0 u {{Id}}) x {gname}^((Z_{length}/Z)-[0])")
        strings["kernel"] = f"M(X) ~= M[{gname}^(Z_{length}/Z) : Z_{length}; I, {{+,-}}; A]"
    else:
        strings["grading"] = f"Gfib_k = f^k Cov({bname}), k in Z/{h}Z"
        strings["cov"] = f"Cov({bname}) ~= {bname}^(Z_{length}/Z)"
        strings["efib"] = "Efib(X)-{Id} ~= M[Gfib; I, {+,-}; A]"
        if has_order_h:
            strings["semidirect"] = f"Gfib ~= Cov({bname}) : Z/{h}Z"
        strings["kernel"] = f"M(X) ~= M[Gcal; I, {{+,-}}; A], Gfib -> Gcal ->> Z_{length}"
        if h == h_cl:
            strings["split"] = f"Gcal ~= Gfib : Z_{length}"
    return strings


@dataclass
class StructuralReport:
    substitution: Substitution       # the analyzed (simplified) power
    exponent: int                    # which power of the input was analyzed
    original_length: int
    g0_index: int
    rset: tuple[Perm, ...]
    structure_group: PermGroup
    little_group: PermGroup
    normal_completion: PermGroup
    height: int
    classical_height: int
    r_pi: int
    fiber: TwoWordFiber
    matrix: ReesMatrixSemigroup
    green: GreenStructure
    degree: DegreeData
    aut: AutomorphismData
    order_h_witness: Perm | None
    global_strings: dict[str, str]
    unresolved_extension: bool
    aperiodicity: AperiodicityVerdict | None = None
    oracle: OracleComparison | None = None

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet


def global_description(sub: Substitution, g0: Perm | None = None,
                       exponent: int = 1, original_length: int | None = None,
                       aperiodicity: AperiodicityVerdict | None = None,
                       action: FiberAction | None = None) -> StructuralReport:
    """Assemble the full report for a simplified substitution; ``action`` is
    its fiber semigroup when the caller has already built it."""
    rset = r_set(sub)
    if len(rset) < 2:
        raise ValidationError("aperiodic bijective substitutions have at least two R-set elements")
    group = structure_group(sub)
    hs = heights(sub)
    if action is None:
        action = fiber_semigroup(sub)
    if action.semigroup.size != 2 * len(rset) * group.order:
        raise InternalCheckError("fiber semigroup size must be 2|I||G|")
    matrix = structural_semigroup(sub, g0, action)
    degrees = degree_map(sub, matrix, hs.normal_completion)
    if degrees.modulus != hs.height:
        raise InternalCheckError("degree modulus differs from the generalized height")
    brute = classical_height_bruteforce(sub, prefix_level=3)
    if brute != hs.classical_height:
        raise InternalCheckError(
            f"classical height mismatch: grading {hs.classical_height}, brute force {brute}")
    aut = automorphism_data(sub)
    witness = _order_h_witness(rset, group, hs.height)
    strings = _global_strings(hs.height, hs.classical_height, sub.length,
                              group_name(group), group_name(hs.normal_completion),
                              witness is not None)
    fiber = action.fiber
    if fiber.size <= sub.size:
        raise ValidationError("fiber is not larger than the alphabet; the substitution is periodic")
    return StructuralReport(
        substitution=sub,
        exponent=exponent,
        original_length=original_length or sub.length,
        g0_index=rset.index(matrix.i_labels[matrix.base[0]]),
        rset=rset,
        structure_group=group,
        little_group=hs.little_group,
        normal_completion=hs.normal_completion,
        height=hs.height,
        classical_height=hs.classical_height,
        r_pi=sub.size,
        fiber=fiber,
        matrix=matrix,
        green=action.green,
        degree=degrees,
        aut=aut,
        order_h_witness=witness,
        global_strings=strings,
        unresolved_extension=hs.height > hs.classical_height,
        aperiodicity=aperiodicity,
    )


@dataclass
class AnalysisConfig:
    g0_index: int | None = None
    aperiodicity_bound: int | None = None
    oracle_level: int = 4
    verify: bool = False
    output_format: str = "text"
    letter_limit: int = LETTER_LIMIT

    def __post_init__(self):
        if self.output_format not in ("text", "json"):
            raise ValidationError("output format must be 'text' or 'json'")
        if self.oracle_level < 1 or (self.aperiodicity_bound is not None
                                     and self.aperiodicity_bound < 1):
            raise ValidationError("bounds must be positive")


def analyze_substitution(sub: Substitution, config: AnalysisConfig | None = None) -> StructuralReport:
    """Validate, simplify, run the pipeline, and optionally the oracle."""
    config = config or AnalysisConfig()
    if not is_bijective(sub):
        bad = [j for j, col in enumerate(columns(sub)) if sorted(col) != list(range(sub.size))]
        raise ValidationError(f"substitution is not bijective: column(s) {bad} are not permutations")
    if not is_primitive(sub):
        raise ValidationError("substitution is not primitive")
    verdict = is_aperiodic(sub, config.aperiodicity_bound)
    if verdict.kind == "periodic":
        exc = ValidationError(
            f"substitution is periodic: complexity p({verdict.period_evidence}) "
            f"<= {verdict.period_evidence}")
        exc.verdict = verdict
        raise exc
    if verdict.kind == "inconclusive":
        exc = ValidationError(
            f"aperiodicity scan inconclusive at bound {verdict.bound}; raise the bound")
        exc.verdict = verdict
        raise exc
    simplified, exponent = simplify(sub, config.letter_limit)
    rset = r_set(simplified)
    g0 = None
    if config.g0_index is not None:
        if not 0 <= config.g0_index < len(rset):
            raise ValidationError(
                f"g0 index {config.g0_index} out of range; the R-set has {len(rset)} elements")
        g0 = rset[config.g0_index]
    action = fiber_semigroup(simplified)
    report = global_description(simplified, g0, exponent=exponent,
                                original_length=sub.length, aperiodicity=verdict,
                                action=action)
    if config.verify:
        comparison = oracle_equivalence(simplified, config.oracle_level,
                                        algebraic=action.semigroup)
        report.oracle = comparison
        if not comparison.equal:
            raise InternalCheckError(
                "window oracle disagrees with the algebraic semigroup: "
                + "; ".join(comparison.discrepancies))
    return report
