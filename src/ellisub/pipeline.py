"""From a simplified bijective substitution to the full structural picture:
R-set, structure group, little structure group and its normal completion,
generalized and classical heights, the fiber semigroup and its normalized
Rees matrix form, the degree grading, automorphism data, and the symbolic
description of the whole Ellis semigroup.

The cross-checks baked into this module are not optional: the action of
the matrix presentation on the fiber is checked to be a bijective
homomorphism onto the fiber semigroup (so, by Rees's theorem, every
normalized Rees form of the fiber semigroup is isomorphic to it),
consecutive column pairs of the second and third powers are compared against
the one-step closure, the classical height is recomputed from return times
of the fixed point, and the grading is verified to be a morphism.  Any
mismatch raises InternalCheckError rather than producing a report.  The
window oracle of ``--verify`` is the one witness built independently of this
module.

No check enumerates all |S|^2 pairs of the structural semigroup, where
|S| = 2|I||G|.  There is one product law, the homomorphism law of the matrix
action in :func:`as_transformation_semigroup`, and it is proved from the
generating set X = ``ReesMatrixSemigroup.generators`` (Froidure & Pin,
*Algorithms for computing finite semigroups*, 1997): a map out of a semigroup
generated by X is a homomorphism once phi(xy) = phi(x) phi(y) for x in X and
all y.  That X generates is checked by a closure, never assumed, so the law
costs |S| * |X| products.  The fiber maps are the images of this action,
built once; its image is composition-closed without a closure of its own,
and the signed product rules of the fiber maps are the Rees product law
itself.  The degree grading needs no products: it is a homomorphism on G by
its breadth-first search, so it is one on M[G; I, {+,-}; A] exactly when
every sandwich entry has degree 0, which :func:`degree_map` checks on the
2|I| entries.

Each stage runs once per analysis.  :func:`global_description` is the one
place that orders them: :func:`r_set` validates the substitution (bijective
and simplified) and reads its columns, and every later stage takes the
objects it consumes -- the R-set, the structure group, the normal completion,
the matrix presentation -- rather than a substitution to rebuild them from.

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
                    is_normal, is_transitive, normal_closure)
from .rees import (ReesElement, ReesMatrixSemigroup,
                   as_transformation_semigroup, idempotents_of,
                   substitution_sandwich)
from .semigroups import (GreenStructure, TransformationSemigroup,
                         green_structure, is_completely_simple)
from .substitution import (LETTER_LIMIT, Alphabet, AperiodicityVerdict,
                           Substitution, TwoWordFiber, allowed_two_words,
                           columns, is_aperiodic, is_bijective, is_primitive,
                           is_simplified, simplify)

ColumnPair = tuple[Perm, Perm]


def r_set(sub: Substitution) -> tuple[Perm, ...]:
    """Deduplicated successive-column quotients of a simplified substitution,
    in canonical (lexicographic) order.  These label the minimal right ideals.

    The one stage that validates its substitution; the later stages take the
    R-set and what is built from it."""
    if not is_simplified(sub):
        # is_simplified starts with the bijectivity check; repeat it only to say which failed
        if not is_bijective(sub):
            raise ValidationError("the R-set needs a bijective substitution")
        raise ValidationError("the R-set is read off level one only for simplified substitutions")
    cols = columns(sub)
    quotients = {compose(cols[i], inverse(cols[i - 1])) for i in range(1, len(cols))}
    return tuple(sorted(quotients))


def structure_group(rset: tuple[Perm, ...]) -> PermGroup:
    """The group generated by the R-set.  Every column lies in it and every
    rule word of a simplified substitution holds every letter, so it is
    transitive."""
    group = closure(list(rset))
    if not is_transitive(group):
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


def heights(sub: Substitution, rset: tuple[Perm, ...], group: PermGroup) -> Heights:
    """Little structure group, its normal completion, and both heights.

    The R-set is checked to lie in one coset r0 N of the normal completion
    N.  Then G = <R> lies in <r0, N>, so G/N = <r0 N> is cyclic, and the
    generalized height is its order |G|/|N|.  The classical height comes
    from the letter grading and must divide it.
    """
    little = closure([compose(g, inverse(h)) for g in rset for h in rset], group.degree)
    completion = normal_closure(little, group)
    if not is_normal(completion, group):
        raise InternalCheckError("the normal completion must be normal in the structure group")
    # r lies in the coset r0 N exactly when r0^-1 r lies in N
    r0_inverse = inverse(rset[0])
    if any(compose(r0_inverse, r) not in completion for r in rset):
        raise InternalCheckError("R-set elements must share a single coset of the normal completion")
    order = group.order // completion.order
    classical = _classical_height_by_grading(sub)
    length = sub.length
    if (length - 1) % order != 0 or (length - 1) % classical != 0 or order % classical != 0:
        raise InternalCheckError(
            f"height invariants violated: h={order}, h_cl={classical}, l-1={length - 1}")
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


def gtwo_pairs(sub: Substitution, rset: tuple[Perm, ...],
               group: PermGroup) -> tuple[ColumnPair, ...]:
    """All consecutive-column pairs of all powers, computed as the one-step
    closure {(a g, b g) : (a, b) a distinct consecutive column pair, g in G}.

    Cross-checked at levels two and three: the distinct consecutive pairs of
    sub^n, from the recursion of :func:`column_levels`, lie in the closure,
    and translating them by G regenerates the closure exactly.

    The closure is exactly {(i^-1 R, R) : i in I, R in G}, the set of column
    pairs that the matrix action of :func:`structural_semigroup` realizes:
    each pair (L, R) lies in that set by the quotient check R L^-1 in I, and
    both sets have |I| * |G| elements.  So the pipeline runs this stage for
    its checks and passes no pairs on.
    """
    levels = column_levels(sub)
    _, level_one = next(levels)
    pairs = _translates(level_one, group)
    if len(pairs) != len(rset) * group.order:
        raise InternalCheckError("pair closure size must be |I| * |G|")
    quotients = set(rset)
    for left, right in pairs:
        if compose(right, inverse(left)) not in quotients:
            raise InternalCheckError("pair quotient escaped the R-set")
    for level, (_, raw) in zip((2, 3), levels):
        if not raw <= pairs:
            raise InternalCheckError(f"level-{level} consecutive pairs escape the closure")
        if _translates(raw, group) != pairs:
            raise InternalCheckError(f"closure from level {level} disagrees with level 1")
    return tuple(sorted(pairs))


@dataclass
class FiberAction:
    """The fiber semigroup: the fixed-point fiber, the maps on it and their
    Green structure."""

    fiber: TwoWordFiber
    semigroup: TransformationSemigroup
    green: GreenStructure = field(init=False)

    def __post_init__(self):
        self.green = green_structure(self.semigroup)


def structural_semigroup(sub: Substitution, rset: tuple[Perm, ...], group: PermGroup,
                         g0: Perm | None = None) -> tuple[ReesMatrixSemigroup, FiberAction]:
    """The normalized matrix presentation M[G; I, {+,-}; A], with the minus
    row g0 * g^-1 over the structure group ``group``, and the fiber semigroup
    built from it.

    Each fiber map is built once, as the image of a triple under the action
    phi of :func:`as_transformation_semigroup`: (i, g, +/-) acts as the
    signed pair [L.R; +/-] with R = g (+) or g * g0 (-) and L = i^-1 * R, so
    phi runs through the signed pairs over the column pairs of
    :func:`gtwo_pairs`, and the four signed product rules are the Rees
    product (i, g A[lam][j] h, mu).  That call proves phi a bijective
    homomorphism onto its image; the image is then checked to be completely
    simple with exactly 2|I| idempotents.  Any other normalized Rees
    presentation of the fiber semigroup is isomorphic to this one by Rees's
    theorem (Howie, *Fundamentals of Semigroup Theory*, Thm 3.4.1).  ``g0``
    defaults to the first R-set element.
    """
    matrix = substitution_sandwich(group, rset, rset[0] if g0 is None else g0)
    fiber = allowed_two_words(sub)  # the fixed points, as r_set checked sub is simplified
    semigroup, _ = as_transformation_semigroup(matrix, fiber)
    action = FiberAction(fiber, semigroup)
    if not is_completely_simple(semigroup, action.green):
        raise InternalCheckError("fiber semigroup must be completely simple")
    if len(action.green.idempotents) != 2 * len(rset):
        raise InternalCheckError("fiber semigroup must have exactly 2|I| idempotents")
    return matrix, action


@dataclass
class DegreeData:
    modulus: int
    table: dict[ReesElement, int]


def degree_map(matrix: ReesMatrixSemigroup, completion: PermGroup) -> DegreeData:
    """Degree of (i, g, sign) is the class of g modulo the normal completion N,
    written as an integer: the length mod h = |G|/|N| of any word for g in
    the R-set, whose elements label the columns of the substitution sandwich.

    The group degrees come from one breadth-first search over G from the
    identity, along g -> r*g for r in the R-set, that checks
    d(r*g) = d(g) + 1 mod h on every edge.  Every element of G is a product of
    R-set elements, so a search that reaches all of G and passes every edge
    check shows d to be a well-defined homomorphism onto Z/hZ that sends each
    R-set element to 1; its kernel must then be N, which is checked.

    On the matrix semigroup, (i, g, lam)(j, h, mu) = (i, g A[lam][j] h, mu),
    and d is a homomorphism on G, so d(xy) = d(x) + d(y) holds for all x, y
    exactly when every sandwich entry A[lam][j] has degree 0.  The morphism
    law is therefore checked on the 2|I| entries, not on products; the
    idempotents (i, A[lam][i]^-1, lam) must then sit at degree 0, which is
    checked as well.
    """
    group = matrix.group
    modulus = group.order // completion.order
    degree_of_perm = {identity(group.degree): 0}
    frontier = list(degree_of_perm)
    while frontier:
        nxt = []
        for g in frontier:
            d = (degree_of_perm[g] + 1) % modulus
            for r in matrix.i_labels:
                rg = compose(r, g)
                if rg not in degree_of_perm:
                    degree_of_perm[rg] = d
                    nxt.append(rg)
                elif degree_of_perm[rg] != d:
                    raise InternalCheckError("R-set word lengths do not define a degree mod h")
        frontier = nxt
    if degree_of_perm.keys() != group.element_set:
        raise InternalCheckError("the R-set does not reach every element of the structure group")
    if {g for g, d in degree_of_perm.items() if d == 0} != completion.element_set:
        raise InternalCheckError("the degree-0 elements differ from the normal completion")
    if any(degree_of_perm[entry] != 0 for row in matrix.sandwich for entry in row):
        raise InternalCheckError("degree map is not a semigroup morphism")
    table = {x: degree_of_perm[x.g] for x in matrix.elements()}
    for p in idempotents_of(matrix):
        if table[p] != 0:
            raise InternalCheckError("idempotents must have degree 0")
    return DegreeData(modulus, table)


@dataclass
class AutomorphismData:
    fiber_group: PermGroup      # centralizer of the structure group
    virtual: str                # symbolic product with the acting group
    semi_regular: bool


def automorphism_data(group: PermGroup) -> AutomorphismData:
    cent = centralizer_in_symmetric(group)
    if cent.order > group.degree:
        raise InternalCheckError("centralizer of a transitive group is semiregular, so at most s")
    ident = identity(group.degree)
    for c in cent.elements:
        if c != ident and any(c[x] == x for x in range(group.degree)):
            raise InternalCheckError("non-identity centralizing maps must be fixed-point-free")
    name = group_name(cent) or f"group of order {cent.order}"
    return AutomorphismData(
        fiber_group=cent,
        virtual=f"{name} x Z",
        semi_regular=True,
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
    action: FiberAction              # the fiber, its semigroup and Green structure
    matrix: ReesMatrixSemigroup
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


def global_description(sub: Substitution, g0_index: int | None = None,
                       exponent: int = 1, original_length: int | None = None,
                       aperiodicity: AperiodicityVerdict | None = None) -> StructuralReport:
    """Assemble the full report for a simplified substitution, running each
    stage once; ``g0_index`` picks g0 from the R-set (default: the first)."""
    rset = r_set(sub)
    g0_index = g0_index or 0
    if not 0 <= g0_index < len(rset):
        raise ValidationError(
            f"g0 index {g0_index} out of range; the R-set has {len(rset)} elements")
    # Column j-1 is followed by column j inside every rule word, so c_(j-1)(a)
    # c_j(a) is an allowed two-letter word.  With only s of them (a fiber no
    # larger than the alphabet) every letter has one successor f(a), so
    # c_j = f * c_(j-1) and the R-set is {f}: this check refuses every such
    # substitution before a stage runs.
    if len(rset) < 2:
        raise ValidationError("aperiodic bijective substitutions have at least two R-set elements")
    group = structure_group(rset)
    hs = heights(sub, rset, group)
    gtwo_pairs(sub, rset, group)  # checks only: the matrix action realizes the same pairs
    matrix, action = structural_semigroup(sub, rset, group, rset[g0_index])
    degrees = degree_map(matrix, hs.normal_completion)
    if degrees.modulus != hs.height:
        raise InternalCheckError("degree modulus differs from the generalized height")
    brute = classical_height_bruteforce(sub, prefix_level=3)
    if brute != hs.classical_height:
        raise InternalCheckError(
            f"classical height mismatch: grading {hs.classical_height}, brute force {brute}")
    aut = automorphism_data(group)
    witness = _order_h_witness(rset, group, hs.height)
    strings = _global_strings(hs.height, hs.classical_height, sub.length,
                              group_name(group), group_name(hs.normal_completion),
                              witness is not None)
    return StructuralReport(
        substitution=sub,
        exponent=exponent,
        original_length=original_length or sub.length,
        g0_index=matrix.base[0],
        rset=rset,
        structure_group=group,
        little_group=hs.little_group,
        normal_completion=hs.normal_completion,
        height=hs.height,
        classical_height=hs.classical_height,
        r_pi=sub.size,
        action=action,
        matrix=matrix,
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
    report = global_description(simplified, config.g0_index, exponent=exponent,
                                original_length=sub.length, aperiodicity=verdict)
    if config.verify:
        comparison = oracle_equivalence(simplified, report.action.semigroup,
                                        config.oracle_level)
        report.oracle = comparison
        if not comparison.equal:
            raise InternalCheckError(
                "window oracle disagrees with the algebraic semigroup: "
                + "; ".join(comparison.discrepancies))
    return report
