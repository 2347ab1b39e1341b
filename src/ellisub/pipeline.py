"""From a simplified bijective substitution to the full structural picture:
R-set, structure group, little structure group and its normal completion,
generalized and classical heights, the normalized Rees matrix form of the
fiber semigroup, the degree grading, automorphism data, and the symbolic
description of the whole Ellis semigroup.

:func:`global_description` runs each stage once, in this order, and every
stage takes the objects it consumes rather than a substitution to rebuild
them from: :func:`r_set` (which validates that the substitution is bijective
and simplified), :func:`structure_group`, :func:`heights`,
:func:`substitution_sandwich`, :func:`degree_map`,
:func:`classical_height_bruteforce` and :func:`automorphism_data`.  No stage
builds a fiber map, multiplies two elements of the structural semigroup (of
size |S| = 2|I||G|) or writes out a power of the substitution, and none
holds an |S|-sized object: the degree of (i, g, sign) is that of g, so the
degree table has one entry per element of G.

Checks that run on every input, each raising InternalCheckError on a
mismatch: the structure group is transitive; the R-set lies in one coset of
the normal completion, which is normal, and the heights divide l - 1 and
each other; the sandwich is normalized; the degree is a well-defined
homomorphism onto Z/hZ with kernel the normal completion, under which every
sandwich entry and idempotent has degree 0 (:func:`degree_map`, from the 2|I|
entries rather than from products); the classical height from the letter
grading equals the one from return times; the centralizer of G is
semiregular.  :func:`r_set` validates the substitution, once, with the
fiber that :func:`global_description` is given or reads once (a power has
the fiber of the input it came from); the later stages take it as
validated.

Under ``--verify``, :func:`analyze_substitution` also builds the matrix
action phi as a :class:`FiberAction`, which writes out none of the 2|I||G|
fiber maps.  Its constructor proves phi an injective homomorphism: each
(i^-1 r, r) is an allowed two-word, the 2|I| letter identities
c_lam T_j = A[lam][j] hold, the rows write distinct fixed points, and some
letter has two predecessors in the fiber; O(|I| s + fiber) work in all.
The matrix and the action then go to the window oracle, the one witness
built independently of this module.  The oracle reads its maps off the rule
letters, names each distinct map by decoding it, O(fiber) per map, and
decides by a walk search in G whether the triples generate the matrix
semigroup; it encodes all |S| maps and closes its own only to list a
discrepancy.

Three identities of the construction hold for every substitution, so they
are proved here and tested over the golden cases and a random corpus in
``tests/``, not rechecked per input; only a fault in the code could break
them.

* The consecutive column pairs of sub, translated by G, are exactly
  {(i^-1 R, R) : i in I, R in G}, the pairs the matrix action realizes.
  Every column lies in G, since c_j = q_j c_(j-1) with c_0 = id and q_j in I.
  A translate (a g, b g) of a pair has the quotient b a^-1 in I, and for each
  i in I some pair (a, b) has quotient i; its translate by g = b^-1 R is
  (i^-1 R, R).  Column k*l + j of sub^n is c_j P_k, with P_k column k of
  sub^(n-1), and c_0 = c_(l-1) = id, so a pair across a block boundary is a
  pair of sub^(n-1).  By induction every pair of sub^n is a translate
  (a P, b P) of a pair of sub, and block 0, where P = id, holds the pairs of
  sub.  So the pairs of every power lie in the closure and regenerate it.
* The matrix action stays in the fiber, is faithful and is a homomorphism;
  :class:`FiberAction` gives the proof of each.
* By Rees's theorem (Howie, *Fundamentals of Semigroup Theory*, Thm 3.4.1)
  the Green structure of M[G; I, {+,-}; A] follows from |I|, |G| and the two
  signs, so the report reads it from
  :meth:`ReesMatrixSemigroup.green_summary`; the action being an isomorphism,
  it is also the Green structure of the fiber maps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import gcd

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .oracle import OracleComparison, oracle_equivalence
from .perms import (Perm, PermGroup, after, centralizer_in_symmetric, closure,
                    compose, element_order, group_name, identity, inverse,
                    is_normal, is_transitive, normal_closure)
from .rees import (FiberAction, ReesMatrixSemigroup, idempotents_of,
                   substitution_sandwich)
from .substitution import (Alphabet, AperiodicityVerdict, Substitution,
                           TwoWordFiber, allowed_two_words, columns,
                           is_aperiodic, is_bijective, is_primitive,
                           is_simplified, simplify)


def r_set(sub: Substitution, fiber: TwoWordFiber | None = None) -> tuple[Perm, ...]:
    """Deduplicated successive-column quotients of a simplified substitution,
    in canonical (lexicographic) order.  These label the minimal right ideals.

    The one stage that validates its substitution; the later stages take the
    R-set and what is built from it.  ``fiber`` is ``allowed_two_words(sub)``,
    when the caller already holds it."""
    if not is_simplified(sub, fiber):
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
    try:
        group = closure(list(rset))
    except ResourceLimitError as exc:
        exc.stage = "structure_group"
        raise
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
    to the length.  ``sub`` must be simplified; :func:`global_description`
    passes the substitution that :func:`r_set` validated."""
    g = return_time_gcd(sub, prefix_level)
    if g == 0:
        raise InternalCheckError("a simplified substitution must return to its first letter")
    for d in sorted((d for d in range(1, g + 1) if g % d == 0), reverse=True):
        if gcd(d, sub.length) == 1:
            return d
    return 1


def heights(sub: Substitution, rset: tuple[Perm, ...], group: PermGroup) -> Heights:
    """Little structure group, its normal completion, and both heights.

    The little group is generated by the |I|^2 products g h^-1 of R-set
    elements, which reports list as its generators; it is closed from the
    |I| products g r0^-1 alone, since g h^-1 = (g r0^-1)(h r0^-1)^-1.

    The R-set is checked to lie in one coset r0 N of the normal completion
    N.  Then G = <R> lies in <r0, N>, so G/N = <r0 N> is cyclic, and the
    generalized height is its order |G|/|N|.  The classical height comes
    from the letter grading and must divide it.  A little group or N with
    |G| elements is G, and takes G's fingerprint rather than counting the
    element orders again.
    """
    r0_inverse = inverse(rset[0])
    products = sorted({compose(g, inverse(h)) for g in rset for h in rset})
    little = replace(closure([compose(g, r0_inverse) for g in rset], group.degree),
                     generators=tuple(products))
    completion = normal_closure(little, group)
    if not is_normal(completion, group):
        raise InternalCheckError("the normal completion must be normal in the structure group")
    # r lies in the coset r0 N exactly when r0^-1 r lies in N
    if any(compose(r0_inverse, r) not in completion for r in rset):
        raise InternalCheckError("R-set elements must share a single coset of the normal completion")
    order = group.order // completion.order
    classical = _classical_height_by_grading(sub)
    length = sub.length
    if (length - 1) % order != 0 or (length - 1) % classical != 0 or order % classical != 0:
        raise InternalCheckError(
            f"height invariants violated: h={order}, h_cl={classical}, l-1={length - 1}")
    for subgroup in (little, completion):
        subgroup.reuse_fingerprint(group)
    return Heights(order, classical, little, completion)


@dataclass
class DegreeData:
    modulus: int
    by_perm: dict[Perm, int]  # degree of each g in G; (i, g, sign) has the degree of g


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
    set_degree = degree_of_perm.setdefault
    frontier = list(degree_of_perm)
    level = 0
    while frontier:
        # every element of the frontier lies at distance `level` from the
        # identity, so has degree level mod h, and each r*g must have the next
        level += 1
        d = level % modulus
        reached = len(degree_of_perm)
        for g in frontier:
            g_after = after(g)
            for r in matrix.i_labels:
                # one lookup per edge: a new r*g gets degree d, a known one keeps its own
                if set_degree(g_after(r), d) != d:
                    raise InternalCheckError("R-set word lengths do not define a degree mod h")
        # the dict keeps insertion order, so the elements new at this level come last
        frontier = list(islice(degree_of_perm, reached, None))
    if degree_of_perm.keys() != group.element_set:
        raise InternalCheckError("the R-set does not reach every element of the structure group")
    if {g for g, d in degree_of_perm.items() if d == 0} != completion.element_set:
        raise InternalCheckError("the degree-0 elements differ from the normal completion")
    if any(degree_of_perm[entry] != 0 for row in matrix.sandwich for entry in row):
        raise InternalCheckError("degree map is not a semigroup morphism")
    if any(degree_of_perm[p.g] != 0 for p in idempotents_of(matrix)):
        raise InternalCheckError("idempotents must have degree 0")
    return DegreeData(modulus, degree_of_perm)


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
    fiber: TwoWordFiber              # the allowed two-letter words: the fixed points
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
                       aperiodicity: AperiodicityVerdict | None = None,
                       fiber: TwoWordFiber | None = None) -> StructuralReport:
    """Assemble the full report for a simplified substitution, running each
    stage once; ``g0_index`` picks g0 from the R-set (default: the first).

    ``fiber`` is ``allowed_two_words(sub)``, when the caller already holds
    it.  For sub = theta^n, the power of a primitive theta that
    :func:`analyze_substitution` analyses, that is ``allowed_two_words(theta)``.
    A word occurs in the language of theta^n when it occurs in some
    theta^(nk)(a), so every such word occurs in the language of theta.
    Conversely, let w occur in theta^k(a), and let p be a primitivity
    exponent: every letter occurs in theta^p(c) for every letter c, and so
    in theta^q(c) = theta^p(theta^(q-p)(c)) for every q >= p.  Take m with
    nm >= k + p.  Then theta^(nm)(c) = theta^k(theta^(nm-k)(c)) holds
    theta^k(a), since theta^(nm-k)(c) holds a, and so w.  The two languages
    are equal, so theta and theta^n generate the same subshift and have the
    same two-letter factors, which is what :func:`allowed_two_words` lists.
    :func:`r_set` still checks that sub is simplified on these words."""
    if fiber is None:
        fiber = allowed_two_words(sub)  # the fixed points, once r_set checks sub is simplified
    rset = r_set(sub, fiber)
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
    matrix = substitution_sandwich(group, rset, rset[g0_index])
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
        fiber=fiber,
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
    verify: bool = False
    output_format: str = "text"

    def __post_init__(self):
        if self.output_format not in ("text", "json"):
            raise ValidationError("output format must be 'text' or 'json'")


def analyze_substitution(sub: Substitution, config: AnalysisConfig | None = None) -> StructuralReport:
    """Validate, simplify and run the pipeline; under ``verify``, build the
    matrix action and compare it with the window oracle.  The input's
    allowed two-letter words are read once and shared by the aperiodicity
    test and :func:`simplify`, which then skip their own primitivity checks,
    and by :func:`global_description`, as the fiber of the analysed power."""
    config = config or AnalysisConfig()
    if not is_bijective(sub):
        bad = [j for j, col in enumerate(columns(sub)) if sorted(col) != list(range(sub.size))]
        raise ValidationError(f"substitution is not bijective: column(s) {bad} are not permutations")
    if not is_primitive(sub):
        raise ValidationError("substitution is not primitive")
    fiber = allowed_two_words(sub)  # read once, for the aperiodicity test and simplify
    verdict = is_aperiodic(sub, fiber)
    if verdict.kind == "periodic":
        exc = ValidationError(
            f"substitution is periodic: complexity p({verdict.period_evidence}) "
            f"<= {verdict.period_evidence}")
        exc.verdict = verdict
        raise exc
    simplified, exponent = simplify(sub, fiber)
    # the power has the input's subshift, so its fiber: see global_description
    report = global_description(simplified, config.g0_index, exponent=exponent,
                                original_length=sub.length, aperiodicity=verdict, fiber=fiber)
    if config.verify:
        action = FiberAction(report.matrix, report.fiber)
        comparison = oracle_equivalence(simplified, report.matrix, action)
        report.oracle = comparison
        if not comparison.equal:
            raise InternalCheckError(
                "window oracle disagrees with the algebraic semigroup: "
                + "; ".join(comparison.discrepancies))
    return report
