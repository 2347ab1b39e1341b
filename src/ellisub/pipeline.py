"""From a bijective substitution to the full structural picture: R-set,
structure group, little structure group and its normal completion,
generalized and classical heights, the normalized Rees matrix form of the
fiber semigroup, the degree grading, automorphism data, and the symbolic
description of the whole Ellis semigroup.

:func:`check_input` checks the input theta once and returns a
:class:`CheckedPower`: theta, the exponent n of the simplified power
tau = theta^n, the fiber and the aperiodicity verdict; it writes no word of
tau.  :func:`global_description` runs each stage once on it, in this
order, and every stage takes the objects it consumes rather than a
substitution to rebuild or check them from: :func:`r_set`,
:func:`structure_group`, :func:`heights`, :func:`substitution_sandwich`,
:func:`degree_map`, :func:`classical_height_bruteforce` and
:func:`automorphism_data`.  No stage builds a fiber map, multiplies two
elements of the structural semigroup (of size |S| = 2|I||G|) or writes out
a power of the substitution, and none holds an |S|-sized object: the
degree of (i, g, sign) is that of g, so the degree table has one entry per
element of G.  :func:`structure_group` walks the two graphs that the R-set
labels, g -> g r on G and a -> r(a) on the letters, once each.

Checks that run on every input, each raising InternalCheckError on a
mismatch, with the name of the function that runs it as ``stage``, and
none implied by another: the letter walk reaches every letter, so G is
transitive; the heights divide L - 1 and each other; the sandwich is
normalized; h divides the period of G's walk, so the degree is a
homomorphism onto Z/hZ, whose kernel is the normal completion, which makes
it normal and puts the R-set in one of its cosets, and every sandwich entry
has degree 0 (:func:`degree_map`, from the 2|I| entries rather than from
products); the classical height equals the one from return times; the
centralizer of G is semiregular.

Under ``--verify``, :func:`analyze_substitution` also builds the matrix
action phi as a :class:`FiberAction`, which writes out none of the 2|I||G|
fiber maps.  Its constructor proves phi an injective homomorphism: each
(i^-1 r, r) is an allowed two-word, the 2|I| letter identities
c_lam T_j = A[lam][j] hold, the rows write distinct fixed points, and some
letter has two predecessors in the fiber; O(|I| s + fiber) work in all.
The matrix and the action then go to the window oracle, the one witness
built independently of this module, with theta and n rather than tau.  The
oracle checks from theta's columns that tau is simplified, builds the
distinct column-pair tables of tau from theta's columns by a recursion over
the levels, writing no word of tau, names each distinct map, the + or the -
map of a table, by decoding it, O(fiber) per map, and decides whether the
triples generate the matrix semigroup by the order of their loop group,
closed inside G again only on a Schreier generator it misses, until it has
|G| elements.  A disagreement lists the maps without a name, or what the
triples miss, and raises InternalCheckError with the stage "window oracle";
no map is closed and no other triple is encoded.

Four identities of the construction hold for every substitution, so they
are proved here and tested over the golden cases and a random corpus in
``tests/``, not rechecked per input; only a fault in the code could break
them.

* The fiber is {(a, r(a)) : a a letter, r in the R-set}, the edges of the
  letter walk.  The junction map of the simplified power fixes every
  allowed word (see :func:`global_description`), so each word is interior,
  (c_(j-1)(x), c_j(x)) = (a, q_j(a)) with a = c_(j-1)(x), which runs over
  every letter.  :func:`classical_height_bruteforce` still cross-checks
  the walk's period, the classical height, on every input.
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

from math import gcd
from typing import NamedTuple

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .oracle import OracleComparison, oracle_equivalence
from .perms import (Perm, PermGroup, _graded_walk, after, centralizer_in_symmetric,
                    closure, compose, group_name, identity, inverse, is_perm,
                    normal_closure)
from .rees import FiberAction, ReesMatrixSemigroup, substitution_sandwich
from .substitution import (Alphabet, AperiodicityVerdict, Substitution,
                           TwoWordFiber, _all_letters_exponent,
                           allowed_two_words, aperiodicity_verdict, columns,
                           simplified_exponent)

EXPONENT_LIMIT = 100  # refuse to analyse a higher power: each stage takes O(n) steps


class CheckedPower(NamedTuple):
    """An input theta that :func:`check_input` passed, with the exponent n
    of its simplified power tau = theta^n and its allowed two-letter words,
    which are tau's: the stages take this value, check none of it again and
    read tau through theta and n alone."""

    original: Substitution           # theta
    exponent: int                    # n: tau = theta^n is simplified
    fiber: TwoWordFiber
    aperiodicity: AperiodicityVerdict


def check_input(sub: Substitution) -> CheckedPower:
    """Check theta once: bijective (naming the columns that are not),
    primitive (by the all-letters exponent, which then gives n), aperiodic
    (from the count of the allowed two-letter words), and the least n
    with tau = theta^n simplified
    (:func:`ellisub.substitution.simplified_exponent`), writing no word of
    tau.  An n over ``EXPONENT_LIMIT`` is refused: r_set, the return-time
    walk and the window oracle each take O(n) steps, over sets of up to
    |G| elements, and the reports print L = l^n in decimal.

    The power tau = theta^n has the fiber of theta.  A word occurs in the
    language of tau when it occurs in some theta^(nk)(a), so every such word
    occurs in the language of theta.  Conversely, let w occur in
    theta^k(a), and let p be a primitivity exponent: every letter occurs in
    theta^p(c) for every letter c, and so in theta^q(c) =
    theta^p(theta^(q-p)(c)) for every q >= p.  Take m with nm >= k + p.
    Then theta^(nm)(c) = theta^k(theta^(nm-k)(c)) holds theta^k(a), since
    theta^(nm-k)(c) holds a, and so w.  The two languages are equal, so
    theta and tau generate the same subshift and have the same two-letter
    factors, which is what :func:`allowed_two_words` lists."""
    bad = [j for j, col in enumerate(columns(sub)) if not is_perm(col)]
    if bad:
        raise ValidationError(f"substitution is not bijective: column(s) {bad} are not permutations")
    letters_exp = _all_letters_exponent(sub)
    if letters_exp is None:
        raise ValidationError("substitution is not primitive")
    fiber = allowed_two_words(sub)
    verdict = aperiodicity_verdict(sub, fiber)
    if verdict.kind == "periodic":
        exc = ValidationError(
            f"substitution is periodic: complexity p({verdict.period_evidence}) "
            f"<= {verdict.period_evidence}")
        exc.verdict = verdict
        raise exc
    exponent = simplified_exponent(sub, fiber, letters_exp)
    if exponent > EXPONENT_LIMIT:
        raise ResourceLimitError(f"simplified power {exponent} exceeds the exponent cap "
                                 f"{EXPONENT_LIMIT}", stage="check_input")
    return CheckedPower(sub, exponent, fiber, verdict)


def r_set(checked: CheckedPower) -> tuple[Perm, ...]:
    """Deduplicated successive-column quotients of the simplified power
    tau = theta^n, in canonical (lexicographic) order.  These label the
    minimal right ideals.

    They come from theta's columns c_0, ..., c_(l-1) by the recursion
    R(theta^m) = R(theta) u c_0 R(theta^(m-1)) c_(l-1)^-1, n - 1 steps over
    sets of at most |G| elements, with tau never read.  Column k*l + j of
    theta^m is c_j P_k, for P_k column k of theta^(m-1).  A quotient inside
    block k is c_j P_k (c_(j-1) P_k)^-1 = c_j c_(j-1)^-1, one of theta's; a
    quotient across blocks k and k+1 is c_0 P_(k+1) (c_(l-1) P_k)^-1 =
    c_0 (P_(k+1) P_k^-1) c_(l-1)^-1, and P_(k+1) P_k^-1 runs over
    R(theta^(m-1)).  For n = 1 that is theta's own quotients."""
    cols = columns(checked.original)
    own = {compose(c, inverse(b)) for b, c in zip(cols, cols[1:])}
    first, by_last_inverse = cols[0], after(inverse(cols[-1]))  # r -> r c_(l-1)^-1
    quotients = own
    for _ in range(checked.exponent - 1):
        quotients = own.union([compose(first, by_last_inverse(r)) for r in quotients])
    return tuple(sorted(quotients))


class GradedGroup(NamedTuple):
    group: PermGroup
    levels: dict[Perm, int]  # the length of a shortest R-set word for each g in G
    period: int              # of the Cayley graph g -> g r, which is h = |G|/|N|
    classical_height: int    # the period of the letter graph a -> r(a)


def structure_group(rset: tuple[Perm, ...]) -> GradedGroup:
    """G, the group generated by the R-set, as one walk from the identity by
    g -> g r reaches it (:func:`ellisub.perms._graded_walk`), with the levels
    and the period of that walk, and the period of one walk over the
    letters by a -> r(a).

    Every column lies in G and every rule word of a simplified substitution
    holds every letter, so G is transitive: the letter walk must reach every
    letter.  Its edges are the allowed words ab (the fiber identity of the
    module docstring), and its period p is the classical height, the
    largest divisor d of L - 1 with letter classes c(column_j(a)) = c(a) + j
    mod d on tau = theta^n.  Such a grading steps by one along each rule word
    of tau, and every allowed word is interior to one: d divides every cycle
    length, so p.  And lev mod p steps by one on every edge; tau(a) runs from
    a back to a in L - 1 steps, its boundary columns being the identity, so p
    divides L - 1 and lev mod p is a grading."""
    degree = len(rset[0])
    try:
        levels, period = _graded_walk(identity(degree), [after(r) for r in rset])
    except ResourceLimitError as exc:
        exc.stage = "structure_group"
        raise
    letters, classical = _graded_walk(0, [r.__getitem__ for r in rset])
    if len(letters) != degree:
        raise InternalCheckError("structure group of a primitive substitution must be transitive",
                                 stage="structure_group")
    group = PermGroup(degree, tuple(sorted(set(rset))), tuple(sorted(levels)))
    return GradedGroup(group, levels, period, classical)


class Heights(NamedTuple):
    height: int
    classical_height: int
    little_group: PermGroup
    normal_completion: PermGroup


def return_time_gcd(sub: Substitution, level: int) -> int:
    """gcd of the positions of letter 0 in the word sigma^n(0), n = ``level``.
    For a simplified substitution that is the level-n prefix of the
    one-sided fixed point that starts with letter 0.

    The word is never written out.  Per letter b the recursion carries
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


def classical_height_bruteforce(checked: CheckedPower) -> int:
    """Independent oracle: the gcd g of the return times of the first letter
    in tau^3(0), for tau = theta^n the simplified power of length L = l^n.
    tau^3(0) is theta^(3n)(0), so the walk reads theta's rules
    (:func:`return_time_gcd`, O(n*s*l)).

    The classical height is the largest divisor of g coprime to l, and that
    is g itself.  tau is simplified, so its boundary columns are the
    identity: tau^2(0) starts with 0, so tau^3(0) starts with the block
    tau(0), which ends in 0.  Positions 0 and L - 1 hold 0, so g divides
    L - 1, which is coprime to L and so to l."""
    g = return_time_gcd(checked.original, 3 * checked.exponent)
    if g == 0:
        raise InternalCheckError("a simplified substitution must return to its first letter",
                                 stage="classical_height_bruteforce")
    return g


def heights(checked: CheckedPower, rset: tuple[Perm, ...], graded: GradedGroup) -> Heights:
    """Little structure group, its normal completion, and both heights.

    The little group is generated by the |I|^2 products g h^-1 of R-set
    elements, which reports list as its generators; it is closed inside G
    from the |I| products g r0^-1 alone, since g h^-1 = (g r0^-1)(h r0^-1)^-1.
    A subgroup of G with |G| elements is G: its closure stops there.

    The generalized height is h = |G|/|N| for the normal completion N.
    :func:`degree_map` proves that N is normal and that the R-set lies in
    one coset r0 N, so that G/N = <r0 N> is cyclic of order h.  The classical
    height is the period of the letter graph that :func:`structure_group`
    walked, so no rule word of tau is read, and L = l^n.  Both heights must
    divide L - 1, and h_cl must divide h.
    """
    group = graded.group
    inverses = [inverse(h) for h in rset]
    products = sorted({compose(g, h_inverse) for g in rset for h_inverse in inverses})
    little = closure([compose(g, inverses[0]) for g in rset], ambient=group).with_generators(products)
    completion = normal_closure(little, group)
    order = group.order // completion.order
    classical = graded.classical_height
    length = checked.original.length ** checked.exponent
    if (length - 1) % order != 0 or (length - 1) % classical != 0 or order % classical != 0:
        raise InternalCheckError(
            f"height invariants violated: h={order}, h_cl={classical}, l-1={length - 1}",
            stage="heights")
    return Heights(order, classical, little, completion)


class DegreeData(NamedTuple):
    modulus: int
    by_perm: dict[Perm, int]  # degree of each g in G; (i, g, sign) has the degree of g


def degree_map(matrix: ReesMatrixSemigroup, completion: PermGroup,
               graded: GradedGroup) -> DegreeData:
    """Degree of (i, g, sign) is the class of g modulo the normal completion N,
    written as an integer: the length mod h = |G|/|N| of any word for g in
    the R-set, whose elements label the columns of the substitution sandwich.

    The degree of g is its level in the walk of :func:`structure_group`
    mod h: this stage walks nothing.  The walk's Cayley graph g -> g r has
    period p = |G|/|N|.  Reduced mod p, the level is a homomorphism that
    sends each r to 1, growing by one on each edge.  Its kernel is normal
    and holds every g h^-1 of R-set elements, so it contains N, and p <= h.
    G -> G/N = Z/hZ is another such grading, so h divides p.  The check that
    h divides p is the one runtime proof of the grading: it makes lev mod h
    a well-defined homomorphism onto Z/hZ.  Its kernel is checked to be N,
    so N is normal and holds r0^-1 r for each r in the R-set: the R-set lies
    in one coset of N.

    On the matrix semigroup, (i, g, lam)(j, h, mu) = (i, g A[lam][j] h, mu),
    and d is a homomorphism on G, so d(xy) = d(x) + d(y) holds for all x, y
    exactly when every sandwich entry A[lam][j] has degree 0.  The morphism
    law is therefore checked on the 2|I| entries, not on products, and the
    idempotents (i, A[lam][i]^-1, lam), their inverses, sit at degree 0.
    """
    modulus = matrix.group.order // completion.order
    if graded.period % modulus != 0:
        raise InternalCheckError("R-set word lengths do not define a degree mod h",
                                 stage="degree_map")
    degree_of_perm = {g: lev % modulus for g, lev in graded.levels.items()}
    if {g for g, d in degree_of_perm.items() if d == 0} != completion.element_set:
        raise InternalCheckError("the degree-0 elements differ from the normal completion",
                                 stage="degree_map")
    if any(degree_of_perm[entry] != 0 for row in matrix.sandwich for entry in row):
        raise InternalCheckError("degree map is not a semigroup morphism", stage="degree_map")
    return DegreeData(modulus, degree_of_perm)


class AutomorphismData(NamedTuple):
    fiber_group: PermGroup      # centralizer of the structure group
    virtual: str                # symbolic product with the acting group
    semi_regular: bool


def automorphism_data(group: PermGroup) -> AutomorphismData:
    cent = centralizer_in_symmetric(group)
    ident = identity(group.degree)
    # fixed-point-free makes C semiregular: each orbit has |C| points, so |C| <= s
    for c in cent.elements:
        if c != ident and any(c[x] == x for x in range(group.degree)):
            raise InternalCheckError("non-identity centralizing maps must be fixed-point-free",
                                     stage="automorphism_data")
    name = group_name(cent) or f"group of order {cent.order}"
    return AutomorphismData(
        fiber_group=cent,
        virtual=f"{name} x Z",
        semi_regular=True,
    )


def _order_h_witness(rset: tuple[Perm, ...], group: PermGroup, h: int) -> Perm | None:
    orders = group.orders
    return next((g for g in (*rset, *group.elements) if orders[g] == h), None)


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


class StructuralReport(NamedTuple):
    substitution: Substitution       # the input theta
    exponent: int                    # n: the analyzed power is theta^n, of length l^n
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
    aperiodicity: AperiodicityVerdict
    oracle: OracleComparison | None = None

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet


def global_description(checked: CheckedPower, g0_index: int | None = None) -> StructuralReport:
    """Assemble the full report for an input that :func:`check_input`
    passed, running each stage once on its simplified power; ``g0_index``
    picks g0 from the R-set (default: the first)."""
    rset = r_set(checked)
    g0_index = g0_index or 0
    if not 0 <= g0_index < len(rset):
        raise ValidationError(
            f"g0 index {g0_index} out of range; the R-set has {len(rset)} elements")
    # The R-set has two elements or more.  Column j-1 is followed by column j
    # inside every rule word, so c_(j-1)(a) c_j(a) is an allowed two-letter
    # word, and these interior words are all of them: the boundary columns
    # of the simplified power are the identity, so its junction map fixes
    # every word.  An R-set {f} would make c_j = f * c_(j-1) for every j, so
    # the allowed words would be the s words a f(a): a fiber no larger than
    # the alphabet, which check_input refuses as periodic, the power having
    # the input's fiber.
    graded = structure_group(rset)
    group = graded.group
    hs = heights(checked, rset, graded)
    matrix = substitution_sandwich(group, rset, rset[g0_index])
    degrees = degree_map(matrix, hs.normal_completion, graded)
    brute = classical_height_bruteforce(checked)
    if brute != hs.classical_height:
        raise InternalCheckError(
            f"classical height mismatch: grading {hs.classical_height}, brute force {brute}",
            stage="global_description")
    aut = automorphism_data(group)
    witness = _order_h_witness(rset, group, hs.height)
    sub = checked.original
    strings = _global_strings(hs.height, hs.classical_height, sub.length ** checked.exponent,
                              group_name(group), group_name(hs.normal_completion),
                              witness is not None)
    return StructuralReport(
        substitution=sub,
        exponent=checked.exponent,
        g0_index=matrix.base[0],
        rset=rset,
        structure_group=group,
        little_group=hs.little_group,
        normal_completion=hs.normal_completion,
        height=hs.height,
        classical_height=hs.classical_height,
        r_pi=sub.size,
        fiber=checked.fiber,
        matrix=matrix,
        degree=degrees,
        aut=aut,
        order_h_witness=witness,
        global_strings=strings,
        unresolved_extension=hs.height > hs.classical_height,
        aperiodicity=checked.aperiodicity,
    )


class AnalysisConfig:
    def __init__(self, g0_index: int | None = None, verify: bool = False,
                 output_format: str = "text"):
        if output_format not in ("text", "json"):
            raise ValidationError("output format must be 'text' or 'json'")
        self.g0_index, self.verify, self.output_format = g0_index, verify, output_format


def analyze_substitution(sub: Substitution, config: AnalysisConfig | None = None) -> StructuralReport:
    """Check the input once (:func:`check_input`) and run the pipeline on
    the value the check returns; under ``verify``, build the matrix action
    and compare it with the window oracle."""
    config = config or AnalysisConfig()
    checked = check_input(sub)
    report = global_description(checked, config.g0_index)
    if config.verify:
        action = FiberAction(report.matrix, report.fiber)
        comparison = oracle_equivalence(checked.original, checked.exponent, report.matrix, action)
        report = report._replace(oracle=comparison)
        if not comparison.equal:
            raise InternalCheckError(
                "window oracle disagrees with the algebraic semigroup: "
                + "; ".join(comparison.discrepancies), stage="window oracle")
    return report
