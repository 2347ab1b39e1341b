"""Independent verification by actual shift dynamics on fixed-point windows.

Everything here is built from nothing but the substitution rules: the maps
induced on the singular fiber by the shift powers sigma^(nu * l^k) are read
off the letters of the two-sided fixed points, and the collected maps are
closed under composition.  Only the comparison step looks at the algebraic
pipeline; the construction never does.

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
read straight off the rule words.  :func:`induced_fiber_map` reads any level
by base-l digit walks; the tests use it to check the collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .semigroups import (FiberMap, TransformationSemigroup,
                         semigroup_closure)
from .substitution import (Substitution, TwoWordFiber, allowed_two_words,
                           is_simplified, letter_at)

LIMIT_LEVEL = 1  # the level reported for every shift; the map is constant in the level
REPORTED_MAX_LEVEL = 4  # ellis-report/1 keeps the ceiling the old level search printed by default


def _fiber_map(words: list[tuple[int, int]], index: dict[tuple[int, int], int]) -> FiberMap:
    """The fiber indices of the shifted two-words, one per fixed point."""
    images = tuple([index.get(word) for word in words])
    if None in images:
        word = words[images.index(None)]
        raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
    return images


def induced_fiber_map(sub: Substitution, fiber: TwoWordFiber, nu: int,
                      level: int) -> FiberMap:
    """Self-map of the fiber induced by sigma^(nu * l^level): each fixed point
    goes to the fixed point named by its shifted two-letter word, read by
    digit walks."""
    index = {p: k for k, p in enumerate(fiber.pairs)}
    shift = nu * sub.length**level
    return _fiber_map([(letter_at(sub, pair, shift - 1), letter_at(sub, pair, shift))
                       for pair in fiber.pairs], index)


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
    semigroup: TransformationSemigroup  # closure of the maps

    def stabilization_by_nu(self) -> dict[int, int]:
        """The level each map is reached at: 1 for every shift, by the proof
        in the module docstring."""
        return {m.nu: LIMIT_LEVEL for m in self.maps}


def _few_shifts(length: int) -> list[int]:
    """The shifts +-nu * b^r for 0 < nu < b and 0 <= r < k, where b is the
    smallest integer with b^k = length: 2(b-1)k of the 2(length-1) shifts."""
    for base in range(2, length + 1):
        power, k = base, 1
        while power < length:
            power, k = power * base, k + 1
        if power == length:
            break
    shifts = [nu * base**r for r in range(k) for nu in range(1, base)]
    return shifts + [-nu for nu in shifts]


def _closure_of_maps(by_shift: dict[int, FiberMap], few: list[int],
                     degree: int) -> TransformationSemigroup:
    """The closure of all maps in ``by_shift``, grown from the maps of the
    shifts ``few``.

    If every map lies in the closure C of the few, then C is the closure of
    all of them: C is closed, contains every map, and lies inside the closure
    of all maps.  Otherwise all maps are closed.  Which shifts are chosen
    affects only the cost, never the result.  The generators are the sorted
    distinct maps of all shifts.
    """
    seeds = tuple(sorted(set(by_shift.values())))
    closed = semigroup_closure([by_shift[nu] for nu in few], degree=degree)
    if not all(f in closed for f in seeds):
        closed = semigroup_closure(seeds, degree=degree)
    return TransformationSemigroup(degree, closed.elements, seeds)


def limit_maps(sub: Substitution) -> OracleResult:
    """The limit maps of sigma^(nu * l^k) on the fiber for 0 < |nu| < l, and
    their closure under composition.

    Each map is read once, off the rule words.  That is the limit: for a
    simplified substitution x[nu*l^k] = x[nu] and x[nu*l^k - 1] = x[nu - 1] at
    every level k, since x[p*l + r] = rule(x[p])[r] and the boundary columns
    are the identity (the module docstring spells out the induction), so the
    map does not depend on k.  The closure grows from the 2(b-1)k shifts
    +-nu * b^r, with b^k = l, and falls back to all 2(l-1) maps unless every
    map lies in it (:func:`_closure_of_maps`).
    """
    if not is_simplified(sub):
        raise ValidationError("the window oracle needs a simplified substitution")
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
    index = {p: k for k, p in enumerate(fiber.pairs)}
    length = sub.length
    shifts = list(range(1, length)) + list(range(-length + 1, 0))
    by_shift = {nu: _limit_map(sub, fiber.pairs, index, nu) for nu in shifts}
    sg = _closure_of_maps(by_shift, _few_shifts(length), fiber.size)
    return OracleResult(fiber, tuple(OracleMap(nu, f) for nu, f in by_shift.items()), sg)


@dataclass
class OracleComparison:
    equal: bool
    discrepancies: tuple[str, ...]
    oracle: OracleResult


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


def oracle_equivalence(sub: Substitution, algebraic: TransformationSemigroup) -> OracleComparison:
    """Compare the dynamically built semigroup against the algebraic one:
    equal map sets, or a discrepancy list.

    ``algebraic`` is the fiber semigroup of the algebraic pipeline; it enters
    only the comparison, never the construction of the oracle's maps.
    """
    result = limit_maps(sub)
    discrepancies = compare_map_semigroups(result.semigroup, algebraic)
    return OracleComparison(not discrepancies, discrepancies, result)


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
    _check_merge_classes(sub, data)
    return data


def _merged_pairs(classes: tuple[tuple[int, ...], ...]) -> frozenset[tuple[int, int]]:
    return frozenset((x, y) for c in classes for x in c for y in c if x < y)


def _check_merge_classes(sub: Substitution, data: ProximalityData) -> None:
    result = limit_maps(sub)
    n = data.fiber.size
    forward_pairs = _merged_pairs(data.forward)
    backward_pairs = _merged_pairs(data.backward)
    for f in result.semigroup.elements:
        merged = frozenset((x, y) for x in range(n) for y in range(x + 1, n) if f[x] == f[y])
        # a stabilized map reads one side of the fixed point, so it must merge
        # exactly one of the two partitions
        if merged != forward_pairs and merged != backward_pairs:
            raise ValidationError(
                f"map {f} merges {sorted(merged)}, matching neither proximality partition")
    if n > sub.size:
        if all(len(c) == 1 for c in data.forward) or all(len(c) == 1 for c in data.backward):
            raise ValidationError("expected non-trivial forward and backward proximality")
