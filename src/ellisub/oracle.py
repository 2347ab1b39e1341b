"""Independent verification by actual shift dynamics on fixed-point windows.

Everything here is built from nothing but the substitution rules: letters of
the two-sided fixed points are read off by base-l digit walks, the maps
induced on the singular fiber by large shift powers sigma^(nu * l^k) are
tracked until they stabilize across levels, and the collected maps are closed
under composition.  Only the comparison step looks at the algebraic pipeline;
the construction never does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .semigroups import (FiberMap, TransformationSemigroup,
                         semigroup_closure)
from .substitution import (Substitution, TwoWordFiber, allowed_two_words,
                           is_simplified, letter_at)

DEFAULT_MAX_LEVEL = 4
ESCALATED_MAX_LEVEL = 6


def shift_two_word(sub: Substitution, pair: tuple[int, int], nu: int,
                   level: int) -> tuple[int, int]:
    """The two-letter word of sigma^nu applied to the fixed point a.b, read at
    positions nu-1 and nu of the level-sized window."""
    if nu == 0 or abs(nu) >= sub.length**level:
        raise ValidationError(f"shift {nu} is outside the level-{level} window")
    return (letter_at(sub, pair, nu - 1), letter_at(sub, pair, nu))


def induced_fiber_map(sub: Substitution, fiber: TwoWordFiber, nu: int,
                      level: int) -> FiberMap:
    """Self-map of the fiber induced by sigma^(nu * l^level): each fixed point
    goes to the fixed point named by its shifted two-letter word."""
    shift = nu * sub.length**level
    index = {p: k for k, p in enumerate(fiber.pairs)}
    images = []
    for pair in fiber.pairs:
        word = (letter_at(sub, pair, shift - 1), letter_at(sub, pair, shift))
        if word not in index:
            raise ValidationError(f"shifted two-word {word} is not an allowed two-word")
        images.append(index[word])
    return tuple(images)


@dataclass(frozen=True)
class OracleMap:
    nu: int
    stabilized_at: int  # first level k with identical maps at k, k+1, k+2
    fiber_map: FiberMap


@dataclass
class OracleResult:
    fiber: TwoWordFiber
    maps: tuple[OracleMap, ...]
    incomplete: tuple[int, ...]  # shifts nu that never stabilized
    max_level: int
    semigroup: TransformationSemigroup | None  # closure; None when incomplete

    @property
    def complete(self) -> bool:
        return not self.incomplete

    def stabilization_by_nu(self) -> dict[int, int]:
        return {m.nu: m.stabilized_at for m in self.maps}


def limit_maps(sub: Substitution, max_level: int = DEFAULT_MAX_LEVEL,
               escalate: bool = True) -> OracleResult:
    """Track sigma^(nu * l^k) on the fiber for 0 < |nu| < l and k up to
    max_level; keep a map once it repeats over three consecutive levels.

    Composition closure of the seed maps yields the full stabilized semigroup.
    Non-stabilization is reported per nu, never silently dropped; one
    escalation retry raises the level ceiling to 6.
    """
    if not is_simplified(sub):
        raise ValidationError("the window oracle needs a simplified substitution")
    if max_level < 1:
        raise ValidationError("max_level must be >= 1")
    fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
    length = sub.length
    stabilized: list[OracleMap] = []
    incomplete: list[int] = []
    shifts = list(range(1, length)) + list(range(-length + 1, 0))
    for nu in shifts:
        levels = [induced_fiber_map(sub, fiber, nu, k) for k in range(1, max_level + 1)]
        found = None
        for k in range(len(levels) - 2):
            if levels[k] == levels[k + 1] == levels[k + 2]:
                found = OracleMap(nu, k + 1, levels[k])
                break
        if found is None:
            incomplete.append(nu)
        else:
            stabilized.append(found)
    if incomplete and escalate and max_level < ESCALATED_MAX_LEVEL:
        return limit_maps(sub, ESCALATED_MAX_LEVEL, escalate=False)
    if incomplete:
        return OracleResult(fiber, tuple(stabilized), tuple(incomplete), max_level, None)
    seeds = sorted({m.fiber_map for m in stabilized})
    sg = semigroup_closure(seeds, degree=fiber.size)
    return OracleResult(fiber, tuple(stabilized), (), max_level, sg)


def oracle_result_to_json(result: OracleResult,
                          letters: tuple[str, ...] | None = None) -> dict:
    """JSON form: per-shift stabilization levels and stabilized map tables
    keyed by two-word labels."""
    fiber = result.fiber
    if letters is None:
        labels = [f"{a}.{b}" for a, b in fiber.pairs]
    else:
        labels = [letters[a] + letters[b] for a, b in fiber.pairs]

    def table(f: FiberMap) -> dict:
        return {labels[k]: labels[f[k]] for k in range(fiber.size)}

    return {
        "fiber": labels,
        "max_level": result.max_level,
        "complete": result.complete,
        "incomplete_shifts": list(result.incomplete),
        "stabilized": [
            {"shift": m.nu, "level": m.stabilized_at, "map": table(m.fiber_map)}
            for m in result.maps
        ],
        "semigroup_size": result.semigroup.size if result.semigroup else None,
    }


@dataclass
class OracleComparison:
    equal: bool
    discrepancies: tuple[str, ...]
    oracle: OracleResult

    def to_json(self, letters: tuple[str, ...] | None = None) -> dict:
        payload = oracle_result_to_json(self.oracle, letters)
        payload["equal"] = self.equal
        payload["discrepancies"] = list(self.discrepancies)
        return payload


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


def oracle_equivalence(sub: Substitution, algebraic: TransformationSemigroup,
                       max_level: int = DEFAULT_MAX_LEVEL,
                       escalate: bool = True) -> OracleComparison:
    """Compare the dynamically built semigroup against the algebraic one:
    equal map sets, or a discrepancy list.

    ``algebraic`` is the fiber semigroup of the algebraic pipeline; it enters
    only the comparison, never the construction of the oracle's maps.
    """
    result = limit_maps(sub, max_level, escalate)
    if not result.complete:
        return OracleComparison(
            False,
            tuple(f"no stabilization for nu={nu} by level {result.max_level}"
                  for nu in result.incomplete),
            result)
    discrepancies = compare_map_semigroups(result.semigroup, algebraic)
    return OracleComparison(not discrepancies, discrepancies, result)


@dataclass
class ProximalityData:
    fiber: TwoWordFiber
    forward: tuple[tuple[int, ...], ...]   # fiber indices grouped by right letter
    backward: tuple[tuple[int, ...], ...]  # grouped by left letter


def proximality_classes(sub: Substitution, check: bool = True) -> ProximalityData:
    """Forward classes group fixed points by right letter, backward by left.

    With check=True the Ellis-proximality link is verified against the
    oracle's own maps: every stabilized map depends only on the right letter
    (then it merges exactly the forward classes) or only on the left letter
    (backward), and when the fiber is strictly larger than the alphabet both
    partitions contain a merged pair.
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
    if check:
        _check_merge_classes(sub, data)
    return data


def _merged_pairs(classes: tuple[tuple[int, ...], ...]) -> frozenset[tuple[int, int]]:
    return frozenset((x, y) for c in classes for x in c for y in c if x < y)


def _check_merge_classes(sub: Substitution, data: ProximalityData) -> None:
    result = limit_maps(sub)
    if not result.complete:
        raise ValidationError("oracle maps did not stabilize; cannot validate proximality")
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
