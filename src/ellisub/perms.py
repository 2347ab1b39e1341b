"""Permutations as image tuples, and finite permutation groups by explicit enumeration.

A permutation of {0..n-1} is a tuple ``p`` with ``p[x]`` the image of ``x``.
Products are written like function composition: ``compose(p, q)`` applies ``q``
first.  Groups are stored as the full, lexicographically sorted element list;
alphabets in scope are tiny (n <= 10), so enumeration beats stabilizer chains
on simplicity and is fast enough by a wide margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import ResourceLimitError, ValidationError

Perm = tuple[int, ...]

CLOSURE_CAP = 10**6
SYMMETRIC_FALLBACK_MAX = 8


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p: Perm) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def element_order(p: Perm) -> int:
    """Least n >= 1 with p^n = id (lcm of cycle lengths)."""
    return lcm(*(len(c) for c in cycles(p))) if p else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle led by its minimum."""
    seen: set[int] = set()
    out = []
    for x in range(len(p)):
        if x in seen:
            continue
        c = [x]
        seen.add(x)
        y = p[x]
        while y != x:
            c.append(y)
            seen.add(y)
            y = p[y]
        out.append(tuple(c))
    return out


def cycle_string(p: Perm, letters: tuple[str, ...] | None = None) -> str:
    """Cycle notation, e.g. "(a b)(c d)"; the identity renders as "()"."""
    name = (lambda x: letters[x]) if letters else str
    parts = ["(" + " ".join(name(x) for x in c) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) or "()"


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group with its full element set materialized."""

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]  # sorted lexicographically

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        """The elements as a set, built once per group."""
        return frozenset(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.element_set <= other.element_set


def closure(gens: list[Perm] | tuple[Perm, ...], degree: int | None = None,
            cap: int = CLOSURE_CAP) -> PermGroup:
    """Smallest group containing ``gens``, found by breadth-first multiplication.

    ``degree`` is required when ``gens`` is empty (the trivial group).
    """
    gens = [tuple(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValidationError("closure of an empty generator list needs an explicit degree")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValidationError(f"generator acts on {len(g)} points, expected {degree}")
        if not is_perm(g):
            raise ValidationError(f"generator {g} is not a permutation")
    ident = identity(degree)
    elements = {ident}
    frontier = [ident]
    for g in gens:
        if g not in elements:
            elements.add(g)
            frontier.append(g)
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = compose(g, x)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > cap:
                        raise ResourceLimitError(f"group closure exceeded cap of {cap} elements")
        frontier = new
    return PermGroup(degree, tuple(sorted(set(gens))) or (ident,), tuple(sorted(elements)))


def normal_closure(sub_gens: list[Perm] | tuple[Perm, ...], ambient: PermGroup) -> PermGroup:
    """Smallest subgroup of ``ambient`` containing ``sub_gens`` and invariant
    under conjugation by all of ``ambient``."""
    for g in sub_gens:
        if g not in ambient:
            raise ValidationError(f"{g} lies outside the ambient group")
    current = closure(list(sub_gens), ambient.degree)
    while True:
        conjugates = []
        for g in ambient.generators:
            ginv = inverse(g)
            for x in current.elements:
                y = compose(compose(g, x), ginv)
                if y not in current:
                    conjugates.append(y)
        if not conjugates:
            return current
        current = closure(list(current.elements) + conjugates, ambient.degree)


def is_transitive(group: PermGroup) -> bool:
    """True iff the orbit of point 0 is everything."""
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return len(orbit) == group.degree


def _transversal(group: PermGroup) -> dict[int, Perm]:
    """For transitive groups: one group element w with w(0) = x, per point x."""
    words: dict[int, Perm] = {0: identity(group.degree)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = g[x]
            if y not in words:
                words[y] = compose(g, words[x])
                frontier.append(y)
    return words


def centralizer_in_symmetric(group: PermGroup) -> PermGroup:
    """Centralizer of ``group`` inside the full symmetric group on its points.

    For transitive groups a centralizing map is pinned down by the image of
    point 0: extend candidate c along a transversal via c(w(0)) = w(c(0)),
    then keep candidates commuting with every generator.  Non-transitive
    groups fall back to filtering all n! permutations (n <= 8).
    """
    n = group.degree
    found: list[Perm] = []
    if is_transitive(group):
        words = _transversal(group)
        for target in range(n):
            images = [0] * n
            for x in range(n):
                images[x] = words[x][target]
            c = tuple(images)
            if not is_perm(c):
                continue
            if all(compose(c, g) == compose(g, c) for g in group.generators):
                found.append(c)
    else:
        if n > SYMMETRIC_FALLBACK_MAX:
            raise ResourceLimitError(
                f"centralizer fallback enumerates {n}! permutations; refusing for n > {SYMMETRIC_FALLBACK_MAX}")
        for c in itertools.permutations(range(n)):
            if all(compose(c, g) == compose(g, c) for g in group.generators):
                found.append(c)
    found.sort()
    return PermGroup(n, tuple(found), tuple(found))


def is_normal(sub: PermGroup, ambient: PermGroup) -> bool:
    if not sub.is_subgroup_of(ambient):
        return False
    elems = sub.element_set
    for g in ambient.generators:
        ginv = inverse(g)
        for x in sub.elements:
            if compose(compose(g, x), ginv) not in elems:
                return False
    return True


def quotient_data(group: PermGroup, normal: PermGroup) -> tuple[int, bool]:
    """(order, is_cyclic) of group/normal; normality is verified, not assumed."""
    if not normal.is_subgroup_of(group):
        raise ValidationError("quotient: not a subgroup")
    if not is_normal(normal, group):
        raise ValidationError("quotient: subgroup is not normal")
    nset = normal.element_set
    cosets: dict[frozenset[Perm], Perm] = {}
    for g in group.elements:
        c = frozenset(compose(g, x) for x in nset)
        if c not in cosets:
            cosets[c] = g
    order = len(cosets)
    assert order * normal.order == group.order
    is_cyclic = False
    for rep in cosets.values():
        seen = set()
        g = identity(group.degree)
        for _ in range(order):
            seen.add(frozenset(compose(g, x) for x in nset))
            g = compose(rep, g)
        if len(seen) == order:
            is_cyclic = True
            break
    return order, is_cyclic


@dataclass(frozen=True)
class GroupFingerprint:
    order: int
    abelian: bool
    exponent: int
    element_orders: tuple[tuple[int, int], ...]  # (order, count), sorted

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.abelian,
            "exponent": self.exponent,
            "element_orders": {str(k): v for k, v in self.element_orders},
        }


def group_fingerprint(group: PermGroup) -> GroupFingerprint:
    orders: dict[int, int] = {}
    for g in group.elements:
        o = element_order(g)
        orders[o] = orders.get(o, 0) + 1
    abelian = all(compose(a, b) == compose(b, a)
                  for a in group.generators for b in group.generators)
    return GroupFingerprint(
        order=group.order,
        abelian=abelian,
        exponent=lcm(*orders.keys()),
        element_orders=tuple(sorted(orders.items())),
    )


# (order, abelian, element-order multiset) separates all groups of order <= 12.
_NAMES: dict[tuple[int, bool, tuple[tuple[int, int], ...]], str] = {}


def _register(name: str, order: int, abelian: bool, orders: dict[int, int]) -> None:
    _NAMES[(order, abelian, tuple(sorted(orders.items())))] = name


_register("1", 1, True, {1: 1})
_register("Z/2", 2, True, {1: 1, 2: 1})
_register("Z/3", 3, True, {1: 1, 3: 2})
_register("Z/4", 4, True, {1: 1, 2: 1, 4: 2})
_register("Z/2xZ/2", 4, True, {1: 1, 2: 3})
_register("Z/5", 5, True, {1: 1, 5: 4})
_register("Z/6", 6, True, {1: 1, 2: 1, 3: 2, 6: 2})
_register("S_3", 6, False, {1: 1, 2: 3, 3: 2})
_register("Z/7", 7, True, {1: 1, 7: 6})
_register("Z/8", 8, True, {1: 1, 2: 1, 4: 2, 8: 4})
_register("Z/4xZ/2", 8, True, {1: 1, 2: 3, 4: 4})
_register("Z/2xZ/2xZ/2", 8, True, {1: 1, 2: 7})
_register("D_4", 8, False, {1: 1, 2: 5, 4: 2})
_register("Q_8", 8, False, {1: 1, 2: 1, 4: 6})
_register("Z/9", 9, True, {1: 1, 3: 2, 9: 6})
_register("Z/3xZ/3", 9, True, {1: 1, 3: 8})
_register("Z/10", 10, True, {1: 1, 2: 1, 5: 4, 10: 4})
_register("D_5", 10, False, {1: 1, 2: 5, 5: 4})
_register("Z/11", 11, True, {1: 1, 11: 10})
_register("Z/12", 12, True, {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4})
_register("Z/6xZ/2", 12, True, {1: 1, 2: 3, 3: 2, 6: 6})
_register("A_4", 12, False, {1: 1, 2: 3, 3: 8})
_register("D_6", 12, False, {1: 1, 2: 7, 3: 2, 6: 2})
_register("Dic_3", 12, False, {1: 1, 2: 1, 3: 2, 4: 6, 6: 2})


def group_name(group: PermGroup) -> str | None:
    """Name of the abstract isomorphism type for orders <= 12, else None."""
    fp = group_fingerprint(group)
    return _NAMES.get((fp.order, fp.abelian, fp.element_orders))
