"""Permutations as image tuples, and finite permutation groups by explicit enumeration.

A permutation of {0..n-1} is a tuple ``p`` with ``p[x]`` the image of ``x``.
Products are written like function composition: ``compose(p, q)`` applies ``q``
first.  ``compose`` is the kernel under every group and semigroup check, so it
runs in C: ``itemgetter(*q)(p)`` reads p at the images of q in one call.
``itemgetter`` of one index returns a scalar and of none raises, so below
degree 2 the kernel falls back to a list comprehension.  Where one right
factor q is applied to many left factors, :func:`after` builds its getter
once, and each product then costs one C call.  ``cycle_string``, which the
report calls once per permutation it prints, skips fixed points without
building a cycle for them.  Groups are stored as the full, lexicographically
sorted element list; alphabets in scope are tiny (n <= 10), so enumeration
beats stabilizer chains on simplicity and is fast enough by a wide margin.

Every group closed after the structure group G is a subgroup of G, so
:func:`closure` checks generators by membership in G and stops at |G|
elements, returning G.  :attr:`PermGroup.orders` counts element orders once,
by cyclic subgroups; :func:`element_order` is the reference.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import Frozen, ResourceLimitError, ValidationError

Perm = tuple[int, ...]

CLOSURE_CAP = 10**6


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p: Perm) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: x -> p[q[x]]."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple([p[x] for x in q])


def after(q: Perm) -> Callable[[Perm], Perm]:
    """The map p -> compose(p, q), built once for a right factor applied to
    many left factors; it also reads a list p."""
    if len(q) > 1:
        return itemgetter(*q)
    return lambda p: tuple([p[x] for x in q])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def element_order(p: Perm) -> int:
    """Least n >= 1 with p^n = id (lcm of cycle lengths)."""
    return lcm(*[len(c) for c in cycles(p)]) if p else 1


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
    name = letters or [str(x) for x in range(len(p))]
    seen: set[int] = set()
    parts = []
    # the first point of each cycle met in this scan is its least
    for x, y in enumerate(p):
        if y == x or x in seen:
            continue
        cycle = [name[x]]
        while y != x:
            seen.add(y)
            cycle.append(name[y])
            y = p[y]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "()"


class PermGroup(Frozen):
    """A finite permutation group with its full element set materialized,
    sorted lexicographically."""

    _fields = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: tuple[Perm, ...]):
        vars(self).update(degree=degree, generators=generators, elements=elements)

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

    @cached_property
    def orders(self) -> dict[Perm, int]:
        """The order of each element, one cyclic subgroup at a time: the walk
        p, p^2, ..., p^k = 1 from an element not yet met gives
        ord(p^j) = k / gcd(j, k) for every j, one composition per power."""
        orders: dict[Perm, int] = {}
        ident = identity(self.degree)
        for p in self.elements:
            if p not in orders:
                step, q, powers = after(p), p, [p]
                while q != ident:
                    q = step(q)
                    powers.append(q)
                k = len(powers)
                for j, q in enumerate(powers, 1):
                    orders[q] = k // gcd(j, k)
        return orders

    @cached_property
    def fingerprint(self) -> "GroupFingerprint":
        """Order, abelianness, exponent and element-order counts, computed
        once per element set (see :meth:`with_generators`): the report and
        the global strings both read them."""
        orders = Counter(self.orders.values())
        abelian = all(compose(a, b) == compose(b, a)
                      for a in self.generators for b in self.generators)
        return GroupFingerprint(self.order, abelian, lcm(*orders), tuple(sorted(orders.items())))

    def with_generators(self, generators) -> "PermGroup":
        """This group under other generators, sharing its element set, element
        orders and fingerprint, which depend on the elements alone."""
        group = PermGroup(self.degree, tuple(generators), self.elements)
        vars(group).update(element_set=self.element_set, orders=self.orders,
                           fingerprint=self.fingerprint)
        return group


def closure(gens: list[Perm] | tuple[Perm, ...], degree: int | None = None,
            ambient: PermGroup | None = None) -> PermGroup:
    """Smallest group containing ``gens``, found by breadth-first multiplication
    on the right by each distinct generator, through one getter per generator.

    ``degree`` is required when ``gens`` is empty and no ``ambient`` group
    holds them.  Inside ``ambient`` the walk stops as soon as it holds
    |ambient| elements and returns ``ambient``: a subset of a finite group
    with as many elements is the group.  Otherwise it raises
    ResourceLimitError past ``CLOSURE_CAP`` elements.
    """
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    if ambient is not None:
        degree = ambient.degree
    elif degree is None:
        if not gens:
            raise ValidationError("closure of an empty generator list needs an explicit degree")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValidationError(f"generator acts on {len(g)} points, expected {degree}")
        if not (is_perm(g) if ambient is None else g in ambient):
            raise ValidationError(f"generator {g} is not a permutation" if ambient is None
                                  else f"generator {g} lies outside the ambient group")
    if ambient is not None and ambient.order == 1:  # the identity alone fills it
        return ambient
    stop = ambient.order if ambient is not None else CLOSURE_CAP + 1
    ident = identity(degree)
    elements, frontier = {ident}, [ident]
    getters = [after(g) for g in gens]
    while frontier:
        new = []
        for g_after in getters:
            for y in map(g_after, frontier):
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) == stop:
                        if ambient is None:
                            raise ResourceLimitError(
                                f"group closure exceeded cap of {CLOSURE_CAP} elements")
                        return ambient
        frontier = new
    return PermGroup(degree, tuple(sorted(gens)) or (ident,), tuple(sorted(elements)))


def _conjugates(elements, conjugators: tuple[Perm, ...]):
    """y x y^-1 for each x in ``elements`` and each y in ``conjugators``,
    x-major: two getter calls each, x's getter reading y and y^-1's reading
    the product."""
    by_inverse = [(y, after(inverse(y))) for y in conjugators]
    for x in elements:
        x_after = after(x)
        for y, y_inv_after in by_inverse:
            yield y_inv_after(x_after(y))


def normal_closure(sub: PermGroup, ambient: PermGroup) -> PermGroup:
    """Smallest subgroup of ``ambient`` containing ``sub`` and invariant
    under conjugation by all of ``ambient``.

    Grown from generators (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, section 3): start from <X> = ``sub``, closed already, with
    X its generators; add the conjugates y x y^-1 with y in
    ``ambient.generators`` and x a newly added generator that the closure
    misses, close again, and repeat until there are none.  Conjugates of
    older generators already lie inside, so then y<X>y^-1 is in <X> for every
    generator y of ``ambient``, and <X> is normal.  Each round's closure is
    the subgroup generated by the previous one and its conjugates, so the
    chain of subgroups is the one met by closing over all their elements.

    ``generators`` of the result are the generators it closed: those of
    ``sub``, then the conjugates each round added, in that order.  Each round
    closes inside ``ambient``.
    """
    for g in sub.generators:
        if g not in ambient:
            raise ValidationError(f"{g} lies outside the ambient group")
    gens = list(sub.generators)
    current, new = sub, gens
    while current.order < ambient.order:
        new = sorted(set(_conjugates(new, ambient.generators)) - current.element_set)
        if not new:
            break
        gens += new
        current = closure(gens, ambient=ambient)
    return current.with_generators(gens)


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
    """Centralizer of a transitive ``group`` inside the full symmetric group
    on its points.

    A centralizing map is pinned down by the image of point 0: extend
    candidate c along a transversal via c(w(0)) = w(c(0)), then keep
    candidates commuting with every generator.
    """
    if not is_transitive(group):
        raise ValidationError("the centralizer is computed for transitive groups only")
    n = group.degree
    words = _transversal(group)
    found: list[Perm] = []
    for target in range(n):
        images = [0] * n
        for x in range(n):
            images[x] = words[x][target]
        c = tuple(images)
        if not is_perm(c):
            continue
        if all(compose(c, g) == compose(g, c) for g in group.generators):
            found.append(c)
    found.sort()
    return PermGroup(n, tuple(found), tuple(found))


def is_normal(sub: PermGroup, ambient: PermGroup) -> bool:
    """Whether ``sub`` is a normal subgroup of ``ambient``.  A subgroup with
    as many elements as ``ambient`` is ``ambient``, normal in itself;
    otherwise each conjugate of an element of ``sub`` by a generator of
    ``ambient`` must lie in ``sub``."""
    if not sub.is_subgroup_of(ambient):
        return False
    if sub.order == ambient.order:
        return True
    elems = sub.element_set
    return all(c in elems for c in _conjugates(sub.elements, ambient.generators))


class GroupFingerprint(NamedTuple):
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

    @property
    def name(self) -> str | None:
        """Name of the abstract isomorphism type for orders <= 12, else None."""
        return _NAMES.get((self.order, self.abelian, self.element_orders))


def group_fingerprint(group: PermGroup) -> GroupFingerprint:
    return group.fingerprint


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
    return group.fingerprint.name
