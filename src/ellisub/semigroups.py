"""Finite transformation semigroups on a fixed point set: closure from
generating maps, Green's relations, kernel, and the completely-simple test.

Elements are self-maps of {0..degree-1} stored as image tuples (not
necessarily injective).  Composition follows the same convention as
permutations: ``x compose y`` applies y first.  Products are composed on
demand; no Cayley table is stored.  Green's relations are read off the
Cayley graphs over the generators (East, Egri-Nagy, Mitchell & Peresse,
*Computing finite semigroups*, 2019): x S^1, S^1 x and S^1 x S^1 are the
sets reachable from x along right, left and two-sided edges, so R-, L- and
J = D-classes are strongly connected components, and the cost is
|S| * (number of generators) compositions instead of |S|^2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InternalCheckError, ResourceLimitError, ValidationError

FiberMap = tuple[int, ...]

CLOSURE_CAP = 10**5


def map_compose(x: FiberMap, y: FiberMap) -> FiberMap:
    """x after y."""
    return tuple([x[i] for i in y])


class TransformationSemigroup:
    """A composition-closed set of self-maps with deterministic element order."""

    def __init__(self, degree: int, elements: tuple[FiberMap, ...],
                 generators: tuple[FiberMap, ...]):
        self.degree = degree
        self.elements = elements  # sorted
        self.generators = generators
        self.index = {x: i for i, x in enumerate(elements)}
        self.contains_identity = tuple(range(degree)) in self.index
        self.table = None  # no Cayley table is stored; bench/tracing.py reads this attribute

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransformationSemigroup)
                and self.degree == other.degree and self.elements == other.elements)

    def __contains__(self, x: FiberMap) -> bool:
        return x in self.index

    def mul(self, i: int, j: int) -> int:
        return self.index[map_compose(self.elements[i], self.elements[j])]

    def idempotent_indices(self) -> list[int]:
        return [i for i in range(self.size) if self.mul(i, i) == i]


def semigroup_closure(gens: list[FiberMap] | tuple[FiberMap, ...],
                      degree: int | None = None, cap: int = CLOSURE_CAP) -> TransformationSemigroup:
    """Smallest composition-closed set of maps containing ``gens``.

    Left multiplication by the generators suffices: g1 g2 ... gk is reached
    from gk in k - 1 steps, so the cost is |S| * |gens| compositions, with
    each distinct generator walked once.
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
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = tuple([g[i] for i in x])
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > cap:
                        raise ResourceLimitError(
                            f"semigroup closure exceeded cap of {cap} elements")
        frontier = new
    return TransformationSemigroup(degree, tuple(sorted(elements)), tuple(sorted(gens)))


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
        def sizes(classes):
            return [len(c) for c in classes]
        return green_summary(sizes(self.l_classes), sizes(self.r_classes),
                             sizes(self.h_classes), sizes(self.d_classes),
                             len(self.idempotents), len(self.kernel))


def green_summary(l_sizes: list[int], r_sizes: list[int], h_sizes: list[int],
                  d_sizes: list[int], idempotents: int, kernel_size: int) -> dict:
    """The reported shape of a Green structure, from the size of every L-,
    R-, H- and D-class: per relation the class count and how many classes
    have each size, then the idempotent count and the kernel size."""
    def shape(class_sizes):
        counts = Counter(class_sizes)
        return {"count": len(class_sizes), "sizes": {str(k): v for k, v in sorted(counts.items())}}
    return {
        "l_classes": shape(l_sizes),
        "r_classes": shape(r_sizes),
        "h_classes": shape(h_sizes),
        "d_classes": shape(d_sizes),
        "idempotents": idempotents,
        "kernel_size": kernel_size,
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
    ``sg.generators``.

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
    right = [[index[map_compose(x, elements[g])] for g in gens] for x in elements]
    left = [[index[map_compose(elements[g], x)] for g in gens] for x in elements]

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
        idempotents=tuple(sg.idempotent_indices()),
        kernel=tuple(i for i in range(n) if j_labels[i] == sink))


def is_completely_simple(sg: TransformationSemigroup,
                         green: GreenStructure | None = None) -> bool:
    """Finite case: simple (kernel is everything) plus an idempotent."""
    green = green or green_structure(sg)
    return len(green.kernel) == sg.size and bool(green.idempotents)
