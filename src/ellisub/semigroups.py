"""Self-maps of a fixed point set and their composition, and the reported
shape of a Green structure.

Elements are self-maps of {0..degree-1} stored as image tuples (not
necessarily injective).  Composition follows the same convention as
permutations, ``map_compose(x, y)`` applies y first, and runs in C the same
way as :func:`ellisub.perms.compose`: ``itemgetter(*y)(x)``, with a list
comprehension below degree 2, where ``itemgetter`` of one index returns a
scalar and of none raises.  Where one right factor y is applied to many
maps, :func:`map_after` builds its getter once.  Products are composed on
demand; no map semigroup is closed or tabled: the window oracle names its
maps through the matrix action and never closes them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

FiberMap = tuple[int, ...]


def map_compose(x: FiberMap, y: FiberMap) -> FiberMap:
    """x after y."""
    if len(y) > 1:
        return itemgetter(*y)(x)
    return tuple([x[i] for i in y])


def map_after(y: FiberMap) -> Callable[[FiberMap], FiberMap]:
    """The map x -> map_compose(x, y), built once for a right factor applied
    to many maps."""
    if len(y) > 1:
        return itemgetter(*y)
    return lambda x: tuple([x[i] for i in y])


class TransformationSemigroup:
    """A composition-closed set of self-maps with deterministic element order.

    Nothing in the package builds one: the benchmark's tracer
    (``bench/tracing.py``) wraps its constructor, and the reference
    computations under ``tests/`` build them.  It goes once the tracer stops
    reading it.
    """

    def __init__(self, degree: int, elements: tuple[FiberMap, ...],
                 generators: tuple[FiberMap, ...]):
        self.degree = degree
        self.elements = elements  # sorted
        self.generators = generators
        self.index = {x: i for i, x in enumerate(elements)}
        self.table = None  # no Cayley table is stored; bench/tracing.py reads this attribute

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransformationSemigroup)
                and self.degree == other.degree and self.elements == other.elements)


def green_summary(l_counts: dict[int, int], r_counts: dict[int, int], h_counts: dict[int, int],
                  d_counts: dict[int, int], idempotents: int, kernel_size: int) -> dict:
    """The reported shape of a Green structure, from how many L-, R-, H- and
    D-classes have each size (a map from class size to class count): per
    relation the class count and the count of each size, then the
    idempotent count and the kernel size."""
    def shape(counts):
        return {"count": sum(counts.values()),
                "sizes": {str(k): v for k, v in sorted(counts.items())}}
    return {
        "l_classes": shape(l_counts),
        "r_classes": shape(r_counts),
        "h_classes": shape(h_counts),
        "d_classes": shape(d_counts),
        "idempotents": idempotents,
        "kernel_size": kernel_size,
    }
