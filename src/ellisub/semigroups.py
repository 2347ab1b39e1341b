"""Transformation semigroups: composition-closed sets of self-maps of
{0..degree-1}, stored as image tuples, not necessarily injective.

No analysis builds one: the Green structure of the structural semigroup is
read off its Rees matrix form
(:meth:`ellisub.rees.ReesMatrixSemigroup.green_summary`), and fiber maps
compose through :func:`ellisub.perms.compose`.
"""

from __future__ import annotations


class TransformationSemigroup:
    """A composition-closed set of self-maps with deterministic element order.

    Nothing in the package builds one: the benchmark's tracer
    (``bench/tracing.py``) wraps its constructor, and the reference
    computations under ``tests/`` build them.  It goes once the tracer stops
    reading it.
    """

    def __init__(self, degree: int, elements: tuple[tuple[int, ...], ...],
                 generators: tuple[tuple[int, ...], ...]):
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
