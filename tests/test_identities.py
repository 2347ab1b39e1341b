"""Identities of the construction that no substitution can break, so a plain
analysis does not recheck them: they are tested here over the golden cases
and the random corpus.  The proofs are in the docstrings of
``ellisub.pipeline`` and ``ellisub.rees.FiberAction``."""

import random

import pytest

from ellisub.perms import compose, inverse
from ellisub.rees import PLUS, ReesMatrixSemigroup, substitution_sandwich
from ellisub.report import report_to_json
from ellisub.substitution import allowed_two_words, columns, substitution_power
from conftest import pair_closure, rset_and_group, translates
from reference import (as_transformation_semigroup, generated_group, green_structure,
                       left_regular_action)


def realized_pairs(matrix, fiber) -> set:
    """The column pairs (L, R) that the + maps of the matrix action realize,
    read back from the maps: (i, g, +) sends a.b to L(b).R(b)."""
    phi = as_transformation_semigroup(matrix, fiber)
    size = matrix.group.degree
    pairs = set()
    for x, image in phi.items():
        if x.lam != PLUS:
            continue
        left, right = [None] * size, [None] * size
        for (_, b), k in zip(fiber.pairs, image):
            left[b], right[b] = fiber.pairs[k]
        pairs.add((tuple(left), tuple(right)))
    return pairs


def test_pair_closure_is_the_set_the_matrix_action_realizes(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        rset, group = rset_and_group(sub)
        pairs = pair_closure(sub, group)
        assert pairs == {(compose(inverse(i), r), r) for i in rset for r in group.elements}
        matrix = substitution_sandwich(group, rset, rset[0])
        assert realized_pairs(matrix, allowed_two_words(sub)) == pairs
        # the consecutive pairs of the written-out powers lie in the closure
        # and regenerate it
        for n in (2, 3):
            written = columns(substitution_power(sub, n))
            raw = set(zip(written, written[1:]))
            assert raw <= pairs
            assert translates(raw, group) == pairs


def test_green_summary_of_the_matrix_is_that_of_the_fiber_maps(golden_reports, golden_fibers,
                                                                random_reports, random_fibers):
    cases = list(zip(golden_reports.values(), golden_fibers.values()))
    cases += list(zip(random_reports, random_fibers))
    for report, built in cases:
        assert report.matrix.green_summary() == built.green.summary()
        assert report_to_json(report)["green"] == built.green.summary()


@pytest.mark.parametrize("n_i, n_lam", [(3, 4), (2, 1), (1, 3)])
def test_green_summary_of_a_matrix_with_other_row_counts(n_i, n_lam):
    group = generated_group([(1, 0, 2), (1, 2, 0)])  # S_3
    rng = random.Random(n_i * 10 + n_lam)
    sandwich = tuple(tuple(rng.choice(group.elements) for _ in range(n_i))
                     for _ in range(n_lam))
    m = ReesMatrixSemigroup(group, tuple(range(n_i)), tuple(range(n_lam)), sandwich)
    sg, _ = left_regular_action(m)
    assert sg.size == m.size == n_i * n_lam * group.order
    assert m.green_summary() == green_structure(sg).summary()
