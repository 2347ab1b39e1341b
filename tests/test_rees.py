import random
from dataclasses import replace
from itertools import permutations, product

import pytest

import ellisub.pipeline
import ellisub.rees
from ellisub import AnalysisConfig, analyze_substitution
from ellisub.errors import InternalCheckError, ValidationError
from ellisub.perms import PermGroup, closure, compose, identity, inverse
from ellisub.rees import (MINUS, PLUS, SIGN_LABELS, FiberAction, ReesElement,
                          ReesMatrixSemigroup, as_transformation_semigroup,
                          idempotents_of, substitution_sandwich)
from ellisub.semigroups import map_compose, semigroup_closure
from ellisub.substitution import TwoWordFiber, allowed_two_words
from conftest import build_random_corpus, fiber_action, rset_and_group, three_row_matrix
from reference import (element_closure, fiber_semigroup, idempotent_generated,
                       left_regular_action, little_structure_group, multiply,
                       presentations_isomorphic, product_law_failure,
                       reference_action, rees_decomposition, rees_generators,
                       verify_rees_isomorphism)


def sandwich(sub, g0_index: int = 0) -> ReesMatrixSemigroup:
    """The substitution sandwich of a simplified substitution at the R-set
    element with index ``g0_index``."""
    rset, group = rset_and_group(sub)
    return substitution_sandwich(group, rset, rset[g0_index])


def tm_matrix(golden_simplified):
    # the R-set is sorted, so the identity comes first
    return sandwich(golden_simplified["thue_morse"])


def test_substitution_sandwich_thue_morse(golden_simplified):
    m = tm_matrix(golden_simplified)
    ident, swap = identity(2), (1, 0)
    assert m.sandwich == ((ident, ident), (ident, swap))
    assert m.is_normalized()
    assert m.size == 8


def test_sandwich_g0_column_is_identity(golden_simplified):
    for sub in golden_simplified.values():
        rset, group = rset_and_group(sub)
        for g0 in rset:
            m = substitution_sandwich(group, rset, g0)
            col = rset.index(g0)
            assert all(row[col] == identity(sub.size) for row in m.sandwich)


def test_sandwich_requires_membership(golden_simplified):
    rset, group = rset_and_group(golden_simplified["thue_morse"])
    with pytest.raises(ValidationError, match="g0"):
        substitution_sandwich(group, rset, (0, 1, 2))


def test_sandwich_refuses_labels_outside_the_group(golden_simplified):
    # the group is taken as given: an R-set element outside it is refused
    rset, group = rset_and_group(golden_simplified["s3_height_two"])
    a3 = closure([(1, 2, 0)])
    assert any(g not in a3 for g in rset)
    with pytest.raises(ValidationError, match="structure group"):
        substitution_sandwich(a3, rset, rset[0])


def test_multiply_matches_its_definition_on_random_presentations():
    # (i, g, lam)(j, h, mu) = (i, g A[lam][j] h, mu) over a cyclic group of
    # each degree 1..9, with the group product written out
    rng = random.Random(20261018)
    for n in range(1, 10):
        gen = list(range(n))
        rng.shuffle(gen)
        group = closure([tuple(gen)], n)
        ni, nlam = rng.randint(1, 3), rng.randint(1, 3)
        sandwich = tuple(tuple(rng.choice(group.elements) for _ in range(ni))
                         for _ in range(nlam))
        m = ReesMatrixSemigroup(group, tuple(range(ni)), tuple(range(nlam)), sandwich)
        for _ in range(20):
            x = ReesElement(rng.randrange(ni), rng.choice(group.elements), rng.randrange(nlam))
            y = ReesElement(rng.randrange(ni), rng.choice(group.elements), rng.randrange(nlam))
            a = sandwich[x.lam][y.i]
            middle = tuple(x.g[a[y.g[k]]] for k in range(n))
            assert multiply(m, x, y) == ReesElement(x.i, middle, y.lam)


def test_rees_element_hashes_and_compares_by_value():
    x = ReesElement(1, (1, 0, 2), 0)
    same = ReesElement(1, tuple([1, 0, 2]), 0)
    assert x == same and hash(x) == hash(same)
    assert len({x, same}) == 1 and {x: "x"}[same] == "x"
    # the product-law checks look plain tuples up among named ones
    plain = (1, (1, 0, 2), 0)
    assert x == plain and hash(x) == hash(plain) and {x: "x"}[plain] == "x"
    assert (x.i, x.g, x.lam) == (1, (1, 0, 2), 0)
    assert all(x != other for other in (ReesElement(0, x.g, 0), ReesElement(1, (0, 1, 2), 0),
                                         ReesElement(1, x.g, 1)))


def test_multiply_normalized_row(golden_simplified):
    m = tm_matrix(golden_simplified)
    lam0 = m.base[1]
    for x in m.elements():
        for y in m.elements():
            if x.lam == lam0:
                assert multiply(m, x, y) == ReesElement(x.i, compose(x.g, y.g), y.lam)


def test_multiply_associativity_random(golden_simplified):
    m = sandwich(golden_simplified["s3_seven_words"])
    rng = random.Random(11)
    elements = list(m.elements())
    for _ in range(1000):
        x, y, z = (rng.choice(elements) for _ in range(3))
        assert multiply(m, multiply(m, x, y), z) == multiply(m, x, multiply(m, y, z))


def test_idempotent_count(golden_simplified):
    tm = tm_matrix(golden_simplified)
    assert len(idempotents_of(tm)) == 4
    m = sandwich(golden_simplified["s3_seven_words"])
    assert len(idempotents_of(m)) == 6
    for p in idempotents_of(m):
        assert multiply(m, p, p) == p
    base = ReesElement(m.base[0], identity(3), m.base[1])
    assert base in idempotents_of(m)


def test_left_and_right_ideals_have_product_shape(golden_simplified):
    m = tm_matrix(golden_simplified)
    elements = list(m.elements())
    for x in elements:
        left = {multiply(m, s, x) for s in elements} | {x}
        assert left == {ReesElement(i, g, x.lam)
                        for i in range(2) for g in m.group.elements}
        right = {multiply(m, x, s) for s in elements} | {x}
        assert right == {ReesElement(x.i, g, lam)
                         for g in m.group.elements for lam in range(2)}


def test_little_structure_group(golden_simplified):
    tm = tm_matrix(golden_simplified)
    assert little_structure_group(tm).order == 2
    m = sandwich(golden_simplified["s3_height_two"])
    little = little_structure_group(m)
    assert little.order == 3  # even permutations only
    m2 = sandwich(golden_simplified["d4_height_two"])
    assert little_structure_group(m2).order == 2


def test_idempotent_generated_subsemigroup(golden_simplified):
    tm = tm_matrix(golden_simplified)
    assert idempotent_generated(tm).size == 8  # little group is everything
    m = sandwich(golden_simplified["s3_height_two"])
    part = idempotent_generated(m)
    assert part.size == 18 and m.size == 36


def test_idempotent_generated_of_group_case():
    group = closure([(1, 0)])
    m = ReesMatrixSemigroup(group, ("i",), ("l",), ((identity(2),),))
    assert idempotent_generated(m).size == 1


def test_fiber_action_matches_paper_formulas(golden_simplified):
    sub = golden_simplified["thue_morse"]
    rset, group = rset_and_group(sub)
    m = substitution_sandwich(group, rset, rset[0])
    action = fiber_action(sub)
    phi = as_transformation_semigroup(m, action.fiber)
    assert set(phi.values()) == set(action.semigroup.elements)
    assert verify_rees_isomorphism(action.semigroup, m, phi)
    # the normalizing idempotent projects a.b onto g0^-1(b).b
    g0 = rset[m.base[0]]
    e_map = phi[ReesElement(m.base[0], identity(2), PLUS)]
    for k, (a, b) in enumerate(action.fiber.pairs):
        assert action.fiber.pairs[e_map[k]] == (inverse(g0)[b], b)


def test_verify_rejects_corrupted_sandwich(golden_simplified):
    sub = golden_simplified["thue_morse"]
    rset, group = rset_and_group(sub)
    m = substitution_sandwich(group, rset, rset[0])
    action = fiber_action(sub)
    phi = as_transformation_semigroup(m, action.fiber)
    swap = (1, 0)
    corrupted = ReesMatrixSemigroup(m.group, m.i_labels, m.lam_labels,
                                    ((m.sandwich[0][0], swap), m.sandwich[1]), m.base)
    assert not verify_rees_isomorphism(action.semigroup, corrupted, phi)


def test_group_decomposes_to_one_by_one():
    rot = (1, 2, 0)
    sg = semigroup_closure([rot])
    dec = rees_decomposition(sg, identity(3))
    m = dec.matrix
    assert (len(m.i_labels), len(m.lam_labels)) == (1, 1)
    assert m.group.order == 3
    assert m.sandwich == ((identity(3),),)


def test_decomposition_of_seven_word_fiber(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    action = fiber_action(sub)
    idem = action.semigroup.elements[action.green.idempotents[0]]
    dec = rees_decomposition(action.semigroup, idem)
    m = dec.matrix
    assert m.group.order == 6
    assert (len(m.i_labels), len(m.lam_labels)) == (3, 2)
    assert m.is_normalized()
    assert verify_rees_isomorphism(action.semigroup, m, dec.embedding)


def test_decomposition_requires_completely_simple():
    sg = semigroup_closure([(0, 0, 2), (0, 1, 2)])  # contains identity and a collapse
    with pytest.raises(ValidationError):
        rees_decomposition(sg, (0, 1, 2))


def gauged(m, row_factors, col_factors):
    """M with row lam multiplied by u_lam on the left and column i by v_i on
    the right: A'[lam][i] = u_lam A[lam][i] v_i."""
    sandwich = tuple(
        tuple(compose(compose(row_factors[lam], m.sandwich[lam][i]), col_factors[i])
              for i in range(len(m.i_labels)))
        for lam in range(len(m.lam_labels)))
    return ReesMatrixSemigroup(m.group, m.i_labels, m.lam_labels, sandwich, m.base)


def test_gauge_moves_identity_row(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    rset, group = rset_and_group(sub)
    m = substitution_sandwich(group, rset, rset[0])
    # push the identity row from + to - by undoing the minus entries columnwise
    cols = [inverse(entry) for entry in m.sandwich[MINUS]]
    moved = gauged(m, [identity(3)] * 2, cols)
    assert all(entry == identity(3) for entry in moved.sandwich[MINUS])
    assert moved.sandwich[PLUS] != m.sandwich[PLUS]
    assert (len(moved.i_labels), len(moved.lam_labels)) == (len(m.i_labels), len(m.lam_labels))
    assert moved.group.order == m.group.order
    assert presentations_isomorphic(m, moved)


def test_gauge_rejects_foreign_factors(golden_simplified):
    # a factor outside G moves a sandwich entry out of G, which the matrix
    # semigroup refuses
    m = sandwich(golden_simplified["d4_height_two"])
    foreign = (1, 2, 0, 3)  # a 3-cycle, which D4 lacks
    assert foreign not in m.group
    with pytest.raises(ValidationError, match="outside the structure group"):
        gauged(m, [identity(4)] * 2, [foreign] * len(m.i_labels))


def test_presentations_differing_by_g0_choice_are_isomorphic(golden_simplified):
    for name in ("s3_seven_words", "d4_height_two", "s3_height_two"):
        rset, group = rset_and_group(golden_simplified[name])
        mats = [substitution_sandwich(group, rset, g0) for g0 in rset]
        for other in mats[1:]:
            assert presentations_isomorphic(mats[0], other)


def test_presentations_distinguish_different_little_groups(golden_simplified):
    # same shape (|I|=3, S_3) but little groups S_3 vs A_3: not isomorphic
    m1 = sandwich(golden_simplified["s3_seven_words"])
    m2 = sandwich(golden_simplified["s3_height_two"])
    assert not presentations_isomorphic(m1, m2)


def test_rees_generators_generate_every_golden_presentation(golden_simplified):
    # X = {(i, 1, +)} u {(i0, 1, -)} u {(i0, s, +)}: 2|I| + 1 triples at most,
    # at either base column, and X closes to all of M
    for sub, m in _golden_sandwiches(golden_simplified):
        i0, ident = m.base[0], identity(sub.size)
        expected = ([ReesElement(i, ident, PLUS) for i in range(len(m.i_labels))]
                    + [ReesElement(i0, ident, MINUS)]
                    + [ReesElement(i0, s, PLUS) for s in m.group.generators])
        assert rees_generators(m) == tuple(dict.fromkeys(expected))
        assert len(rees_generators(m)) <= 2 * len(m.i_labels) + 1
        assert element_closure(m, rees_generators(m)) == set(m.elements())


def test_rees_generators_generate_the_three_row_matrix_at_every_base():
    # the proof covers any sandwich: here a = A[lam0][i0] is never the identity
    for i0 in range(2):
        for lam0 in range(3):
            m = three_row_matrix(base=(i0, lam0))
            assert m.sandwich[lam0][i0] != identity(3)
            assert len(rees_generators(m)) <= 2 + 2 + len(m.group.generators)
            assert element_closure(m, rees_generators(m)) == set(m.elements())
            sg, phi = left_regular_action(m)
            assert verify_rees_isomorphism(sg, m, phi)


def test_rees_generators_refuse_a_group_whose_generators_fall_short(golden_simplified):
    # a structure group that lists only the identity as its generator: the
    # group-law search from the identity reaches 1 of its 6 elements, and the
    # checks refuse even a true homomorphism, naming the group law and a
    # triple of the base H-class that the search missed
    s3 = closure([(1, 0, 2), (1, 2, 0)])
    group = PermGroup(3, (identity(3),), s3.elements)
    ident = identity(3)
    m = ReesMatrixSemigroup(group, ("i", "j"), SIGN_LABELS, ((ident, ident), (ident, ident)))
    sg, phi = left_regular_action(m)
    assert _is_homomorphism_on_all_pairs(sg, m, phi)
    with pytest.raises(InternalCheckError, match="reach 1 of 6") as caught:
        verify_rees_isomorphism(sg, m, phi)
    assert caught.value.law == "group law"
    assert caught.value.witness == ReesElement(0, min(s3.elements[1:]), PLUS)
    # the fiber action of s3_seven_words over S_3 listed as generated by one
    # transposition, which reaches 2 of the 6 elements
    sub = golden_simplified["s3_seven_words"]
    rset, full = rset_and_group(sub)
    short = replace(full, generators=((1, 0, 2),))
    fiber = allowed_two_words(sub)
    with pytest.raises(InternalCheckError, match="reach 2 of 6") as caught:
        reference_action(substitution_sandwich(short, rset, rset[0]), fiber)
    assert caught.value.law == "group law"
    # the library's proof reads no generator of G, so it holds as before
    assert (as_transformation_semigroup(substitution_sandwich(short, rset, rset[0]), fiber)
            == reference_action(substitution_sandwich(full, rset, rset[0]), fiber))


def test_only_the_sandwich_relation_catches_a_shifted_minus_column(golden_simplified):
    # phi'(j, h, -) = phi(j, h c, -) for a fixed c != 1 keeps the image and
    # both the group law (it reads the + column only) and the factorization
    # (L_j theta(h) phi(i0, c, -) = phi(j, h c, -)); the sandwich relation
    # R'_- L_j = phi(i0, c A[-][j], +) != phi(i0, A[-][j], +) refuses it
    for sub, m in _golden_sandwiches(golden_simplified):
        sg, phi = fiber_semigroup(m, allowed_two_words(sub))
        i0 = m.base[0]
        for c in m.group.elements[1:]:
            shifted = {x: phi[ReesElement(x.i, compose(x.g, c), x.lam)] if x.lam == MINUS
                       else phi[x] for x in m.elements()}
            assert set(shifted.values()) == set(phi.values())
            assert not _is_homomorphism_on_all_pairs(sg, m, shifted)
            assert not _named_by(FiberAction(m, allowed_two_words(sub)), shifted)
            law, witness = product_law_failure(m, shifted)
            assert law == "sandwich relation"
            assert witness.i == i0 and witness.lam == PLUS
            assert not verify_rees_isomorphism(sg, m, shifted)


def test_a_wrong_generator_image_breaks_the_group_law(golden_simplified):
    # theta(s) swapped with theta(1) = phi(i0, 1, +) for a generator s: an
    # automorphism fixes 1, so theta is no longer a homomorphism, and the
    # group law, checked first, fails
    for sub, m in _golden_sandwiches(golden_simplified):
        sg, phi = fiber_semigroup(m, allowed_two_words(sub))
        i0, ident = m.base[0], identity(sub.size)
        for s in m.group.generators:
            if s == ident:
                continue
            swapped = dict(phi)
            base, image = ReesElement(i0, ident, PLUS), ReesElement(i0, s, PLUS)
            swapped[base], swapped[image] = phi[image], phi[base]
            law, witness = product_law_failure(m, swapped)
            assert law == "group law"
            assert witness.i == i0 and witness.lam == PLUS
            assert not verify_rees_isomorphism(sg, m, swapped)
            assert not _named_by(FiberAction(m, allowed_two_words(sub)), swapped)


def test_a_swap_away_from_the_base_breaks_the_factorization(golden_simplified):
    # the group law and the sandwich relations read only theta, L_j and R_mu;
    # a swap of two values outside them is caught by the factorization, at
    # one of the two swapped triples
    sub = golden_simplified["s3_seven_words"]
    m = sandwich(sub)
    sg, phi = fiber_semigroup(m, allowed_two_words(sub))
    i0, ident = m.base[0], identity(sub.size)
    read = {x for x in m.elements()
            if (x.i, x.lam) == (i0, PLUS) or (x.g == ident and (x.lam == PLUS or x.i == i0))}
    away = [x for x in m.elements() if x not in read]
    assert len(away) == m.size - m.group.order - len(m.i_labels)
    action = FiberAction(m, allowed_two_words(sub))
    rng = random.Random(7)
    for _ in range(200):
        u, v = rng.sample(away, 2)
        swapped = dict(phi)
        swapped[u], swapped[v] = phi[v], phi[u]
        law, witness = product_law_failure(m, swapped)
        assert law == "factorization" and witness in (u, v)
        assert not verify_rees_isomorphism(sg, m, swapped)
        assert not _named_by(action, swapped)


def test_a_wrong_sandwich_entry_breaks_the_sandwich_relation(golden_simplified):
    # the action is built from the column labels, so a sandwich entry that
    # disagrees with them breaks the relation at its (mu, j): in the letter
    # identity c_mu T_j = A[mu][j] and in the reference's product law
    for sub, m in _golden_sandwiches(golden_simplified):
        corrupted, wrong = _corrupted(m)
        for build, stage in ((FiberAction, "fiber action"), (reference_action, None)):
            with pytest.raises(InternalCheckError, match="sandwich relation") as caught:
                build(corrupted, allowed_two_words(sub))
            assert caught.value.law == "sandwich relation"
            assert caught.value.witness == ReesElement(m.base[0], wrong, PLUS)
            assert caught.value.stage == stage


def _corrupted(m):
    """m with the minus entry of the first column off the base replaced by
    another element of G, and that element."""
    j = next(j for j in range(len(m.i_labels)) if j != m.base[0])
    wrong = next(g for g in m.group.elements if g != m.sandwich[MINUS][j])
    minus_row = m.sandwich[MINUS][:j] + (wrong,) + m.sandwich[MINUS][j + 1:]
    return replace(m, sandwich=(m.sandwich[PLUS], minus_row)), wrong


def _is_homomorphism_on_all_pairs(sg, m, phi):
    return all(phi[multiply(m, x, y)] == map_compose(phi[x], phi[y])
               for x in m.elements() for y in m.elements())


def _named_by(action, phi):
    """Whether the action decodes every map of phi to its own triple."""
    return all(action.decode(f) == x for x, f in phi.items())


def test_verify_rejects_swap_away_from_generators(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    rset, group = rset_and_group(sub)
    m = substitution_sandwich(group, rset, rset[0])
    action = fiber_action(sub)
    phi = as_transformation_semigroup(m, action.fiber)
    gens = set(rees_generators(m))
    others = [x for x in m.elements() if x not in gens]
    pairs = [(u, v) for k, u in enumerate(others) for v in others[k + 1:]]
    coords = ("i", "g", "lam")
    # every pair that differs only in the row, only in the group entry, or only in the sign
    swaps = [(u, v) for u, v in pairs
             if sum(getattr(u, c) != getattr(v, c) for c in coords) == 1]
    assert len(swaps) > 50
    for u, v in swaps:
        swapped = dict(phi)
        swapped[u], swapped[v] = phi[v], phi[u]
        # same image set, so only the product law can catch the swap
        assert not _is_homomorphism_on_all_pairs(action.semigroup, m, swapped)
        assert not verify_rees_isomorphism(action.semigroup, m, swapped)


# ---------------------------------------------------------------------------
# the product kernels, which multiply through a precomputed row
# x.g * A[x.lam][j] per left factor, against multiply

def _closure_by_multiply(m, seeds):
    elements, frontier = set(seeds), set(seeds)
    while frontier:
        frontier = {multiply(m, x, y) for x in seeds for y in frontier} - elements
        elements |= frontier
    return elements


def _isomorphism_by_multiply(sg, m, phi):
    elements = list(m.elements())
    images = set(phi.values())
    return (phi.keys() == set(elements) and len(images) == len(elements)
            and images == set(sg.elements)
            and all(phi[multiply(m, x, y)] == map_compose(phi[x], phi[y])
                    for x in rees_generators(m) for y in elements))


def _action_by_pairs(m, fiber):
    """(i, g, +) sends a.b to L(b).R(b) and (i, g, -) to L(a).R(a), with R = g
    or g g0 and L = i^-1 R, one fixed point at a time."""
    g0 = m.i_labels[m.base[0]]
    phi = {}
    for x in m.elements():
        right = x.g if x.lam == PLUS else compose(x.g, g0)
        left = compose(inverse(m.i_labels[x.i]), right)
        phi[x] = tuple(fiber.pairs.index((left[b], right[b]) if x.lam == PLUS
                                         else (left[a], right[a]))
                       for a, b in fiber.pairs)
    return phi


def _golden_sandwiches(golden_simplified):
    for sub in golden_simplified.values():
        rset, group = rset_and_group(sub)
        for g0 in (rset[0], rset[-1]):
            yield sub, substitution_sandwich(group, rset, g0)


def test_element_closure_matches_multiply(golden_simplified):
    matrices = [m for _, m in _golden_sandwiches(golden_simplified)] + [three_row_matrix()]
    rng = random.Random(5)
    for m in matrices:
        elements = list(m.elements())
        samples = [[x] for x in rng.sample(elements, 4)] + [rng.sample(elements, 2)]
        for seeds in [list(rees_generators(m)), idempotents_of(m)] + samples:
            assert element_closure(m, seeds) == _closure_by_multiply(m, seeds)
    assert len(element_closure(matrices[-1], list(rees_generators(matrices[-1])))) == 36


def test_fiber_action_matches_its_pair_formula(golden_simplified):
    for sub, m in _golden_sandwiches(golden_simplified):
        fiber = allowed_two_words(sub)
        sg, phi = fiber_semigroup(m, fiber)
        assert phi == _action_by_pairs(m, fiber)
        assert list(phi) == list(m.elements())
        assert verify_rees_isomorphism(sg, m, phi) and _isomorphism_by_multiply(sg, m, phi)


def test_product_law_matches_multiply_on_three_rows():
    m = three_row_matrix()
    sg, phi = left_regular_action(m)
    assert sg.size == m.size == 36
    assert verify_rees_isomorphism(sg, m, phi)
    assert _isomorphism_by_multiply(sg, m, phi)
    elements = list(m.elements())
    rng = random.Random(11)
    for _ in range(40):
        u, v = rng.sample(elements, 2)
        swapped = dict(phi)
        swapped[u], swapped[v] = phi[v], phi[u]
        assert not verify_rees_isomorphism(sg, m, swapped)
        assert not _isomorphism_by_multiply(sg, m, swapped)


def test_product_law_catches_every_swap_of_two_golden_values(golden_simplified):
    sub = golden_simplified["thue_morse"]
    m = sandwich(sub)
    sg, phi = fiber_semigroup(m, allowed_two_words(sub))
    elements = list(m.elements())
    for k, u in enumerate(elements):
        for v in elements[k + 1:]:
            swapped = dict(phi)
            swapped[u], swapped[v] = phi[v], phi[u]
            assert not verify_rees_isomorphism(sg, m, swapped)


def test_fiber_action_refuses_a_fiber_missing_one_word(golden_simplified):
    # every allowed word is (i^-1 c, c) for some i in I, so the action writes
    # each one, and a fiber without it is left
    for sub, m in _golden_sandwiches(golden_simplified):
        pairs = allowed_two_words(sub).pairs
        for drop in (0, len(pairs) - 1):
            fiber = TwoWordFiber(pairs[:drop] + pairs[drop + 1:])
            with pytest.raises(InternalCheckError, match="left the fiber"):
                as_transformation_semigroup(m, fiber)


# ---------------------------------------------------------------------------
# the fiber action, one map at a time, against the reference phi with all
# |S| maps written out and its product law checked

def _first_sandwiches(subs):
    for sub in subs:
        rset, group = rset_and_group(sub)
        yield sub, substitution_sandwich(group, rset, rset[0])


def _all_sandwiches(golden_simplified, random_corpus):
    """The golden six at the first and last R-set element, the random corpus
    and 40 more random substitutions at the first."""
    yield from _golden_sandwiches(golden_simplified)
    yield from _first_sandwiches(random_corpus + build_random_corpus(40, seed=7))


def _check_encode_and_decode(sub, m) -> int:
    """encode is the reference phi, and decode inverts it, on every triple;
    a map T_i g c_lam with g a permutation outside G is no image of phi and
    has no triple.  Returns how many such maps it tried."""
    fiber = allowed_two_words(sub)
    action = FiberAction(m, fiber)
    phi = reference_action(m, fiber)  # raises unless the reference product law holds
    for x, f in phi.items():
        assert action.encode(*x) == f
        assert action.decode(f) == x
    outside = [g for g in permutations(range(sub.size)) if g not in m.group]
    images = set(phi.values())
    for x in product(range(len(m.i_labels)), outside, (PLUS, MINUS)):
        f = action.encode(*x)
        assert f not in images and action.decode(f) is None
    return len(outside)


def _check_swaps(sub, m) -> int:
    """Every map of phi with two distinct images swapped decodes to a triple
    exactly when the reference phi has it, and then to its triple; returns
    how many swapped maps it has not."""
    fiber = allowed_two_words(sub)
    action = FiberAction(m, fiber)
    named = {f: x for x, f in reference_action(m, fiber).items()}
    outside = 0
    for f in named:
        for k in range(len(f)):
            for k2 in range(k + 1, len(f)):
                if f[k] != f[k2]:
                    swapped = list(f)
                    swapped[k], swapped[k2] = f[k2], f[k]
                    swapped = tuple(swapped)
                    assert action.decode(swapped) == named.get(swapped)
                    outside += swapped not in named
    return outside


def test_encode_is_the_reference_phi_and_decode_inverts_it(golden_simplified, random_corpus):
    sandwiches = list(_all_sandwiches(golden_simplified, random_corpus))
    assert len(sandwiches) == 12 + 20 + 40
    assert sum(_check_encode_and_decode(sub, m) > 0 for sub, m in sandwiches) > 0


def test_a_swapped_map_decodes_exactly_when_it_is_an_image(golden_simplified, random_corpus):
    sandwiches = list(_golden_sandwiches(golden_simplified)) + list(_first_sandwiches(random_corpus))
    assert all(_check_swaps(sub, m) > 0 for sub, m in sandwiches)


def test_the_fiber_action_names_its_stage_and_law_when_it_fails(golden_simplified):
    # a fiber where no letter has two predecessors cannot tell a + map from
    # a - map: with one row, (g0, 1, +) and (g0, 1, -) both act as the identity
    sub = golden_simplified["thue_morse"]
    rset, group = rset_and_group(sub)
    one_row = substitution_sandwich(group, rset[:1], rset[0])
    diagonal = TwoWordFiber(((0, 0), (1, 1)))
    with pytest.raises(InternalCheckError, match="not faithful") as caught:
        FiberAction(one_row, diagonal)
    assert caught.value.law == "faithfulness" and caught.value.stage == "fiber action"
    with pytest.raises(InternalCheckError, match="collided"):
        reference_action(one_row, diagonal)
    # a row listed twice writes the same fixed points twice
    twice = substitution_sandwich(group, rset + rset[:1], rset[0])
    with pytest.raises(InternalCheckError, match="rows 0 and 2") as caught:
        FiberAction(twice, allowed_two_words(sub))
    assert caught.value.law == "faithfulness"
    assert caught.value.witness == ReesElement(2, identity(2), PLUS)
    # a fixed point missing from the fiber
    pairs = allowed_two_words(sub).pairs
    with pytest.raises(InternalCheckError, match="left the fiber") as caught:
        FiberAction(substitution_sandwich(group, rset, rset[0]), TwoWordFiber(pairs[1:]))
    assert caught.value.law == "fiber" and caught.value.stage == "fiber action"


class _EqualToEveryMap(tuple):
    """What a mutant encode returns: equal to any map it meets."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = tuple.__hash__


@pytest.mark.parametrize("mutant", ["c_minus_reads_b", "wrong_g0_in_the_encoder",
                                    "decode_skips_the_encode_back", "corrupted_sandwich_entry"])
def test_a_mutant_of_the_fiber_action_fails_a_named_test(mutant, golden_simplified, golden_subs,
                                                         random_corpus, monkeypatch):
    reads = ellisub.rees._letter_reads
    if mutant == "decode_skips_the_encode_back":
        # a swap away from the fixed points that decode reads still decodes
        monkeypatch.setattr(FiberAction, "encode", lambda self, i, g, lam: _EqualToEveryMap())
        with pytest.raises(AssertionError):
            test_a_swapped_map_decodes_exactly_when_it_is_an_image(golden_simplified,
                                                                    random_corpus)
        return
    if mutant == "corrupted_sandwich_entry":
        # as in the CLI test of a broken product law, on every golden --verify run
        monkeypatch.setattr(ellisub.pipeline, "FiberAction",
                            lambda matrix, fiber: FiberAction(_corrupted(matrix)[0], fiber))
        for sub in golden_subs.values():
            with pytest.raises(InternalCheckError) as caught:
                analyze_substitution(sub, AnalysisConfig(verify=True))
            assert (caught.value.law, caught.value.stage) == ("sandwich relation", "fiber action")
        return
    if mutant == "c_minus_reads_b":
        # g0 c_+ T_j = g0 differs from A[-][j] = g0 j^-1 at every j != 1
        def mutated(fiber, g0):
            plus, _ = reads(fiber, g0)
            return plus, tuple(g0[b] for b in plus)
    else:
        # g0' c_- T_j = g0' j^-1 differs from A[-][j] = g0 j^-1
        def mutated(fiber, g0):
            return reads(fiber, compose((1, 0) + tuple(range(2, len(g0))), g0))
    monkeypatch.setattr(ellisub.rees, "_letter_reads", mutated)
    with pytest.raises(InternalCheckError) as caught:
        test_encode_is_the_reference_phi_and_decode_inverts_it(golden_simplified, random_corpus)
    assert caught.value.law == "sandwich relation"
