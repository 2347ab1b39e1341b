"""Acceptance suite: every bundled criterion, exact (no tolerances), with one
pass line printed per criterion.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines."""

from ellisub.perms import cycles, element_order, identity, is_normal
from ellisub.pipeline import classical_height_bruteforce, degree_map
from ellisub.rees import ReesMatrixSemigroup, idempotents_of
from conftest import rset_and_group
from reference import (fiber_semigroup, idempotent_generated,
                       presentations_isomorphic, quotient_data,
                       rees_decomposition, verify_rees_isomorphism)

def passed(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def perm_from_cycle_pairs(size, *swaps):
    images = list(range(size))
    for x, y in swaps:
        images[x], images[y] = images[y], images[x]
    return tuple(images)


def test_criterion_1_two_letter(golden_reports, golden_fibers):
    report = golden_reports["thue_morse"]
    ident, swap = identity(2), (1, 0)
    assert set(report.rset) == {ident, swap}
    assert report.structure_group.order == 2
    assert report.matrix.sandwich == ((ident, ident), (ident, swap))
    assert 2 * len(report.rset) * report.structure_group.order == 8
    assert len(golden_fibers["thue_morse"].green.idempotents) == 4
    assert report.height == 1 and report.classical_height == 1
    assert report.aut.fiber_group.order == 2
    assert set(report.aut.fiber_group.elements) == {ident, swap}
    passed(1, "two-letter case: I = S_2, |G| = 2, A = [[1,1],[1,swap]], "
              "8 elements with 4 idempotents, h = h_cl = 1, Aut_fib = S_2")


def test_criterion_2_seven_word_case(golden_reports, golden_fibers):
    report = golden_reports["s3_seven_words"]
    green = golden_fibers["s3_seven_words"].green
    assert report.fiber.size == 7
    assert report.structure_group.order == 6
    from ellisub.perms import group_name
    assert group_name(report.structure_group) == "S_3"
    assert 2 * len(report.rset) * report.structure_group.order == 36
    l_sizes = sorted(len(c) for c in green.l_classes)
    r_sizes = sorted(len(c) for c in green.r_classes)
    assert l_sizes == [18, 18]
    assert r_sizes == [12, 12, 12]
    assert len(green.idempotents) == 6
    # expected sandwich [[1,1,1],[1,t1,t2]] with t1, t2 the transpositions
    # (b c) and (a c), compared up to gauge, relabeling and normalization slot
    t1 = perm_from_cycle_pairs(3, (1, 2))
    t2 = perm_from_cycle_pairs(3, (0, 2))
    ident = identity(3)
    expected = ReesMatrixSemigroup(
        report.structure_group, report.rset, ("+", "-"),
        ((ident, ident, ident), (ident, t1, t2)), base=(0, 0))
    assert presentations_isomorphic(report.matrix, expected)
    assert report.aut.fiber_group.order == 1
    passed(2, "seven two-words, G = S_3, 36 elements, left ideals 2x18, "
              "right ideals 3x12, 6 idempotents, sandwich matches up to gauge, "
              "trivial Aut_fib")


def test_criterion_3_nonnormal_little_group(golden_reports):
    report = golden_reports["s3_nonnormal_little"]
    assert len(report.rset) == 2
    from ellisub.perms import group_name
    assert group_name(report.structure_group) == "S_3"
    assert report.little_group.order == 2
    assert not is_normal(report.little_group, report.structure_group)
    assert report.normal_completion.order == 6
    assert report.height == 1
    assert report.aut.fiber_group.order == 1
    passed(3, "|I| = 2, G = S_3, little group of order 2 is not normal, "
              "completion is S_3, h = 1, trivial Aut_fib")


def test_criterion_4_height_two_over_three_letters(golden_reports):
    report = golden_reports["s3_height_two"]
    assert len(report.rset) == 3
    for g in report.rset:
        assert element_order(g) == 2
        assert sum(1 for c in cycles(g) if len(c) == 2) == 1  # a transposition
    assert report.little_group.elements == report.normal_completion.elements
    assert report.normal_completion.order == 3
    assert report.height == 2
    assert report.classical_height == 1
    assert report.unresolved_extension
    values = [report.degree.by_perm[x.g] for x in report.matrix.elements()]
    assert values.count(0) == 18 and values.count(1) == 18
    passed(4, "R-set is all three transpositions, completion A_3, h = 2 > "
              "h_cl = 1, unresolved extension flagged, degrees split 18/18")


def test_criterion_5_cyclic_rotation(golden_reports):
    report = golden_reports["cyclic_rotation"]
    assert report.exponent == 3
    from ellisub.perms import group_fingerprint, group_name
    assert report.structure_group.order == 3
    assert group_name(report.structure_group) == "Z/3"
    assert report.height == 1
    assert report.aut.fiber_group.order == 3
    assert group_name(report.aut.fiber_group) == "Z/3"
    passed(5, "simplification exponent 3, G cyclic of order 3, h = 1, "
              "Aut_fib cyclic of order 3")


def test_criterion_6_dihedral(golden_reports):
    report = golden_reports["d4_height_two"]
    assert len(report.rset) == 2
    assert report.structure_group.order == 8
    fp = report.normal_completion
    from ellisub.perms import group_fingerprint
    completion_fp = group_fingerprint(fp)
    assert completion_fp.order == 4
    assert completion_fp.exponent == 2
    assert completion_fp.abelian
    assert report.height == 2 and report.classical_height == 2
    assert report.order_h_witness in report.rset
    assert element_order(report.order_h_witness) == 2
    assert report.aut.fiber_group.order == 2
    passed(6, "|I| = 2, |G| = 8, completion Z/2 x Z/2, h = h_cl = 2, order-2 "
              "witness in the R-set, Aut_fib of order 2")


def test_criterion_7_oracle_equivalence(golden_reports, random_corpus, random_oracle):
    for name, report in golden_reports.items():
        assert report.oracle is not None and report.oracle.equal, name
    assert len(random_corpus) == 20
    for sub, comparison in zip(random_corpus, random_oracle):
        assert comparison.equal, sub.rules
        rset, group = rset_and_group(sub)
        expected_size = 2 * len(rset) * group.order
        assert comparison.oracle.semigroup.size == expected_size
    passed(7, "window oracle reproduces the fiber semigroup (maps and "
              "multiplication) on all 6 reference cases and 20 random "
              "simplified substitutions")


def test_criterion_8_rees_round_trip(golden_reports, golden_fibers, random_reports,
                                     random_fibers):
    cases = list(zip(golden_reports.values(), golden_fibers.values()))
    cases += list(zip(random_reports, random_fibers))
    for report, built in cases:
        sub, matrix = report.substitution, report.matrix
        realized, phi = fiber_semigroup(matrix, report.fiber)
        assert realized == built.semigroup
        assert verify_rees_isomorphism(realized, matrix, phi)
        base_map = phi[next(x for x in matrix.elements()
                            if x.i == matrix.base[0] and x.lam == matrix.base[1]
                            and x.g == identity(sub.size))]
        decomposition = rees_decomposition(realized, base_map, built.green)
        assert verify_rees_isomorphism(realized, decomposition.matrix,
                                       decomposition.embedding)
        # the search ranges over every conjugator of the letters, so the
        # decomposition's points need no relabeling
        assert presentations_isomorphic(report.matrix, decomposition.matrix)
    passed(8, "the substitution sandwich acts on every fiber semigroup map for "
              "map and isomorphically, and the normalized Rees decomposition at "
              "its base idempotent is the same presentation up to gauge, "
              "relabeling and group isomorphism")


def test_criterion_9_structural_identities(golden_reports, golden_fibers, random_reports,
                                           random_fibers):
    cases = list(zip(golden_reports.values(), golden_fibers.values()))
    cases += list(zip(random_reports, random_fibers))
    for report, built in cases:
        sub = report.substitution
        size_i = len(report.rset)
        order_g = report.structure_group.order
        assert 2 * size_i * order_g == report.matrix.size
        assert len(built.green.idempotents) == 2 * size_i
        assert len(idempotents_of(report.matrix)) == 2 * size_i
        assert (sub.length - 1) % report.height == 0
        assert (sub.length - 1) % report.classical_height == 0
        assert report.height >= report.classical_height
        order, cyclic = quotient_data(report.structure_group, report.normal_completion)
        assert cyclic and order == report.height
        generated = idempotent_generated(report.matrix)  # checked internally
        assert generated.group.elements == report.little_group.elements
        assert classical_height_bruteforce(sub, 3) == report.classical_height
        data = degree_map(report.matrix, report.normal_completion)  # morphism asserted
        assert data.modulus == report.height
        cent = report.aut.fiber_group
        assert cent.order <= sub.size
        ident = identity(sub.size)
        for c in cent.elements:
            if c != ident:
                assert all(c[x] != x for x in range(sub.size))
    passed(9, "size, idempotent, divisibility, cyclicity, idempotent-generated, "
              "height-oracle, degree-morphism and centralizer identities hold "
              "on every reference and random instance")
