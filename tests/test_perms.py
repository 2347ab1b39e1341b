import itertools
import random

import pytest

from ellisub.errors import ValidationError
from ellisub.perms import (after, centralizer_in_symmetric, closure,
                           compose, cycle_string, element_order,
                           group_fingerprint, group_name, identity, inverse,
                           is_normal, is_transitive, normal_closure)
from reference import quotient_data

SWAP = (1, 0)
S3_TRANSPOSITION = (1, 0, 2)
S3_CYCLE = (1, 2, 0)


def s_n(n):
    return closure(list(itertools.permutations(range(n)))[1:], n)


def test_compose_applies_right_factor_first():
    p = (2, 0, 1)
    q = (1, 0, 2)
    assert compose(p, q) == tuple(p[q[x]] for x in range(3))
    assert compose(p, inverse(p)) == identity(3)


def test_compose_matches_its_definition_on_random_permutations():
    # degrees 0 to 10: itemgetter of one index returns a scalar and of none
    # raises, so degrees 0 and 1 take the fallback, which must agree too
    rng = random.Random(20261018)
    for n in range(0, 11):
        for _ in range(20):
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            p, q = tuple(p), tuple(q)
            expected = tuple([p[x] for x in q])
            assert compose(p, q) == expected and type(compose(p, q)) is tuple
            assert after(q)(p) == expected and after(q)(list(p)) == expected


def test_trivial_group_at_degree_one():
    # every product in the closure, the normal closure and the normality
    # check of S_1 goes through the degree-1 fallback of the kernel
    for trivial in (closure([], degree=1), closure([(0,)])):
        assert trivial.elements == ((0,),) and trivial.generators == ((0,),)
        assert normal_closure(trivial, trivial).elements == ((0,),)
        assert is_normal(trivial, trivial)
    assert closure([], degree=0).elements == ((),)


def test_closure_small_cases():
    assert closure([SWAP]).order == 2
    assert closure([], degree=3).order == 1
    assert closure([S3_TRANSPOSITION, S3_CYCLE]).order == 6


def test_closure_is_idempotent():
    g = closure([S3_TRANSPOSITION, S3_CYCLE])
    again = closure(list(g.elements))
    assert again.elements == g.elements


def test_element_order():
    assert element_order(identity(4)) == 1
    assert element_order((1, 2, 0)) == 3
    assert element_order((1, 0, 3, 2)) == 2


def test_cycle_string():
    assert cycle_string(identity(3)) == "()"
    assert cycle_string((1, 0, 2), ("a", "b", "c")) == "(a b)"
    assert cycle_string((1, 0, 3, 2), ("a", "b", "c", "d")) == "(a b)(c d)"


def test_normal_closure_of_transposition_in_s3_is_everything():
    s3 = s_n(3)
    assert normal_closure(closure([S3_TRANSPOSITION]), s3).order == 6


def test_normal_closure_of_a3_is_a3():
    s3 = s_n(3)
    a3 = closure([S3_CYCLE])
    assert normal_closure(a3, s3).elements == a3.elements
    assert is_normal(a3, s3)


def test_normal_closure_of_identity_is_trivial():
    s3 = s_n(3)
    assert normal_closure(closure([identity(3)]), s3).order == 1


def test_normal_closure_rejects_outsiders():
    a3 = closure([S3_CYCLE])
    with pytest.raises(ValidationError):
        normal_closure(closure([S3_TRANSPOSITION]), a3)


def test_transitivity():
    assert is_transitive(closure([SWAP]))
    fix_c = closure([S3_TRANSPOSITION])  # fixes the third point
    assert not is_transitive(fix_c)


def test_centralizer_of_s2_is_s2():
    assert centralizer_in_symmetric(closure([SWAP])).order == 2


def test_centralizer_of_s3_is_trivial():
    assert centralizer_in_symmetric(s_n(3)).order == 1


def test_centralizer_of_cyclic_group_is_itself():
    z3 = closure([S3_CYCLE])
    cent = centralizer_in_symmetric(z3)
    assert cent.order == 3
    assert set(cent.elements) == set(z3.elements)


def test_centralizer_refuses_nontransitive_group():
    # (a b) fixes c, so the group it generates is not transitive on {a, b, c}
    with pytest.raises(ValidationError, match="transitive"):
        centralizer_in_symmetric(closure([S3_TRANSPOSITION]))


def test_centralizer_commutes_exhaustively(golden_reports):
    for report in golden_reports.values():
        cent = report.aut.fiber_group
        for c in cent.elements:
            for g in report.structure_group.elements:
                assert compose(c, g) == compose(g, c)


def test_centralizer_of_transitive_group_is_semiregular():
    for group in (closure([SWAP]), s_n(3), closure([S3_CYCLE]), s_n(4)):
        cent = centralizer_in_symmetric(group)
        assert cent.order <= group.degree
        for c in cent.elements:
            if c != identity(group.degree):
                assert all(c[x] != x for x in range(group.degree))


def test_quotient_data():
    s3 = s_n(3)
    a3 = closure([S3_CYCLE])
    assert quotient_data(s3, a3) == (2, True)
    assert quotient_data(s3, s3) == (1, True)


def test_quotient_of_dihedral_by_klein_reflections():
    # symmetries of the square: rotation and a diagonal reflection
    rot = (1, 2, 3, 0)
    diag = (0, 3, 2, 1)
    d4 = closure([rot, diag])
    assert d4.order == 8
    klein = closure([diag, compose(compose(rot, diag), inverse(rot))])
    assert klein.order == 4
    assert quotient_data(d4, klein) == (2, True)


def test_quotient_requires_normality():
    s3 = s_n(3)
    sub = closure([S3_TRANSPOSITION])
    with pytest.raises(ValidationError):
        quotient_data(s3, sub)


def test_quotient_order_times_subgroup_order(golden_reports):
    for report in golden_reports.values():
        order, cyclic = quotient_data(report.structure_group, report.normal_completion)
        assert cyclic
        assert order * report.normal_completion.order == report.structure_group.order


def test_normal_closure_divides_ambient(golden_reports):
    for report in golden_reports.values():
        group = report.structure_group
        bar = report.normal_completion
        assert group.order % bar.order == 0
        assert is_normal(bar, group)


def test_group_names():
    assert group_name(closure([SWAP])) == "Z/2"
    assert group_name(s_n(3)) == "S_3"
    assert group_name(closure([S3_CYCLE])) == "Z/3"
    assert group_name(s_n(4)) is None  # order 24 is past the naming table
    rot = (1, 2, 3, 0)
    diag = (0, 3, 2, 1)
    assert group_name(closure([rot, diag])) == "D_4"
    klein = closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert group_name(klein) == "Z/2xZ/2"
    # a fingerprint computed once names the group as well
    for group in (klein, s_n(3), s_n(4)):
        assert group_fingerprint(group).name == group_name(group)


def test_fingerprint_contents():
    fp = group_fingerprint(s_n(3))
    assert fp.order == 6 and not fp.abelian and fp.exponent == 6
    assert dict(fp.element_orders) == {1: 1, 2: 3, 3: 2}


def test_permgroup_containment():
    s3 = s_n(3)
    assert S3_CYCLE in s3
    assert closure([S3_CYCLE]).is_subgroup_of(s3)
    assert not s3.is_subgroup_of(closure([S3_CYCLE]))


def test_permgroup_deterministic_ordering():
    g1 = closure([S3_TRANSPOSITION, S3_CYCLE])
    g2 = closure([S3_CYCLE, S3_TRANSPOSITION])
    assert g1.elements == g2.elements == tuple(sorted(g1.elements))
