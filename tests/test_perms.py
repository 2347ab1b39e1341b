import itertools
import math
import random
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellisub.oracle
import ellisub.perms
import ellisub.pipeline
from ellisub.errors import ValidationError
from ellisub.oracle import oracle_equivalence
from ellisub.perms import (_graded_walk, after, centralizer_in_symmetric, closure,
                           compose, cycle_string, group_name, identity, inverse,
                           normal_closure)
from ellisub.pipeline import check_input, global_description
from ellisub.rees import FiberAction
from conftest import mutant
from reference import element_order, generated_group, is_normal, is_subgroup_of, quotient_data

SWAP = (1, 0)
S3_TRANSPOSITION = (1, 0, 2)
S3_CYCLE = (1, 2, 0)


def s_n(n):
    return generated_group(list(itertools.permutations(range(n)))[1:])


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
    trivial = generated_group([(0,)])
    assert trivial.elements == ((0,),) and trivial.generators == ((0,),)
    assert normal_closure(trivial, trivial).elements == ((0,),)
    # the identity alone fills a trivial ambient group, which comes back itself
    assert closure([], ambient=trivial) is trivial and closure([(0,)], ambient=trivial) is trivial
    assert is_normal(trivial, trivial)
    assert generated_group([identity(0)]).elements == ((),)


def test_closure_small_cases():
    s3 = s_n(3)
    assert closure([S3_TRANSPOSITION], s3).order == 2
    assert closure([identity(3)], s3).order == 1
    # no generators give the trivial subgroup
    assert closure([], s3).elements == (identity(3),)
    assert closure([S3_TRANSPOSITION, S3_CYCLE], s3) is s3


def test_closure_is_idempotent():
    g = generated_group([S3_TRANSPOSITION, S3_CYCLE])
    again = generated_group(list(g.elements))
    assert again.elements == g.elements
    assert closure(list(g.elements), g) is g


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
    assert normal_closure(generated_group([S3_TRANSPOSITION]), s3).order == 6


def test_normal_closure_of_a3_is_a3():
    s3 = s_n(3)
    a3 = generated_group([S3_CYCLE])
    assert normal_closure(a3, s3).elements == a3.elements
    assert is_normal(a3, s3)


def test_normal_closure_of_identity_is_trivial():
    s3 = s_n(3)
    assert normal_closure(generated_group([identity(3)]), s3).order == 1


def test_normal_closure_rejects_outsiders():
    a3 = generated_group([S3_CYCLE])
    with pytest.raises(ValidationError):
        normal_closure(generated_group([S3_TRANSPOSITION]), a3)


def test_transitivity():
    # the walk over the points, x -> g(x), reaches every point exactly when
    # the generators' group is transitive
    levels, _ = _graded_walk(0, [SWAP.__getitem__])
    assert levels == {0: 0, 1: 1}
    levels, _ = _graded_walk(0, [S3_TRANSPOSITION.__getitem__])  # fixes the third point
    assert levels.keys() == {0, 1}


def test_centralizer_of_s2_is_s2():
    assert centralizer_in_symmetric(generated_group([SWAP])).order == 2


def test_centralizer_of_s3_is_trivial():
    assert centralizer_in_symmetric(s_n(3)).order == 1


def test_centralizer_of_cyclic_group_is_itself():
    z3 = generated_group([S3_CYCLE])
    cent = centralizer_in_symmetric(z3)
    assert cent.order == 3
    assert set(cent.elements) == set(z3.elements)


def test_centralizer_refuses_nontransitive_group():
    # (a b) fixes c, so the group it generates is not transitive on {a, b, c}
    with pytest.raises(ValidationError, match="transitive"):
        centralizer_in_symmetric(generated_group([S3_TRANSPOSITION]))


def test_centralizer_commutes_exhaustively(golden_reports):
    for report in golden_reports.values():
        cent = report.aut.fiber_group
        for c in cent.elements:
            for g in report.structure_group.elements:
                assert compose(c, g) == compose(g, c)


def test_centralizer_of_transitive_group_is_semiregular():
    for group in (generated_group([SWAP]), s_n(3), generated_group([S3_CYCLE]), s_n(4)):
        cent = centralizer_in_symmetric(group)
        assert cent.order <= group.degree
        for c in cent.elements:
            if c != identity(group.degree):
                assert all(c[x] != x for x in range(group.degree))


def test_quotient_data():
    s3 = s_n(3)
    a3 = generated_group([S3_CYCLE])
    assert quotient_data(s3, a3) == (2, True)
    assert quotient_data(s3, s3) == (1, True)


def test_quotient_of_dihedral_by_klein_reflections():
    # symmetries of the square: rotation and a diagonal reflection
    rot = (1, 2, 3, 0)
    diag = (0, 3, 2, 1)
    d4 = generated_group([rot, diag])
    assert d4.order == 8
    klein = generated_group([diag, compose(compose(rot, diag), inverse(rot))])
    assert klein.order == 4
    assert quotient_data(d4, klein) == (2, True)


def test_quotient_requires_normality():
    s3 = s_n(3)
    sub = generated_group([S3_TRANSPOSITION])
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
    assert group_name(generated_group([SWAP])) == "Z/2"
    assert group_name(s_n(3)) == "S_3"
    assert group_name(generated_group([S3_CYCLE])) == "Z/3"
    assert group_name(s_n(4)) is None  # order 24 is past the naming table
    rot = (1, 2, 3, 0)
    diag = (0, 3, 2, 1)
    assert group_name(generated_group([rot, diag])) == "D_4"
    klein = generated_group([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert group_name(klein) == "Z/2xZ/2"
    # a fingerprint computed once names the group as well
    for group in (klein, s_n(3), s_n(4)):
        assert group.fingerprint.name == group_name(group)


def test_fingerprint_contents():
    fp = s_n(3).fingerprint
    assert fp.order == 6 and not fp.abelian and fp.exponent == 6
    assert dict(fp.element_orders) == {1: 1, 2: 3, 3: 2}


def test_permgroup_containment():
    s3 = s_n(3)
    assert S3_CYCLE in s3
    assert is_subgroup_of(generated_group([S3_CYCLE]), s3)
    assert not is_subgroup_of(s3, generated_group([S3_CYCLE]))


def test_permgroup_deterministic_ordering():
    g1 = generated_group([S3_TRANSPOSITION, S3_CYCLE])
    g2 = generated_group([S3_CYCLE, S3_TRANSPOSITION])
    assert g1.elements == g2.elements == tuple(sorted(g1.elements))


def closures_inside_g(subs, monkeypatch):
    """(generators, G) of each group that the pipeline and the window oracle
    close inside the structure group G of each simplified substitution: the
    little group, each round of the normal completion and each loop group."""
    recorded = []
    original = ellisub.perms.closure

    def recording(gens, ambient):
        recorded.append((list(gens), ambient))
        return original(gens, ambient)
    with monkeypatch.context() as patch:
        for module in (ellisub.perms, ellisub.pipeline, ellisub.oracle):
            patch.setattr(module, "closure", recording)
        for sub in subs:
            report = global_description(check_input(sub))
            oracle_equivalence(sub, 1, report.matrix, FiberAction(report.matrix, report.fiber))
    return recorded


def random_generator_sets(rng):
    """(generators, ambient) over S_4 and S_5: 1 to 3 random elements of
    S_n, then 1 to 3 random elements of a random subgroup of S_n, each
    closed inside that subgroup."""
    for n in (4, 5):
        symmetric = s_n(n)
        for _ in range(40):
            yield rng.sample(symmetric.elements, rng.randint(1, 3)), symmetric
            sub = generated_group(rng.sample(symmetric.elements, rng.randint(1, 2)))
            yield [rng.choice(sub.elements) for _ in range(rng.randint(1, 3))], sub


def test_closure_inside_a_group_agrees_with_the_list_closure(golden_simplified, random_corpus,
                                                             long_power_simplified, monkeypatch):
    # the closure inside G lists the elements that the walk from the
    # generator list alone lists, and returns G itself exactly when it holds
    # |G| of them: on every group the pipeline closes inside G over the three
    # corpora, on each cyclic subgroup of every structure group met there
    # (the trivial one of Z/2 included), and on seeded random sets
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified
    cases = closures_inside_g(subs, monkeypatch)
    groups = {id(group): group for _, group in cases}.values()
    cases += [([g], group) for group in groups for g in group.elements]
    cases += random_generator_sets(random.Random(20261019))
    kinds = Counter()
    for gens, ambient in cases:
        listed = generated_group([identity(ambient.degree), *gens])
        inside = ellisub.perms.closure(gens, ambient=ambient)
        assert inside.elements == listed.elements, (gens, ambient.order)
        assert (inside is ambient) == (listed.order == ambient.order)
        kinds[inside is ambient, ambient.order == math.factorial(ambient.degree)] += 1
    # (all of G, G = S_n): each of the four kinds occurs
    assert kinds == {(True, True): 138, (False, True): 239, (True, False): 67, (False, False): 53}
    assert min(group.order for group in groups) == 2
    # a generator outside the ambient group is refused
    refused = 0
    for group in groups:
        for outside in itertools.permutations(range(group.degree)):
            if outside not in group:
                with pytest.raises(ValidationError, match="outside the ambient group"):
                    closure([group.generators[0], outside], ambient=group)
                refused += 1
                break
    assert refused > 0


def test_orders_agree_with_element_order(golden_simplified, random_corpus, long_power_simplified):
    # the cyclic walk gives ord(p^j) = k / gcd(j, k) for every power of p;
    # it must agree with the lcm of the cycle lengths on every element
    s5 = s_n(5)
    assert s5.order == 120 and s5.orders == {p: element_order(p) for p in s5.elements}
    checked = 0
    for sub in list(golden_simplified.values()) + random_corpus + long_power_simplified:
        report = global_description(check_input(sub))
        for group in (report.structure_group, report.little_group, report.normal_completion,
                      report.aut.fiber_group):
            assert group.orders == {p: element_order(p) for p in group.elements}
            checked += group.order
    assert checked == 575


@pytest.mark.parametrize("name", ["early_stop_one_element_short", "cyclic_walk_assigns_k"])
def test_a_mutant_of_the_group_kernels_fails_a_named_test(name, golden_simplified, random_corpus,
                                                          long_power_simplified, monkeypatch):
    perms = ellisub.perms
    if name == "early_stop_one_element_short":
        # a proper subgroup one element short of G (the trivial group in
        # Z/2) would be taken for G
        monkeypatch.setattr(perms, "closure", mutant(
            perms.closure, "if len(elements) == stop:", "if len(elements) == stop - 1:"))
        with pytest.raises(AssertionError):
            test_closure_inside_a_group_agrees_with_the_list_closure(
                golden_simplified, random_corpus, long_power_simplified, monkeypatch)
    else:
        walked = cached_property(mutant(perms.PermGroup.orders.func,
                                        "orders[q] = k // gcd(j, k)", "orders[q] = k"))
        walked.__set_name__(perms.PermGroup, "orders")
        monkeypatch.setattr(perms.PermGroup, "orders", walked)
        with pytest.raises(AssertionError):
            test_orders_agree_with_element_order(golden_simplified, random_corpus,
                                                 long_power_simplified)


S5_GROUP = generated_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.permutations(range(5)).map(tuple), max_size=4))
def test_closure_inside_s5_is_the_list_closure(gens):
    listed = generated_group([identity(5), *gens])
    inside = closure(gens, ambient=S5_GROUP)
    assert inside.elements == listed.elements
    assert (inside is S5_GROUP) == (listed.order == 120)
    assert listed.orders == {p: element_order(p) for p in listed.elements}
