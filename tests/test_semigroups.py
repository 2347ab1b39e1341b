import random

import pytest

import reference
from ellisub.errors import InternalCheckError, ResourceLimitError, ValidationError
from ellisub.perms import after, compose
from ellisub.semigroups import TransformationSemigroup
from conftest import fiber_action
from reference import (green_structure, is_completely_simple, mul, semigroup_closure,
                       written_limit_maps)


def test_map_compose_matches_its_definition_on_random_maps():
    # the fiber maps compose through perms.compose and perms.after, so maps
    # that are not injective must compose by the same definition; degrees 0
    # and 1 take the fallback, since itemgetter of one index returns a
    # scalar and of none raises
    rng = random.Random(20261018)
    for n in range(0, 11):
        for _ in range(20):
            x = tuple(rng.randrange(n) for _ in range(n))
            y = tuple(rng.randrange(n) for _ in range(n))
            expected = tuple([x[i] for i in y])
            assert compose(x, y) == expected and type(compose(x, y)) is tuple
            assert after(y)(x) == expected and after(y)(list(x)) == expected


def test_closure_of_single_idempotent():
    p = (0, 0, 2)
    sg = semigroup_closure([p])
    assert sg.elements == (p,)
    # degree 1: the closure's getter takes the kernel's fallback
    assert semigroup_closure([(0,)]).elements == ((0,),)


def test_closure_of_constant_maps():
    c0, c1 = (0, 0), (1, 1)
    sg = semigroup_closure([c0, c1])
    assert set(sg.elements) == {c0, c1}
    assert (0, 1) not in sg.index


def test_closure_cap(monkeypatch):
    # full transformation monoid on 4 points has 256 elements
    gens = [(1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3)]
    monkeypatch.setattr(reference, "CLOSURE_CAP", 100)
    with pytest.raises(ResourceLimitError, match="cap of 100 elements"):
        semigroup_closure(gens)


def test_closure_of_repeated_generators(golden_simplified):
    # the shifts of the window oracle repeat their maps: s3_seven_words has
    # fewer distinct maps than shifts
    maps = [m.fiber_map for m in written_limit_maps(golden_simplified["s3_seven_words"]).maps]
    distinct = sorted(set(maps))
    assert len(distinct) < len(maps)
    expected = semigroup_closure(distinct)
    for gens in (maps, maps[::-1] + maps):
        sg = semigroup_closure(gens)
        assert sg == expected
        assert sg.generators == tuple(distinct)


def test_closure_validates_inputs():
    with pytest.raises(ValidationError):
        semigroup_closure([(0, 1), (0, 1, 2)])
    with pytest.raises(ValidationError):
        semigroup_closure([(0, 5)])


def test_group_as_transformation_semigroup_has_one_class_each():
    rot = (1, 2, 0)
    sg = semigroup_closure([rot])
    green = green_structure(sg)
    assert len(green.l_classes) == len(green.r_classes) == len(green.h_classes) == 1
    assert green.kernel == tuple(range(sg.size))
    assert is_completely_simple(sg, green)


def test_thue_morse_fiber_green(golden_simplified):
    action = fiber_action(golden_simplified["thue_morse"])
    green = action.green
    assert action.semigroup.size == 8
    assert sorted(len(c) for c in green.l_classes) == [4, 4]
    assert sorted(len(c) for c in green.r_classes) == [4, 4]
    assert len(green.idempotents) == 4
    assert len(green.kernel) == 8


def test_seven_word_fiber_green(golden_fibers):
    green = golden_fibers["s3_seven_words"].green
    assert sorted(len(c) for c in green.l_classes) == [18, 18]
    assert sorted(len(c) for c in green.r_classes) == [12, 12, 12]
    assert sorted(len(c) for c in green.h_classes) == [6] * 6
    assert len(green.idempotents) == 6
    assert len(green.kernel) == 36


def test_kernel_is_simple(golden_fibers):
    # recomputing the kernel of the kernel returns the kernel
    for built in golden_fibers.values():
        sg = built.semigroup
        green = green_structure(sg)
        kernel_maps = tuple(sg.elements[i] for i in green.kernel)
        inner = TransformationSemigroup(sg.degree, kernel_maps, kernel_maps)
        inner_green = green_structure(inner)
        assert len(inner_green.kernel) == inner.size


def test_h_classes_have_one_idempotent_and_equal_size(golden_reports, golden_fibers):
    for name, report in golden_reports.items():
        sg = golden_fibers[name].semigroup
        green = green_structure(sg)
        idem = set(green.idempotents)
        sizes = {len(c) for c in green.h_classes}
        assert sizes == {report.structure_group.order}
        for h_class in green.h_classes:
            assert len(idem.intersection(h_class)) == 1


def test_l_classes_are_minimal_left_ideals(golden_fibers):
    for name in ("thue_morse", "d4_height_two"):
        sg = golden_fibers[name].semigroup
        green = green_structure(sg)
        for l_class in green.l_classes:
            for idx in l_class:
                left_ideal = {idx} | {mul(sg, s, idx) for s in range(sg.size)}
                assert left_ideal == set(l_class)


def test_completely_simple_fails_with_identity_adjoined(golden_simplified):
    action = fiber_action(golden_simplified["s3_seven_words"])
    sg = action.semigroup
    assert is_completely_simple(sg)
    with_id = tuple(sorted(set(sg.elements) | {tuple(range(sg.degree))}))
    extended = TransformationSemigroup(sg.degree, with_id, with_id)
    assert not is_completely_simple(extended)


def test_large_semigroup_skips_memo_table():
    # the full transformation monoid on 6 points has 6^6 = 46656 elements
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0), (0, 0, 2, 3, 4, 5)]
    sg = semigroup_closure(gens)
    assert sg.size > 4096
    assert sg.table is None
    i, j = 3, sg.size - 1
    assert sg.elements[mul(sg, i, j)] == compose(sg.elements[i], sg.elements[j])


def _reference_green(sg):
    """Green's classes by the principal-ideal definition over all elements:
    the |S|^2 (and, for the kernel, |S|^3) computation the Cayley-graph
    version replaces."""
    rng = range(sg.size)
    left = [frozenset({i} | {mul(sg, s, i) for s in rng}) for i in rng]
    right = [frozenset({i} | {mul(sg, i, s) for s in rng}) for i in rng]

    def group_by(keys):
        buckets = {}
        for i in rng:
            buckets.setdefault(keys[i], []).append(i)
        return tuple(tuple(b) for b in sorted(buckets.values()))

    parent = list(rng)

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    l_classes, r_classes = group_by(left), group_by(right)
    for cls in l_classes + r_classes:
        for i in cls[1:]:
            parent[find(i)] = find(cls[0])
    two_sided = [frozenset().union(*(right[j] for j in left[i])) for i in rng]
    return {
        "l_classes": l_classes,
        "r_classes": r_classes,
        "h_classes": group_by([(left[i], right[i]) for i in rng]),
        "d_classes": group_by([find(i) for i in rng]),
        "idempotents": tuple(i for i in rng if mul(sg, i, i) == i),
        "kernel": tuple(sorted(frozenset.intersection(*two_sided))),
    }


def _is_regular(sg):
    return all(any(mul(sg, mul(sg, x, y), x) == x for y in range(sg.size))
               for x in range(sg.size))


def test_green_structure_matches_principal_ideals_on_random_closures():
    rng = random.Random(4242)
    samples = [semigroup_closure([(1, 2, 2)]),               # x, x^2 = x^3: x is not regular
               semigroup_closure([(1, 0, 2), (0, 0, 1)]),    # contains the identity
               semigroup_closure([(1, 2, 3, 0), (0, 1, 1, 3)])]
    while len(samples) < 40:
        n = rng.choice((3, 4))
        gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.choice((2, 3)))]
        sg = semigroup_closure(gens)
        if sg.size <= 120:  # keeps the cubic reference kernel fast
            samples.append(sg)
    assert any(not _is_regular(sg) for sg in samples)
    assert any(tuple(range(sg.degree)) in sg.index for sg in samples)
    for sg in samples:
        expected = _reference_green(sg)
        got = green_structure(sg)
        assert {name: getattr(got, name) for name in expected} == expected, sg.generators
        # every element as a generator gives the same partitions
        everything = TransformationSemigroup(sg.degree, sg.elements, sg.elements)
        assert green_structure(everything) == got


def test_green_structure_refuses_generators_that_do_not_generate():
    # {c0, c1, swap, id}; from the constant map c0 alone the Cayley graphs
    # still have a single sink, so only the reachability check can object
    sg = semigroup_closure([(0, 0), (1, 1), (1, 0)])
    assert sg.size == 4
    short = TransformationSemigroup(sg.degree, sg.elements, ((0, 0),))
    with pytest.raises(InternalCheckError, match="reach 1 of 4"):
        green_structure(short)
