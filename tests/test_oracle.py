import ast
import random
from pathlib import Path

import ellisub.oracle
import ellisub.substitution
from ellisub import AnalysisConfig, analyze_substitution
from ellisub.oracle import (_closure_of_maps, _few_shifts,
                            compare_map_semigroups, induced_fiber_map,
                            limit_maps, oracle_equivalence,
                            proximality_classes)
from ellisub.pipeline import r_set
from ellisub.semigroups import map_compose, semigroup_closure
from ellisub.substitution import (allowed_two_words, columns, letter_at,
                                  substitution_power)
from conftest import fiber_action, make_substitution, rset_and_group


def shifted_two_word(sub, pair, nu):
    """The two-letter word that sigma^nu puts over the fixed point a.b:
    its letters at positions nu-1 and nu."""
    return (letter_at(sub, pair, nu - 1), letter_at(sub, pair, nu))


def test_shift_two_word_thue_morse(golden_simplified):
    tm = golden_simplified["thue_morse"]
    # sigma of a.a reads positions 0,1 of abba
    assert shifted_two_word(tm, (0, 0), 1) == (0, 1)
    assert shifted_two_word(tm, (0, 0), 3) == (1, 0)


def test_shift_two_word_matches_columns(golden_simplified):
    # positive shifts read the right half: positions nu-1, nu of the level
    # word of b are consecutive column images
    rng = random.Random(3)
    for name in ("thue_morse", "s3_seven_words", "d4_height_two"):
        sub = golden_simplified[name]
        fiber = allowed_two_words(sub)  # the fixed points of a simplified sub
        level = 2
        cols = columns(substitution_power(sub, level))
        for _ in range(100):
            pair = rng.choice(fiber.pairs)
            nu = rng.randrange(1, sub.length**level)
            expected = (cols[nu - 1][pair[1]], cols[nu][pair[1]])
            assert shifted_two_word(sub, pair, nu) == expected


def test_limit_maps_counts(golden_simplified):
    tm_result = limit_maps(golden_simplified["thue_morse"])
    assert tm_result.semigroup.size == 8
    seven = limit_maps(golden_simplified["s3_seven_words"])
    assert seven.semigroup.size == 36


def test_limit_maps_stabilize_immediately(golden_simplified):
    # simplified substitutions pin the boundary columns, so the induced map
    # is already constant across levels
    for name, sub in golden_simplified.items():
        result = limit_maps(sub)
        assert set(result.stabilization_by_nu().values()) == {1}
        fiber = result.fiber
        for entry in result.maps:
            for extra in (2, 3):
                assert induced_fiber_map(sub, fiber, entry.nu, extra) == entry.fiber_map


def test_every_level_reads_the_limit_map(golden_simplified, random_corpus,
                                         long_power_simplified):
    # c_0 = c_(l-1) = id gives x[nu l^k] = x[nu] and x[nu l^k - 1] = x[nu - 1]
    # for every k, so the map read off the rule words is the map that the
    # digit walks read at every level
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified
    assert len(subs) == 6 + 20 + 21
    for sub in subs:
        result = limit_maps(sub)
        assert [m.nu for m in result.maps] == \
            list(range(1, sub.length)) + list(range(1 - sub.length, 0))
        assert result.semigroup.generators == tuple(sorted({m.fiber_map for m in result.maps}))
        for m in result.maps:
            for k in range(1, 5):
                assert induced_fiber_map(sub, result.fiber, m.nu, k) == m.fiber_map, (sub, m.nu, k)


def test_few_shifts_are_the_digit_shifts():
    assert _few_shifts(4) == [1, 2, -1, -2]
    assert _few_shifts(27) == [1, 2, 3, 6, 9, 18, -1, -2, -3, -6, -9, -18]
    assert _few_shifts(117649) == [nu * 7**r for r in range(6) for nu in range(1, 7)] + \
        [-nu * 7**r for r in range(6) for nu in range(1, 7)]
    assert _few_shifts(6) == [1, 2, 3, 4, 5, -1, -2, -3, -4, -5]
    assert _few_shifts(7) == [1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6]


def test_few_shifts_generate_the_closure_of_all_shifts(golden_simplified, random_corpus,
                                                       long_power_simplified):
    for sub in list(golden_simplified.values()) + random_corpus + long_power_simplified:
        result = limit_maps(sub)
        by_shift = {m.nu: m.fiber_map for m in result.maps}
        degree = result.fiber.size
        few = semigroup_closure([by_shift[nu] for nu in _few_shifts(sub.length)], degree=degree)
        full = semigroup_closure(list(by_shift.values()), degree=degree)
        assert few.elements == full.elements == result.semigroup.elements


def test_closure_falls_back_when_the_few_shifts_do_not_generate(golden_simplified):
    # the maps of sigma^(+-l) generate 4 of Thue-Morse's 8 maps; the closure
    # must notice that the other shifts' maps lie outside and close them all
    by_shift = {m.nu: m.fiber_map for m in limit_maps(golden_simplified["thue_morse"]).maps}
    full = semigroup_closure(list(by_shift.values()), degree=4)
    partial = semigroup_closure([by_shift[1], by_shift[-1]], degree=4)
    assert partial.size == 4 and full.size == 8
    closed = _closure_of_maps(by_shift, [1, -1], 4)
    assert closed.elements == full.elements
    assert closed.generators == tuple(sorted(set(by_shift.values())))


def test_verify_reads_each_shift_once(golden_subs, monkeypatch):
    # one read of the rule words per shift, and no digit walk at any level
    reads, walks = [], []
    limit_map, letter_at = ellisub.oracle._limit_map, ellisub.substitution.letter_at

    def counted_limit_map(*args):
        reads.append(args[-1])
        return limit_map(*args)

    def counted_letter_at(*args):
        walks.append(args)
        return letter_at(*args)
    monkeypatch.setattr(ellisub.oracle, "_limit_map", counted_limit_map)
    monkeypatch.setattr(ellisub.oracle, "letter_at", counted_letter_at)
    monkeypatch.setattr(ellisub.substitution, "letter_at", counted_letter_at)
    report = analyze_substitution(golden_subs["cyclic_rotation"], AnalysisConfig(verify=True))
    length = report.substitution.length
    assert report.exponent == 3 and length == 27
    assert report.oracle is not None and report.oracle.equal
    assert sorted(reads) == list(range(1 - length, 0)) + list(range(1, length))
    assert walks == []


def test_oracle_idempotents(golden_simplified):
    for name in ("thue_morse", "s3_seven_words", "d4_height_two"):
        sub = golden_simplified[name]
        result = limit_maps(sub)
        idem = [f for f in result.semigroup.elements if map_compose(f, f) == f]
        assert len(idem) == 2 * len(r_set(sub))
        for p in idem:
            for point in set(p):
                assert p[point] == point


def test_oracle_plus_maps_mirror_r_set(golden_simplified):
    # stabilized positive shifts act through pairs whose quotient is in the R-set
    from ellisub.perms import compose, inverse
    sub = golden_simplified["thue_morse"]
    cols = columns(sub)
    rset = set(r_set(sub))
    for nu in range(1, sub.length):
        assert compose(cols[nu], inverse(cols[nu - 1])) in rset


def test_oracle_equivalence_on_golden(golden_reports):
    for name, report in golden_reports.items():
        assert report.oracle is not None and report.oracle.equal, name


def test_negative_control_detects_wrong_semigroup(golden_simplified):
    # compare the oracle against a genuinely closed but wrong candidate: the
    # idempotent-generated part, which is a proper subsemigroup here
    from ellisub.rees import (as_transformation_semigroup, idempotent_generated,
                              substitution_sandwich)
    sub = golden_simplified["s3_height_two"]
    result = limit_maps(sub)
    rset, group = rset_and_group(sub)
    partial = idempotent_generated(substitution_sandwich(group, rset, rset[0]))
    partial_sg, _ = as_transformation_semigroup(partial, allowed_two_words(sub))
    assert partial_sg.size == 18 and result.semigroup.size == 36
    discrepancies = compare_map_semigroups(result.semigroup, partial_sg)
    assert discrepancies
    assert all("missing from the algebraic semigroup" in d for d in discrepancies)
    assert len(discrepancies) == 18


def test_oracle_json_serialization(golden_subs, golden_simplified):
    import json
    from ellisub.report import report_to_json
    sub = golden_simplified["thue_morse"]
    comparison = oracle_equivalence(sub, fiber_action(sub).semigroup)
    assert comparison.equal and comparison.discrepancies == ()
    result = comparison.oracle
    assert list(result.fiber.labels(sub.alphabet)) == ["aa", "ab", "ba", "bb"]
    assert result.semigroup.size == 8
    by_shift = {m.nu: m.fiber_map for m in result.maps}
    # sigma^(1*4^k) sends a.b to the two-word at positions 4^k - 1, 4^k of b's
    # block; for abba/baab that is b(b).a(b) read from the rules
    aa, ab = result.fiber.pairs.index((0, 0)), result.fiber.pairs.index((0, 1))
    assert by_shift[1][aa] == ab
    assert set(by_shift) == {-3, -2, -1, 1, 2, 3}
    # the one JSON view of the oracle is the report's oracle section
    report = analyze_substitution(golden_subs["thue_morse"], AnalysisConfig(verify=True))
    payload = json.loads(json.dumps(report_to_json(report)["oracle"]))
    assert payload["equal"] is True and payload["map_count"] == 8
    assert payload["stabilized_levels"] == {str(nu): 1 for nu in (-3, -2, -1, 1, 2, 3)}


def test_proximality_thue_morse(golden_simplified):
    tm = golden_simplified["thue_morse"]
    data = proximality_classes(tm)
    labels = data.fiber.labels(tm.alphabet)
    forward = [{labels[i] for i in c} for c in data.forward]
    assert forward == [{"aa", "ba"}, {"ab", "bb"}]
    backward = [{labels[i] for i in c} for c in data.backward]
    assert backward == [{"aa", "ab"}, {"ba", "bb"}]


def test_proximality_class_sizes_match_letter_multiplicities(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    data = proximality_classes(sub)
    by_right: dict[int, int] = {}
    for (_, b) in data.fiber.pairs:
        by_right[b] = by_right.get(b, 0) + 1
    assert sorted(len(c) for c in data.forward) == sorted(by_right.values())


def test_proximality_nontrivial_on_corpus(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus[:5]:
        data = proximality_classes(sub)
        assert any(len(c) > 1 for c in data.forward)
        assert any(len(c) > 1 for c in data.backward)


def _lone_points(data):
    lone = []
    for k in range(data.fiber.size):
        if (k,) in data.forward and (k,) in data.backward:
            lone.append(k)
    return lone


def test_lone_fiber_points_per_case(golden_simplified):
    # a fixed point alone in both proximality classes is compatible with
    # aperiodicity: it happens in two of the reference cases and not in the
    # other four
    without = ("thue_morse", "s3_seven_words", "s3_height_two", "cyclic_rotation")
    for name in without:
        assert not _lone_points(proximality_classes(golden_simplified[name])), name
    for name in ("s3_nonnormal_little", "d4_height_two"):
        assert _lone_points(proximality_classes(golden_simplified[name])), name


def test_lone_fiber_point_exists_for_some_simplified_substitution():
    # a simplified, primitive, aperiodic substitution whose fixed point b.a is
    # alone in both classes: proximality checks must still validate
    sub = make_substitution(["acbacba", "baccbab", "cbabacc"])
    data = proximality_classes(sub)
    labels = data.fiber.labels(sub.alphabet)
    ba = labels.index("ba")
    assert (ba,) in data.forward
    assert (ba,) in data.backward


def test_oracle_never_imports_the_pipeline():
    # the window oracle is the independent witness: its module docstring says
    # the construction never looks at the algebraic pipeline, which hands in
    # its semigroup for the comparison instead
    tree = ast.parse(Path(ellisub.oracle.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert imported
    assert not [name for name in imported if "pipeline" in name.split(".")]
