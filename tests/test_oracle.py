import ast
import random
from pathlib import Path

import ellisub.oracle
from ellisub import AnalysisConfig, analyze_substitution, parse_substitution, simplify
from ellisub.oracle import (OracleResult, _compare_with_action,
                            compare_map_semigroups, limit_maps,
                            oracle_equivalence, triples_generate)
from ellisub.pipeline import r_set
from ellisub.rees import (FiberAction, as_transformation_semigroup,
                          idempotents_of, substitution_sandwich)
from ellisub.semigroups import map_compose, semigroup_closure
from ellisub.substitution import (allowed_two_words, columns,
                                  substitution_power)
from conftest import make_substitution, rset_and_group, three_row_matrix
from reference import (element_closure, fiber_semigroup, idempotent_generated,
                       induced_fiber_map, letter_at, proximality_classes,
                       rees_generators)

S5 = "a -> acadbeda\nb -> bddecaeb\nc -> ceeadbcc\nd -> dabbecbd\ne -> ebccadae"


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


def sandwich_action(sub):
    """The substitution sandwich of a simplified substitution at the first
    R-set element, and its action phi on the fiber."""
    rset, group = rset_and_group(sub)
    matrix = substitution_sandwich(group, rset, rset[0])
    return matrix, FiberAction(matrix, allowed_two_words(sub))


def test_walk_search_agrees_with_the_closure(golden_simplified, random_corpus,
                                             long_power_simplified):
    # the lifted triples generate M exactly when the maps close to all |S|
    # maps: on every shift's map, and on three short sets that fall short
    s5 = simplify(parse_substitution(S5))[0]
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified + [s5]
    assert len(subs) == 6 + 20 + 21 + 1
    short_sets = 0
    for sub in subs:
        matrix, action = sandwich_action(sub)
        by_shift = {m.nu: m.fiber_map for m in limit_maps(sub).maps}
        candidates = [list(by_shift.values()),
                      [f for nu, f in by_shift.items() if nu > 0],
                      [f for nu, f in by_shift.items() if nu < 0],
                      [by_shift[1], by_shift[-1]]]
        for k, maps in enumerate(candidates):
            closed = semigroup_closure(maps, degree=len(maps[0])).size == matrix.size
            assert triples_generate(matrix, [action.decode(f) for f in maps]) == closed, \
                (sub.rules, k)
            assert closed or k > 0
            short_sets += not closed
    assert short_sets >= 2 * len(subs)


def test_walk_search_decides_generation_of_rees_triples(golden_simplified):
    # against the closure of the triples themselves, on the three-row sandwich
    # at every base (A[lam0][i0] != 1) and on random seed sets
    rng = random.Random(20261018)
    matrices = [three_row_matrix((i0, lam0)) for i0 in range(2) for lam0 in range(3)]
    for sub in golden_simplified.values():
        rset, group = rset_and_group(sub)
        matrices.append(substitution_sandwich(group, rset, rset[-1]))
    outcomes = set()
    for matrix in matrices:
        elements = list(matrix.elements())
        for size in (2, 3, 4, 6):
            for _ in range(8):
                seeds = rng.sample(elements, min(size, len(elements)))
                generated = element_closure(matrix, seeds) == set(elements)
                assert triples_generate(matrix, seeds) == generated
                outcomes.add(generated)
        assert triples_generate(matrix, list(rees_generators(matrix)))
    assert outcomes == {True, False}
    # the idempotents meet every row and both columns, but their walk labels
    # cover only the little group A_3 of S_3: the search itself must refuse
    rset, group = rset_and_group(golden_simplified["s3_height_two"])
    matrix = substitution_sandwich(group, rset, rset[0])
    idempotents = idempotents_of(matrix)
    assert {x.i for x in idempotents} == set(range(len(rset)))
    assert {x.lam for x in idempotents} == {0, 1}
    assert not triples_generate(matrix, idempotents)


def test_a_short_map_set_is_closed_to_list_the_missing_maps(golden_simplified):
    # Thue-Morse cut to the maps of sigma^(+-1) generates 4 of its 8 maps: the
    # walk search refuses their triples, and only then are the maps closed,
    # to list the 4 algebraic maps they miss
    sub = golden_simplified["thue_morse"]
    matrix, action = sandwich_action(sub)
    result = limit_maps(sub)
    short = OracleResult(result.fiber, tuple(m for m in result.maps if abs(m.nu) == 1))
    assert not triples_generate(matrix, [action.decode(m.fiber_map) for m in short.maps])
    comparison = _compare_with_action(short, matrix, action)
    full = semigroup_closure(list(as_transformation_semigroup(matrix, result.fiber).values()),
                             degree=4)
    missing = sorted(set(full.elements) - set(short.semigroup.elements))
    assert short.semigroup.size == 4 and full.size == 8
    assert not comparison.equal and comparison.map_count == 4
    assert comparison.discrepancies == tuple(
        f"algebraic map {f} not produced by the oracle" for f in missing)
    # all six shifts generate: the search decides it and no closure is run
    whole = _compare_with_action(result, matrix, action)
    assert whole.equal and whole.map_count == 8 and whole.discrepancies == ()
    assert "semigroup" not in vars(result)


def test_a_map_outside_the_action_is_a_discrepancy(golden_simplified):
    # against the idempotent-generated half of s3_height_two, 18 of the
    # oracle's 36 maps have no triple: the lookup misses, and the closure
    # lists each of them as missing from the algebraic side
    sub = golden_simplified["s3_height_two"]
    rset, group = rset_and_group(sub)
    partial = idempotent_generated(substitution_sandwich(group, rset, rset[0]))
    comparison = oracle_equivalence(sub, partial, FiberAction(partial, allowed_two_words(sub)))
    assert not comparison.equal and comparison.map_count == 36
    assert len(comparison.discrepancies) == 18
    assert all("missing from the algebraic semigroup" in d for d in comparison.discrepancies)


def test_verify_reads_each_shift_once(golden_subs, monkeypatch):
    # one read of the rule words per shift; the digit walks live in the tests
    # only (test_pipeline.py checks that no ellisub module defines letter_at)
    reads = []
    limit_map = ellisub.oracle._limit_map

    def counted_limit_map(*args):
        reads.append(args[-1])
        return limit_map(*args)
    monkeypatch.setattr(ellisub.oracle, "_limit_map", counted_limit_map)
    report = analyze_substitution(golden_subs["cyclic_rotation"], AnalysisConfig(verify=True))
    length = report.substitution.length
    assert report.exponent == 3 and length == 27
    assert report.oracle is not None and report.oracle.equal
    assert sorted(reads) == list(range(1 - length, 0)) + list(range(1, length))


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
    sub = golden_simplified["s3_height_two"]
    result = limit_maps(sub)
    rset, group = rset_and_group(sub)
    partial = idempotent_generated(substitution_sandwich(group, rset, rset[0]))
    partial_sg, _ = fiber_semigroup(partial, allowed_two_words(sub))
    assert partial_sg.size == 18 and result.semigroup.size == 36
    discrepancies = compare_map_semigroups(result.semigroup, partial_sg)
    assert discrepancies
    assert all("missing from the algebraic semigroup" in d for d in discrepancies)
    assert len(discrepancies) == 18


def test_oracle_json_serialization(golden_subs, golden_simplified):
    import json
    from ellisub.report import report_to_json
    sub = golden_simplified["thue_morse"]
    comparison = oracle_equivalence(sub, *sandwich_action(sub))
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
