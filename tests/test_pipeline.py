import sys
from math import gcd

import pytest

import ellisub.pipeline
from ellisub.errors import ValidationError
from ellisub.golden import compare, load_expectations, snapshot
from ellisub.perms import (compose, cycle_string, element_order, identity,
                           inverse, is_normal, is_transitive)
from ellisub.pipeline import (AnalysisConfig, analyze_substitution,
                              automorphism_data, classical_height_bruteforce,
                              column_levels, degree_map, fiber_semigroup,
                              global_description, gtwo_pairs, heights, r_set,
                              return_time_gcd, structural_semigroup,
                              structure_group)
from ellisub.report import report_to_json
from ellisub.substitution import columns, simplify, substitution_power
from conftest import make_substitution

SWAP = (1, 0)


def test_r_set_thue_morse(golden_simplified):
    assert set(r_set(golden_simplified["thue_morse"])) == {identity(2), SWAP}


def test_r_set_seven_words(golden_simplified):
    rset = r_set(golden_simplified["s3_seven_words"])
    letters = ("a", "b", "c")
    assert {cycle_string(g, letters) for g in rset} == {"(a b)", "(b c)", "(a c b)"}


def test_r_set_d4(golden_simplified):
    rset = r_set(golden_simplified["d4_height_two"])
    assert len(rset) == 2
    orders = sorted(element_order(g) for g in rset)
    assert orders == [2, 4]  # a double transposition and a four-cycle


def test_r_set_requires_simplified():
    with pytest.raises(ValidationError, match="simplified"):
        r_set(make_substitution(["abc", "bca", "cab"]))


def test_r_set_is_power_invariant(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values())[:3] + random_corpus[:3]:
        level1 = set(r_set(sub))
        for k in (2, 3):
            assert set(r_set(substitution_power(sub, k))) == level1


def test_r_set_has_at_least_two_elements(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        assert len(r_set(sub)) >= 2


def test_structure_groups(golden_simplified):
    assert structure_group(golden_simplified["thue_morse"]).order == 2
    assert structure_group(golden_simplified["s3_seven_words"]).order == 6
    assert structure_group(golden_simplified["cyclic_rotation"]).order == 3
    assert structure_group(golden_simplified["d4_height_two"]).order == 8


def test_structure_group_transitive(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus[:5]:
        assert is_transitive(structure_group(sub))


def test_heights_per_case(golden_simplified):
    expected = {
        "thue_morse": (1, 1),
        "s3_seven_words": (1, 1),
        "s3_nonnormal_little": (1, 1),
        "s3_height_two": (2, 1),
        "cyclic_rotation": (1, 1),
        "d4_height_two": (2, 2),
    }
    for name, (h, h_cl) in expected.items():
        hs = heights(golden_simplified[name])
        assert (hs.height, hs.classical_height) == (h, h_cl), name


def test_little_group_not_normal_in_nonnormal_case(golden_simplified):
    sub = golden_simplified["s3_nonnormal_little"]
    hs = heights(sub)
    group = structure_group(sub)
    assert hs.little_group.order == 2
    assert not is_normal(hs.little_group, group)
    assert hs.normal_completion.order == 6


def test_height_divisibility(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        hs = heights(sub)
        length = sub.length
        assert (length - 1) % hs.height == 0
        assert (length - 1) % hs.classical_height == 0
        assert hs.height % hs.classical_height == 0


def test_classical_height_bruteforce_examples(golden_simplified):
    assert classical_height_bruteforce(golden_simplified["thue_morse"], 3) == 1
    assert classical_height_bruteforce(golden_simplified["d4_height_two"], 3) == 2
    assert classical_height_bruteforce(golden_simplified["s3_height_two"], 3) == 1


def test_grading_height_equals_bruteforce(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        assert heights(sub).classical_height == classical_height_bruteforce(sub, 3)


def test_gtwo_pair_counts(golden_simplified):
    assert len(gtwo_pairs(golden_simplified["thue_morse"])) == 4
    assert len(gtwo_pairs(golden_simplified["s3_seven_words"])) == 18


def test_gtwo_pair_quotients_lie_in_r_set(golden_simplified):
    for name in ("thue_morse", "d4_height_two"):
        sub = golden_simplified[name]
        rset = set(r_set(sub))
        for left, right in gtwo_pairs(sub):
            assert compose(right, inverse(left)) in rset


def test_fiber_semigroup_sizes(golden_simplified):
    sizes = {"thue_morse": (8, 4), "s3_seven_words": (36, 7), "d4_height_two": (32, 6)}
    for name, (count, points) in sizes.items():
        action = fiber_semigroup(golden_simplified[name])
        assert action.semigroup.size == count
        assert action.semigroup.degree == points


def test_fiber_idempotents_fix_their_image(golden_simplified):
    action = fiber_semigroup(golden_simplified["s3_seven_words"])
    for idx in action.green.idempotents:
        p = action.semigroup.elements[idx]
        for point in set(p):
            assert p[point] == point


def test_structural_semigroup_thue_morse_exact(golden_simplified):
    m = structural_semigroup(golden_simplified["thue_morse"])
    ident = identity(2)
    assert m.sandwich == ((ident, ident), (ident, SWAP))


def test_structural_semigroup_g0_override(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    rset = r_set(sub)
    for g0 in rset:
        m = structural_semigroup(sub, g0)
        assert m.i_labels[m.base[0]] == g0
    with pytest.raises(ValidationError):
        structural_semigroup(sub, (1, 2, 0, 3) if sub.size == 4 else (1, 2, 0))


def test_degree_map_trivial_when_height_one(golden_simplified):
    sub = golden_simplified["thue_morse"]
    m = structural_semigroup(sub)
    data = degree_map(sub, m, heights(sub).normal_completion)
    assert data.modulus == 1
    assert set(data.table.values()) == {0}


def test_degree_map_splits_by_parity(golden_simplified):
    sub = golden_simplified["s3_height_two"]
    hs = heights(sub)
    m = structural_semigroup(sub)
    data = degree_map(sub, m, hs.normal_completion)
    assert data.modulus == 2
    counts = {0: 0, 1: 0}
    even = set(hs.normal_completion.elements)
    for element, deg in data.table.items():
        counts[deg] += 1
        assert (element.g in even) == (deg == 0)
    assert counts == {0: 18, 1: 18}


def test_degree_calibration_level_two(golden_simplified):
    # the +-element built from consecutive columns nu-1, nu of the square has
    # degree nu modulo h
    for name in ("s3_height_two", "d4_height_two"):
        sub = golden_simplified[name]
        hs = heights(sub)
        completion = frozenset(hs.normal_completion.elements)
        rep = r_set(sub)[0]
        cosets = [completion]
        current = completion
        while True:
            current = frozenset(compose(rep, x) for x in current)
            if current == completion:
                break
            cosets.append(current)
        assert len(cosets) == hs.height
        square_cols = columns(substitution_power(sub, 2))
        for nu in range(1, len(square_cols)):
            degree = next(k for k, coset in enumerate(cosets) if square_cols[nu] in coset)
            assert degree == nu % hs.height


def test_automorphism_data(golden_simplified):
    expected = {
        "thue_morse": 2,
        "s3_seven_words": 1,
        "s3_nonnormal_little": 1,
        "s3_height_two": 1,
        "cyclic_rotation": 3,
        "d4_height_two": 2,
    }
    for name, order in expected.items():
        data = automorphism_data(golden_simplified[name])
        assert data.fiber_group.order == order, name
        assert data.semi_regular
        assert data.virtual.endswith(" x Z")


def test_global_strings_branches(golden_reports):
    tm = golden_reports["thue_morse"].global_strings
    assert set(tm) == {"ellis", "efib", "kernel"}
    assert "(Mfib0 u {Id})" in tm["efib"]
    assert "Z_4" in tm["kernel"]

    graded = golden_reports["s3_height_two"]
    strings = graded.global_strings
    assert "grading" in strings and "cov" in strings
    assert "semidirect" in strings  # a transposition realizes the order-2 class
    assert "split" not in strings   # h > classical height
    assert graded.unresolved_extension

    d4 = golden_reports["d4_height_two"]
    assert "split" in d4.global_strings
    assert "semidirect" in d4.global_strings
    assert not d4.unresolved_extension
    assert d4.order_h_witness is not None
    assert element_order(d4.order_h_witness) == 2
    assert d4.order_h_witness in r_set(golden_reports["d4_height_two"].substitution)


def test_report_metadata(golden_reports):
    report = golden_reports["cyclic_rotation"]
    assert report.exponent == 3
    assert report.original_length == 3
    assert report.substitution.length == 27
    assert report.r_pi == 3
    assert report.fiber.size == 9


def test_analyze_rejects_non_bijective():
    with pytest.raises(ValidationError, match="not bijective"):
        analyze_substitution(make_substitution(["ab", "ab"]))


def test_analyze_rejects_non_primitive():
    with pytest.raises(ValidationError, match="not primitive"):
        analyze_substitution(make_substitution(["ab", "ba", "cc"]))


def test_analyze_rejects_periodic_with_verdict():
    with pytest.raises(ValidationError, match="periodic") as err:
        analyze_substitution(make_substitution(["aba", "bab"]))
    assert err.value.verdict.period_evidence == 2


def test_analyze_rejects_inconclusive_bound():
    with pytest.raises(ValidationError, match="inconclusive"):
        analyze_substitution(make_substitution(["abba", "baab"]),
                             AnalysisConfig(aperiodicity_bound=3))


def test_analyze_g0_index_range(golden_subs):
    with pytest.raises(ValidationError, match="out of range"):
        analyze_substitution(golden_subs["thue_morse"], AnalysisConfig(g0_index=5))


def test_config_validation():
    with pytest.raises(ValidationError):
        AnalysisConfig(output_format="yaml")
    with pytest.raises(ValidationError):
        AnalysisConfig(oracle_level=0)


def test_global_description_on_lone_class_example():
    # simplified, primitive, aperiodic, and the fixed point b.a sits alone in
    # both proximality classes; the pipeline must still go through cleanly
    sub = make_substitution(["acbacba", "baccbab", "cbabacc"])
    from ellisub.substitution import is_simplified
    assert is_simplified(sub)
    report = analyze_substitution(sub, AnalysisConfig(verify=True))
    assert report.fiber.labels(sub.alphabet) == ("ab", "ac", "ba", "cb", "cc")
    assert report.structure_group.order == 6
    assert report.oracle.equal


# ---------------------------------------------------------------------------
# the cross-checks work on distinct columns, never on written-out powers

def test_column_levels_match_written_out_powers(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        levels = column_levels(sub)
        for n in (1, 2, 3):
            cols, pairs = next(levels)
            written = columns(substitution_power(sub, n))
            assert cols == frozenset(written)
            assert pairs == frozenset(zip(written, written[1:]))


def test_return_times_match_written_out_word(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        for n in (1, 2, 3):
            word = substitution_power(sub, n).rules[0]
            g = 0
            for k in range(1, len(word)):
                if word[k] == word[0]:
                    g = gcd(g, k)
            assert return_time_gcd(sub, n) == g
            expected = max(d for d in range(1, g + 1)
                           if g % d == 0 and gcd(d, sub.length) == 1)
            assert classical_height_bruteforce(sub, n) == expected


def test_classical_height_bruteforce_needs_a_positive_level(golden_simplified):
    with pytest.raises(ValidationError, match="prefix level"):
        classical_height_bruteforce(golden_simplified["thue_morse"], 0)


def test_global_description_writes_out_no_power(golden_subs, monkeypatch):
    simplified = {name: simplify(sub) for name, sub in golden_subs.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a power of the substitution was written out")

    for name, module in list(sys.modules.items()):
        if name == "ellisub" or name.startswith("ellisub."):
            for attr in ("substitution_power", "compose_substitutions"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    expectations = load_expectations()
    for name, (sub, exponent) in simplified.items():
        report = global_description(sub, exponent=exponent,
                                    original_length=golden_subs[name].length)
        assert compare(expectations[name], snapshot(report_to_json(report))) == []


def test_verified_analysis_builds_one_fiber_semigroup(golden_subs, monkeypatch):
    calls = []
    original = ellisub.pipeline.fiber_semigroup

    def counting(sub):
        calls.append(sub)
        return original(sub)

    monkeypatch.setattr(ellisub.pipeline, "fiber_semigroup", counting)
    report = analyze_substitution(golden_subs["s3_seven_words"], AnalysisConfig(verify=True))
    assert report.oracle.equal
    assert len(calls) == 1


def test_gtwo_pairs_on_five_letters_with_group_of_order_120():
    # power 3 (length 125), |I| = 4, |G| = 120: the level-3 columns of the
    # power never need to be written out
    sub, exponent = simplify(make_substitution(["abdaa", "baedb", "cecec", "ddbbd", "ecace"]))
    assert (exponent, sub.length, structure_group(sub).order, len(r_set(sub))) == (3, 125, 120, 4)
    assert len(gtwo_pairs(sub)) == 480
