import random
import sys
from collections import Counter
from functools import cached_property
from math import gcd

import pytest

import ellisub.oracle
import ellisub.pipeline
import ellisub.semigroups
from ellisub.errors import InternalCheckError, ValidationError
from ellisub.golden import compare, load_expectations, snapshot
from ellisub.oracle import OracleResult
from ellisub.perms import (PermGroup, closure, compose, cycle_string,
                           element_order, group_fingerprint, group_name,
                           identity, inverse, is_normal, is_transitive,
                           normal_closure)
from ellisub.pipeline import (AnalysisConfig, _classical_height_by_grading,
                              analyze_substitution, automorphism_data, check_input,
                              classical_height_bruteforce,
                              degree_map, global_description, heights, r_set,
                              return_time_gcd, structure_group)
from ellisub.rees import MINUS, PLUS, FiberAction, ReesMatrixSemigroup, substitution_sandwich
from ellisub.report import render_json, report_to_json
from ellisub.semigroups import TransformationSemigroup, map_compose
from ellisub.substitution import (Substitution, allowed_two_words, columns, is_simplified,
                                  parse_substitution, simplify, substitution_power)
from conftest import (build_random_corpus, fiber_action, fiber_maps, make_substitution,
                      pair_closure, rset_and_group, workload_subs)
from reference import (grading_height_full_scan, quotient_data, semigroup_closure,
                       written_r_set)

# what moved to tests/reference.py or was deleted: no ellisub module defines it
MOVED = ("rees_decomposition", "ReesDecomposition", "presentations_isomorphic",
         "ISO_SEARCH_GROUP_MAX", "ISO_SEARCH_DEGREE_MAX", "idempotent_generated",
         "little_structure_group", "_element_closure", "_left_row", "multiply",
         "verify_rees_isomorphism", "green_structure", "GreenStructure", "_components",
         "_partition", "is_completely_simple", "quotient_data", "proximality_classes",
         "ProximalityData", "_merged_pairs", "_check_merge_classes", "induced_fiber_map",
         "letter_at", "_product_law_failure", "as_transformation_semigroup",
         "semigroup_closure", "compare_map_semigroups")

SWAP = (1, 0)
POWER_6 = "a -> ccaaacc\nb -> bacbbaa\nc -> abbccbb\n"
POWER_12 = "a -> bcd\nb -> dda\nc -> cab\nd -> abc\n"
# what the gate runs on the input, and the oracle on the analysed power
CHECKS = ("is_bijective", "_all_letters_exponent", "allowed_two_words", "is_simplified",
          "is_primitive", "is_aperiodic", "simplify")


def test_r_set_thue_morse(golden_simplified):
    assert set(r_set(check_input(golden_simplified["thue_morse"]))) == {identity(2), SWAP}


def test_r_set_seven_words(golden_simplified):
    rset = r_set(check_input(golden_simplified["s3_seven_words"]))
    letters = ("a", "b", "c")
    assert {cycle_string(g, letters) for g in rset} == {"(a b)", "(b c)", "(a c b)"}


def test_r_set_d4(golden_simplified):
    rset = r_set(check_input(golden_simplified["d4_height_two"]))
    assert len(rset) == 2
    orders = sorted(element_order(g) for g in rset)
    assert orders == [2, 4]  # a double transposition and a four-cycle


def test_the_gate_hands_on_a_simplified_power():
    # cyclic_rotation is simplified only at power 3, the lcm of its junction
    # cycles, and s3_seven_words at power 2, its all-letters exponent: the
    # gate writes that power out, and what it refuses never reaches a stage
    for words, exponent in ((["abc", "bca", "cab"], 3), (["abaa", "bacb", "ccbc"], 2)):
        theta = make_substitution(words)
        checked = check_input(theta)
        assert (checked.original, checked.exponent) == (theta, exponent)
        assert checked.power.length == theta.length**exponent
        assert is_simplified(checked.power)
        assert checked.fiber == allowed_two_words(checked.power)
    with pytest.raises(ValidationError, match="not bijective"):
        check_input(make_substitution(["abb", "bab"]))


def test_the_stages_check_nothing_the_gate_checked(golden_subs, monkeypatch):
    # once check_input has passed an input, no stage checks it or its power
    # again: every check, under every name a module holds it by, refuses
    checked = {name: check_input(sub) for name, sub in golden_subs.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a stage checked its input again")
    for module_name, module in list(sys.modules.items()):
        if module_name == "ellisub" or module_name.startswith("ellisub."):
            for attr in CHECKS:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert set(r_set(checked["thue_morse"])) == {identity(2), SWAP}
    expectations = load_expectations()
    for name, value in checked.items():
        report = global_description(value)
        assert compare(expectations[name], snapshot(report_to_json(report))) == []


def test_r_set_is_power_invariant(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values())[:3] + random_corpus[:3]:
        level1 = set(r_set(check_input(sub)))
        for k in (2, 3):
            assert set(r_set(check_input(substitution_power(sub, k)))) == level1


def test_r_set_has_at_least_two_elements(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        assert len(r_set(check_input(sub))) >= 2


def test_r_set_and_grading_agree_with_the_written_power(golden_subs):
    # r_set recurses over theta's columns and the grading tries the divisors
    # up to s; the references read the L - 1 column quotients of the written
    # power and try every divisor of L - 1
    subs = [*golden_subs.values(), *build_random_corpus(60, seed=11),
            *(sub for workload in ("golden", "wide-group", "long-power")
              for sub in workload_subs(workload)),
            parse_substitution(POWER_6), parse_substitution(POWER_12)]
    exponents, graded = Counter(), Counter()
    for sub in subs:
        checked = check_input(sub)
        assert r_set(checked) == written_r_set(checked.power)
        assert r_set(checked._replace(power=None)) == r_set(checked)  # tau is not read
        height = _classical_height_by_grading(checked.power)
        assert height == grading_height_full_scan(checked.power)
        exponents[checked.exponent] += 1
        graded[height] += 1
    assert sorted(exponents.items()) == [(1, 84), (2, 23), (3, 10), (6, 1), (12, 1)]
    assert sorted(graded.items()) == [(1, 115), (2, 4)]


def test_structure_groups(golden_simplified):
    orders = {"thue_morse": 2, "s3_seven_words": 6, "cyclic_rotation": 3, "d4_height_two": 8}
    for name, order in orders.items():
        assert structure_group(r_set(check_input(golden_simplified[name]))).order == order


def test_structure_group_transitive(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus[:5]:
        assert is_transitive(structure_group(r_set(check_input(sub))))


def test_structure_group_refuses_an_intransitive_r_set():
    with pytest.raises(InternalCheckError, match="transitive"):
        structure_group(((1, 0, 2), (0, 1, 2)))


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
        sub = golden_simplified[name]
        hs = heights(check_input(sub), *rset_and_group(sub))
        assert (hs.height, hs.classical_height) == (h, h_cl), name


def test_little_group_not_normal_in_nonnormal_case(golden_simplified):
    sub = golden_simplified["s3_nonnormal_little"]
    rset, group = rset_and_group(sub)
    hs = heights(check_input(sub), rset, group)
    assert hs.little_group.order == 2
    assert not is_normal(hs.little_group, group)
    assert hs.normal_completion.order == 6


def test_heights_refuses_a_completion_that_is_not_normal(golden_simplified, monkeypatch):
    # a normal closure that returned the little group itself: |N| = 2 < |G| = 6,
    # so is_normal cannot answer from the orders and conjugates each element
    sub = golden_simplified["s3_nonnormal_little"]
    rset, group = rset_and_group(sub)
    monkeypatch.setattr(ellisub.pipeline, "normal_closure", lambda little, ambient: little)
    with pytest.raises(InternalCheckError, match="must be normal"):
        heights(check_input(sub), rset, group)


def test_is_normal_decides_from_the_orders_only_for_the_whole_group():
    s3 = closure([(1, 0, 2), (1, 2, 0)])
    # a subgroup of S_3 with six elements is S_3
    assert is_normal(PermGroup(3, ((1, 0, 2),), s3.elements), s3)
    # six elements outside S_3 fail the subgroup check first
    assert not is_normal(closure([(1, 0, 2, 3), (1, 2, 0, 3)]), s3)


def test_height_divisibility(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        hs = heights(check_input(sub), *rset_and_group(sub))
        length = sub.length
        assert (length - 1) % hs.height == 0
        assert (length - 1) % hs.classical_height == 0
        assert hs.height % hs.classical_height == 0


def closure_of_all_conjugates(elements, ambient):
    """Reference normal closure: close over every element and every conjugate
    of one by a generator of the ambient group, until nothing new appears."""
    current = closure(list(elements), ambient.degree)
    while True:
        conjugates = [compose(compose(g, x), inverse(g))
                      for g in ambient.generators for x in current.elements]
        conjugates = [y for y in conjugates if y not in current]
        if not conjugates:
            return current
        current = closure(list(current.elements) + conjugates, ambient.degree)


def test_heights_match_closure_of_all_conjugates(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        rset, group = rset_and_group(sub)
        hs = heights(check_input(sub), rset, group)
        little = closure([compose(g, inverse(h)) for g in rset for h in rset], group.degree)
        completion = closure_of_all_conjugates(little.elements, group)
        order, cyclic = quotient_data(group, completion)
        assert cyclic
        assert (hs.height, hs.little_group) == (order, little)
        # reports list the generators the normal closure closed: the little
        # group's, then the conjugates it added
        gens = hs.normal_completion.generators
        assert gens[:len(little.generators)] == little.generators
        assert (hs.normal_completion.elements == closure(gens, ambient=group).elements
                == completion.elements)
        for x in group.elements:
            assert (normal_closure(closure([x]), group).elements
                    == closure_of_all_conjugates([x], group).elements)


def test_classical_height_bruteforce_examples(golden_subs, long_power_subs):
    # it walks theta^(3n)(0), which is tau^3(0) for the simplified power tau
    expected = {"thue_morse": 1, "d4_height_two": 2, "s3_height_two": 1}
    for name, height in expected.items():
        assert classical_height_bruteforce(check_input(golden_subs[name])) == height
    for sub in list(golden_subs.values()) + long_power_subs:
        checked = check_input(sub)
        assert (return_time_gcd(sub, 3 * checked.exponent)
                == return_time_gcd(checked.power, 3))


def test_grading_height_equals_bruteforce(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        checked = check_input(sub)
        assert (heights(checked, *rset_and_group(sub)).classical_height
                == classical_height_bruteforce(checked))


def test_gtwo_pair_counts(golden_simplified):
    for name, count in {"thue_morse": 4, "s3_seven_words": 18}.items():
        sub = golden_simplified[name]
        assert len(pair_closure(sub, structure_group(r_set(check_input(sub))))) == count


def test_gtwo_pair_quotients_lie_in_r_set(golden_simplified):
    for name in ("thue_morse", "d4_height_two"):
        sub = golden_simplified[name]
        rset, group = rset_and_group(sub)
        for left, right in pair_closure(sub, group):
            assert compose(right, inverse(left)) in rset


def test_fiber_semigroup_sizes(golden_simplified):
    sizes = {"thue_morse": (8, 4), "s3_seven_words": (36, 7), "d4_height_two": (32, 6)}
    for name, (count, points) in sizes.items():
        action = fiber_action(golden_simplified[name])
        assert action.semigroup.size == count
        assert action.semigroup.degree == points


def test_fiber_idempotents_fix_their_image(golden_simplified):
    action = fiber_action(golden_simplified["s3_seven_words"])
    for idx in action.green.idempotents:
        p = action.semigroup.elements[idx]
        for point in set(p):
            assert p[point] == point


def test_structural_semigroup_thue_morse_exact(golden_simplified):
    rset, group = rset_and_group(golden_simplified["thue_morse"])
    m = substitution_sandwich(group, rset, rset[0])
    ident = identity(2)
    assert m.sandwich == ((ident, ident), (ident, SWAP))


def test_structural_semigroup_g0_override(golden_simplified):
    sub = golden_simplified["s3_seven_words"]
    rset, group = rset_and_group(sub)
    for g0 in rset:
        m = substitution_sandwich(group, rset, g0)
        assert m.i_labels[m.base[0]] == g0
        assert fiber_maps(m, allowed_two_words(sub)).semigroup == fiber_action(sub).semigroup
    with pytest.raises(ValidationError):
        substitution_sandwich(group, rset, (1, 2, 0))


def test_degree_map_trivial_when_height_one(golden_simplified):
    sub = golden_simplified["thue_morse"]
    rset, group = rset_and_group(sub)
    m = substitution_sandwich(group, rset, rset[0])
    data = degree_map(m, heights(check_input(sub), rset, group).normal_completion)
    assert data.modulus == 1
    assert data.by_perm.keys() == group.element_set
    assert set(data.by_perm.values()) == {0}


def test_degree_map_splits_by_parity(golden_simplified):
    sub = golden_simplified["s3_height_two"]
    rset, group = rset_and_group(sub)
    hs = heights(check_input(sub), rset, group)
    m = substitution_sandwich(group, rset, rset[0])
    data = degree_map(m, hs.normal_completion)
    assert data.modulus == 2
    counts = {0: 0, 1: 0}
    even = set(hs.normal_completion.elements)
    for element in m.elements():
        deg = data.by_perm[element.g]
        counts[deg] += 1
        assert (element.g in even) == (deg == 0)
    assert counts == {0: 18, 1: 18}


def coset_degrees(rep, group, completion):
    """Reference degrees: g has degree k when g lies in the coset rep^k N,
    with every coset written out as a set."""
    normal = frozenset(completion.elements)
    cosets = [normal]
    while True:
        current = frozenset(compose(rep, x) for x in cosets[-1])
        if current == normal:
            break
        cosets.append(current)
    return {g: next(k for k, coset in enumerate(cosets)
                    if frozenset(compose(g, x) for x in normal) == coset)
            for g in group.elements}


def test_degree_map_matches_written_out_cosets(golden_reports, random_reports):
    for report in list(golden_reports.values()) + random_reports:
        m = report.matrix
        reference = coset_degrees(m.i_labels[0], m.group, report.normal_completion)
        assert report.degree.modulus == len(set(reference.values())) == report.height
        assert report.degree.by_perm == reference


def test_degree_map_refuses_a_wrong_completion(golden_reports):
    # D4 has three subgroups of index 2; only the normal completion is the
    # kernel of the R-set word length mod 2
    report = golden_reports["d4_height_two"]
    group, completion = report.structure_group, report.normal_completion
    others = {closure([g, h]).element_set for g in group.elements for h in group.elements}
    others = [closure(sorted(elements)) for elements in others
              if len(elements) == 4 and elements != completion.element_set]
    assert len(others) == 2
    for wrong in others:
        with pytest.raises(InternalCheckError, match="degree-0 elements"):
            degree_map(report.matrix, wrong)
    # S3 has no map onto Z/6 sending every R-set element to 1
    report = golden_reports["s3_seven_words"]
    with pytest.raises(InternalCheckError, match="degree mod h"):
        degree_map(report.matrix, closure([], degree=3))


def test_degree_map_refuses_labels_that_miss_the_group(golden_reports):
    report = golden_reports["s3_seven_words"]
    group = report.structure_group
    swap = next(g for g in report.rset if element_order(g) == 2)
    matrix = substitution_sandwich(group, [swap], swap)  # <swap> has order 2 of 6
    alternating = closure([g for g in group.elements if element_order(g) == 3])
    with pytest.raises(InternalCheckError, match="does not reach"):
        degree_map(matrix, alternating)


@pytest.mark.parametrize("name", ["s3_height_two", "d4_height_two"])
def test_degree_map_refuses_a_sandwich_entry_of_nonzero_degree(golden_reports, name):
    # d(xy) = d(x) + d(y) holds on M exactly when every sandwich entry has
    # degree 0, and an R-set element has degree 1 when h > 1
    report = golden_reports[name]
    m = report.matrix
    assert report.height > 1
    j = next(j for j in range(len(m.i_labels)) if j != m.base[0])
    minus_row = m.sandwich[MINUS][:j] + (report.rset[0],) + m.sandwich[MINUS][j + 1:]
    corrupted = ReesMatrixSemigroup(m.group, m.i_labels, m.lam_labels,
                                    (m.sandwich[PLUS], minus_row), m.base)
    with pytest.raises(InternalCheckError, match="not a semigroup morphism"):
        degree_map(corrupted, report.normal_completion)


def test_degree_calibration_level_two(golden_simplified):
    # the +-element built from consecutive columns nu-1, nu of the square has
    # degree nu modulo h
    for name in ("s3_height_two", "d4_height_two"):
        sub = golden_simplified[name]
        rset, group = rset_and_group(sub)
        hs = heights(check_input(sub), rset, group)
        degrees = coset_degrees(rset[0], group, hs.normal_completion)
        assert len(set(degrees.values())) == hs.height
        square_cols = columns(substitution_power(sub, 2))
        for nu in range(1, len(square_cols)):
            assert degrees[square_cols[nu]] == nu % hs.height


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
        data = automorphism_data(rset_and_group(golden_simplified[name])[1])
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
    assert d4.order_h_witness in r_set(check_input(golden_reports["d4_height_two"].substitution))


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


def test_analyze_g0_index_range(golden_subs):
    with pytest.raises(ValidationError, match="out of range"):
        analyze_substitution(golden_subs["thue_morse"], AnalysisConfig(g0_index=5))


def test_config_validation():
    with pytest.raises(ValidationError):
        AnalysisConfig(output_format="yaml")


def test_global_description_on_lone_class_example():
    # simplified, primitive, aperiodic, and the fixed point b.a sits alone in
    # both proximality classes; the pipeline must still go through cleanly
    sub = make_substitution(["acbacba", "baccbab", "cbabacc"])
    assert is_simplified(sub)
    report = analyze_substitution(sub, AnalysisConfig(verify=True))
    assert report.fiber.labels(sub.alphabet) == ("ab", "ac", "ba", "cb", "cc")
    assert report.structure_group.order == 6
    assert report.oracle.equal


# ---------------------------------------------------------------------------
# the cross-checks work on distinct columns, never on written-out powers

def test_return_times_match_written_out_word(golden_subs, golden_simplified, random_corpus):
    # on simplified substitutions and on the inputs they came from, which
    # need not be simplified: the walk reads sigma^n(0) for any substitution
    for sub in list(golden_subs.values()) + list(golden_simplified.values()) + random_corpus:
        for n in (1, 2, 3):
            word = substitution_power(sub, n).rules[0]
            g = 0
            for k in range(1, len(word)):
                if word[k] == word[0]:
                    g = gcd(g, k)
            assert return_time_gcd(sub, n) == g


def test_return_time_gcd_needs_a_positive_level(golden_simplified):
    with pytest.raises(ValidationError, match="prefix level"):
        return_time_gcd(golden_simplified["thue_morse"], 0)


def test_global_description_writes_out_no_power(golden_subs, monkeypatch):
    checked = {name: check_input(sub) for name, sub in golden_subs.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a power of the substitution was written out")

    for name, module in list(sys.modules.items()):
        if name == "ellisub" or name.startswith("ellisub."):
            for attr in ("substitution_power", "compose_substitutions"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    expectations = load_expectations()
    for name, value in checked.items():
        report = global_description(value)
        assert compare(expectations[name], snapshot(report_to_json(report))) == []


def test_verified_analysis_runs_each_stage_once(golden_subs, monkeypatch):
    # A plain analysis builds the matrix and no fiber map: its Green summary
    # is read off the matrix, and the fiber maps, their product law and their
    # Green structure are identities of the construction, tested in
    # test_identities.py.  Under --verify no |S|-sized object is built either:
    # the fiber action encodes only the maps the window oracle names, and
    # the oracle closes none of them.
    calls: dict[str, int] = {}
    # (name, substitution, inside limit_maps) per check
    on_power: list[tuple[str, object, bool]] = []
    in_limit_maps = []

    def count(name):
        calls[name] = calls.get(name, 0) + 1

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            count(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def recording(module, name):
        original = getattr(module, name)

        def recorded(sub, *args, **kwargs):
            on_power.append((name, sub, bool(in_limit_maps)))
            return original(sub, *args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    stages = ("r_set", "structure_group", "heights", "degree_map",
              "classical_height_bruteforce", "automorphism_data")
    for name in stages:
        counting(ellisub.pipeline, name)
    # counted under every name any module could call them by, the oracle's
    # included: the oracle decides generation by the order of one loop
    # group, closed by perms.closure, and the map-side reference
    # computations are not in the library at all
    modules = [module for module_name, module in list(sys.modules.items())
               if module_name == "ellisub" or module_name.startswith("ellisub.")]
    assert [(module.__name__, name) for module in modules for name in MOVED
            if hasattr(module, name)] == []
    assert not hasattr(ReesMatrixSemigroup, "generators")
    assert not any(hasattr(TransformationSemigroup, name) for name in ("mul", "idempotent_indices"))
    assert not hasattr(OracleResult, "semigroup") and not hasattr(ellisub.semigroups, "CLOSURE_CAP")
    for name in CHECKS:
        for module in modules:
            if hasattr(module, name):
                recording(module, name)
    original_limit_maps = ellisub.oracle.limit_maps

    def limit_maps(sub):
        in_limit_maps.append(None)
        try:
            return original_limit_maps(sub)
        finally:
            in_limit_maps.pop()
    monkeypatch.setattr(ellisub.oracle, "limit_maps", limit_maps)
    # map compositions of the fiber action, made by map_compose or by a
    # getter that map_after built once for a reused right factor, and the
    # oracle's reads of its column-pair tables, each a call of a getter
    products, reads = [], []
    original_compose = ellisub.rees.map_compose

    def compose_maps(x, y):
        products.append(None)
        return original_compose(x, y)

    def counting_after(module, calls):
        original_after = module.map_after

        def map_after(y):
            getter = original_after(y)

            def counted(x):
                calls.append(None)
                return getter(x)
            return counted
        monkeypatch.setattr(module, "map_after", map_after)
    monkeypatch.setattr(ellisub.rees, "map_compose", compose_maps)
    counting_after(ellisub.rees, products)
    counting_after(ellisub.oracle, reads)
    encoded = []
    original_encode = FiberAction.encode

    def encode(self, *triple):
        encoded.append(triple)
        return original_encode(self, *triple)
    monkeypatch.setattr(FiberAction, "encode", encode)
    original_sandwich = ellisub.pipeline.substitution_sandwich

    def no_group_closure(*args, **kwargs):
        raise AssertionError("the substitution sandwich closed a group again")

    def sandwich(*args, **kwargs):
        # the sandwich takes the structure group; it never closes one itself
        count("substitution_sandwich")
        with monkeypatch.context() as patch:
            for module in modules:
                if hasattr(module, "closure"):
                    patch.setattr(module, "closure", no_group_closure)
            return original_sandwich(*args, **kwargs)
    monkeypatch.setattr(ellisub.pipeline, "substitution_sandwich", sandwich)
    oracle_closures = []  # the generators of each group the oracle closes, and the group
    original_closure = ellisub.oracle.closure

    def oracle_closure(gens, *args, **kwargs):
        group = original_closure(gens, *args, **kwargs)
        oracle_closures.append((list(gens), group))
        return group
    monkeypatch.setattr(ellisub.oracle, "closure", oracle_closure)
    once = {name: 1 for name in stages + ("substitution_sandwich",)}
    fingerprinted = []  # the group of each fingerprint computation
    original_fingerprint = PermGroup.fingerprint.func

    def fingerprint(group):
        fingerprinted.append(group)
        return original_fingerprint(group)
    counted_fingerprint = cached_property(fingerprint)
    counted_fingerprint.__set_name__(PermGroup, "fingerprint")
    monkeypatch.setattr(PermGroup, "fingerprint", counted_fingerprint)

    def validations(power, inside=False):
        return Counter(name for name, sub, flag in on_power if sub is power and flag == inside)

    sub = golden_subs["s3_seven_words"]
    report = analyze_substitution(sub)
    assert report.exponent == 2 and report.substitution is not sub
    assert calls == once and products == [] and reads == [] and encoded == []
    assert oracle_closures == []
    # the global strings, the automorphism data and the report all read group
    # fingerprints; each is computed once per distinct element set, so a
    # little group or normal completion with |G| elements reuses G's
    render_json(report)
    groups = (report.structure_group, report.little_group, report.normal_completion,
              report.aut.fiber_group)
    for group in groups:
        assert group_fingerprint(group) is group_fingerprint(group)
    assert sorted(group.elements for group in fingerprinted) == sorted(
        {group.elements for group in groups})
    # the gate checks the input once: bijective, primitive by the one
    # all-letters exponent, which also gives the power, and aperiodic from
    # the one fiber, which is the power's too.  Simplify proves the power
    # simplified, so nothing scans its L-letter rule words again
    on_input = {"is_bijective": 1, "_all_letters_exponent": 1, "allowed_two_words": 1}
    assert validations(sub) == on_input and validations(sub, inside=True) == {}
    assert [name for name, power, _ in on_power if power is not sub] == []
    calls.clear()
    on_power.clear()
    report = analyze_substitution(sub, AnalysisConfig(verify=True))
    assert report.oracle.equal and report.oracle.map_count == report.matrix.size
    assert calls == once
    # generation is decided by the loop group at row i0, which has |G|
    # elements exactly when the oracle's triples generate the matrix.  It
    # starts trivial and is closed again inside G only on a Schreier
    # generator that it misses: S_3 needs two, and the second closure stops
    # at |G| and returns G itself, which ends the search
    assert [len(gens) for gens, _ in oracle_closures] == [0, 1, 2]
    assert [group.order for _, group in oracle_closures] == [1, 3, 6]
    assert oracle_closures[-1][1] is report.structure_group
    # and the oracle checks the power itself, once, in limit_maps, which
    # reads its own fiber; the gate's checks of the input are unchanged
    assert validations(report.substitution, inside=True) == {
        "is_simplified": 1, "allowed_two_words": 1, "is_bijective": 1,
        "_all_letters_exponent": 1}
    assert validations(report.substitution) == {}
    assert validations(sub) == on_input and validations(sub, inside=True) == {}
    # the oracle reads each of its 2(L - 1) maps by one getter call, at the
    # right or the left letters of the fixed points, off the table of its
    # column pair: 30 at L = 16.  The fiber action proves itself from the
    # 2|I| letter identities c_lam T_j = A[lam][j], one map_compose each;
    # the oracle names each of its distinct maps by one decode, a getter
    # call through T_i0 and one map_compose, and one encode, whose read
    # getter makes the third composition.  6 + 3 * 18 here, against the
    # |S| = 36 maps of phi written out
    length = report.substitution.length
    assert len(reads) == 2 * (length - 1) == 30
    matrix = report.matrix
    order, n_i = matrix.group.order, len(report.rset)
    distinct = sorted({m.fiber_map for m in report.oracle.oracle.maps})
    assert (matrix.size, order, n_i, len(distinct)) == (36, 6, 3, 18)
    assert len(products) == 2 * n_i + 3 * len(distinct) == 60
    assert len(encoded) == len(distinct) <= len(distinct) + 2 * n_i
    action = FiberAction(matrix, report.fiber)
    assert sorted(original_encode(action, *x) for x in encoded) == distinct


def test_gtwo_pairs_on_five_letters_with_group_of_order_120():
    # power 3 (length 125), |I| = 4, |G| = 120: the pair closure has |I||G|
    # elements, and a plain analysis never builds it
    sub, exponent = simplify(make_substitution(["abdaa", "baedb", "cecec", "ddbbd", "ecace"]))
    rset, group = rset_and_group(sub)
    assert (exponent, sub.length, group.order, len(rset)) == (3, 125, 120, 4)
    assert len(pair_closure(sub, group)) == 480


def signed_pair_maps(sub, pairs):
    """Written-out reference: the fiber map of every signed column pair
    [L.R; +/-], a.b -> L(b).R(b) for + and a.b -> L(a).R(a) for -."""
    fiber = allowed_two_words(sub)
    index = {pair: k for k, pair in enumerate(fiber.pairs)}
    maps = {}
    for left, right in pairs:
        maps[(left, right, PLUS)] = tuple(index[(left[b], right[b])] for a, b in fiber.pairs)
        maps[(left, right, MINUS)] = tuple(index[(left[a], right[a])] for a, b in fiber.pairs)
    return maps


def test_matrix_action_is_the_signed_pair_semigroup(golden_simplified, random_corpus):
    for sub in list(golden_simplified.values()) + random_corpus:
        rset, group = rset_and_group(sub)
        maps = signed_pair_maps(sub, pair_closure(sub, group))
        action = fiber_action(sub)
        assert len(set(maps.values())) == len(maps)
        assert tuple(sorted(maps.values())) == action.semigroup.elements
        # the four signed product rules, on all pairs: [L.R; e][L'.R'; e'] is
        # [L X . R X; e'] with X = R' for e = + and X = L' for e = -
        for (l1, r1, e1), f1 in maps.items():
            for (l2, r2, e2), f2 in maps.items():
                inner = r2 if e1 == PLUS else l2
                assert map_compose(f1, f2) == maps[(compose(l1, inner), compose(r1, inner), e2)]
        cols = columns(sub)
        generators = [maps[(left, right, sign)]
                      for left, right in zip(cols, cols[1:]) for sign in (PLUS, MINUS)]
        assert semigroup_closure(generators, degree=action.fiber.size) == action.semigroup


def test_heights_closes_the_little_group_once(golden_simplified, random_corpus, monkeypatch):
    closed = []
    original_closure = ellisub.perms.closure

    def recording(*args, **kwargs):
        group = original_closure(*args, **kwargs)
        closed.append((group.element_set, kwargs.get("ambient")))
        return group
    for module in (ellisub.perms, ellisub.pipeline):
        monkeypatch.setattr(module, "closure", recording)
    full = 0
    for sub in list(golden_simplified.values()) + random_corpus:
        rset, group = rset_and_group(sub)
        closed.clear()
        hs = heights(check_input(sub), rset, group)
        # every group heights closes is closed inside G; a little group with
        # |G| elements is G, so the normal completion closes nothing more
        assert all(ambient is group for _, ambient in closed)
        assert [elements for elements, _ in closed].count(hs.little_group.element_set) == 1
        if hs.little_group.order == group.order:
            full += 1
            assert len(closed) == 1
            assert hs.little_group.orders is group.orders
            assert hs.normal_completion.fingerprint is group.fingerprint
    assert full > 0

    # closure multiplies by each distinct generator once: a repeated
    # generator costs no compositions.  Each composition is a call of the
    # getter that perms.after builds once per generator.
    compositions = 0
    original_after = ellisub.perms.after

    def counting(q):
        getter = original_after(q)

        def counted(p):
            nonlocal compositions
            compositions += 1
            return getter(p)
        return counted
    monkeypatch.setattr(ellisub.perms, "after", counting)
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    distinct = original_closure(gens)
    walked = compositions
    compositions = 0
    repeated = original_closure(gens * 3 + gens[:1])
    # every element of S_4 times each of the two generators
    assert walked == 2 * distinct.order == 48
    assert compositions == walked and repeated == distinct
    # inside S_4 the walk stops at its 24th element, after 36 of the 48
    # products, and returns S_4 itself; a proper subgroup is walked whole
    compositions = 0
    assert original_closure(gens, ambient=distinct) is distinct
    assert compositions == 36
    compositions = 0
    assert original_closure(gens[:1], ambient=distinct).order == 4 and compositions == 4


def test_fiber_no_larger_than_the_alphabet_stops_at_the_r_set(monkeypatch):
    # one successor per letter makes every column quotient the same
    # permutation, a one-element R-set; such a fiber of s words is the
    # periodic verdict, so the gate refuses the input before any stage runs
    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran after the gate")
    for stage in ("global_description", "r_set", "structure_group", "heights"):
        monkeypatch.setattr(ellisub.pipeline, stage, refuse)
    for words in (["aba", "bab"], ["ab", "ca", "bc"]):
        sub = substitution_power(make_substitution(words), 2)
        assert allowed_two_words(sub).size == sub.size
        cols = columns(sub)
        assert len({compose(b, inverse(a)) for a, b in zip(cols, cols[1:])}) == 1
        with pytest.raises(ValidationError, match="substitution is periodic"):
            analyze_substitution(sub)


def relabeled(sub, perm):
    """``sub`` conjugated by the letter permutation ``perm``: the rule of
    perm(a) is the rule of a with every letter x replaced by perm(x)."""
    rules = [None] * sub.size
    for a, word in enumerate(sub.rules):
        rules[perm[a]] = tuple(perm[x] for x in word)
    return Substitution(sub.alphabet, tuple(rules))


def relabeling_invariants(report):
    groups = (report.structure_group, report.little_group, report.normal_completion,
              report.aut.fiber_group)
    return {
        "groups": [(g.order, group_name(g), group_fingerprint(g)) for g in groups],
        "heights": (report.height, report.classical_height),
        "fiber_size": report.fiber.size,
        "semigroup_size": report_to_json(report)["semigroup_size"],
        "green": report_to_json(report)["green"],
        "degrees": sorted(Counter(report.degree.by_perm.values()).items()),
        "global_strings": report.global_strings,
        "order_h_witness": report.order_h_witness is not None,
    }


def test_relabeling_the_alphabet_keeps_the_invariants(golden_simplified, random_corpus):
    rng = random.Random(20261018)
    for sub in list(golden_simplified.values()) + random_corpus:
        expected = relabeling_invariants(global_description(check_input(sub)))
        for _ in range(3):
            perm = list(range(sub.size))
            rng.shuffle(perm)
            relabeled_report = global_description(check_input(relabeled(sub, perm)))
            assert relabeling_invariants(relabeled_report) == expected
