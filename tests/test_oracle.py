import ast
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import ellisub.oracle
import ellisub.pipeline
from ellisub import AnalysisConfig, analyze_substitution, parse_substitution
from ellisub.cli import main
from ellisub.errors import InternalCheckError, ValidationError
from ellisub.oracle import (OracleResult, generation_shortfall, limit_maps,
                            oracle_equivalence)
from ellisub.perms import compose
from ellisub.pipeline import check_input, global_description, r_set
from ellisub.rees import FiberAction, ReesMatrixSemigroup, substitution_sandwich
from ellisub.substitution import (TwoWordFiber, allowed_two_words, columns,
                                  substitution_power)
from conftest import (build_graded_corpus, build_random_corpus, make_substitution, mutant,
                      rset_and_group, three_row_matrix)
from pins import POWER_6, POWER_12, S7
from reference import (as_transformation_semigroup, compare_map_semigroups,
                       element_closure, fiber_semigroup, generated_group,
                       idempotent_generated, idempotents_of,
                       induced_fiber_map, letter_at, oracle_closure, oracle_maps,
                       proximality_classes, reference_action, rees_generators,
                       semigroup_closure, walk_shortfall, written_limit_maps,
                       written_power)

S5 = "a -> acadbeda\nb -> bddecaeb\nc -> ceeadbcc\nd -> dabbecbd\ne -> ebccadae"


def theta_oracle(sub):
    """The window oracle's tables of an input, read off the input and the
    exponent that check_input finds, with no power written."""
    checked = check_input(sub)
    return limit_maps(checked.original, checked.exponent)


def shift_pairs(result):
    """The (+ map, - map) pairs of the per-shift reference: sigma^nu and
    sigma^(nu - L) for 0 < nu < L, which read one column-pair table."""
    by_shift = {m.nu: m.fiber_map for m in result.maps}
    return {(f, by_shift[nu - len(by_shift) // 2 - 1]) for nu, f in by_shift.items() if nu > 0}


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


def test_limit_maps_counts(golden_subs):
    tm_result = theta_oracle(golden_subs["thue_morse"])
    assert oracle_closure(tm_result).size == 8
    seven = theta_oracle(golden_subs["s3_seven_words"])
    assert oracle_closure(seven).size == 36


def test_limit_maps_stabilize_immediately(golden_simplified):
    # simplified substitutions pin the boundary columns, so the induced map
    # is already constant across levels
    for name, sub in golden_simplified.items():
        result = written_limit_maps(sub)
        fiber = result.fiber
        for entry in result.maps:
            for extra in (2, 3):
                assert induced_fiber_map(sub, fiber, entry.nu, extra) == entry.fiber_map


def test_every_level_reads_the_limit_map(golden_simplified, random_corpus,
                                         long_power_simplified):
    # c_0 = c_(l-1) = id gives x[nu l^k] = x[nu] and x[nu l^k - 1] = x[nu - 1]
    # for every k, so the map read off the rule words is the map that the
    # digit walks read at every level; the oracle's tables of the simplified
    # power, read at b and at a, give the same distinct maps
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified
    assert len(subs) == 6 + 20 + 21
    for sub in subs:
        result = written_limit_maps(sub)
        assert [m.nu for m in result.maps] == \
            list(range(1, sub.length)) + list(range(1 - sub.length, 0))
        seeds = sorted({m.fiber_map for m in result.maps})
        assert oracle_maps(limit_maps(sub, 1)) == seeds
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
    s5 = written_power(check_input(parse_substitution(S5)))
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified + [s5]
    assert len(subs) == 6 + 20 + 21 + 1
    short_sets = 0
    for sub in subs:
        matrix, action = sandwich_action(sub)
        by_shift = {m.nu: m.fiber_map for m in written_limit_maps(sub).maps}
        candidates = [list(by_shift.values()),
                      [f for nu, f in by_shift.items() if nu > 0],
                      [f for nu, f in by_shift.items() if nu < 0],
                      [by_shift[1], by_shift[-1]]]
        for k, maps in enumerate(candidates):
            closed = semigroup_closure(maps, degree=len(maps[0])).size == matrix.size
            shortfall = generation_shortfall(matrix, [action.decode(f) for f in maps])
            assert (not shortfall) == closed, (sub.rules, k)
            assert closed or k > 0
            short_sets += not closed
    assert short_sets >= 2 * len(subs)


def rees_seed_sets(golden_simplified):
    """(matrix, seed sets) for the three-row sandwich at every base
    (A[lam0][i0] != 1) and for each golden sandwich: 32 random sets of 2 to
    6 triples, then the idempotents, then the generators of
    ``rees_generators``."""
    rng = random.Random(20261018)
    matrices = [three_row_matrix((i0, lam0)) for i0 in range(2) for lam0 in range(3)]
    for sub in golden_simplified.values():
        rset, group = rset_and_group(sub)
        matrices.append(substitution_sandwich(group, rset, rset[-1]))
    for matrix in matrices:
        elements = list(matrix.elements())
        randoms = [rng.sample(elements, min(size, len(elements)))
                   for size in (2, 3, 4, 6) for _ in range(8)]
        yield matrix, randoms + [idempotents_of(matrix), list(rees_generators(matrix))]


def random_rees_cases(count):
    """``count`` seeded pairs (matrix, triples): a sandwich of 1 to 3 rows
    and columns over S_4 with random entries and base, and 1 to 4 random
    triples.  Unlike a substitution sandwich, no entry need be 1."""
    rng = random.Random(20261019)
    s4 = generated_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    for _ in range(count):
        n_i, n_lam = rng.randint(1, 3), rng.randint(1, 3)
        sandwich = tuple(tuple(rng.choice(s4.elements) for _ in range(n_i)) for _ in range(n_lam))
        matrix = ReesMatrixSemigroup(s4, tuple(range(n_i)), tuple(range(n_lam)), sandwich,
                                     (rng.randrange(n_i), rng.randrange(n_lam)))
        yield matrix, [(rng.randrange(n_i), rng.choice(s4.elements), rng.randrange(n_lam))
                       for _ in range(rng.randint(1, 4))]


def test_walk_search_decides_generation_of_rees_triples(golden_simplified):
    # against the closure of the triples themselves, on rees_seed_sets
    outcomes = set()
    for matrix, seed_sets in rees_seed_sets(golden_simplified):
        elements = set(matrix.elements())
        for seeds in seed_sets:
            generated = element_closure(matrix, seeds) == elements
            assert (not generation_shortfall(matrix, seeds)) == generated
            outcomes.add(generated)
        assert not generation_shortfall(matrix, seed_sets[-1])
    assert outcomes == {True, False}
    # the idempotents meet every row and both columns, but their loop group
    # is only the little group A_3 of S_3: its order must refuse them
    rset, group = rset_and_group(golden_simplified["s3_height_two"])
    matrix = substitution_sandwich(group, rset, rset[0])
    idempotents = idempotents_of(matrix)
    assert {x.i for x in idempotents} == set(range(len(rset)))
    assert {x.lam for x in idempotents} == {0, 1}
    assert generation_shortfall(matrix, idempotents) == (
        "the oracle's maps reach 3 of the 6 labels from row 0 to column +",)


def test_the_loop_group_agrees_with_the_walk_search(golden_simplified, random_corpus,
                                                   long_power_simplified):
    # generation_shortfall decides by the order of the loop group at row i0,
    # the walk search of the reference counts the labels from row i0 to
    # column lam0: the tuples are equal, the "reach k of the n labels" text
    # included, on the oracle's maps (all, |nu| = 1, + and -) of every input,
    # on every seed set of rees_seed_sets and on random sandwiches over S_4
    cases = []
    for sub in list(golden_simplified.values()) + random_corpus + long_power_simplified:
        matrix, action = sandwich_action(sub)
        maps = written_limit_maps(sub).maps
        for keep in (lambda nu: True, lambda nu: abs(nu) == 1, lambda nu: nu > 0,
                     lambda nu: nu < 0):
            cases.append((matrix, [action.decode(m.fiber_map) for m in maps if keep(m.nu)]))
    for matrix, seed_sets in rees_seed_sets(golden_simplified):
        cases.extend((matrix, seeds) for seeds in seed_sets)
    cases.extend(random_rees_cases(400))
    assert len(cases) == 4 * (6 + 20 + 21) + 12 * 34 + 400
    kinds = Counter()
    for matrix, triples in cases:
        shortfall = ellisub.oracle.generation_shortfall(matrix, triples)
        assert shortfall == walk_shortfall(matrix, triples), (matrix.base, triples)
        if not shortfall:
            kinds["generate"] += 1
        elif shortfall[0].startswith("the oracle's maps reach "):
            # k = |H| for the loop group H, so k divides |G|
            reached = int(shortfall[0].split(" ")[4])
            assert reached < matrix.group.order and matrix.group.order % reached == 0
            kinds["reach k of the n labels"] += 1
        else:
            kinds["unmet row or column"] += 1
    assert kinds == {"generate": 335, "reach k of the n labels": 60, "unmet row or column": 601}


def test_a_short_map_set_is_named_by_the_walk_search(golden_simplified):
    # Thue-Morse cut to the maps of sigma^(+-1), or to the maps sigma^1 and
    # sigma^-3 of its first table, generates 4 of its 8 maps: every map has
    # a triple, and the loop group names what the triples miss, a row that
    # none of them lies in; no map is closed and no triple outside the
    # oracle's is encoded
    sub = golden_simplified["thue_morse"]
    matrix, action = sandwich_action(sub)
    by_shift = {m.nu: m.fiber_map for m in written_limit_maps(sub).maps}
    triples = [action.decode(by_shift[nu]) for nu in (1, -1)]
    assert None not in triples
    assert generation_shortfall(matrix, triples) == ("no oracle map lies in row 0",)
    result = limit_maps(sub, 1)
    short = OracleResult(result.fiber, result.tables[:1])
    assert oracle_maps(short) == sorted({by_shift[1], by_shift[-3]})
    comparison = ellisub.oracle._compare_with_action(short, matrix, action)
    full = semigroup_closure(list(as_transformation_semigroup(matrix, result.fiber).values()),
                             degree=4)
    assert oracle_closure(short).size == 4 and full.size == 8
    assert not comparison.equal and comparison.map_count == 8
    assert comparison.discrepancies == ("no oracle map lies in row 0",)
    # the three tables, all six shifts, generate: the loop group decides it
    whole = ellisub.oracle._compare_with_action(result, matrix, action)
    assert len(result.tables) == 3 and len(oracle_maps(result)) == 6
    assert whole.equal and whole.map_count == 8 and whole.discrepancies == ()
    assert not hasattr(OracleResult, "semigroup")


def test_a_map_outside_the_action_is_a_discrepancy(golden_simplified):
    # against the idempotent-generated half of s3_height_two, 6 of the
    # oracle's 12 distinct maps have no triple: decode refuses them, and each
    # is listed as missing from the algebraic semigroup, with no closure run
    sub = golden_simplified["s3_height_two"]
    rset, group = rset_and_group(sub)
    partial = idempotent_generated(substitution_sandwich(group, rset, rset[0]))
    partial_sg, _ = fiber_semigroup(partial, allowed_two_words(sub))
    comparison = oracle_equivalence(sub, 1, partial, FiberAction(partial, allowed_two_words(sub)))
    assert not comparison.equal and comparison.map_count == partial.size == 18
    seeds = oracle_maps(comparison.oracle)
    outside = [f for f in seeds if f not in partial_sg.index]
    assert (len(seeds), len(outside)) == (12, 6)
    assert comparison.discrepancies == tuple(
        f"oracle map {f} missing from the algebraic semigroup" for f in outside)


def test_verify_reads_each_column_pair_once(golden_subs, monkeypatch):
    # the maps of sigma^nu and sigma^(nu - L) read one table of tau's column
    # pair (C_(nu-1), C_nu), and the oracle builds the distinct tables from
    # theta's l - 1 column-pair tables and its junction map, each read once:
    # cyclic_rotation has l = 3 and n = 3, so 3 reads give the tables of the
    # 26 column pairs of tau; the digit walks live in the tests only
    # (test_pipeline.py checks that no ellisub module defines letter_at)
    reads = []
    fiber_indices = ellisub.oracle._fiber_indices

    def counted_indices(words, index):
        reads.append(words)
        return fiber_indices(words, index)
    monkeypatch.setattr(ellisub.oracle, "_fiber_indices", counted_indices)
    theta = golden_subs["cyclic_rotation"]
    report = analyze_substitution(theta, AnalysisConfig(verify=True))
    sub = substitution_power(report.substitution, report.exponent)
    assert report.exponent == 3 and sub.length == 27
    assert report.oracle is not None and report.oracle.equal
    cols = columns(theta)
    assert reads == [list(zip(cols[0], cols[1])), list(zip(cols[1], cols[2])),
                     [(cols[2][a], cols[0][b]) for a, b in report.fiber.pairs]]
    # each table gives the maps of sigma^nu and sigma^(nu - L), which the
    # written power reads off one column pair
    result = report.oracle.oracle
    assert result.fiber == report.fiber and len(result.tables) == 8
    assert set(result.map_pairs()) == shift_pairs(written_limit_maps(sub))


def test_the_tables_agree_with_the_written_power(golden_subs):
    # the recursion over theta's columns gives the distinct tables of tau:
    # its + maps, its - maps and the pairs of the two that one column pair
    # of tau gives are those the written power reads, shift by shift
    subs = (list(golden_subs.values()) + build_random_corpus() + build_random_corpus(60, seed=11)
            + build_graded_corpus() + [parse_substitution(POWER_6)])
    exponents = Counter()
    for theta in subs:
        checked = check_input(theta)
        exponents[checked.exponent] += 1
        result = ellisub.oracle.limit_maps(theta, checked.exponent)
        reference = written_limit_maps(written_power(checked))
        pairs = shift_pairs(reference)
        assert result.fiber == reference.fiber
        assert set(result.map_pairs()) == pairs, theta.rules
        assert {plus for plus, _ in result.map_pairs()} == {m.fiber_map for m in reference.maps
                                                            if m.nu > 0}
        assert {minus for _, minus in result.map_pairs()} == {m.fiber_map for m in reference.maps
                                                              if m.nu < 0}
        assert len(result.tables) == len(pairs)
    assert sum(count for n, count in exponents.items() if n >= 2) >= 4 and max(exponents) == 6


@pytest.mark.slow
def test_the_tables_agree_with_the_written_power_twelve():
    # power-12, L = 531 441: the written power's 531 440 tables are 438 distinct ones
    checked = check_input(parse_substitution(POWER_12))
    assert checked.exponent == 12
    result = limit_maps(checked.original, checked.exponent)
    pairs = shift_pairs(written_limit_maps(written_power(checked)))
    assert set(result.map_pairs()) == pairs and len(result.tables) == len(pairs) == 438


def test_the_oracle_reads_no_power(monkeypatch):
    # on power-6 (L = 117 649) the oracle writes no power of theta, under
    # any name a module holds the writers by, and reads the columns of
    # theta alone
    theta = parse_substitution(POWER_6)
    checked = check_input(theta)
    report = global_description(checked)
    action = FiberAction(report.matrix, report.fiber)

    def refuse(*args, **kwargs):
        raise AssertionError("a power of the substitution was written out")
    for name, module in list(sys.modules.items()):
        if name == "ellisub" or name.startswith("ellisub."):
            for attr in ("substitution_power", "compose_substitutions"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    read = []
    original_columns = ellisub.oracle.columns

    def recorded_columns(sub):
        read.append(sub)
        return original_columns(sub)
    monkeypatch.setattr(ellisub.oracle, "columns", recorded_columns)
    comparison = oracle_equivalence(theta, checked.exponent, report.matrix, action)
    assert comparison.equal and comparison.map_count == report.matrix.size == 72
    assert read == [theta] and checked.exponent == 6


def test_limit_maps_refuse_a_substitution_that_is_not_simplified(golden_subs):
    # cyclic_rotation is simplified at power 3, not at power 1, and each
    # input that check_input analyses at a power n >= 2 is not simplified at
    # n - 1: its boundary columns or its all-letters exponent need n
    cases = [(golden_subs["cyclic_rotation"], 1)]
    for sub in golden_subs.values():
        n = check_input(sub).exponent
        limit_maps(sub, n)
        if n >= 2:
            cases.append((sub, n - 1))
    assert len(cases) == 4
    for sub, n in cases:
        with pytest.raises(ValidationError,
                           match="^the window oracle needs a simplified substitution$"):
            limit_maps(sub, n)


def test_limit_maps_refuse_a_shifted_word_outside_the_fiber(golden_subs, monkeypatch):
    # every shifted two-word is a factor of a rule word of a power of theta,
    # so only a fiber that lacks one misses it: here the first two letters
    # of theta(a), which the table of theta's column pair (c_0, c_1) reads
    # first; s3_seven_words is analysed at power 2
    sub = golden_subs["s3_seven_words"]
    word = sub.rules[0][:2]
    fiber = allowed_two_words(sub)
    short = TwoWordFiber(tuple(p for p in fiber.pairs if p != word))
    assert short.size == fiber.size - 1
    monkeypatch.setattr(ellisub.oracle, "allowed_two_words", lambda s: short)
    with pytest.raises(ValidationError,
                       match=re.escape(f"shifted two-word {word} is not an allowed two-word")):
        limit_maps(sub, 2)


def swapped_fiber(sub):
    """The fiber of ``sub`` with its first two fixed points swapped."""
    pairs = list(allowed_two_words(sub).pairs)
    pairs[0], pairs[1] = pairs[1], pairs[0]
    return TwoWordFiber(tuple(pairs))


def test_a_wrong_pipeline_fiber_is_a_discrepancy(golden_subs, monkeypatch):
    # the oracle reads its own fiber, so a pipeline fiber with two fixed
    # points swapped, which the fiber action still accepts, gives the
    # oracle's maps no names; the error names the stage.  The pipeline reads
    # its fiber once, in check_input, through the name patched here
    monkeypatch.setattr(ellisub.pipeline, "allowed_two_words", swapped_fiber)
    with pytest.raises(InternalCheckError, match="window oracle disagrees") as caught:
        analyze_substitution(golden_subs["s3_seven_words"], AnalysisConfig(verify=True))
    assert caught.value.stage == "window oracle"
    assert "missing from the algebraic semigroup" in str(caught.value)


def test_the_comparison_agrees_with_the_reference_closure(golden_simplified, random_corpus,
                                                          long_power_simplified, monkeypatch):
    # four table sets per input: all tables, the first table, every other
    # table, and all tables against an action on a fiber with its first two
    # fixed points swapped.  The comparison is equal exactly when the
    # closure of the maps is the image of the reference phi, and it lists
    # exactly the distinct maps outside that image; it never lists the
    # matrix's elements
    subs = list(golden_simplified.values()) + random_corpus + long_power_simplified
    outcomes = Counter()
    for sub in subs:
        rset, group = rset_and_group(sub)
        matrix = substitution_sandwich(group, rset, rset[0])
        result = limit_maps(sub, 1)
        cases = [(result, allowed_two_words(sub)),
                 (OracleResult(result.fiber, result.tables[:1]), allowed_two_words(sub)),
                 (OracleResult(result.fiber, result.tables[::2]), allowed_two_words(sub)),
                 (result, swapped_fiber(sub))]
        for k, (maps, fiber) in enumerate(cases):
            image = set(reference_action(matrix, fiber).values())
            closed = set(oracle_closure(maps).elements)
            action = FiberAction(matrix, fiber)
            with monkeypatch.context() as patch:
                patch.setattr(ReesMatrixSemigroup, "elements", None)
                comparison = ellisub.oracle._compare_with_action(maps, matrix, action)
            assert comparison.equal == (closed == image), (sub.rules, k)
            assert comparison.map_count == matrix.size
            outside = sorted(set(oracle_maps(maps)) - image)
            unnamed = [d for d in comparison.discrepancies if d.startswith("oracle map ")]
            assert unnamed == [f"oracle map {f} missing from the algebraic semigroup"
                               for f in outside], (sub.rules, k)
            if not outside:
                triples = [action.decode(f) for f in oracle_maps(maps)]
                assert comparison.discrepancies == generation_shortfall(matrix, triples)
            outcomes[k, comparison.equal, bool(outside)] += 1
    # one table lies in one row, and the R-set has two elements or more
    assert outcomes[0, True, False] == outcomes[1, False, False] == len(subs)
    assert outcomes[3, False, True] == len(subs)
    assert outcomes[2, True, False] > 0 and outcomes[2, False, False] > 0


@pytest.mark.parametrize("name", ["minus_reads_the_right_letters",
                                  "minus_reads_the_next_column_pair",
                                  "table_skips_the_fiber_check",
                                  "junction_skipped", "junction_columns_swapped"])
def test_a_mutant_of_the_limit_maps_fails_a_named_test(name, golden_subs, golden_simplified,
                                                       random_corpus, long_power_simplified,
                                                       monkeypatch):
    oracle = ellisub.oracle
    if name == "minus_reads_the_right_letters":
        monkeypatch.setattr(oracle, "_fixed_point_reads", mutant(
            oracle._fixed_point_reads, "[a for a, _ in fiber.pairs]", "[b for _, b in fiber.pairs]"))
        with pytest.raises(AssertionError):
            test_every_level_reads_the_limit_map(golden_simplified, random_corpus,
                                                 long_power_simplified)
    elif name == "minus_reads_the_next_column_pair":
        # the - maps are the same set, so the oracle still agrees; only the
        # pairs that one column pair gives tell
        monkeypatch.setattr(OracleResult, "map_pairs", mutant(
            OracleResult.map_pairs, "read_left(t)) for t in self.tables]",
            "read_left(u)) for t, u in zip(self.tables, self.tables[1:] + self.tables[:1])]"))
        with pytest.raises(AssertionError):
            test_verify_reads_each_column_pair_once(golden_subs, monkeypatch)
    elif name == "table_skips_the_fiber_check":
        monkeypatch.setattr(oracle, "_fiber_indices", mutant(
            oracle._fiber_indices, "if None in table:", "if False:"))
        # the table's missing index reaches the composition of a table with
        # a lower one, instead of the refusal
        with pytest.raises(TypeError, match="NoneType"):
            test_limit_maps_refuse_a_shifted_word_outside_the_fiber(golden_subs, monkeypatch)
    else:
        # the table q*l of theta^k is J T_q; without J, or with the boundary
        # columns of J swapped, the tables of every power n >= 2 go wrong
        old, new = {
            "junction_skipped": ("[compose(junction, t) for t in tables]", "tables"),
            "junction_columns_swapped": ("(cols[-1][a], cols[0][b])", "(cols[0][a], cols[-1][b])"),
        }[name]
        monkeypatch.setattr(oracle, "limit_maps", mutant(oracle.limit_maps, old, new))
        with pytest.raises(AssertionError):
            test_the_tables_agree_with_the_written_power(golden_subs)


@pytest.mark.parametrize("name", ["comparison_skips_unnamed_maps",
                                  "comparison_skips_the_walk_search"])
def test_a_mutant_of_the_comparison_fails_a_named_test(name, golden_simplified, monkeypatch):
    oracle = ellisub.oracle
    if name == "comparison_skips_unnamed_maps":
        # only the named maps go on to the loop group
        monkeypatch.setattr(oracle, "_compare_with_action", mutant(
            oracle._compare_with_action, "triples = [action.decode(f) for f in seeds]",
            "triples = [x for x in map(action.decode, seeds) if x is not None]"))
        with pytest.raises(AssertionError):
            test_a_map_outside_the_action_is_a_discrepancy(golden_simplified)
    else:
        monkeypatch.setattr(oracle, "_compare_with_action", mutant(
            oracle._compare_with_action, "discrepancies = generation_shortfall(matrix, triples)",
            "discrepancies = ()"))
        with pytest.raises(AssertionError):
            test_a_short_map_set_is_named_by_the_walk_search(golden_simplified)


@pytest.mark.parametrize("name", ["loop_group_drops_the_sandwich_edges",
                                  "loop_group_skips_the_inverse",
                                  "loop_group_counts_its_generators"])
def test_a_mutant_of_the_loop_group_fails_a_named_test(name, golden_simplified, random_corpus,
                                                       long_power_simplified, monkeypatch):
    oracle = ellisub.oracle
    old, new = {
        # the generators of the sandwich edges are never formed or closed
        "loop_group_drops_the_sandwich_edges": (
            "loops = chain(", "loops = (lambda triple_edges, sandwich_edges: triple_edges)("),
        "loop_group_skips_the_inverse": (
            "after(inverse(p))", "after(p)"),
        # as if the loop group were the generators it closed and the identity
        "loop_group_counts_its_generators": (
            "reached == order", "len(gens) + 1 >= order"),
    }[name]
    monkeypatch.setattr(oracle, "generation_shortfall",
                        mutant(oracle.generation_shortfall, old, new))
    with pytest.raises(AssertionError):
        test_the_loop_group_agrees_with_the_walk_search(golden_simplified, random_corpus,
                                                        long_power_simplified)


@pytest.mark.slow
@pytest.mark.parametrize("case", ["swapped_fiber", "cut_to_one_table"])
def test_a_forced_discrepancy_on_s7_exits_2_and_names_the_stage(case, tmp_path, monkeypatch,
                                                                capsys):
    # |S| = 80 640: the exit-2 path lists the unnamed maps or what the
    # triples miss, and neither encodes |S| maps nor closes the oracle's
    if case == "swapped_fiber":
        monkeypatch.setattr(ellisub.pipeline, "allowed_two_words", swapped_fiber)
    else:
        def cut(sub, n):
            result = limit_maps(sub, n)
            return OracleResult(result.fiber, result.tables[:1])
        monkeypatch.setattr(ellisub.oracle, "limit_maps", cut)
    path = tmp_path / "s7.sub"
    path.write_text(S7)
    assert main(["analyze", "--verify", "--format", "json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.encode()) < 64 * 1024
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "internal-check" and error["stage"] == "window oracle"
    assert error["message"].startswith("window oracle disagrees with the algebraic semigroup: ")


def test_oracle_idempotents(golden_simplified):
    for name in ("thue_morse", "s3_seven_words", "d4_height_two"):
        sub = golden_simplified[name]
        result = limit_maps(sub, 1)
        idem = [f for f in oracle_closure(result).elements if compose(f, f) == f]
        assert len(idem) == 2 * len(r_set(check_input(sub)))
        for p in idem:
            for point in set(p):
                assert p[point] == point


def test_oracle_plus_maps_mirror_r_set(golden_simplified):
    # stabilized positive shifts act through pairs whose quotient is in the R-set
    from ellisub.perms import compose, inverse
    sub = golden_simplified["thue_morse"]
    cols = columns(sub)
    rset = set(r_set(check_input(sub)))
    for nu in range(1, sub.length):
        assert compose(cols[nu], inverse(cols[nu - 1])) in rset


def test_oracle_equivalence_on_golden(golden_reports):
    for name, report in golden_reports.items():
        assert report.oracle is not None and report.oracle.equal, name


def test_negative_control_detects_wrong_semigroup(golden_simplified):
    # compare the oracle against a genuinely closed but wrong candidate: the
    # idempotent-generated part, which is a proper subsemigroup here
    sub = golden_simplified["s3_height_two"]
    result = limit_maps(sub, 1)
    rset, group = rset_and_group(sub)
    partial = idempotent_generated(substitution_sandwich(group, rset, rset[0]))
    partial_sg, _ = fiber_semigroup(partial, allowed_two_words(sub))
    assert partial_sg.size == 18 and oracle_closure(result).size == 36
    discrepancies = compare_map_semigroups(oracle_closure(result), partial_sg)
    assert discrepancies
    assert all("missing from the algebraic semigroup" in d for d in discrepancies)
    assert len(discrepancies) == 18


def test_oracle_json_serialization(golden_subs, golden_simplified):
    from ellisub.report import report_to_json
    sub = golden_simplified["thue_morse"]
    comparison = oracle_equivalence(sub, 1, *sandwich_action(sub))
    assert comparison.equal and comparison.discrepancies == ()
    result = comparison.oracle
    assert list(result.fiber.labels(sub.alphabet)) == ["aa", "ab", "ba", "bb"]
    assert oracle_closure(result).size == 8
    by_shift = {m.nu: m.fiber_map for m in written_limit_maps(sub).maps}
    # sigma^(1*4^k) sends a.b to the two-word at positions 4^k - 1, 4^k of b's
    # block; for abba/baab that is b(b).a(b) read from the rules
    aa, ab = result.fiber.pairs.index((0, 0)), result.fiber.pairs.index((0, 1))
    assert by_shift[1][aa] == ab
    assert set(by_shift) == {-3, -2, -1, 1, 2, 3}
    # the one JSON view of the oracle is the report's oracle section
    report = analyze_substitution(golden_subs["thue_morse"], AnalysisConfig(verify=True))
    payload = json.loads(json.dumps(report_to_json(report)["oracle"]))
    assert payload == {"equal": True, "map_count": 8, "discrepancies": []}


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
