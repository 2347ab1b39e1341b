import random
from collections import Counter
from math import gcd

import pytest

import ellisub.substitution
from ellisub.errors import ParseError, ResourceLimitError, ValidationError
from ellisub.golden import CASES
from ellisub.perms import compose, identity
from ellisub.pipeline import check_input
from ellisub.substitution import (TwoWordFiber, _all_letters_exponent, allowed_two_words,
                                  columns, compose_substitutions, is_aperiodic,
                                  is_bijective, junction_map, parse_any,
                                  parse_substitution, simplified_exponent,
                                  substitution_from_json, substitution_power,
                                  substitution_to_json)
from conftest import make_substitution
from pins import PERIODIC, S7
from reference import is_simplified, letter_at, occurrence_matrix_exponent, written_power

THUE_MORSE = CASES["thue_morse"]
# a 5-letter input with a structure group of order 120; S7's has order 5040
S5 = ("a -> acadbeda\nb -> bddecaeb\nc -> ceeadbcc\nd -> dabbecbd\n"
      "e -> ebccadae\n")


# --- parsing ---------------------------------------------------------------

def test_parse_thue_morse():
    sub = parse_substitution(THUE_MORSE)
    assert sub.size == 2 and sub.length == 4
    assert substitution_to_json(sub)["rules"]["a"] == "abba"


def test_parse_comments_and_blanks():
    sub = parse_substitution("# comment\n\na -> ab  # trailing\nb -> ba\n")
    assert substitution_to_json(sub)["rules"]["b"] == "ba"


def test_parse_rejects_length_one():
    with pytest.raises(ValidationError, match="length-1"):
        parse_substitution("a -> a\nb -> b\n")


def test_parse_rejects_duplicate_rule():
    with pytest.raises(ParseError, match="duplicate"):
        parse_substitution("a -> ab\nb -> ba\nb -> ab\n")


def test_parse_rejects_unknown_letter():
    with pytest.raises(ParseError, match="unknown letter"):
        parse_substitution("a -> ac\nb -> ba\n")
    with pytest.raises(ParseError) as err:
        parse_substitution("a -> ab\nb -> bc\n")
    assert err.value.line == 2


def test_parse_rejects_unequal_lengths():
    with pytest.raises(ParseError, match="unequal"):
        parse_substitution("a -> ab\nb -> bab\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_substitution("a -> ab\nnonsense line\n")
    assert err.value.line == 2


def test_json_roundtrip():
    sub = parse_substitution(THUE_MORSE)
    again = substitution_from_json(substitution_to_json(sub))
    assert again == sub
    rules = substitution_to_json(sub)["rules"]
    text = "".join(f"{sym} -> {word}\n" for sym, word in rules.items())
    assert text == THUE_MORSE and parse_substitution(text) == sub


def test_parse_any_dispatches():
    assert parse_any(THUE_MORSE).length == 4
    assert parse_any('{"alphabet": ["a", "b"], "rules": {"a": "abba", "b": "baab"}}').length == 4


def test_json_missing_rule():
    with pytest.raises(ParseError, match="missing rule"):
        substitution_from_json({"alphabet": ["a", "b"], "rules": {"a": "ab"}})


# --- columns and powers ----------------------------------------------------

def test_columns_thue_morse():
    sub = parse_substitution(THUE_MORSE)
    ident, swap = identity(2), (1, 0)
    assert columns(sub) == (ident, swap, swap, ident)


def test_columns_mixed_transpositions():
    sub = make_substitution(["abaa", "bacb", "ccbc"])
    cols = columns(sub)
    assert cols[0] == cols[3] == identity(3)
    assert cols[1] == (1, 0, 2)  # swaps the first two letters
    assert cols[2] == (0, 2, 1)  # swaps the last two


def test_constant_columns_are_not_bijective():
    sub = make_substitution(["ab", "ab"])
    assert not is_bijective(sub)
    assert is_bijective(parse_substitution(THUE_MORSE))


def test_power_one_is_identity_operation():
    sub = parse_substitution(THUE_MORSE)
    assert substitution_power(sub, 1) == sub


def test_thue_morse_square_rules_and_columns():
    sub = parse_substitution(THUE_MORSE)
    square = substitution_power(sub, 2)
    assert substitution_to_json(square)["rules"]["a"] == "abbabaabbaababba"
    cols, square_cols = columns(sub), columns(square)
    for k in range(4):
        for j in range(4):
            assert square_cols[k * 4 + j] == compose(cols[j], cols[k])


def test_composition_column_law_on_random_pairs():
    import random
    rng = random.Random(7)
    for _ in range(10):
        size = rng.choice((2, 3))
        def rand_sub(length):
            words = []
            for a in range(size):
                words.append("".join("abc"[rng.randrange(size)] for _ in range(length)))
            try:
                return make_substitution(words)
            except ValidationError:
                return None
        outer, inner = rand_sub(rng.choice((2, 3))), rand_sub(rng.choice((2, 3)))
        if outer is None or inner is None:
            continue
        comp = compose_substitutions(outer, inner)
        oc, ic, cc = columns(outer), columns(inner), columns(comp)
        for k in range(inner.length):
            for j in range(outer.length):
                assert cc[k * outer.length + j] == tuple(
                    oc[j][ic[k][a]] for a in range(size))


def test_power_columns_match_iterated_products(golden_simplified):
    # columns of sub^n agree with the letterwise products, for n = 2 and 3
    for name, sub in golden_simplified.items():
        base = columns(sub)
        for n in (2, 3):
            power_cols = columns(substitution_power(sub, n))
            prev = columns(substitution_power(sub, n - 1)) if n > 2 else base
            for k in range(len(prev)):
                for j in range(sub.length):
                    assert power_cols[k * sub.length + j] == compose(base[j], prev[k])


def test_alphabet_mismatch_rejected():
    a = parse_substitution(THUE_MORSE)
    b = make_substitution(["aba", "bab", "cca"])
    with pytest.raises(ValidationError, match="different alphabets"):
        compose_substitutions(a, b)


def test_power_letter_guard():
    sub = parse_substitution(THUE_MORSE)
    with pytest.raises(ResourceLimitError):
        substitution_power(sub, 13)  # 4^13 > 10^7


# --- primitivity -----------------------------------------------------------

def test_primitive_cases():
    assert _all_letters_exponent(parse_substitution(THUE_MORSE)) is not None
    assert _all_letters_exponent(make_substitution(["abaa", "bacb", "ccbc"])) is not None


def test_unreachable_letter_is_not_primitive():
    sub = make_substitution(["ab", "ba", "cc"])
    assert _all_letters_exponent(sub) is None
    with pytest.raises(ValidationError, match="not primitive"):
        check_input(sub)


def test_cyclic_occurrence_graph_is_not_primitive():
    sub = make_substitution(["bb", "aa"])
    assert _all_letters_exponent(sub) is None
    with pytest.raises(ValidationError, match="not primitive"):
        check_input(sub)


def test_primitivity_agrees_with_boolean_matrix_powers(golden_subs, golden_simplified,
                                                       random_corpus, long_power_subs):
    # one routine decides primitivity and gives check_input its exponent: the
    # least k with every rule word of sub^k holding every letter, the least
    # all-true boolean power of the letter-occurrence matrix
    non_primitive = [make_substitution(words) for words in (
        ["ab", "ba", "cc"], ["bb", "aa"], ["aa", "bb"], ["ab", "bb"], ["bb", "cc", "aa"],
        ["abab", "baba", "cdcd", "dcdc"], ["bcb", "cac", "aba", "ddd"])]
    subs = (list(golden_subs.values()) + list(golden_simplified.values()) + random_corpus
            + long_power_subs + non_primitive + [parse_substitution(PERIODIC)])
    exponents = Counter()
    for sub in subs:
        expected = occurrence_matrix_exponent(sub)
        assert _all_letters_exponent(sub) == expected, sub.rules
        exponents[expected] += 1
    assert exponents[None] == len(non_primitive)
    assert exponents[1] > 0 and any(k is not None and k > 1 for k in exponents)


# --- two-letter words ------------------------------------------------------

def test_two_words_mixed_transpositions():
    fiber = allowed_two_words(make_substitution(["abaa", "bacb", "ccbc"]))
    assert fiber.size == 7
    labels = fiber.labels(make_substitution(["abaa", "bacb", "ccbc"]).alphabet)
    assert labels == ("aa", "ab", "ac", "ba", "bc", "cb", "cc")


def test_two_words_thue_morse():
    assert allowed_two_words(parse_substitution(THUE_MORSE)).size == 4


def test_two_words_periodic():
    fiber = allowed_two_words(parse_substitution(PERIODIC))
    assert fiber.size == 2


def test_a_power_has_the_two_letter_words_of_its_base(golden_subs, random_corpus,
                                                      long_power_simplified):
    # global_description reads the analysed power's fiber off the input;
    # its docstring proves that theta and theta^n generate the same subshift
    for sub in [*golden_subs.values(), *random_corpus, *long_power_simplified]:
        fiber = allowed_two_words(sub)
        assert allowed_two_words(written_power(check_input(sub))) == fiber
        assert allowed_two_words(substitution_power(sub, 2)) == fiber


def test_junction_closure_is_stable():
    for words in (["abba", "baab"], ["abaa", "bacb", "ccbc"], ["abc", "bca", "cab"]):
        sub = make_substitution(words)
        fiber = allowed_two_words(sub)
        assert {junction_map(sub, p) for p in fiber.pairs} <= set(fiber.pairs)


# --- aperiodicity -----------------------------------------------------------

def test_periodic_verdict():
    verdict = is_aperiodic(parse_substitution(PERIODIC))
    assert verdict.kind == "periodic"
    assert verdict.period_evidence == 2


def test_periodic_verdict_matches_explicit_period():
    # the subshift of aba/bab is the two-point orbit of ...ababab...
    sub = parse_substitution(PERIODIC)
    word = substitution_power(sub, 3).rules[0]
    assert all(word[i] == word[i % 2] for i in range(len(word)))


def test_aperiodic_verdicts():
    assert is_aperiodic(parse_substitution(THUE_MORSE)).is_aperiodic
    assert is_aperiodic(make_substitution(["abaa", "bacb", "ccbc"])).is_aperiodic


def written_out_complexity(sub, n):
    """Reference p(n): every window of sigma^k(a) sigma^k(b), for every
    allowed two-letter word ab and the least k with l^k >= n, written out
    letter by letter from the rule words."""
    fiber = allowed_two_words(sub)
    if n == 1:
        return len({x for pair in fiber.pairs for x in pair})
    level, block = 0, 1
    while block < n:
        level += 1
        block *= sub.length
    blocks = {}
    for a in range(sub.size):
        word = [a]
        for _ in range(level):
            word = [x for c in word for x in sub.rules[c]]
        blocks[a] = "".join(sub.alphabet.letters[x] for x in word)
    factors = set()
    for a, b in fiber.pairs:
        word = blocks[a] + blocks[b]
        factors.update(word[i : i + n] for i in range(len(word) - n + 1))
    return len(factors)


def reference_scan(sub):
    """Reference Morse-Hedlund scan over :func:`written_out_complexity` to
    the bound s^2 l^2: doubling checkpoints, a plateau walk where strictness
    fails, and a walk to the first n with p(n) <= n.  Returns (kind,
    period_evidence)."""
    bound = sub.size**2 * sub.length**2

    def periodic_from(n, p_n):
        while p_n > n:
            n += 1
            p_n = written_out_complexity(sub, n)
        return ("periodic", n)

    prev_n, prev_p = 1, written_out_complexity(sub, 1)
    if prev_p <= 1:
        return periodic_from(1, prev_p)
    n = 1
    while n < bound:
        n = min(2 * n, bound)
        p = written_out_complexity(sub, n)
        if p < prev_p + (n - prev_n):
            m, pm = prev_n, prev_p
            while m < n:
                m += 1
                q = written_out_complexity(sub, m)
                if q == pm or q <= m:
                    return periodic_from(m, q)
                pm = q
        prev_n, prev_p = n, p
    return ("aperiodic", None)


def bijective_verdict_corpus(count=120, seed=20261018):
    """Primitive bijective substitutions with 2-5 letters and rule length 2-6,
    in three kinds by turn: random columns; periodic ones with columns
    c_j = f^j c_0 for an s-cycle f and a c_0 with c_0 f = f^l c_0, which
    exists when l is prime to s and makes every image of an f-progression
    ... x f(x) f^2(x) ... again one; and such a periodic one with one column
    replaced by a random permutation."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        size, length = rng.randint(2, 5), rng.randint(2, 6)
        cols = [rng.sample(range(size), size) for _ in range(length)]
        if len(found) % 3 and gcd(size, length) == 1:
            order = rng.sample(range(size), size)  # f = (order[0] order[1] ...)
            f = [0] * size
            for i, x in enumerate(order):
                f[x] = order[(i + 1) % size]
            shift = rng.randrange(size)
            c0 = [0] * size
            for i, x in enumerate(order):
                # c_0(f^i(x_0)) = f^(l*i)(y_0), with x_0 = order[0], y_0 = order[shift]
                c0[x] = order[(shift + length * i) % size]
            cols = [c0]
            for _ in range(length - 1):
                cols.append([f[x] for x in cols[-1]])
            if len(found) % 3 == 2:
                cols[rng.randrange(length)] = rng.sample(range(size), size)
        sub = make_substitution(["".join("abcde"[col[a]] for col in cols) for a in range(size)])
        if _all_letters_exponent(sub) is not None:
            found.append(sub)
    return found


def test_aperiodicity_verdicts_match_reference_scan(golden_subs, random_corpus):
    named = [parse_substitution(PERIODIC),
             make_substitution(["abc", "bca", "cab"]),
             # periodic with p(1) = p(2) = 3: the plateau walk finds evidence 3
             make_substitution(["ab", "ca", "bc"]),
             parse_substitution(THUE_MORSE)]
    cases = named + list(golden_subs.values()) + random_corpus + bijective_verdict_corpus()
    expected = []
    for sub in cases:
        verdict = is_aperiodic(sub)
        expected.append(reference_scan(sub))
        assert verdict == expected[-1]
    assert expected[:len(named)] == [
        ("periodic", 2), ("aperiodic", None), ("periodic", 3), ("aperiodic", None)]
    periodic = [kind for kind, _ in expected if kind == "periodic"]
    assert len(periodic) >= 20  # the periodic branch is exercised


def test_aperiodicity_test_refuses_non_bijective_input():
    with pytest.raises(ValidationError, match="bijective"):
        is_aperiodic(make_substitution(["abb", "bab"]))


def test_aperiodicity_scan_reads_two_letter_words_once(monkeypatch):
    calls = []
    original = ellisub.substitution.allowed_two_words

    def counted(sub):
        calls.append(sub)
        return original(sub)
    monkeypatch.setattr(ellisub.substitution, "allowed_two_words", counted)
    sub = make_substitution(["abaa", "bacb", "ccbc"])
    assert is_aperiodic(sub).is_aperiodic
    assert calls == [sub]


def test_aperiodicity_scan_at_scale(monkeypatch):
    # a complexity scan would reach s^2 l^2 = 1600 and 4900; the verdict
    # is decided without writing out a power
    def refuse(*args, **kwargs):
        raise AssertionError("the aperiodicity test wrote out a power")
    for attr in ("substitution_power", "compose_substitutions"):
        monkeypatch.setattr(ellisub.substitution, attr, refuse)
    for source in (S5, S7):
        assert is_aperiodic(parse_substitution(source)) == ("aperiodic", None)


# --- simplification ---------------------------------------------------------

def test_thue_morse_already_simplified():
    sub = parse_substitution(THUE_MORSE)
    checked = check_input(sub)
    assert checked.exponent == 1 and written_power(checked) == sub
    assert is_simplified(sub)


def test_cyclic_rotation_needs_cube():
    sub = make_substitution(["abc", "bca", "cab"])
    assert not is_simplified(sub)
    checked = check_input(sub)
    result = written_power(checked)
    assert checked.exponent == 3
    assert result.length == 27
    assert is_simplified(result)


def test_all_letters_condition_forces_square():
    # junction map is trivial but one rule misses a letter, so the power jumps
    sub = make_substitution(["abaa", "bacb", "ccbc"])
    checked = check_input(sub)
    result = written_power(checked)
    assert checked.exponent == 2
    assert is_simplified(result)
    assert allowed_two_words(result).size == 7  # language is power-invariant


def test_simplify_output_conditions(random_corpus):
    for sub in random_corpus[:5]:
        checked = check_input(sub)
        result = written_power(checked)
        assert checked.exponent == 1  # generator emits simplified substitutions
        cols = columns(result)
        assert cols[0] == cols[-1] == identity(result.size)
        assert all(len(set(w)) == result.size for w in result.rules)
        fiber = allowed_two_words(result)
        assert all(junction_map(result, p) == p for p in fiber.pairs)


def test_simplify_rejects_bad_input():
    # check_input is the one gate before any stage reads the simplified power
    with pytest.raises(ValidationError, match="bijective"):
        check_input(make_substitution(["ab", "ab"]))
    with pytest.raises(ValidationError, match="primitive"):
        check_input(make_substitution(["ab", "ba", "cc"]))


def test_simplified_exponent_checks_the_boundary_columns_of_the_power():
    # the boundary columns of theta^n are c_0^n and c_(l-1)^n: with no
    # junction cycle to raise n, the rotation's columns of order 3 are
    # not the identity at n = 1
    sub = make_substitution(["abc", "bca", "cab"])
    assert simplified_exponent(sub, allowed_two_words(sub), 1) == 3
    with pytest.raises(ValidationError, match="boundary columns of the computed power"):
        simplified_exponent(sub, TwoWordFiber(()), 1)


# --- fixed points -----------------------------------------------------------

def test_fixed_points_exceed_alphabet(golden_subs, random_corpus):
    # a simplified substitution has one fixed point per allowed two-letter word
    for sub in list(golden_subs.values()) + random_corpus[:5]:
        result = written_power(check_input(sub))
        assert is_simplified(result)
        assert allowed_two_words(result).size > result.size


def test_fixed_point_block_prefix_coherence():
    # the block sigma^n(b) of the fixed point at b is a prefix of sigma^(n+1)(b)
    tm = parse_substitution(THUE_MORSE)
    blocks = ["b"] + [substitution_to_json(substitution_power(tm, level))["rules"]["b"]
                      for level in range(1, 5)]
    for shorter, longer in zip(blocks, blocks[1:]):
        assert longer.startswith(shorter)


def test_fixed_point_block_starts_with_its_letter(golden_reports):
    for report in golden_reports.values():
        sub = substitution_power(report.substitution, report.exponent)
        for a in range(sub.size):
            assert sub.rules[a][0] == a


def test_letter_at_agrees_with_blocks():
    tm = parse_substitution(THUE_MORSE)
    blocks = substitution_power(tm, 3).rules  # the level-3 blocks sigma^3(a), sigma^3(b)
    for p in range(len(blocks[0])):
        assert letter_at(tm, (1, 0), p) == blocks[0][p]
    # left side of the fixed point b.a is the block of b read backwards from 0
    left = blocks[1]
    for k in range(1, len(left) + 1):
        assert letter_at(tm, (1, 0), -k) == left[-k]
