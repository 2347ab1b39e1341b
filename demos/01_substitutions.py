#!/usr/bin/env python3
"""Substitution basics: parsing, column maps, validation, simplification.

A constant-length substitution replaces every letter by a word of one fixed
length.  Reading the rule words column by column turns the substitution into
a finite sequence of alphabet self-maps; when all of them are permutations
the substitution is bijective and everything downstream applies.
"""

from ellisub import (allowed_two_words, check_input, columns, cycle_string,
                     is_aperiodic, is_bijective, parse_substitution,
                     substitution_power, substitution_to_json)

THUE_MORSE = """
# the classic two-letter example, already in simplified form
a -> abba
b -> baab
"""

ROTATION = """
a -> abc
b -> bca
c -> cab
"""

print("== parsing and columns")
tm = parse_substitution(THUE_MORSE)
print(f"alphabet {tm.alphabet.letters}, length {tm.length}")
for j, col in enumerate(columns(tm)):
    print(f"  column {j}: {cycle_string(col, tm.alphabet.letters)}")

print("\n== validation gates")
print("bijective:", is_bijective(tm))
# check_input is the one gate: bijective, primitive and aperiodic, or a refusal
print("passes the input gate, analysed at power", check_input(tm).exponent)
# aperiodic exactly when some letter has two successors: more than s
# allowed two-letter words
words = allowed_two_words(tm)
print(f"aperiodicity: {is_aperiodic(tm).kind} ({words.size} allowed two-letter words "
      f"for {tm.size} letters: {', '.join(words.labels(tm.alphabet))})")

print("\n== a periodic impostor has one successor per letter")
periodic = parse_substitution("a -> aba\nb -> bab")
print("two-letter words:", ", ".join(allowed_two_words(periodic).labels(periodic.alphabet)))
print("verdict:", is_aperiodic(periodic))

print("\n== simplification may need a power")
rot = parse_substitution(ROTATION)
checked = check_input(rot)
# n is the least exponent with theta^n simplified, so theta is simplified
# as given exactly when n = 1; the analysis reads theta and n, and the power
# is written out here only to show it
print("rotation simplified as given:", checked.exponent == 1)
simplified = substitution_power(rot, checked.exponent)
print(f"power {checked.exponent} is simplified: length {simplified.length}, "
      f"first rule {substitution_to_json(simplified)['rules']['a'][:12]}...")
print("boundary columns:",
      cycle_string(columns(simplified)[0], simplified.alphabet.letters),
      cycle_string(columns(simplified)[-1], simplified.alphabet.letters))
