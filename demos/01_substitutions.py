#!/usr/bin/env python3
"""Substitution basics: parsing, column maps, validation, simplification.

A constant-length substitution replaces every letter by a word of one fixed
length.  Reading the rule words column by column turns the substitution into
a finite sequence of alphabet self-maps; when all of them are permutations
the substitution is bijective and everything downstream applies.
"""

from ellisub import (allowed_two_words, columns, cycle_string, is_aperiodic,
                     is_bijective, is_primitive, is_simplified,
                     parse_substitution, simplify)

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
print("primitive:", is_primitive(tm))
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
print("rotation simplified as given:", is_simplified(rot))
simplified, exponent = simplify(rot)
print(f"power {exponent} is simplified: length {simplified.length}, "
      f"first rule {simplified.rule_word('a')[:12]}...")
print("boundary columns:",
      cycle_string(columns(simplified)[0], simplified.alphabet.letters),
      cycle_string(columns(simplified)[-1], simplified.alphabet.letters))
