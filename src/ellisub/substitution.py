"""Constant-length substitutions: parsing, validation, powers, simplification,
allowed words and aperiodicity.

A substitution maps each letter of a finite alphabet to a word of one fixed
length.  Letters are canonicalized to indices 0..s-1 internally; the original
symbols survive only for I/O.  Reading a rule column-wise gives the column
maps: column j sends a letter to letter j of its rule word.  The substitution
is *bijective* when every column map is a permutation.

A bijective substitution is *simplified* when (1) every periodic point of the
substitution acting on its shift space is already a fixed point (forcing the
first and last column maps to be the identity) and (2) every rule word
contains every letter.  Both conditions hold for a suitable power, whose
exponent :func:`simplified_exponent` computes without writing the power.
:func:`substitution_power` writes a power out, under the cap
``LETTER_LIMIT``; the one package caller is the JSON report, which prints
the analysed power's rules.  For simplified substitutions the fixed points
correspond one-to-one to the allowed two-letter words; that finite set is the
singular fiber on which all later semigroup computation happens.

The same words decide aperiodicity: the subshift of a primitive bijective
substitution is aperiodic exactly when some letter has two successors, that
is, when there are more than s allowed two-letter words (the proof is in
:func:`aperiodicity_verdict`).  No factor complexity is scanned for it.
"""

from __future__ import annotations

import json
from math import lcm
from typing import NamedTuple

from .errors import Frozen, ParseError, ResourceLimitError, ValidationError
from .perms import cycles, is_perm

LETTER_LIMIT = 10**7  # refuse to materialize words longer than this


class Alphabet(Frozen):
    """Ordered list of distinct single-character symbols, size >= 2."""

    _fields = ("letters",)

    def __init__(self, letters: tuple[str, ...]):
        if len(letters) < 2:
            raise ValidationError("alphabet needs at least 2 letters")
        if len(set(letters)) != len(letters):
            raise ValidationError("alphabet has duplicate letters")
        for sym in letters:
            if len(sym) != 1 or not sym.isalnum():
                raise ValidationError(f"letter {sym!r} is not a single alphanumeric symbol")
        vars(self)["letters"] = letters

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, sym: str) -> int:
        try:
            return self.letters.index(sym)
        except ValueError:
            raise ValidationError(f"unknown letter {sym!r}") from None


class Substitution(Frozen):
    """One rule word per letter, all of the same length >= 2.

    ``rules[a][j]`` is the letter index at position j of the image of letter a.
    """

    _fields = ("alphabet", "rules")

    def __init__(self, alphabet: Alphabet, rules: tuple[tuple[int, ...], ...]):
        s = alphabet.size
        if len(rules) != s:
            raise ValidationError(f"expected {s} rules, got {len(rules)}")
        length = len(rules[0])
        if length < 2:
            raise ValidationError("rule length must be >= 2; a length-1 substitution is a single permutation")
        for a, word in enumerate(rules):
            if len(word) != length:
                raise ValidationError(
                    f"rule for {alphabet.letters[a]!r} has length {len(word)}, expected {length}")
            for x in word:
                if not 0 <= x < s:
                    raise ValidationError(f"rule for {alphabet.letters[a]!r} uses an out-of-range letter")
        vars(self).update(alphabet=alphabet, rules=rules)

    @property
    def size(self) -> int:
        return self.alphabet.size

    @property
    def length(self) -> int:
        return len(self.rules[0])


# ---------------------------------------------------------------------------
# parsing and serialization

def parse_substitution(source: str) -> Substitution:
    """Parse the text grammar: one ``<letter> -> <word>`` per line.

    ``#`` starts a comment, blank lines are ignored.  The alphabet is the set
    of left-hand letters in order of first appearance.
    """
    entries: list[tuple[str, str, int]] = []  # (letter, word, line number)
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError("expected '<letter> -> <word>'", line=lineno, column=1)
        left, right = line.split("->", 1)
        letter, word = left.strip(), right.strip()
        if len(letter) != 1 or not letter.isalnum():
            raise ParseError(f"left-hand side {letter!r} is not a single alphanumeric letter",
                             line=lineno, column=1)
        if not word:
            raise ParseError("empty rule word", line=lineno, column=raw.index("->") + 3)
        entries.append((letter, word, lineno))
    if not entries:
        raise ParseError("no rules found", line=1)
    seen: dict[str, int] = {}
    for letter, _, lineno in entries:
        if letter in seen:
            raise ParseError(f"duplicate rule for {letter!r}", line=lineno)
        seen[letter] = lineno
    letters = tuple(e[0] for e in entries)
    alphabet = Alphabet(letters)
    index = {sym: i for i, sym in enumerate(letters)}
    rules = []
    for letter, word, lineno in entries:
        row = []
        for col, sym in enumerate(word):
            if sym not in index:
                raise ParseError(f"unknown letter {sym!r} in rule for {letter!r}",
                                 line=lineno, column=col + 1)
            row.append(index[sym])
        rules.append(tuple(row))
    lengths = {len(r) for r in rules}
    if len(lengths) > 1:
        raise ParseError(f"rule words have unequal lengths {sorted(lengths)}")
    return Substitution(alphabet, tuple(rules))


def substitution_from_json(obj: dict | str) -> Substitution:
    """Parse the JSON form {"alphabet": [...], "rules": {letter: word}}."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "alphabet" not in obj or "rules" not in obj:
        raise ParseError("JSON form needs 'alphabet' and 'rules' keys")
    letters, rules_obj = obj["alphabet"], obj["rules"]
    if not isinstance(letters, list) or not all(isinstance(sym, str) for sym in letters):
        raise ParseError("'alphabet' must be a list of letters")
    if not isinstance(rules_obj, dict):
        raise ParseError("'rules' must map each letter to its word")
    alphabet = Alphabet(tuple(letters))
    for sym in rules_obj:
        if sym not in alphabet.letters:
            raise ParseError(f"rule for {sym!r} which is not in the alphabet")
    rules = []
    for sym in alphabet.letters:
        if sym not in rules_obj:
            raise ParseError(f"missing rule for {sym!r}")
        word = rules_obj[sym]
        if not isinstance(word, str):
            raise ParseError(f"rule for {sym!r} must be a word, not {type(word).__name__}")
        rules.append(tuple(alphabet.index(c) for c in word))
    lengths = {len(r) for r in rules}
    if len(lengths) > 1:
        raise ParseError(f"rule words have unequal lengths {sorted(lengths)}")
    return Substitution(alphabet, tuple(rules))


def substitution_to_json(sub: Substitution) -> dict:
    """The JSON form, each letter's rule word spelled out in alphabet order."""
    letters = sub.alphabet.letters
    return {
        "alphabet": list(letters),
        "rules": {sym: "".join(map(letters.__getitem__, word))
                  for sym, word in zip(letters, sub.rules)},
    }


def parse_any(source: str) -> Substitution:
    """Accept either the text grammar or the JSON form, after one leading
    byte-order mark (U+FEFF), which some editors write."""
    source = source.removeprefix("\ufeff")
    if source.lstrip().startswith("{"):
        return substitution_from_json(source)
    return parse_substitution(source)


# ---------------------------------------------------------------------------
# columns, composition, powers

def columns(sub: Substitution) -> tuple[tuple[int, ...], ...]:
    """Column maps: column j sends letter a to rules[a][j]."""
    return tuple(zip(*sub.rules))


def is_bijective(sub: Substitution) -> bool:
    return all(is_perm(col) for col in columns(sub))


def compose_substitutions(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution a -> outer(inner(a)); its length is the product.

    Column k*l_outer + j of the result is column_j(outer) after column_k(inner).
    """
    if outer.alphabet != inner.alphabet:
        raise ValidationError("substitutions are over different alphabets")
    if outer.length * inner.length > LETTER_LIMIT:
        raise ResourceLimitError(
            f"composition would have rule words of {outer.length * inner.length} letters "
            f"(cap {LETTER_LIMIT})")
    rules = []
    for a in range(inner.size):
        word: list[int] = []
        for k in inner.rules[a]:
            word.extend(outer.rules[k])
        rules.append(tuple(word))
    return Substitution(outer.alphabet, tuple(rules))


def substitution_power(sub: Substitution, n: int) -> Substitution:
    if n < 1:
        raise ValidationError("power exponent must be >= 1")
    if sub.length**n > LETTER_LIMIT:
        raise ResourceLimitError(
            f"power {n} would have rule words of {sub.length**n} letters (cap {LETTER_LIMIT})")
    result = sub
    for _ in range(n - 1):
        result = compose_substitutions(sub, result)
    return result


# ---------------------------------------------------------------------------
# primitivity

def _all_letters_exponent(sub: Substitution) -> int | None:
    """Minimal k such that every rule word of sub^k contains every letter, or
    None when there is none, that is, when sub is not primitive.  The
    letters of sub^(k+1)(a) are those of the rules of the letters of
    sub^k(a), so one union per letter and step; a primitive substitution
    reaches all letters by the Wielandt bound (s-1)^2 + 1 on the exponent
    of a primitive matrix."""
    s = sub.size
    occurs = [frozenset(word) for word in sub.rules]
    reach = list(occurs)
    bound = (s - 1) ** 2 + 1
    for k in range(1, bound + 1):
        if all(len(r) == s for r in reach):
            return k
        reach = [frozenset().union(*(occurs[x] for x in r)) for r in reach]
    return None


# ---------------------------------------------------------------------------
# two-letter words and the junction map

class TwoWordFiber(NamedTuple):
    """The allowed two-letter words (a, b), sorted; for simplified
    substitutions these index the fixed points a.b of the singular fiber."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def labels(self, alphabet: Alphabet) -> tuple[str, ...]:
        return tuple(alphabet.letters[a] + alphabet.letters[b] for a, b in self.pairs)


def junction_map(sub: Substitution, pair: tuple[int, int]) -> tuple[int, int]:
    """(a, b) -> (last column(a), first column(b)): how the two-letter word at
    a substitution-word boundary evolves under one application of the rules."""
    a, b = pair
    return (sub.rules[a][-1], sub.rules[b][0])


def allowed_two_words(sub: Substitution) -> TwoWordFiber:
    """All two-letter factors of the subshift of a primitive substitution:
    interior pairs of the rule words, closed under junction propagation.
    The callers check primitivity first (:func:`_all_letters_exponent`)."""
    pairs: set[tuple[int, int]] = set()
    for word in sub.rules:
        for j in range(len(word) - 1):
            pairs.add((word[j], word[j + 1]))
    frontier = list(pairs)
    while frontier:
        p = junction_map(sub, frontier.pop())
        if p not in pairs:
            pairs.add(p)
            frontier.append(p)
    # every letter of a primitive substitution has a successor
    if not sub.size <= len(pairs) <= sub.size**2:
        raise ValidationError(f"two-word count {len(pairs)} escapes [s, s^2]")
    return TwoWordFiber(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# aperiodicity

class AperiodicityVerdict(NamedTuple):
    """Outcome of :func:`aperiodicity_verdict`.

    kind is "aperiodic" or "periodic"; ``period_evidence`` is the least n
    with p(n) <= n for periodic verdicts, which is the alphabet size s.
    """

    kind: str
    period_evidence: int | None = None

    @property
    def is_aperiodic(self) -> bool:
        return self.kind == "aperiodic"


def is_aperiodic(sub: Substitution) -> AperiodicityVerdict:
    """:func:`aperiodicity_verdict`, once sub is checked bijective and primitive."""
    if not is_bijective(sub):
        raise ValidationError("aperiodicity test needs a bijective substitution")
    if _all_letters_exponent(sub) is None:
        raise ValidationError("aperiodicity test needs a primitive substitution")
    return aperiodicity_verdict(sub, allowed_two_words(sub))


def aperiodicity_verdict(sub: Substitution, fiber: TwoWordFiber) -> AperiodicityVerdict:
    """The verdict of a primitive bijective substitution with the allowed
    two-letter words ``fiber``: the subshift X is aperiodic iff it has more
    than s of them (Dekking 1978).

    - Some power tau = sigma^m has identity boundary columns (m the lcm of
      the orders of the first and last column), so every allowed word ab
      gives a tau-fixed point tau^inf(a).tau^inf(b) in X.
    - Suppose ab and ab' are both allowed with b != b'.  Their fixed points
      are distinct and agree on every negative position.  In a finite X
      every point is periodic, and two periodic points that agree on a
      half-line are equal; so X is infinite, and X, being minimal, then has
      no periodic point.
    - Suppose instead every letter a has a single successor f(a).  Then every
      x in X satisfies x[i+1] = f(x[i]), so X is finite: a periodic orbit.

    With exactly s words p(n) = s for every n, so the first n with
    p(n) <= n is s, the ``period_evidence`` of a periodic verdict.
    """
    if fiber.size > sub.size:
        return AperiodicityVerdict("aperiodic")
    return AperiodicityVerdict("periodic", period_evidence=sub.size)


# ---------------------------------------------------------------------------
# simplification

def _junction_cycle_lcm(sub: Substitution, fiber: TwoWordFiber) -> int:
    seen: set[tuple[int, int]] = set()
    result = 1
    for start in fiber.pairs:
        if start in seen:
            continue
        n = 0
        p = start
        while True:
            seen.add(p)
            p = junction_map(sub, p)
            n += 1
            if p == start:
                break
        result = lcm(result, n)
    return result


def simplified_exponent(sub: Substitution, fiber: TwoWordFiber, letters_exp: int) -> int:
    """The least n such that sub^n is simplified, for a bijective
    substitution with the allowed two-letter words ``fiber`` and the
    all-letters exponent ``letters_exp`` (:func:`_all_letters_exponent`),
    which make it primitive.  No word of sub^n is written.

    n = M*m where M is the lcm of the junction-map cycle lengths on the
    allowed two-letter words (condition: all periodic points become fixed) and
    m is minimal so that every rule word of sub^(M*m) contains every letter.

    Both conditions hold by this choice of n.  The junction map of sub^n is
    the nth power of that of sub on the same two-letter words, and M divides
    n.  If every rule word of sub^e contains every letter, then so does every
    rule word of sub^(e+1) = sub^e o sub, and n >= e for the least such e.
    The boundary columns of sub^n, which the first condition makes the
    identity, are still checked: they are c_0^n and c_(l-1)^n for the
    columns c_0 and c_(l-1) of sub (``ellisub.oracle`` proves the column
    formula), and c^n is the identity exactly when n is a multiple of the
    length of every cycle of c, O(s) work whatever n is.
    """
    cycle_lcm = _junction_cycle_lcm(sub, fiber)
    m = -(-letters_exp // cycle_lcm)  # ceil division
    n = cycle_lcm * m
    cols = columns(sub)
    if any(n % len(cycle) for col in (cols[0], cols[-1]) for cycle in cycles(col)):
        raise ValidationError(
            "simplification failed: boundary columns of the computed power are not the identity "
            "(is the input really bijective and primitive?)")
    return n
