"""Seeded inputs for the benchmark workloads, and the make-up of each input
computed apart from the program.

Everything here except the aperiodicity filter and the golden case list uses
its own arithmetic on rule words and permutations, so that the checks in
``checks.py`` compare the program's reports against independent numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LETTERS = "abcdefgh"
MAX_POWER = 3  # the workloads analyse powers 1 to 3 only

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def group_closure(gens, degree: int) -> set[Perm]:
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        frontier = [y for y in {compose(g, x) for g in gens for x in frontier}
                    if y not in elements]
        elements.update(frontier)
    return elements


def power_words(words: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Rule words of the n-th power, by iterating the rules on each letter."""
    out = []
    for a in range(len(words)):
        word: tuple[int, ...] = (a,)
        for _ in range(n):
            word = tuple(x for y in word for x in words[y])
        out.append(word)
    return tuple(out)


def columns(words) -> tuple[Perm, ...]:
    return tuple(tuple(w[j] for w in words) for j in range(len(words[0])))


def _simplified(words) -> bool:
    """Identity boundary columns (so every junction is a fixed point) and
    every rule word holding every letter."""
    s = len(words)
    ident = tuple(range(s))
    cols = columns(words)
    return cols[0] == ident and cols[-1] == ident and all(len(set(w)) == s for w in words)


@dataclass(frozen=True)
class MakeUp:
    """Sizes of one input and of its analysed (simplified) power."""

    s: int
    l: int
    power: int
    analysed: tuple[tuple[int, ...], ...]  # rule words of the analysed power
    quotients: frozenset[Perm]             # the R-set I
    group_order: int                       # |G|, G generated by I
    fibre: tuple[tuple[int, int], ...]     # allowed two-letter words, sorted

    @property
    def length(self) -> int:
        return self.l ** self.power

    @property
    def i_size(self) -> int:
        return len(self.quotients)

    @property
    def semigroup_size(self) -> int:
        return 2 * self.i_size * self.group_order

    def row(self) -> dict:
        return {"s": self.s, "l": self.l, "power": self.power, "length": self.length,
                "I": self.i_size, "G": self.group_order, "S": self.semigroup_size,
                "fibre": len(self.fibre)}


def make_up(words: tuple[tuple[int, ...], ...]) -> MakeUp | None:
    """Make-up of a bijective substitution, or None when no power up to
    MAX_POWER is simplified."""
    for n in range(1, MAX_POWER + 1):
        analysed = power_words(words, n)
        if _simplified(analysed):
            break
    else:
        return None
    cols = columns(analysed)
    quotients = frozenset(compose(cols[j], inverse(cols[j - 1])) for j in range(1, len(cols)))
    # A simplified power maps every letter to a word that starts and ends with
    # it and holds every letter, so two more levels show every allowed two-word
    # of the fixed points inside one window.
    window = power_words(analysed, 2)[0]
    fibre = tuple(sorted(set(zip(window, window[1:]))))
    return MakeUp(len(words), len(words[0]), n, analysed, quotients,
                  len(group_closure(quotients, len(words))), fibre)


def to_text(words) -> str:
    return "".join(f"{LETTERS[a]} -> {''.join(LETTERS[x] for x in w)}\n"
                   for a, w in enumerate(words))


def parse_rules(source: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Letters and rule words of the text grammar, letters numbered by first
    appearance on the left as the program numbers them."""
    rules = [line.split("#", 1)[0].split("->") for line in source.splitlines()]
    rules = [(left.strip(), right.strip()) for left, right in (r for r in rules if len(r) == 2)]
    letters = "".join(letter for letter, _ in rules)
    return letters, tuple(tuple(letters.index(c) for c in word) for _, word in rules)


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    letters: str
    make_up: MakeUp


def _case(name: str, source: str) -> Case:
    letters, words = parse_rules(source)
    return Case(name, source, letters, make_up(words))


# ---------------------------------------------------------------------------
# workloads

# A slot fixes the make-up of one input: (s, l, analysed power, |I|, |G|,
# fibre size).  Analysis cost follows the make-up closely, so fixing it keeps
# the cost of a corpus the same from seed to seed while the seed still picks
# different substitutions.
Slot = tuple[int, int, int, int, int, int]

# Already simplified 4-letter inputs, |G| = 12 (A_4) or 24 (S_4), |S| = 96-144.
# Inputs with larger |S| take a second or more per analysis, and their
# latency repeats badly on a shared machine: load changes within one analysis.
WIDE_GROUP_SLOTS: tuple[Slot, ...] = (
    (4, 6, 1, 4, 12, 11),
    (4, 7, 1, 5, 12, 14),
    (4, 6, 1, 3, 24, 9),
    (4, 7, 1, 3, 24, 9),
)

# 2-3-letter inputs whose powers 2 or 3 are simplified, analysed length 16-27,
# |G| <= 6 and |S| <= 72.
LONG_POWER_SLOTS: tuple[Slot, ...] = (
    (2, 5, 2, 2, 2, 4),
    (3, 4, 2, 3, 3, 9),
    (3, 4, 2, 4, 6, 8),
    (3, 5, 2, 4, 6, 8),
    (3, 5, 2, 6, 6, 9),
    (3, 3, 3, 3, 3, 9),
    (3, 3, 3, 3, 6, 9),
)

SAMPLE_CAP = 10**6  # candidates per slot; every slot above fills within a few thousand


def _random_words(rng: random.Random, s: int, l: int, identity_ends: bool):
    cols = []
    for j in range(l):
        perm = list(range(s))
        if not (identity_ends and j in (0, l - 1)):
            rng.shuffle(perm)
        cols.append(perm)
    return tuple(tuple(col[a] for col in cols) for a in range(s))


def _fill(rng: random.Random, slot: Slot, identity_ends: bool) -> Case:
    """First sampled aperiodic substitution with exactly the slot's make-up."""
    from ellisub import is_aperiodic, parse_substitution

    s, l, power, i_size, g_order, fibre = slot
    for _ in range(SAMPLE_CAP):
        words = _random_words(rng, s, l, identity_ends)
        if power == 1 and not _simplified(words):
            continue
        m = make_up(words)
        if m is None or (m.power, m.i_size, m.group_order, len(m.fibre)) != (
                power, i_size, g_order, fibre):
            continue
        source = to_text(words)
        if is_aperiodic(parse_substitution(source)).is_aperiodic:
            return Case("s{}_l{}_n{}_I{}_G{}_f{}".format(*slot), source, LETTERS[:s], m)
    raise RuntimeError(f"no substitution with make-up {slot} in {SAMPLE_CAP} samples")


def golden(rng: random.Random) -> list[Case]:
    """The six bundled reference cases; the seed only orders them."""
    from ellisub.golden import CASE_ORDER, CASES

    cases = [_case(name, CASES[name]) for name in CASE_ORDER]
    rng.shuffle(cases)
    return cases


def _filled(rng: random.Random, slots: tuple[Slot, ...], identity_ends: bool) -> list[Case]:
    cases = [_fill(rng, slot, identity_ends) for slot in slots]
    rng.shuffle(cases)
    return cases


def wide_group(rng: random.Random) -> list[Case]:
    return _filled(rng, WIDE_GROUP_SLOTS, identity_ends=True)


def long_power(rng: random.Random) -> list[Case]:
    return _filled(rng, LONG_POWER_SLOTS, identity_ends=False)


# name -> (generator, analyse with the window oracle)
WORKLOADS = {
    "golden": (golden, False),
    "wide-group": (wide_group, True),
    "long-power": (long_power, True),
}


def generate(workload: str, seed: int) -> list[Case]:
    generator, _ = WORKLOADS[workload]
    return generator(random.Random(f"{workload}:{seed}"))
