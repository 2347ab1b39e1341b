import importlib.util
import inspect
import random
import sys
import textwrap
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

from ellisub import (AnalysisConfig, analyze_substitution, check_input, heights,
                     is_aperiodic, parse_substitution, r_set, structure_group)
from ellisub.errors import EllisubError
from ellisub.golden import CASES
from ellisub.perms import compose
from ellisub.rees import ReesMatrixSemigroup, substitution_sandwich
from ellisub.semigroups import TransformationSemigroup
from ellisub.substitution import (Alphabet, Substitution, TwoWordFiber,
                                  allowed_two_words, columns)
from reference import (GreenStructure, fiber_semigroup, generated_group, green_structure,
                       written_power)


def mutant(function, old, new):
    """``function`` with the one occurrence of ``old`` in its source replaced
    by ``new``, run in its module's namespace, so that it calls whatever is
    patched there.  A decorated method, such as a ``cached_property``'s
    ``func``, comes back undecorated."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    scratch = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), scratch)
    made = scratch[function.__name__]
    return types.FunctionType(getattr(made, "func", made).__code__, function.__globals__,
                              function.__name__, function.__defaults__)


def make_substitution(rule_words: list[str]) -> Substitution:
    letters = "abcdefghij"[: len(rule_words)]
    return parse_substitution(
        "\n".join(f"{letters[i]} -> {word}" for i, word in enumerate(rule_words)))


def rset_and_group(sub: Substitution) -> tuple:
    """The first two stages of a simplified substitution: R-set and structure group."""
    rset = r_set(check_input(sub))
    return rset, structure_group(rset).group


def first_stages(sub: Substitution) -> tuple:
    """The R-set, the structure group with its walks, and the heights of a
    simplified substitution."""
    checked = check_input(sub)
    rset = r_set(checked)
    graded = structure_group(rset)
    return rset, graded, heights(checked, rset, graded)


def translates(pairs, group) -> set:
    """{(a g, b g) : (a, b) in pairs, g in G}."""
    return {(compose(a, g), compose(b, g)) for a, b in pairs for g in group.elements}


def pair_closure(sub: Substitution, group) -> set:
    """The consecutive column pairs of sub, translated by G."""
    cols = columns(sub)
    return translates(zip(cols, cols[1:]), group)


@dataclass
class FiberMaps:
    """The fiber semigroup: the fiber, the maps the matrix action builds on
    it, the action itself, and the maps' Green structure, recomputed from the
    maps by Cayley graphs as the reference for the Green summary that reports
    read off the matrix."""

    fiber: TwoWordFiber
    semigroup: TransformationSemigroup
    phi: dict
    green: GreenStructure


def fiber_maps(matrix: ReesMatrixSemigroup, fiber: TwoWordFiber) -> FiberMaps:
    semigroup, phi = fiber_semigroup(matrix, fiber)
    return FiberMaps(fiber, semigroup, phi, green_structure(semigroup))


def fiber_action(sub: Substitution) -> FiberMaps:
    """The fiber semigroup of a simplified substitution, built from its stages."""
    rset, group = rset_and_group(sub)
    return fiber_maps(substitution_sandwich(group, rset, rset[0]), allowed_two_words(sub))


def three_row_matrix(base: tuple[int, int] = (0, 0)) -> ReesMatrixSemigroup:
    """|I| = 2 and |Lambda| = 3 over S_3, with no identity sandwich entry."""
    s3 = generated_group([(1, 0, 2), (1, 2, 0)])
    sandwich = (((1, 2, 0), (0, 2, 1)),
                ((1, 0, 2), (2, 0, 1)),
                ((2, 1, 0), (1, 2, 0)))
    return ReesMatrixSemigroup(s3, ("i", "j"), ("p", "q", "r"), sandwich, base)


def random_simplified_aperiodic(rng: random.Random, size: int, length: int) -> Substitution | None:
    """One attempt: identity boundary columns, random interior columns; both
    simplified conditions hold by construction once every rule sees every
    letter, so only aperiodicity needs filtering."""
    base = list(range(size))
    cols = [tuple(base)]
    for _ in range(length - 2):
        perm = base[:]
        rng.shuffle(perm)
        cols.append(tuple(perm))
    cols.append(tuple(base))
    rules = tuple(tuple(col[a] for col in cols) for a in range(size))
    if any(len(set(word)) != size for word in rules):
        return None
    alphabet = Alphabet(tuple("abcdefghij"[:size]))
    sub = Substitution(alphabet, rules)
    if not is_aperiodic(sub).is_aperiodic:
        return None
    return sub


def build_random_corpus(count: int = 20, seed: int = 20240817) -> list[Substitution]:
    rng = random.Random(seed)
    shapes = [(2, 4), (3, 4), (2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (4, 6)]
    found: list[Substitution] = []
    k = 0
    while len(found) < count:
        size, length = shapes[k % len(shapes)]
        k += 1
        sub = random_simplified_aperiodic(rng, size, length)
        if sub is not None:
            found.append(sub)
    return found


def build_graded_corpus(count: int = 60, seed: int = 33) -> list[Substitution]:
    """Inputs graded mod n by construction, n in {2, 3, 4}: the 2n letters
    fall into n classes of two, letter a in class a // 2, column j sends
    class c to class c + j mod n, c_0 is the identity and l = 1 mod n, so
    the classical height is a multiple of n.  Inputs that
    :func:`check_input` refuses are skipped."""
    rng = random.Random(seed)
    found: list[Substitution] = []
    while len(found) < count:
        n = rng.choice((2, 3, 4))
        cols = [tuple(range(2 * n))]
        for j in range(1, rng.choice((n + 1, 2 * n + 1))):
            col: list[int] = []
            for c in range(n):
                pair = [2 * ((c + j) % n), 2 * ((c + j) % n) + 1]
                rng.shuffle(pair)
                col += pair
            cols.append(tuple(col))
        rules = tuple(tuple(col[a] for col in cols) for a in range(2 * n))
        sub = Substitution(Alphabet(tuple("abcdefgh"[:2 * n])), rules)
        try:
            check_input(sub)
        except EllisubError:
            continue
        found.append(sub)
    return found


@pytest.fixture(scope="session")
def golden_subs() -> dict:
    return {name: parse_substitution(source) for name, source in CASES.items()}


@pytest.fixture(scope="session")
def golden_simplified(golden_subs) -> dict:
    return {name: written_power(check_input(sub)) for name, sub in golden_subs.items()}


@pytest.fixture(scope="session")
def golden_reports(golden_subs) -> dict:
    return {name: analyze_substitution(sub, AnalysisConfig(verify=True))
            for name, sub in golden_subs.items()}


@pytest.fixture(scope="session")
def golden_fibers(golden_reports) -> dict:
    return {name: fiber_maps(report.matrix, report.fiber)
            for name, report in golden_reports.items()}


@pytest.fixture(scope="session")
def random_corpus() -> list[Substitution]:
    return build_random_corpus()


@pytest.fixture(scope="session")
def random_reports(random_corpus) -> list:
    from ellisub import global_description
    return [global_description(check_input(sub)) for sub in random_corpus]


@pytest.fixture(scope="session")
def random_fibers(random_reports) -> list:
    return [fiber_maps(report.matrix, report.fiber) for report in random_reports]


@pytest.fixture(scope="session")
def random_oracle(random_corpus, random_reports) -> list:
    from ellisub import FiberAction, oracle_equivalence
    return [oracle_equivalence(sub, 1, report.matrix, FiberAction(report.matrix, report.fiber))
            for sub, report in zip(random_corpus, random_reports)]


def workload_subs(workload: str) -> list[Substitution]:
    """The benchmark's inputs of ``workload`` at seeds 1-3, generated by
    ``bench/corpus.py``, which is loaded once."""
    corpus = sys.modules.get("bench_corpus")
    if corpus is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("bench_corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = corpus  # its dataclasses look their module up
        spec.loader.exec_module(corpus)
    return [parse_substitution(case.source)
            for seed in (1, 2, 3) for case in corpus.generate(workload, seed)]


@pytest.fixture(scope="session")
def long_power_subs() -> list[Substitution]:
    """The benchmark's long-power inputs, seeds 1-3: 2-3-letter inputs that
    are analysed at power 2 or 3."""
    return workload_subs("long-power")


@pytest.fixture(scope="session")
def long_power_simplified(long_power_subs) -> list[Substitution]:
    """The simplified powers of the long-power inputs, length 16-27."""
    return [written_power(check_input(sub)) for sub in long_power_subs]
