import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellisub import (AnalysisConfig, analyze_substitution, check_input, heights, r_set,
                     structure_group)
from ellisub.errors import ValidationError
from ellisub.perms import PermGroup, identity
from ellisub.rees import SIGN_LABELS, ReesMatrixSemigroup
from ellisub.substitution import Alphabet, Substitution, parse_substitution
from reference import generated_group

ROOT = Path(__file__).resolve().parent.parent
S3 = ((1, 0, 2), (1, 2, 0))


def test_importing_the_package_loads_no_dataclasses():
    # a fresh interpreter: the test process itself may have loaded it
    code = ("import sys\n"
            "import ellisub, ellisub.cli\n"
            "from ellisub.substitution import parse_any\n"
            "parse_any('a -> abba\\nb -> baab\\n')\n"
            "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_cli_loads_neither_dataclasses_nor_importlib_resources():
    # -S: a site-packages .pth hook may import either before ellisub does;
    # only `ellisub golden` reads data/golden.json, through os.path
    code = ("import sys\n"
            "import ellisub, ellisub.cli\n"
            "print(sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))\n"
            "from ellisub.golden import load_expectations\n"
            "print(len(load_expectations()))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n6\n"


def test_each_frozen_value_refuses_an_assignment(golden_subs):
    sub = golden_subs["s3_seven_words"]
    checked = check_input(sub)
    rset = r_set(checked)
    graded = structure_group(rset)
    group = graded.group
    report = analyze_substitution(sub)
    values = (sub.alphabet, sub, checked.fiber, checked.aperiodicity, group,
              group.fingerprint, report.matrix, checked, graded, heights(checked, rset, graded))
    assert [type(v).__name__ for v in values] == [
        "Alphabet", "Substitution", "TwoWordFiber", "AperiodicityVerdict", "PermGroup",
        "GroupFingerprint", "ReesMatrixSemigroup", "CheckedPower", "GradedGroup", "Heights"]
    for value in values:
        for field in value._fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            assert getattr(value, field) is before


def test_alphabet_substitution_and_group_compare_and_hash_by_value():
    sub = parse_substitution("a -> abba\nb -> baab\n")
    twin = Substitution(Alphabet(("a", "b")), ((0, 1, 1, 0), (1, 0, 0, 1)))
    assert sub.alphabet == twin.alphabet and hash(sub.alphabet) == hash(twin.alphabet)
    assert sub == twin and hash(sub) == hash(twin) and len({sub, twin}) == 1
    assert sub != Substitution(sub.alphabet, ((0, 1, 0, 0), (1, 0, 1, 1)))
    assert Alphabet(("a", "b")) != Alphabet(("b", "a"))
    s3 = generated_group(S3)
    fresh = PermGroup(s3.degree, s3.generators, s3.elements)
    assert s3.fingerprint.order == 6  # a cached property leaves the value alone
    assert s3 == fresh and hash(s3) == hash(fresh) and len({s3, fresh}) == 1
    assert s3 != s3.with_generators(s3.elements)
    assert s3 != (s3.degree, s3.generators, s3.elements)


@pytest.mark.parametrize("build, message", [
    (lambda: Alphabet(("a",)), "alphabet needs at least 2 letters"),
    (lambda: Alphabet(("a", "a")), "alphabet has duplicate letters"),
    (lambda: Alphabet(("a", "bc")), "letter 'bc' is not a single alphanumeric symbol"),
    (lambda: Substitution(Alphabet(("a", "b")), ((0, 1),)), "expected 2 rules, got 1"),
    (lambda: Substitution(Alphabet(("a", "b")), ((0,), (1,))),
     "rule length must be >= 2; a length-1 substitution is a single permutation"),
    (lambda: Substitution(Alphabet(("a", "b")), ((0, 1), (1, 0, 1))),
     "rule for 'b' has length 3, expected 2"),
    (lambda: Substitution(Alphabet(("a", "b")), ((0, 2), (1, 0))),
     "rule for 'a' uses an out-of-range letter"),
    (lambda: ReesMatrixSemigroup(generated_group(S3), ("i",), SIGN_LABELS, ((identity(3),),)),
     "sandwich matrix has wrong number of rows"),
    (lambda: ReesMatrixSemigroup(generated_group(S3), ("i",), SIGN_LABELS,
                                 ((identity(3),), (identity(3), identity(3)))),
     "sandwich matrix has wrong number of columns"),
    (lambda: ReesMatrixSemigroup(generated_group([S3[0]]), ("i",), SIGN_LABELS,
                                 ((identity(3),), (S3[1],))),
     "sandwich entry outside the structure group"),
    (lambda: AnalysisConfig(verify=True, output_format="yaml"),
     "output format must be 'text' or 'json'"),
])
def test_the_constructors_keep_their_messages(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


def test_the_constructors_take_their_keywords():
    config = AnalysisConfig(verify=True, output_format="json")
    assert (config.g0_index, config.verify, config.output_format) == (None, True, "json")
    s3 = generated_group(S3)
    m = ReesMatrixSemigroup(group=s3, i_labels=("i",), lam_labels=("p",),
                            sandwich=((identity(3),),))
    assert m.base == (0, 0) and m == ReesMatrixSemigroup(s3, ("i",), ("p",), ((identity(3),),))
    assert Substitution(alphabet=Alphabet(letters=("a", "b")), rules=((0, 1), (1, 0))).length == 2
