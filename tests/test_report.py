"""The whole rendered report of every golden case, pinned by its sha256.

The golden snapshot compares a subset of the report's fields; these digests
also pin the degree table, the fiber labels, the group generators and the
text layout, with and without the window oracle.  A change that alters a
report on purpose must update them and say so.
"""

import hashlib
import json
from collections import Counter

import pytest

from ellisub import parse_substitution
from ellisub.golden import CASE_ORDER
from ellisub.pipeline import AnalysisConfig, analyze_substitution, global_description
from ellisub.report import _write, render_json, render_text, report_to_json

# (case, verify) -> (sha256 of render_json, sha256 of render_text)
DIGESTS = {
    ("thue_morse", False): ("d301bd5acc7c84e3da1c49dbc781fd012cb01600c300e036c55cd7c6ea4ec1d0",
                            "29cd27c732644f8fbc17bd496711d818ff39ccaf006e49ddc9fd8daed22028e7"),
    ("thue_morse", True): ("be5d1779c8fa900e1bac0adaf3d234ca79c9971d6ea09cf293055578af9030fc",
                           "45bb9f403e34dfc7afd72dfe9ee1e2ba2f079a1badd91a8ac51b4514e67f911d"),
    ("s3_seven_words", False): ("1a0921baeb79b47fc52979007ae05268a01eafa0b4c6d3b29ad7a2abba5ca6ab",
                                "ce766d919399070f1548661072b685e1c9071d0805721a34523f8ee78f2ea0eb"),
    ("s3_seven_words", True): ("1181a44950655ecb96d8079d46f668fa4c6c04e814254d6aaf7cffa6a6fa1bcf",
                               "a7a647ff8023ea3850a89f674ddfa067288c4bf460fa24454ed8378519506341"),
    ("s3_nonnormal_little", False): ("ba1eaec638854eff9c6bff262acdef492de4857a64ea733336c31f2fac5a3374",
                                     "fbdba7d9dca46bc4f6d5b1d8d075170d242afbffd1d901808c0a6dc370456df9"),
    ("s3_nonnormal_little", True): ("211da3d3785d2b6d9f821b815011ce1f63dbb29ae00cb729725d190836dd2026",
                                    "f72387a684c8db6f046e75267d605439130431273450aff781bb7030e44d873e"),
    ("s3_height_two", False): ("b070025e478c56d9ffc67be6db9989b2d4a2e37badce33bd95051d29a0df9153",
                               "91fb3c0b02d15d8e94a7bea22d54bf41045c6fabea23b9e4bb432e0ff7781dfb"),
    ("s3_height_two", True): ("b319236f7b3b87f64b23dd810fbc2625b1dd0efbb15fee72476f5cc18c30c3dd",
                              "38a1701bacfd4e720bd262bc8d2e47e4852e875d7e332f1643509827619dd34f"),
    ("cyclic_rotation", False): ("9dc9aa716e0b364b54579da4c05141640c694f72a35683d7e01c4060fa96a433",
                                 "7f7878b9f4a8ea485adf609ccc0478fffeadb42b665b123de0a3761248299091"),
    ("cyclic_rotation", True): ("a31a00fa8b0a2a56bcfda00d1b12c2c3987191da05cd60d1f261e84c9a255ffc",
                                "0f29b840d175ab6214fe7557fac8cab4fac869a98a0941b93265b4fd6d435ab7"),
    ("d4_height_two", False): ("4c1de5448cb5366208632f545b7ea604e9b46fc7f7b3f8d46b6a43a2a76ac869",
                               "6ec1c05786b453b2750746950f26d3a433599709a483635a130f6763229463b0"),
    ("d4_height_two", True): ("b9e6b3560a0724f61eea2dfda7c79d7995bbfcd05c15ccc9d2d954e93b880218",
                              "f2e046a9062a2f999ae0e63a84bcf0a9d8858ea1a396f06bc1dd8b82e3f6b95a"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_golden_reports_are_byte_identical(golden_subs, golden_reports, verify):
    for name in CASE_ORDER:
        report = (golden_reports[name] if verify
                  else analyze_substitution(golden_subs[name], AnalysisConfig()))
        assert (sha256(render_json(report)), sha256(render_text(report))) == \
            DIGESTS[(name, verify)], name


def test_oracle_max_level_keeps_the_printed_ceiling(golden_subs):
    # every shift is read at level 1; ellis-report/1 still prints the ceiling
    # 4 that the level search printed by default
    report = analyze_substitution(golden_subs["thue_morse"], AnalysisConfig(verify=True))
    oracle = report_to_json(report)["oracle"]
    assert oracle["max_level"] == 4
    assert set(oracle["stabilized_levels"].values()) == {1}


# json writes letters outside ASCII as \u escapes, and those outside the
# basic plane as surrogate pairs: \u00e9 for é, \ud835\udd1e for 𝔞
NON_ASCII = ("é -> éüüé\nü -> üééü\n", "𝔞 -> 𝔞𝔟𝔟𝔞\n𝔟 -> 𝔟𝔞𝔞𝔟\n")


def test_render_json_is_the_indented_dump(golden_subs, golden_reports, random_reports,
                                          long_power_simplified):
    # render_json writes the degree table from a row template; it must give
    # the bytes of the plain indented dump, and render_text the degree
    # distribution of the rows it no longer builds
    reports = list(golden_reports.values()) + random_reports
    for config in (AnalysisConfig(), AnalysisConfig(g0_index=1)):
        reports += [analyze_substitution(golden_subs[name], config) for name in CASE_ORDER]
    reports += [global_description(sub) for sub in long_power_simplified]
    reports += [analyze_substitution(parse_substitution(source), AnalysisConfig(verify=verify))
                for source in NON_ASCII for verify in (False, True)]
    assert '"(\\u00e9 \\u00fc)"' in render_json(reports[-4])
    assert '"(\\ud835\\udd1e \\ud835\\udd1f)"' in render_json(reports[-2])
    for report in reports:
        d = report_to_json(report)
        assert render_json(report) == json.dumps(d, indent=2) + "\n"
        degrees = Counter(row["degree"] for row in d["degree_table"])
        line = "degree distribution: " + ", ".join(
            f"{count} elements of degree {deg}" for deg, count in sorted(degrees.items()))
        assert line in render_text(report).splitlines()


def written(value) -> str:
    pieces: list[str] = []
    _write(value, pieces)
    return "".join(pieces)


# the value types a report holds, in every position the writer lays out
# differently: top level, dict value, list item, and lists of one scalar type
WRITER_VALUES = [
    {}, [], {"a": {}, "b": []}, [[], {}, [[]]], {"x": [{}], "y": {"z": []}},
    None, True, False, 0, -1, -37, 2**64, 2**64 + 1, -(2**70),
    "", '"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f\n\r\t\b\f", "\u2028", "é", "𝔞", "é𝔞\"",
    [None, True, False, 0, -5, 2**65], [True, False], [None],
    ["a", "é", "𝔞", '"'], [1, 2, 3], [1, True], [1, "1"],
    [[1, 2], [3, [4, [5]]], ["a", ["b"]]],
    [{"k": 1}, {"k": [None, {"é": "𝔞"}]}, {}],
    {"é": 1, "𝔞": "𝔞", '"': None, "": False, "n": -(2**64)},
    {"a": {"b": {"c": [1, {"d": []}]}}, "e": [["f"]]},
]


def test_writer_is_the_indented_dump():
    for value in WRITER_VALUES:
        assert written(value) == json.dumps(value, indent=2), repr(value)


@pytest.mark.parametrize("value", [1.5, [1.0], {"a": 0.0}, {1, 2}, [frozenset()], (1, 2),
                                   {1: "a"}, {None: 1}, {True: 1}, {"a": {2: 3}}, [{(1,): 1}]],
                         ids=repr)
def test_writer_refuses_what_a_report_does_not_hold(value):
    # json would write a float, a tuple, or a key it can turn into a str;
    # the writer refuses them rather than risk writing other bytes
    with pytest.raises(TypeError):
        written(value)
