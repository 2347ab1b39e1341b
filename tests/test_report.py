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

import ellisub.pipeline
import ellisub.report
from ellisub import parse_substitution
from ellisub.golden import CASE_ORDER, CASES
from ellisub.perms import closure, cycle_string, normal_closure
from ellisub.pipeline import (AnalysisConfig, analyze_substitution, check_input,
                              global_description)
from ellisub.report import _write, render_json, render_text, report_to_json

from conftest import mutant

# (case, verify) -> (sha256 of render_json, sha256 of render_text)
DIGESTS = {
    ("thue_morse", False): ("f90493cd98db891fe935402ed3c2ddf270639d96385d30c298cfd7ef79bfb1ef",
                            "e23423419483c486a78b58c465218650c2885aa58622ff490ae0fc1fca6c1480"),
    ("thue_morse", True): ("fd8ddc2f82da8a52f15ace6504beba3c52126bbe4202316610fe6f836126fda7",
                           "b1f8ef092cc7a14b18c0ad07b758599d471c5d352779c216ed5bf9cc611857cf"),
    ("s3_seven_words", False): ("36d24405c8411ff2bc229c37a27654a21e2c3bdc6a31f4e588300ae32875e9a9",
                                "b80b03366cf69ad18e781d454b84cbc21b6cd60e8d6bc889cf41ff0b6d960744"),
    ("s3_seven_words", True): ("51784e5a780b5b63b8f4b7262c2ec156899d9a3cde2a53aa6d8b93cd8ab937f5",
                               "717fdbe188e9e94111f7c9556bd5d9c5bc4121242077dd173b8eb865eb677de4"),
    ("s3_nonnormal_little", False): ("8a8a080732d5ef5f90fa09c4f5abfedc98251814ac3f725e288f224b58c471bf",
                                     "db49482ff90632c8d71f63bfd5d9f95cb9384a40916d42e60e43671b4a467da9"),
    ("s3_nonnormal_little", True): ("424461ae6ffccd3b9b1caae0e4c3f8d8539ec28ada3f84d32eb450b0fe76a220",
                                    "edc0f4fb66c418b21f03766fe8589679742b5fe3ebe1adbe0494c395dbd08bac"),
    ("s3_height_two", False): ("17941acdd0fab1ddd4823278e2d27bcff44636de942b2f10dcc45a00f0c67ca8",
                               "2a7de7d505013d9fd5a026ba69feef08e845026d175782a8461afa493393ab35"),
    ("s3_height_two", True): ("e76f3fadc81ccf77d89db0f9ad3079630ebc99ed99851785cd48d85701d7555c",
                              "a82910f5605ff9179a6495f2eaa6ffa2fd526053d1483ac5b5c6910a7ba4d113"),
    ("cyclic_rotation", False): ("046c86b05a8d123aeec014ce4304fb675397bbff3d229de55d2ec14ed888d49a",
                                 "1dcf03d6ed41ab9f5587ce022fe6ce28b64e055ded7fa6d258418634f80b886a"),
    ("cyclic_rotation", True): ("d7138ba92a42d008bdb09a92f5619dc0711db90effdbaac7d60193b0ffc199ef",
                                "88983850a4ce0698659d50502d99556f63990dd4d6b1b109270460e4f3d1b2fa"),
    ("d4_height_two", False): ("11f41a2bacc9cca05516652443b191beb56f9130b5bd1a6999655f90e83215f5",
                               "1fbd78034a289735146ff5c0c1627373cdf0e883d14284814e58a7979bd27917"),
    ("d4_height_two", True): ("33a31f93565e616b819f8d942db64fd79e58db36613116a8e608df766ff7f8a1",
                              "6f57fd74f730ccb0ec4c1d7ef8c8ecd9782adef3547df0ea4dae9ad1aa00e9ea"),
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


def test_report_prints_no_field_fixed_by_proof(golden_reports):
    # every shift's map is read at level 1 and the verdict scans nothing, so
    # ellis-report/2 drops the level ceiling, the levels and the scan bound
    for report in golden_reports.values():
        d = report_to_json(report)
        assert "max_level" not in d["oracle"] and "stabilized_levels" not in d["oracle"]
        assert "bound" not in d["aperiodicity"]
        text = render_text(report)
        assert "(levels " not in text and "complexity scan bound" not in text


def test_render_text_writes_no_rules(monkeypatch, golden_reports):
    # the text report does not print the analysed rules, so it must not
    # write them: on a long power that is most of its time
    def refuse(sub):
        raise AssertionError("render_text wrote the analysed rules")
    monkeypatch.setattr(ellisub.report, "substitution_to_json", refuse)
    for report in golden_reports.values():
        render_text(report)


def generator_failures(report) -> list[str]:
    """The group payloads of ``report`` whose generators do not give their
    group's elements, closed inside G (aut_fib, which is not a subgroup of
    G, in the symmetric group), and a normal completion whose generators do
    not begin with the little group's."""
    d = report_to_json(report)
    group = report.structure_group
    degree = group.degree
    letters = report.alphabet.letters
    aut = report.aut.fiber_group
    perm_of = {cycle_string(p, letters): p for p in group.elements + aut.elements}
    failures = []
    for key, target, ambient in (("structure_group", group, group),
                                 ("little_group", report.little_group, group),
                                 ("normal_completion", report.normal_completion, group),
                                 ("aut_fib", aut, None)):
        gens = [perm_of[text] for text in d[key]["generators"]]
        if closure(gens, degree, ambient).element_set != target.element_set:
            failures.append(key)
    little = d["little_group"]["generators"]
    if d["normal_completion"]["generators"][:len(little)] != little:
        failures.append("normal_completion does not begin with little_group")
    return failures


def test_group_generators_give_their_groups(monkeypatch, golden_reports, random_reports,
                                           long_power_simplified):
    # each payload lists generators that the closure of the group used, not
    # its elements: N under the little group's generators and the conjugates
    # each round of the normal closure added
    reports = (list(golden_reports.values()) + random_reports
               + [global_description(check_input(sub)) for sub in long_power_simplified])
    for report in reports:
        assert generator_failures(report) == []
    little = report_to_json(golden_reports["s3_nonnormal_little"])
    assert little["little_group"]["generators"] == ["()", "(a c)"]
    assert little["normal_completion"]["generators"] == ["()", "(a c)", "(b c)", "(a b)"]
    # a normal closure that lists only the subgroup's generators fails
    short = mutant(normal_closure, "current.with_generators(gens)",
                   "current.with_generators(sub.generators)")
    monkeypatch.setattr(ellisub.pipeline, "normal_closure", short)
    report = analyze_substitution(parse_substitution(CASES["s3_nonnormal_little"]),
                                  AnalysisConfig())
    assert generator_failures(report) == ["normal_completion"]


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
    reports += [global_description(check_input(sub)) for sub in long_power_simplified]
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
