"""The rendered report: its two writers, its layout and what it prints.

The whole report of every golden case is pinned by its sha256 in
``tests/pins.py``, with and without the window oracle.
"""

import json
import sys

import pytest

import ellisub.pipeline
from ellisub import parse_substitution
from ellisub.golden import CASE_ORDER, CASES
from ellisub.perms import PermGroup, cycle_string, normal_closure
from ellisub.pipeline import (AnalysisConfig, analyze_substitution, check_input,
                              global_description)
from ellisub.report import (_CycleStrings, _dict, _green_shape, _group, _list, _strs,
                            render_json, render_text, report_to_json)

from conftest import mutant
from pins import GUARD_TRIPPER, POWER_6
from reference import generated_group, text_report


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
    # the text report does not print the analysed rules, so neither it nor
    # any stage before it writes them or any other word of the power, under
    # any name a module holds the writers by: on a long power that was most
    # of its time.  GUARD_TRIPPER's power would have 16 777 216 letters per
    # rule, over the cap that only the JSON report meets
    def refuse(*args, **kwargs):
        raise AssertionError("the text path wrote a power of the substitution")
    for name, module in list(sys.modules.items()):
        if name == "ellisub" or name.startswith("ellisub."):
            for attr in ("substitution_power", "compose_substitutions", "substitution_to_json"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for report in golden_reports.values():
        render_text(report)
    for source, first_line in (
            (POWER_6, "substitution over {abc}, analyzed power: 6 (length 7 -> 117649)"),
            (GUARD_TRIPPER,
             "substitution over {abcd}, analyzed power: 12 (length 4 -> 16777216)")):
        for verify in (False, True):
            report = analyze_substitution(parse_substitution(source),
                                          AnalysisConfig(verify=verify))
            assert (report.oracle is not None) == verify
            text = render_text(report)
            assert text.split("\n", 1)[0] == first_line
            with pytest.raises(AssertionError, match="wrote a power"):
                render_json(report)


def generator_failures(report) -> list[str]:
    """The group payloads of ``report`` whose generators do not give their
    group's elements, walked from the identity, and a normal completion
    whose generators do not begin with the little group's."""
    d = report_to_json(report)
    group = report.structure_group
    letters = report.alphabet.letters
    aut = report.aut.fiber_group
    perm_of = {cycle_string(p, letters): p for p in group.elements + aut.elements}
    failures = []
    for key, target in (("structure_group", group), ("little_group", report.little_group),
                        ("normal_completion", report.normal_completion), ("aut_fib", aut)):
        gens = [perm_of[text] for text in d[key]["generators"]]
        if generated_group(gens).element_set != target.element_set:
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


@pytest.fixture(scope="module")
def layout_reports(golden_subs, golden_reports, random_reports, long_power_simplified):
    """The golden six plain, with --verify and normalised at R-set index 1,
    the random corpus, the long-power powers and the non-ASCII inputs."""
    reports = list(golden_reports.values()) + random_reports
    for config in (AnalysisConfig(), AnalysisConfig(g0_index=1)):
        reports += [analyze_substitution(golden_subs[name], config) for name in CASE_ORDER]
    reports += [global_description(check_input(sub)) for sub in long_power_simplified]
    reports += [analyze_substitution(parse_substitution(source), AnalysisConfig(verify=verify))
                for source in NON_ASCII for verify in (False, True)]
    return reports


def test_render_json_is_the_indented_dump(layout_reports):
    # render_json writes the layout itself; it must be the bytes of the
    # plain indented dump of what it wrote
    assert '"(\\u00e9 \\u00fc)"' in render_json(layout_reports[-4])
    assert '"(\\ud835\\udd1e \\ud835\\udd1f)"' in render_json(layout_reports[-2])
    for report in layout_reports:
        text = render_json(report)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_render_text_is_the_text_of_the_json_report(layout_reports, golden_subs):
    # render_text reads the report itself; it must print what the JSON
    # report holds, the degree distribution as the rows of its table count it
    for report in layout_reports:
        assert render_text(report) == text_report(report)
    swapped = mutant(render_text, 'describe(report.normal_completion, "normal completion")',
                     'describe(report.little_group, "normal completion")')
    report = analyze_substitution(golden_subs["s3_nonnormal_little"], AnalysisConfig())
    assert swapped(report) != text_report(report)


def indented(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it is written at ``depth``."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# every escape a str can need: quote, backslash, control characters, a line
# separator that json escapes, letters outside ASCII and outside the basic plane
STRINGS = ['"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f\n\r\t\b\f", "\u2028", "é", "𝔞", "é𝔞\"", ""]


def test_writer_is_the_indented_dump(golden_reports):
    # each helper writes a value at depth 1, as a top-level key's, and at
    # depth 2, inside a field; the depth shifts json's layout right
    for depth in (1, 2):
        for items in ([], [""], STRINGS, ["(a b)"]):
            assert _strs(items, depth) == indented(items, depth), items
        nested = [[], [1, -2, 2**64], ["é", '"'], {}]
        written = [indented(item, depth + 1) for item in nested]
        assert _list(written, depth) == indented(nested, depth)
        for values in ({}, {key: key for key in STRINGS}, {"1": 1, "12": [], "x": {}, "é": None}):
            written = {key: indented(value, depth + 1) for key, value in values.items()}
            assert _dict(written, depth) == indented(values, depth), values
        letters = ("é", "𝔞", '"', "\\")
        cycles = _CycleStrings(letters)
        # no generators; S_4, which has no name; Z/2 on letters that need escapes
        groups = (PermGroup(4, (), ((0, 1, 2, 3),)), generated_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
                  generated_group([(1, 0, 3, 2)]))
        assert groups[1].fingerprint.name is None
        for group in groups:
            fp = group.fingerprint
            payload = {"order": fp.order, "abelian": fp.abelian, "exponent": fp.exponent,
                       "element_orders": {str(k): v for k, v in fp.element_orders},
                       "name": fp.name,
                       "generators": [cycle_string(g, letters) for g in group.generators]}
            assert _group(group, cycles, depth) == indented(payload, depth)
        shapes = [{"count": 0, "sizes": {}}]
        for report in golden_reports.values():
            green = report.matrix.green_summary()
            shapes += [green[relation] for relation in ("l_classes", "r_classes", "h_classes",
                                                        "d_classes")]
        for shape in shapes:
            assert _green_shape(shape, depth) == indented(shape, depth)


@pytest.mark.parametrize("value", [1.5, [1.0], {"a": 0.0}, {1, 2}, [frozenset()], (1, 2),
                                   {1: "a"}, {None: 1}, {True: 1}, {"a": {2: 3}}, [{(1,): 1}]],
                         ids=repr)
def test_writer_refuses_what_a_report_does_not_hold(value):
    # json would write a float, a tuple, or a key it can turn into a str;
    # the helpers write every str and every key through encode, which
    # refuses them rather than risk writing other bytes
    with pytest.raises(TypeError):
        _strs([value], 1)
    if isinstance(value, dict) and not all(isinstance(key, str) for key in value):
        with pytest.raises(TypeError):
            _dict(dict.fromkeys(value, "0"), 1)
