"""The whole rendered report of every golden case, pinned by its sha256.

The golden snapshot compares a subset of the report's fields; these digests
also pin the degree table, the fiber labels, the group generators and the
text layout, with and without the window oracle.  A change that alters a
report on purpose must update them and say so.
"""

import hashlib
import json
import sys

import pytest

import ellisub.pipeline
import ellisub.report
from ellisub import parse_substitution
from ellisub.golden import CASE_ORDER, CASES
from ellisub.perms import PermGroup, cycle_string, normal_closure
from ellisub.pipeline import (AnalysisConfig, analyze_substitution, check_input,
                              global_description)
from ellisub.report import (_CycleStrings, _dict, _green_shape, _group, _list, _strs,
                            render_json, render_text, report_to_json)

from conftest import mutant
from test_cli import GUARD_TRIPPER
from test_pipeline import POWER_6
from reference import generated_group, text_report

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


# inputs with a classical height above 2, which no golden case has:
# source -> (h, h_cl, sha256 of render_json, sha256 of render_text), with --verify
GRADED = {
    "a -> afda\nb -> bceb\nc -> cdac\nd -> dbfe\ne -> eacd\nf -> febf\n": (
        3, 3, "b39b42d7efcc7bcbf2a1e4318d156496dec02f94e5bc5e0d6488d4957502711b",
        "b5474dd66bfad54f5f0c24977292530bbb28e9ea1b8556b431384b167181b226"),
    "a -> afbefbe\nb -> bedbefb\nc -> cafcadc\nd -> dcadbaf\ne -> edcadca\nf -> fbefced\n": (
        6, 3, "03a25de83cd02c779222f3792d90b361f756f779043f6843cf1d541533fb7d0a",
        "96d795fadb1af81958a868fb5c7474f7277a825b4698d99cc55fa8f77c63018d"),
    "a -> adgfa\nb -> bfhdg\nc -> cgeac\nd -> dbfhd\ne -> eacge\nf -> fhdbf\ng -> geacb\n"
    "h -> hcbeh\n": (
        4, 4, "bd559d22b2eef4716664a3c13c1a2e8eb9ad252f064ca1bf245120c93b9332f4",
        "c64ab5dbde5b283d7f6709848abc9a413db2b73dd68abb8284f17d2d97064210"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_graded_reports_are_byte_identical():
    for source, (h, h_cl, json_digest, text_digest) in GRADED.items():
        report = analyze_substitution(parse_substitution(source), AnalysisConfig(verify=True))
        assert (report.height, report.classical_height) == (h, h_cl)
        assert report.unresolved_extension == (h > h_cl)
        assert (sha256(render_json(report)), sha256(render_text(report))) == \
            (json_digest, text_digest), source


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
