"""Bundled reference substitutions with frozen expectations.

Each case pins the structural facts its report must reproduce; a failing
comparison names the case and the diverging field.  Expectations live in
``data/golden.json`` and compare against a snapshot (a subset) of the JSON
report, so the suite is byte-deterministic.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .pipeline import analyze_substitution
from .report import report_to_json
from .substitution import parse_substitution

CASES: dict[str, str] = {
    # two letters: the one and only structural semigroup on two letters
    "thue_morse": "a -> abba\nb -> baab\n",
    # three letters, structure group S_3, seven allowed two-words
    "s3_seven_words": "a -> abaa\nb -> bacb\nc -> ccbc\n",
    # three letters, little structure group of order 2, not normal in S_3
    "s3_nonnormal_little": "a -> abcca\nb -> babab\nc -> ccabc\n",
    # three letters, all three transpositions in the R-set, height 2 > classical height 1
    "s3_height_two": "a -> abacaaa\nb -> babbbcb\nc -> cccacbc\n",
    # cyclic rotation; simplified only after cubing, structure group Z/3
    "cyclic_rotation": "a -> abc\nb -> bca\nc -> cab\n",
    # four letters, dihedral structure group, height = classical height = 2
    "d4_height_two": "a -> abadcba\nb -> badcbab\nc -> cdcbadc\nd -> dcbadcd\n",
}

CASE_ORDER = ("thue_morse", "s3_seven_words", "s3_nonnormal_little",
              "s3_height_two", "cyclic_rotation", "d4_height_two")


def load_expectations() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "golden.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def snapshot(report_json: dict) -> dict:
    """The comparable subset of a JSON report."""
    degree_distribution: dict[str, int] = {}
    for row in report_json["degree_table"]:
        key = str(row["degree"])
        degree_distribution[key] = degree_distribution.get(key, 0) + 1

    def group_view(key):
        g = report_json[key]
        return {"order": g["order"], "name": g["name"]}

    green = report_json["green"]
    return {
        "analyzed_power": report_json["analyzed_power"],
        "length": report_json["length"],
        "alphabet_size": report_json["alphabet_size"],
        "g0": report_json["g0"]["cycles"],
        "r_set": [entry["cycles"] for entry in report_json["r_set"]],
        "structure_group": group_view("structure_group"),
        "little_group": group_view("little_group"),
        "normal_completion": {
            "order": report_json["normal_completion"]["order"],
            "name": report_json["normal_completion"]["name"],
            "abelian": report_json["normal_completion"]["abelian"],
            "exponent": report_json["normal_completion"]["exponent"],
        },
        "height": report_json["height"],
        "classical_height": report_json["classical_height"],
        "r_pi": report_json["r_pi"],
        "fiber_size": report_json["fiber_size"],
        "fiber": report_json["fiber"],
        "sandwich_matrix": report_json["sandwich_matrix"],
        "semigroup_size": report_json["semigroup_size"],
        "idempotents": green["idempotents"],
        "l_classes": green["l_classes"],
        "r_classes": green["r_classes"],
        "degree_distribution": degree_distribution,
        "aut_fib": group_view("aut_fib"),
        "virtual_aut": report_json["virtual_aut"],
        "semi_regular": report_json["semi_regular"],
        "order_h_witness": report_json["order_h_witness"],
        "global_strings": report_json["global_strings"],
        "unresolved_extension": report_json["unresolved_extension"],
    }


def run_case(name: str) -> dict:
    sub = parse_substitution(CASES[name])
    report = analyze_substitution(sub)
    return report_to_json(report)


def compare(expected, actual, path: str = "") -> list[str]:
    """Field-by-field diff; every expected leaf must match exactly."""
    diffs: list[str] = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or '.'}: expected an object, got {actual!r}"]
        for key, value in expected.items():
            if key not in actual:
                diffs.append(f"{path}{key}: missing from the report")
            else:
                diffs.extend(compare(value, actual[key], f"{path}{key}."))
        return diffs
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path[:-1]}: expected {expected!r}, got {actual!r}"]
        for k, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare(e, a, f"{path[:-1]}[{k}]."))
        return diffs
    if expected != actual:
        diffs.append(f"{path[:-1]}: expected {expected!r}, got {actual!r}")
    return diffs


class CaseResult(NamedTuple):
    name: str
    ok: bool
    diffs: tuple[str, ...]


def run_golden(expectations: dict | None = None) -> list[CaseResult]:
    expectations = expectations if expectations is not None else load_expectations()
    results = []
    for name in CASE_ORDER:
        actual = snapshot(run_case(name))
        diffs = compare(expectations[name], actual)
        results.append(CaseResult(name, not diffs, tuple(diffs)))
    return results
