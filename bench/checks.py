"""Checks of one `ellisub analyze --format json` report against the input's
independently computed make-up, the properties the method must have, and,
for the golden cases, the bundled expectations.

Each check returns a list of messages; an empty list means the report passed.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from corpus import Case

GOLDEN_FILE = Path("src") / "ellisub" / "data" / "golden.json"


def load_golden(root: Path) -> dict:
    return json.loads((root / GOLDEN_FILE).read_text(encoding="utf-8"))


def check_make_up(report: dict, case: Case) -> list[str]:
    """The report against |I|, |G|, the fibre and the analysed power as the
    benchmark computes them."""
    m = case.make_up
    letters = case.letters
    fails = []

    def expect(what, actual, expected):
        if actual != expected:
            fails.append(f"{what}: report has {actual!r}, expected {expected!r}")

    expect("analyzed_power", report["analyzed_power"], m.power)
    expect("length", report["length"], m.length)
    expect("alphabet_size", report["alphabet_size"], m.s)
    expect("analysed rules", report["substitution"]["rules"],
           {letters[a]: "".join(letters[x] for x in w) for a, w in enumerate(m.analysed)})
    expect("r_set", {tuple(e["images"]) for e in report["r_set"]}, set(m.quotients))
    expect("|G|", report["structure_group"]["order"], m.group_order)
    expect("fibre", sorted(report["fiber"]), sorted(letters[a] + letters[b] for a, b in m.fibre))
    expect("fiber_size", report["fiber_size"], len(m.fibre))
    return fails


def check_properties(report: dict, case: Case, verify: bool) -> list[str]:
    """Statements of the method that hold for every primitive aperiodic
    bijective substitution."""
    m = case.make_up
    i_size, g_order, size = m.i_size, m.group_order, m.semigroup_size
    green = report["green"]
    h, h_cl = report["height"], report["classical_height"]
    degrees = Counter(row["degree"] for row in report["degree_table"])
    stated = {
        "|S| = 2|I||G|": report["semigroup_size"] == size,
        "2|I| idempotents": green["idempotents"] == 2 * i_size,
        "|I| R-classes of size 2|G|":
            green["r_classes"] == {"count": i_size, "sizes": {str(2 * g_order): i_size}},
        "2 L-classes of size |I||G|":
            green["l_classes"] == {"count": 2, "sizes": {str(i_size * g_order): 2}},
        "each of the h degrees holds |S|/h elements":
            h >= 1 and degrees == {k: size // h for k in range(h)} and size % h == 0,
        "h divides l-1": (m.length - 1) % h == 0,
        "h_cl divides h": h_cl >= 1 and h % h_cl == 0,
        "the order of aut_fib divides s": m.s % report["aut_fib"]["order"] == 0,
        "oracle as asked": (report["oracle"] is not None and report["oracle"]["equal"] is True)
        if verify else report["oracle"] is None,
    }
    return [f"property fails: {name}" for name, ok in stated.items() if not ok]


def golden_view(report: dict) -> dict:
    """The report in the shape of data/golden.json."""
    view = dict(report)
    view["g0"] = report["g0"]["cycles"]
    view["r_set"] = [entry["cycles"] for entry in report["r_set"]]
    for key in ("idempotents", "l_classes", "r_classes"):
        view[key] = report["green"][key]
    counts = Counter(str(row["degree"]) for row in report["degree_table"])
    view["degree_distribution"] = dict(counts)
    return view


def diff_expected(expected, actual, path: str = "") -> list[str]:
    """Every leaf of ``expected`` must be present and equal in ``actual``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or '.'}: expected an object"]
        fails = []
        for key, value in expected.items():
            if key not in actual:
                fails.append(f"{path}{key}: missing")
            else:
                fails.extend(diff_expected(value, actual[key], f"{path}{key}."))
        return fails
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path[:-1]}: expected {expected!r}, got {actual!r}"]
        return [f for k, (e, a) in enumerate(zip(expected, actual))
                for f in diff_expected(e, a, f"{path[:-1]}[{k}].")]
    if expected != actual:
        return [f"{path[:-1]}: expected {expected!r}, got {actual!r}"]
    return []


def check_report(output: str, case: Case, verify: bool, expected: dict | None) -> list[str]:
    """All checks of one analysis; ``expected`` is the golden entry, if any."""
    report = json.loads(output)
    fails = check_make_up(report, case) + check_properties(report, case, verify)
    if expected is not None:
        fails += diff_expected(expected, golden_view(report))
    return fails
