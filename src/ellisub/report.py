"""Rendering of structural reports: versioned JSON ("ellis-report/1") and a
human-readable text form carrying the same facts.

:func:`report_to_json` is the report as a dict.  :func:`render_json` returns
exactly ``json.dumps(report_to_json(report), indent=2) + "\n"``, byte for
byte, but writes the degree table as text.  The table has one row per
triple (i, g, sign), |S| = 2|I||G| of them, while the degree depends on g
alone; with an indent, CPython's ``json`` skips its C encoder and walks
every value in Python, which made rendering the largest stage of a run.  So
:func:`render_json` encodes each R-set label and each element of G once, with
the same ``ensure_ascii`` escaping as ``json.dumps``, joins the rows from one
template, and splices the table into the one ``json.dumps`` of the other
fields at the text ``"degree_table": []``.  That text can only be the key:
the report's keys are the program's own, and ``json`` escapes every ``"``
inside a string as ``\"``, so no string value holds ``"degree_table":``
with an unescaped closing quote.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii as encode

from .oracle import REPORTED_MAX_LEVEL
from .perms import PermGroup, cycle_string, group_fingerprint
from .pipeline import StructuralReport
from .rees import SIGN_LABELS
from .substitution import substitution_to_json

SCHEMA_VERSION = "ellis-report/1"


def _group_payload(group: PermGroup, letters: tuple[str, ...]) -> dict:
    fp = group_fingerprint(group)
    payload = fp.as_dict()
    payload["name"] = fp.name
    payload["generators"] = [cycle_string(g, letters) for g in group.generators]
    return payload


def _report_fields(report: StructuralReport) -> dict:
    """Every field of the report, with an empty degree table."""
    letters = report.alphabet.letters
    matrix = report.matrix
    oracle = None
    if report.oracle is not None:
        oracle = {
            "equal": report.oracle.equal,
            "max_level": REPORTED_MAX_LEVEL,
            "stabilized_levels": {str(nu): lvl for nu, lvl
                                  in sorted(report.oracle.oracle.stabilization_by_nu().items())},
            "map_count": report.oracle.map_count,
            "discrepancies": list(report.oracle.discrepancies),
        }
    aperiodicity = None
    if report.aperiodicity is not None:
        aperiodicity = {
            "kind": report.aperiodicity.kind,
            "bound": report.aperiodicity.bound,
            "period_evidence": report.aperiodicity.period_evidence,
        }
    return {
        "schema": SCHEMA_VERSION,
        "substitution": substitution_to_json(report.substitution),
        "analyzed_power": report.exponent,
        "original_length": report.original_length,
        "length": report.substitution.length,
        "alphabet_size": report.substitution.size,
        "g0": {
            "index": report.g0_index,
            "cycles": cycle_string(report.rset[report.g0_index], letters),
        },
        "r_set": [{"cycles": cycle_string(g, letters), "images": list(g)} for g in report.rset],
        "structure_group": _group_payload(report.structure_group, letters),
        "little_group": _group_payload(report.little_group, letters),
        "normal_completion": _group_payload(report.normal_completion, letters),
        "height": report.height,
        "classical_height": report.classical_height,
        "r_pi": report.r_pi,
        "fiber_size": report.fiber.size,
        "fiber": list(report.fiber.labels(report.alphabet)),
        "sandwich_matrix": [[cycle_string(entry, letters) for entry in row]
                            for row in matrix.sandwich],
        "semigroup_size": 2 * len(report.rset) * report.structure_group.order,
        "green": matrix.green_summary(),
        "degree_table": [],
        "aut_fib": _group_payload(report.aut.fiber_group, letters),
        "virtual_aut": report.aut.virtual,
        "semi_regular": report.aut.semi_regular,
        "order_h_witness": (cycle_string(report.order_h_witness, letters)
                            if report.order_h_witness is not None else None),
        "global_strings": dict(sorted(report.global_strings.items())),
        "unresolved_extension": report.unresolved_extension,
        "aperiodicity": aperiodicity,
        "oracle": oracle,
    }


def report_to_json(report: StructuralReport) -> dict:
    fields = _report_fields(report)
    letters = report.alphabet.letters
    matrix = report.matrix
    # each permutation is written out once; elements() runs in (i, g, lam) order
    i_cycles = [cycle_string(label, letters) for label in matrix.i_labels]
    g_cycles = {g: cycle_string(g, letters) for g in matrix.group.elements}
    degrees = report.degree.by_perm
    fields["degree_table"] = [
        {"i": i_cycles[x.i], "g": g_cycles[x.g], "sign": SIGN_LABELS[x.lam], "degree": degrees[x.g]}
        for x in matrix.elements()
    ]
    return fields


def _degree_table(report: StructuralReport) -> list[str]:
    """The degree table as ``json.dumps(..., indent=2)`` writes the value of a
    top-level key, rows in (i, g, sign) order, in pieces to be joined once:
    each further copy of a large table costs time and peak memory."""
    letters = report.alphabet.letters
    matrix = report.matrix
    degrees = report.degree.by_perm
    # each row is the head of its i followed by a tail per (g, sign)
    signs = [encode(sign) for sign in SIGN_LABELS]
    tails = []
    for g in matrix.group.elements:
        g_field = ',\n      "g": ' + encode(cycle_string(g, letters)) + ',\n      "sign": '
        degree_field = f',\n      "degree": {degrees[g]}\n    }}'
        tails += [g_field + sign + degree_field for sign in signs]
    row_sep = ",\n    "
    pieces = ["[\n    "]
    for label in matrix.i_labels:
        head = '{\n      "i": ' + encode(cycle_string(label, letters))
        # joining the tails with the separator and the head puts the head on every row
        pieces += [head, (row_sep + head).join(tails), row_sep]
    pieces[-1] = "\n  ]"
    return pieces


def render_json(report: StructuralReport) -> str:
    # the dump holds "degree_table": [] once, as the key: see the module docstring
    head, _, tail = json.dumps(_report_fields(report), indent=2).partition('"degree_table": []')
    return "".join([head, '"degree_table": ', *_degree_table(report), tail, "\n"])


def render_text(report: StructuralReport) -> str:
    d = _report_fields(report)
    letters = "".join(report.alphabet.letters)
    lines = []
    lines.append(f"substitution over {{{letters}}}, analyzed power: {d['analyzed_power']} "
                 f"(length {d['original_length']} -> {d['length']})")
    lines.append(f"normalization g0 = {d['g0']['cycles']} (R-set index {d['g0']['index']})")
    lines.append("")
    lines.append("R-set: " + ", ".join(entry["cycles"] for entry in d["r_set"]))

    def describe(key, label):
        g = d[key]
        name = g["name"] or "unrecognized"
        return f"{label}: order {g['order']} ({name})"

    lines.append(describe("structure_group", "structure group"))
    lines.append(describe("little_group", "little structure group"))
    lines.append(describe("normal_completion", "normal completion"))
    lines.append(f"generalized height: {d['height']}    classical height: {d['classical_height']}")
    lines.append(f"minimal fiber rank: {d['r_pi']}    singular fiber size: {d['fiber_size']}")
    lines.append("fiber two-words: " + ", ".join(d["fiber"]))
    lines.append("")
    lines.append("sandwich matrix (rows +,-):")
    for sign, row in zip(SIGN_LABELS, d["sandwich_matrix"]):
        lines.append(f"  {sign}: [" + ", ".join(row) + "]")
    green = d["green"]
    lines.append(f"structural semigroup: {d['semigroup_size']} elements, "
                 f"{green['idempotents']} idempotents")
    lines.append(f"  minimal left ideals: {green['l_classes']['count']} "
                 f"of sizes {green['l_classes']['sizes']}")
    lines.append(f"  minimal right ideals: {green['r_classes']['count']} "
                 f"of sizes {green['r_classes']['sizes']}")
    lines.append(f"  H-classes: {green['h_classes']['count']} of sizes {green['h_classes']['sizes']}")
    # (i, g, sign) has the degree of g, for each of the |I||Lambda| pairs (i, sign)
    per_g = len(report.matrix.i_labels) * len(report.matrix.lam_labels)
    degrees = Counter(report.degree.by_perm.values())
    lines.append("degree distribution: " + ", ".join(
        f"{per_g * count} elements of degree {deg}" for deg, count in sorted(degrees.items())))
    lines.append("")
    lines.append(describe("aut_fib", "fiber-preserving automorphisms"))
    lines.append(f"automorphism group: {d['aut_fib']['name'] or 'C'} x Z")
    lines.append(f"virtual automorphism group: {d['virtual_aut']} (semi-regular: "
                 f"{str(d['semi_regular']).lower()})")
    if d["order_h_witness"] is not None:
        lines.append(f"order-h witness: {d['order_h_witness']}")
    lines.append("")
    lines.append("global structure:")
    for key, value in d["global_strings"].items():
        lines.append(f"  {key}: {value}")
    if d["unresolved_extension"]:
        lines.append("  note: generalized height exceeds classical height; "
                     "the defining extension is not known to split")
    if d["aperiodicity"] is not None:
        a = d["aperiodicity"]
        lines.append(f"aperiodicity: {a['kind']} (complexity scan bound {a['bound']})")
    if d["oracle"] is not None:
        o = d["oracle"]
        verdict = "agrees with" if o["equal"] else "DISAGREES with"
        lines.append(f"window oracle: {o['map_count']} stabilized maps, {verdict} "
                     f"the algebraic semigroup (levels {o['stabilized_levels']})")
        for item in o["discrepancies"]:
            lines.append(f"  discrepancy: {item}")
    return "\n".join(lines) + "\n"
