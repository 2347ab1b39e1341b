"""Rendering of structural reports: versioned JSON ("ellis-report/1") and a
human-readable text form carrying the same facts."""

from __future__ import annotations

import json

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


def report_to_json(report: StructuralReport) -> dict:
    letters = report.alphabet.letters
    matrix = report.matrix
    # each permutation is written out once; elements() runs in (i, g, lam) order
    i_cycles = [cycle_string(label, letters) for label in matrix.i_labels]
    g_cycles = {g: cycle_string(g, letters) for g in matrix.group.elements}
    degrees = report.degree.by_perm
    degree_rows = [
        {"i": i_cycles[x.i], "g": g_cycles[x.g], "sign": SIGN_LABELS[x.lam], "degree": degrees[x.g]}
        for x in matrix.elements()
    ]
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
        "degree_table": degree_rows,
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


def render_json(report: StructuralReport) -> str:
    return json.dumps(report_to_json(report), indent=2, sort_keys=False) + "\n"


def render_text(report: StructuralReport) -> str:
    d = report_to_json(report)
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
    degrees: dict[int, int] = {}
    for row in d["degree_table"]:
        degrees[row["degree"]] = degrees.get(row["degree"], 0) + 1
    lines.append("degree distribution: " + ", ".join(
        f"{count} elements of degree {deg}" for deg, count in sorted(degrees.items())))
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
