"""Rendering of structural reports: versioned JSON ("ellis-report/1") and a
human-readable text form carrying the same facts.

:func:`report_to_json` is the report as a dict.  :func:`render_json` returns
exactly ``json.dumps(report_to_json(report), indent=2) + "\n"``, byte for
byte, without calling ``json``'s encoder.  On CPython before 3.14 any
``indent`` turns off the C encoder, and ``json`` then walks the value in
Python, one generator step per token: for a report of a few kB that walk
took a quarter to a half of the time of the analysis.  So :func:`_write`
writes the ``indent=2`` layout itself for the only value types a report
holds (dict with str keys, list, str, int, bool, None), encoding strings
with the C ``encode_basestring_ascii`` that ``json`` uses and ints with
``int.__repr__``, and raises ``TypeError`` on any other type rather than
diverge from ``json``.

The degree table has one row per triple (i, g, sign), |S| = 2|I||G| of
them, while the degree depends on g alone, so :func:`_degree_table` joins
its rows from one template per element of G and the writer splices the
pieces in at the table's key.  Under ``--verify`` the oracle's
``stabilized_levels`` has 2(L-1) entries, all 1, and
:func:`_levels_written` writes them in one join without building their
dict.  Every permutation is written in cycle notation once per render
(:class:`_CycleStrings`): an element of the R-set appears in g0, ``r_set``,
the group generators, the sandwich matrix and the table.
"""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii as encode
from typing import Callable

from .oracle import LIMIT_LEVEL, REPORTED_MAX_LEVEL, OracleResult
from .perms import Perm, PermGroup, cycle_string, group_fingerprint
from .pipeline import StructuralReport
from .rees import SIGN_LABELS
from .substitution import substitution_to_json

SCHEMA_VERSION = "ellis-report/1"


class _CycleStrings(dict):
    """The cycle notation of each permutation, written on first use."""

    def __init__(self, letters: tuple[str, ...]):
        super().__init__()
        self.letters = letters

    def __missing__(self, perm: Perm) -> str:
        text = self[perm] = cycle_string(perm, self.letters)
        return text


class _Written(list):
    """Pieces of JSON text already laid out as the value of the key they are
    written at, which :func:`_write` copies there."""


_CONSTANTS = {None: "null", True: "true", False: "false"}
# the writer of each scalar type, looked up by exact type: a bool is not written as an int
_SCALARS = {str: encode, int: int.__repr__, bool: _CONSTANTS.__getitem__,
            type(None): _CONSTANTS.__getitem__}


def _write(value, pieces: list[str], newline: str = "\n") -> None:
    """Append ``json.dumps(value, indent=2)`` to ``pieces``, laid out for a
    value whose line starts with ``newline`` (a line break and its indent).
    Scalar items are written in the loop over their container, not by a
    call each."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        pieces.append(scalar(value))
    elif kind is dict:
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        separator = "{"
        for key, item in value.items():
            # encode raises TypeError on a key that is not a str
            pieces += (separator, inner, encode(key), ": ")
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                _write(item, pieces, inner)
            else:
                pieces.append(scalar(item))
            separator = ","
        pieces += (newline, "}")
    elif kind is list:
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if len(kinds) == 1 and (kinds <= {str, int}):
            # a list of strs or of ints is one join in C
            pieces += ("[", inner, ("," + inner).join(map(_SCALARS[kinds.pop()], value)),
                       newline, "]")
            return
        separator = "["
        for item in value:
            pieces += (separator, inner)
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                _write(item, pieces, inner)
            else:
                pieces.append(scalar(item))
            separator = ","
        pieces += (newline, "]")
    elif kind is _Written:
        pieces += value
    else:
        raise TypeError(f"a report holds no value of type {kind.__name__}")


def _group_payload(group: PermGroup, cycles: _CycleStrings) -> dict:
    fp = group_fingerprint(group)
    payload = fp.as_dict()
    payload["name"] = fp.name
    payload["generators"] = [cycles[g] for g in group.generators]
    return payload


def _levels_dict(result: OracleResult) -> dict:
    return {str(nu): lvl for nu, lvl in sorted(result.stabilization_by_nu().items())}


def _levels_written(result: OracleResult) -> _Written:
    """``stabilized_levels``, 2(L-1) >= 2 entries that are all LIMIT_LEVEL, as
    ``json.dumps(..., indent=2)`` writes it inside the ``oracle`` field, in
    one join."""
    shifts = sorted([nu for nu, _ in result.maps])
    item = f'": {LIMIT_LEVEL}'
    return _Written(['{\n      "', (item + ',\n      "').join(map(str, shifts)), item + "\n    }"])


def _report_fields(report: StructuralReport, cycles: _CycleStrings,
                   levels: Callable[[OracleResult], object] = _levels_dict) -> dict:
    """Every field of the report, with an empty degree table; ``levels``
    writes the oracle's ``stabilized_levels``."""
    matrix = report.matrix
    oracle = None
    if report.oracle is not None:
        oracle = {
            "equal": report.oracle.equal,
            "max_level": REPORTED_MAX_LEVEL,
            "stabilized_levels": levels(report.oracle.oracle),
            "map_count": report.oracle.map_count,
            "discrepancies": list(report.oracle.discrepancies),
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
            "cycles": cycles[report.rset[report.g0_index]],
        },
        "r_set": [{"cycles": cycles[g], "images": list(g)} for g in report.rset],
        "structure_group": _group_payload(report.structure_group, cycles),
        "little_group": _group_payload(report.little_group, cycles),
        "normal_completion": _group_payload(report.normal_completion, cycles),
        "height": report.height,
        "classical_height": report.classical_height,
        "r_pi": report.r_pi,
        "fiber_size": report.fiber.size,
        "fiber": list(report.fiber.labels(report.alphabet)),
        "sandwich_matrix": [[cycles[entry] for entry in row] for row in matrix.sandwich],
        "semigroup_size": 2 * len(report.rset) * report.structure_group.order,
        "green": matrix.green_summary(),
        "degree_table": [],
        "aut_fib": _group_payload(report.aut.fiber_group, cycles),
        "virtual_aut": report.aut.virtual,
        "semi_regular": report.aut.semi_regular,
        "order_h_witness": (cycles[report.order_h_witness]
                            if report.order_h_witness is not None else None),
        "global_strings": dict(sorted(report.global_strings.items())),
        "unresolved_extension": report.unresolved_extension,
        "aperiodicity": {
            "kind": report.aperiodicity.kind,
            "bound": report.aperiodicity.bound,
            "period_evidence": report.aperiodicity.period_evidence,
        },
        "oracle": oracle,
    }


def report_to_json(report: StructuralReport) -> dict:
    cycles = _CycleStrings(report.alphabet.letters)
    fields = _report_fields(report, cycles)
    matrix = report.matrix
    # elements() runs in (i, g, lam) order
    i_cycles = [cycles[label] for label in matrix.i_labels]
    degrees = report.degree.by_perm
    fields["degree_table"] = [
        {"i": i_cycles[x.i], "g": cycles[x.g], "sign": SIGN_LABELS[x.lam], "degree": degrees[x.g]}
        for x in matrix.elements()
    ]
    return fields


def _degree_table(report: StructuralReport, cycles: _CycleStrings) -> _Written:
    """The degree table as ``json.dumps(..., indent=2)`` writes the value of a
    top-level key, rows in (i, g, sign) order, in pieces to be joined once:
    each further copy of a large table costs time and peak memory."""
    matrix = report.matrix
    degrees = report.degree.by_perm
    # each row is the head of its i followed by a tail per (g, sign), and
    # each tail the field of g followed by one of the few (sign, degree) ends
    ends = {d: [encode(sign) + f',\n      "degree": {d}\n    }}' for sign in SIGN_LABELS]
            for d in set(degrees.values())}
    tails = []
    for g in matrix.group.elements:
        g_field = ',\n      "g": ' + encode(cycles[g]) + ',\n      "sign": '
        tails += [g_field + end for end in ends[degrees[g]]]
    row_sep = ",\n    "
    pieces = _Written(["[\n    "])
    for label in matrix.i_labels:
        head = '{\n      "i": ' + encode(cycles[label])
        # joining the tails with the separator and the head puts the head on every row
        pieces += [head, (row_sep + head).join(tails), row_sep]
    pieces[-1] = "\n  ]"
    return pieces


def render_json(report: StructuralReport) -> str:
    cycles = _CycleStrings(report.alphabet.letters)
    fields = _report_fields(report, cycles, _levels_written)
    fields["degree_table"] = _degree_table(report, cycles)
    pieces: list[str] = []
    _write(fields, pieces)
    pieces.append("\n")
    return "".join(pieces)


def render_text(report: StructuralReport) -> str:
    d = _report_fields(report, _CycleStrings(report.alphabet.letters))
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
