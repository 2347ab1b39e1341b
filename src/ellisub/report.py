"""Rendering of structural reports: versioned JSON ("ellis-report/2") and a
human-readable text form carrying the same facts.

:func:`render_json` writes the fixed ``ellis-report/2`` layout straight
from the report, key by key, in the bytes of ``json.dumps(..., indent=2)``,
without calling ``json``'s encoder: on CPython before 3.14 any ``indent``
turns off the C encoder, and the Python one walks the value one generator
step per token, a quarter to a half of the time of the analysis of a small
input.  A few helpers write the shapes that repeat, each at a given depth:
a list of strs (:func:`_strs`), a list or dict of values already written
(:func:`_list`, :func:`_dict`), a group payload (:func:`_group`) and the
shape of one Green relation (:func:`_green_shape`).  Each list or dict is
one ``str.join``, and strings are escaped by the C
``encode_basestring_ascii`` that ``json`` uses.  :func:`report_to_json`
parses that text, so one function knows the layout; :func:`render_text`
reads the report itself.

The degree table has one row per triple (i, g, sign), |S| = 2|I||G| of
them, while the degree depends on g alone, so :func:`_degree_table` joins
its rows from one template per element of G, and :func:`render_json`
splices the pieces in at the table's key.  Only the JSON paths write the
table and the analysed rules, which the text report does not print.

The report holds the input theta and the exponent n, as every stage does,
and no stage writes a word of the analysed power tau = theta^n.
:func:`render_json` is the one writer of tau
(:func:`ellisub.substitution.substitution_power`), because the
``substitution`` field of ``ellis-report/2`` prints tau's rules, l^n
letters each.  Over ``LETTER_LIMIT`` letters it refuses with the stage
``render_json``, after the analysis has run; the text report, which prints
only l and l^n, reads no power and has no such cap.

Every permutation is written in cycle notation once per render
(:class:`_CycleStrings`): an element of the R-set appears in g0, ``r_set``,
the group generators, the sandwich matrix and the table.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii as encode

from .errors import ResourceLimitError
from .perms import Perm, PermGroup, cycle_string
from .pipeline import StructuralReport
from .rees import SIGN_LABELS
from .substitution import substitution_power, substitution_to_json

SCHEMA_VERSION = "ellis-report/2"


class _CycleStrings(dict):
    """The cycle notation of each permutation, written on first use."""

    def __init__(self, letters: tuple[str, ...]):
        super().__init__()
        self.letters = letters

    def __missing__(self, perm: Perm) -> str:
        text = self[perm] = cycle_string(perm, self.letters)
        return text


_LINE = tuple("\n" + "  " * depth for depth in range(5))  # line break and indent per depth


def _list(items, depth: int) -> str:
    """``json.dumps(value, indent=2)`` of a list at ``depth``, from its items
    already written."""
    inner = _LINE[depth + 1]
    body = ("," + inner).join(items)
    return f"[{inner}{body}{_LINE[depth]}]" if body else "[]"


def _strs(items, depth: int) -> str:
    """``json.dumps(value, indent=2)`` of a list of strs at ``depth``."""
    return _list(map(encode, items), depth)


def _dict(values: dict[str, str], depth: int) -> str:
    """``json.dumps(value, indent=2)`` of a dict at ``depth``, from its values
    already written."""
    inner = _LINE[depth + 1]
    body = ("," + inner).join([f"{encode(key)}: {value}" for key, value in values.items()])
    return f"{{{inner}{body}{_LINE[depth]}}}" if body else "{}"


def _truth(value: bool) -> str:
    return "true" if value else "false"


def _group(group: PermGroup, cycles: _CycleStrings, depth: int) -> str:
    """The payload of a group: its fingerprint, name and generators."""
    fp = group.fingerprint
    name = fp.name
    line = _LINE[depth + 1]
    return (f'{{{line}"order": {fp.order},{line}"abelian": {_truth(fp.abelian)},'
            f'{line}"exponent": {fp.exponent},'
            f'{line}"element_orders": '
            f'{_dict({str(k): str(v) for k, v in fp.element_orders}, depth + 1)},'
            f'{line}"name": {"null" if name is None else encode(name)},'
            f'{line}"generators": {_strs([cycles[g] for g in group.generators], depth + 1)}'
            f'{_LINE[depth]}}}')


def _green_shape(shape: dict, depth: int) -> str:
    """One relation of :meth:`ellisub.rees.ReesMatrixSemigroup.green_summary`:
    its class count and the count of each class size."""
    line = _LINE[depth + 1]
    sizes = {size: str(count) for size, count in shape["sizes"].items()}
    return (f'{{{line}"count": {shape["count"]},'
            f'{line}"sizes": {_dict(sizes, depth + 1)}{_LINE[depth]}}}')


def _degree_table(report: StructuralReport, cycles: _CycleStrings) -> list[str]:
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
    pieces = ["[\n    "]
    for label in matrix.i_labels:
        head = '{\n      "i": ' + encode(cycles[label])
        # joining the tails with the separator and the head puts the head on every row
        pieces += [head, (row_sep + head).join(tails), row_sep]
    pieces[-1] = "\n  ]"
    return pieces


def render_json(report: StructuralReport) -> str:
    """``report`` as ``ellis-report/2``, in the layout of
    ``json.dumps(..., indent=2)``, ending in a line break."""
    try:
        power = substitution_power(report.substitution, report.exponent)
    except ResourceLimitError as exc:
        exc.stage = "render_json"
        raise
    cycles = _CycleStrings(report.alphabet.letters)
    matrix = report.matrix
    sub = substitution_to_json(power)
    rules = {letter: encode(word) for letter, word in sub["rules"].items()}
    r_set = [f'{{\n      "cycles": {encode(cycles[g])},\n      "images": {_list(map(str, g), 3)}'
             f'\n    }}' for g in report.rset]
    sandwich = [_strs([cycles[entry] for entry in row], 2) for row in matrix.sandwich]
    green = matrix.green_summary()
    head = (
        f'{{\n  "schema": {encode(SCHEMA_VERSION)},'
        f'\n  "substitution": {{\n    "alphabet": {_strs(sub["alphabet"], 2)},'
        f'\n    "rules": {_dict(rules, 2)}\n  }},'
        f'\n  "analyzed_power": {report.exponent},'
        f'\n  "original_length": {report.substitution.length},'
        f'\n  "length": {power.length},'
        f'\n  "alphabet_size": {power.size},'
        f'\n  "g0": {{\n    "index": {report.g0_index},'
        f'\n    "cycles": {encode(cycles[report.rset[report.g0_index]])}\n  }},'
        f'\n  "r_set": {_list(r_set, 1)},'
        f'\n  "structure_group": {_group(report.structure_group, cycles, 1)},'
        f'\n  "little_group": {_group(report.little_group, cycles, 1)},'
        f'\n  "normal_completion": {_group(report.normal_completion, cycles, 1)},'
        f'\n  "height": {report.height},'
        f'\n  "classical_height": {report.classical_height},'
        f'\n  "r_pi": {report.r_pi},'
        f'\n  "fiber_size": {report.fiber.size},'
        f'\n  "fiber": {_strs(report.fiber.labels(report.alphabet), 1)},'
        f'\n  "sandwich_matrix": {_list(sandwich, 1)},'
        f'\n  "semigroup_size": {2 * len(report.rset) * report.structure_group.order},'
        f'\n  "green": {{\n    "l_classes": {_green_shape(green["l_classes"], 2)},'
        f'\n    "r_classes": {_green_shape(green["r_classes"], 2)},'
        f'\n    "h_classes": {_green_shape(green["h_classes"], 2)},'
        f'\n    "d_classes": {_green_shape(green["d_classes"], 2)},'
        f'\n    "idempotents": {green["idempotents"]},'
        f'\n    "kernel_size": {green["kernel_size"]}\n  }},'
        f'\n  "degree_table": ')
    witness = report.order_h_witness
    evidence = report.aperiodicity.period_evidence
    oracle = "null"
    if report.oracle is not None:
        comparison = report.oracle
        oracle = (f'{{\n    "equal": {_truth(comparison.equal)},'
                  f'\n    "map_count": {comparison.map_count},'
                  f'\n    "discrepancies": {_strs(comparison.discrepancies, 2)}\n  }}')
    tail = (
        f',\n  "aut_fib": {_group(report.aut.fiber_group, cycles, 1)},'
        f'\n  "virtual_aut": {encode(report.aut.virtual)},'
        f'\n  "semi_regular": {_truth(report.aut.semi_regular)},'
        f'\n  "order_h_witness": {"null" if witness is None else encode(cycles[witness])},'
        f'\n  "global_strings": '
        f'{_dict({k: encode(v) for k, v in sorted(report.global_strings.items())}, 1)},'
        f'\n  "unresolved_extension": {_truth(report.unresolved_extension)},'
        f'\n  "aperiodicity": {{\n    "kind": {encode(report.aperiodicity.kind)},'
        f'\n    "period_evidence": {"null" if evidence is None else evidence}\n  }},'
        f'\n  "oracle": {oracle}\n}}\n')
    return "".join([head, *_degree_table(report, cycles), tail])


def report_to_json(report: StructuralReport) -> dict:
    """The report as a dict: :func:`render_json`, parsed."""
    return json.loads(render_json(report))


def render_text(report: StructuralReport) -> str:
    cycles = _CycleStrings(report.alphabet.letters)
    matrix = report.matrix
    green = matrix.green_summary()
    letters = "".join(report.alphabet.letters)

    def describe(group, label):
        fp = group.fingerprint
        return f"{label}: order {fp.order} ({fp.name or 'unrecognized'})"

    lines = [
        f"substitution over {{{letters}}}, analyzed power: {report.exponent} "
        f"(length {report.substitution.length} -> "
        f"{report.substitution.length ** report.exponent})",
        f"normalization g0 = {cycles[report.rset[report.g0_index]]} "
        f"(R-set index {report.g0_index})",
        "",
        "R-set: " + ", ".join(cycles[g] for g in report.rset),
        describe(report.structure_group, "structure group"),
        describe(report.little_group, "little structure group"),
        describe(report.normal_completion, "normal completion"),
        f"generalized height: {report.height}    classical height: {report.classical_height}",
        f"minimal fiber rank: {report.r_pi}    singular fiber size: {report.fiber.size}",
        "fiber two-words: " + ", ".join(report.fiber.labels(report.alphabet)),
        "",
        "sandwich matrix (rows +,-):",
    ]
    for sign, row in zip(SIGN_LABELS, matrix.sandwich):
        lines.append(f"  {sign}: [" + ", ".join(cycles[entry] for entry in row) + "]")
    lines.append(f"structural semigroup: {2 * len(report.rset) * report.structure_group.order} "
                 f"elements, {green['idempotents']} idempotents")
    for label, relation in (("minimal left ideals", "l_classes"),
                            ("minimal right ideals", "r_classes"), ("H-classes", "h_classes")):
        shape = green[relation]
        lines.append(f"  {label}: {shape['count']} of sizes {shape['sizes']}")
    # (i, g, sign) has the degree of g, for each of the |I||Lambda| pairs (i, sign)
    per_g = len(matrix.i_labels) * len(matrix.lam_labels)
    degrees = Counter(report.degree.by_perm.values())
    lines.append("degree distribution: " + ", ".join(
        f"{per_g * count} elements of degree {deg}" for deg, count in sorted(degrees.items())))
    aut = report.aut
    lines += ["", describe(aut.fiber_group, "fiber-preserving automorphisms"),
              f"automorphism group: {aut.fiber_group.fingerprint.name or 'C'} x Z",
              f"virtual automorphism group: {aut.virtual} "
              f"(semi-regular: {_truth(aut.semi_regular)})"]
    if report.order_h_witness is not None:
        lines.append(f"order-h witness: {cycles[report.order_h_witness]}")
    lines += ["", "global structure:"]
    lines += [f"  {key}: {value}" for key, value in sorted(report.global_strings.items())]
    if report.unresolved_extension:
        lines.append("  note: generalized height exceeds classical height; "
                     "the defining extension is not known to split")
    lines.append(f"aperiodicity: {report.aperiodicity.kind}")
    if report.oracle is not None:
        verdict = "agrees with" if report.oracle.equal else "DISAGREES with"
        lines.append(f"window oracle: {report.oracle.map_count} stabilized maps, {verdict} "
                     "the algebraic semigroup")
        lines += [f"  discrepancy: {item}" for item in report.oracle.discrepancies]
    return "\n".join(lines) + "\n"
