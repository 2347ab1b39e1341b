import ast
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellisub.pipeline
from ellisub.cli import main
from ellisub.golden import (CASES, CASE_ORDER, load_expectations, run_case,
                            run_golden, snapshot)
import test_pipeline
from conftest import mutant
from pins import GUARD_TRIPPER, NON_BIJECTIVE, PERIODIC, PINS, POWER_6, ROWS, SWAPPED_FIBER

THUE_MORSE = CASES["thue_morse"]


def run_cli(args, stdin=""):
    proc = subprocess.run([sys.executable, "-m", "ellisub", *args],
                          input=stdin, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def tm_file(tmp_path):
    path = tmp_path / "thue_morse.sub"
    path.write_text(THUE_MORSE)
    return str(path)


def test_version():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out.strip() == "ellisub 4.0.0"


def test_analyze_text(tm_file):
    code, out, err = run_cli(["analyze", tm_file])
    assert code == 0, err
    assert "structure group: order 2" in out
    assert "generalized height: 1" in out
    assert "singular fiber size: 4" in out


def test_analyze_json_verify(tm_file):
    code, out, err = run_cli(["analyze", tm_file, "--verify", "--format", "json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["schema"] == "ellis-report/2"
    assert data["height"] == 1
    assert data["structure_group"]["order"] == 2
    assert data["sandwich_matrix"] == [["()", "()"], ["()", "(a b)"]]
    assert data["oracle"]["equal"] is True


def test_json_report_validates_against_bundled_schema(tm_file, golden_subs, golden_reports,
                                                      random_reports, long_power_simplified):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    from ellisub.pipeline import (AnalysisConfig, analyze_substitution, check_input,
                                  global_description)
    from ellisub.report import report_to_json
    schema = json.loads(resources.files("ellisub").joinpath("data/report_schema.json").read_text())
    _, out, _ = run_cli(["analyze", tm_file, "--verify", "--format", "json"])
    jsonschema.validate(json.loads(out), schema)
    # also without the optional oracle section
    _, out, _ = run_cli(["analyze", tm_file, "--format", "json"])
    jsonschema.validate(json.loads(out), schema)
    reports = (list(golden_reports.values()) + random_reports
               + [analyze_substitution(sub, AnalysisConfig()) for sub in golden_subs.values()]
               + [global_description(check_input(sub)) for sub in long_power_simplified])
    for report in reports:
        jsonschema.validate(report_to_json(report), schema)
    # the schema is closed: a field that ellis-report/2 removed is refused
    data = report_to_json(golden_reports["thue_morse"])
    data["oracle"]["stabilized_levels"] = {"1": 1}
    with pytest.raises(jsonschema.ValidationError, match="stabilized_levels"):
        jsonschema.validate(data, schema)


def test_text_and_json_agree_on_numbers(tm_file):
    _, text, _ = run_cli(["analyze", tm_file])
    _, raw, _ = run_cli(["analyze", tm_file, "--format", "json"])
    data = json.loads(raw)
    assert f"generalized height: {data['height']}" in text
    assert f"singular fiber size: {data['fiber_size']}" in text
    assert f"structural semigroup: {data['semigroup_size']} elements" in text


def test_analyze_stdin():
    code, out, _ = run_cli(["analyze", "-"], stdin=THUE_MORSE)
    assert code == 0
    assert "structure group" in out


# an editor may begin a file with a UTF-8 byte-order mark: the rules read as
# if it were not there, from a file and from stdin, in either form; only one
# mark is skipped
BOM_SOURCES = (THUE_MORSE, json.dumps({"alphabet": ["a", "b"],
                                       "rules": {"a": "abba", "b": "baab"}}))


@pytest.mark.parametrize("source", BOM_SOURCES, ids=["text", "json"])
def test_a_leading_byte_order_mark_is_skipped(source, tmp_path, capsys):
    expected = analyze(["--format", "json"], source)
    assert expected[0] == 0
    marked = b"\xef\xbb\xbf" + source.encode("utf-8")
    assert analyze(["--format", "json"], marked) == expected
    path = tmp_path / "marked.sub"
    path.write_bytes(marked)
    assert main(["analyze", "--format", "json", str(path)]) == 0
    assert capsys.readouterr() == (expected[1], "")
    code, out, err = analyze([], "\ufeff\ufeff" + source)
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "validation"


def test_analyze_martin_like_case(tmp_path):
    path = tmp_path / "seven.sub"
    path.write_text(CASES["s3_seven_words"])
    code, out, err = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["fiber_size"] == 7
    assert data["green"]["l_classes"] == {"count": 2, "sizes": {"18": 2}}
    assert data["green"]["r_classes"] == {"count": 3, "sizes": {"12": 3}}


def test_periodic_input_exits_1(tmp_path):
    path = tmp_path / "periodic.sub"
    path.write_text(PERIODIC)
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "validation"
    assert payload["error"]["verdict"] == {"kind": "periodic", "period_evidence": 2}


def test_non_bijective_exits_1(tmp_path):
    path = tmp_path / "bad.sub"
    path.write_text(NON_BIJECTIVE)
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 1
    assert "not bijective" in json.loads(err)["error"]["message"]


def test_parse_error_exits_1_with_position():
    code, _, err = run_cli(["analyze", "-"], stdin="a -> ab\nb => ba\n")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["line"] == 2


@pytest.mark.parametrize("source", [
    b"a -> ab\xff\nb -> ba\n",
    b'{"alphabet": 5, "rules": {"a": "ab", "b": "ba"}}',
    b'{"alphabet": [1, 2], "rules": {"a": "ab", "b": "ba"}}',
    b'{"alphabet": ["a", "b"], "rules": {"a": 5, "b": "ba"}}',
    b'{"alphabet": ["a", "b"], "rules": ["a", "b"]}',
    b'{"alphabet": ["a", "b"], "rules": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["not-utf8", "alphabet-number", "alphabet-numbers", "rule-number", "rules-list",
        "nested-too-deep"])
def test_malformed_input_exits_1_without_traceback(tmp_path, source):
    path = tmp_path / "malformed.sub"
    path.write_bytes(source)
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"]["kind"] == "validation"


def test_missing_file_exits_1():
    code, _, err = run_cli(["analyze", "/nonexistent/path.sub"])
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "io"


def test_g0_override_and_range(tm_file):
    code, out, _ = run_cli(["analyze", tm_file, "--g0", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["g0"]["index"] == 1
    code, _, err = run_cli(["analyze", tm_file, "--g0", "9"])
    assert code == 1
    assert "out of range" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("args, fragment", [
    (["--aperiodicity-bound", "3"], "unrecognized arguments: --aperiodicity-bound 3"),
    (["--oracle-level", "4"], "unrecognized arguments: --oracle-level 4"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--format", "yaml"], "argument --format: invalid choice"),
    (["--g0", "x"], "argument --g0: invalid int value"),
    (None, "the following arguments are required: path"),
], ids=["removed-bound", "removed-level", "unknown-flag", "bad-choice", "non-integer-g0",
        "missing-path"])
def test_usage_errors_exit_1_with_one_json_line(tm_file, args, fragment):
    code, out, err = run_cli(["analyze"] + ([tm_file, *args] if args is not None else []))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "usage"
    assert fragment in error["message"]


def test_negative_g0_is_a_validation_error(tm_file):
    code, _, err = run_cli(["analyze", tm_file, "--g0", "-1"])
    assert code == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "validation"
    assert "out of range" in error["message"]


def test_help_exits_0_and_lists_four_options():
    code, out, _ = run_cli(["analyze", "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z0-9-]+", out)) == {"--help", "--verify", "--format", "--g0"}
    assert "path" in out


def test_resource_guard_exits_3(tmp_path):
    # junction cycles of order 12 push the simplification power past the
    # letter cap, which only the JSON report meets: it prints the power's
    # rules, and render_json is the one writer of the power
    path = tmp_path / "huge.sub"
    path.write_text(GUARD_TRIPPER)
    code, _, err = run_cli(["analyze", "--format", "json", str(path)])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["kind"] == "resource-limit"
    assert payload["error"]["stage"] == "render_json"
    # the text report prints l and l^n, and writes no word of the power
    for flags in ([], ["--verify"]):
        code, out, err = run_cli(["analyze", *flags, "--format", "text", str(path)])
        assert (code, err) == (0, "")
        assert out.split("\n", 1)[0].endswith("analyzed power: 12 (length 4 -> 16777216)")
        assert ("window oracle:" in out) == bool(flags)


def test_a_capped_group_closure_names_its_stage(tmp_path, monkeypatch, capsys):
    # S_3 has 6 elements, so a cap of 5 trips in structure_group, the first
    # stage that closes a group, and the stderr JSON names it
    import ellisub.perms
    monkeypatch.setattr(ellisub.perms, "CLOSURE_CAP", 5)
    path = tmp_path / "s3.sub"
    path.write_text(CASES["s3_seven_words"])
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "kind": "resource-limit", "message": "group closure exceeded cap of 5 elements",
        "stage": "structure_group"}}
    # the walk over G trips only past the cap: a cap of 6 holds all of S_3
    monkeypatch.setattr(ellisub.perms, "CLOSURE_CAP", 6)
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _forced_check(stage, monkeypatch):
    """Break the one check of ``stage`` through what it calls; returns the
    golden case the check then fails on."""
    import ellisub.pipeline as pipeline
    from ellisub.perms import closure
    if stage == "structure_group":
        # the walk over the letters stops one letter short
        walk = pipeline._graded_walk

        def short_of_a_letter(start, steps):
            levels, period = walk(start, steps)
            if start == 0:
                levels.popitem()
            return levels, period
        monkeypatch.setattr(pipeline, "_graded_walk", short_of_a_letter)
    elif stage == "heights":
        # h = 1, and a classical height of 2 neither divides it nor L - 1 = 15
        walked = pipeline.structure_group
        monkeypatch.setattr(pipeline, "structure_group",
                            lambda rset: walked(rset)._replace(classical_height=2))
    elif stage == "degree_map (not normal)":
        # the little group of order 2, not normal in S_3: h = 3 divides L - 1
        monkeypatch.setattr(pipeline, "normal_closure", lambda little, ambient: little)
        return "s3_nonnormal_little"
    elif stage == "degree_map (two cosets)":
        # the rotations of D_4, normal of index 2 like N but holding only one
        # of the two R-set elements
        monkeypatch.setattr(pipeline, "normal_closure", lambda little, ambient: closure(
            [next(g for g in ambient.elements if ambient.orders[g] == 4)], ambient))
        return "d4_height_two"
    elif stage == "classical_height_bruteforce":
        monkeypatch.setattr(pipeline, "return_time_gcd", lambda sub, level: 0)
    elif stage == "global_description (classical height)":
        monkeypatch.setattr(pipeline, "classical_height_bruteforce", lambda checked: 5)
    else:
        # S_3 is no centralizer of S_3 on three points: its transpositions fix a point
        monkeypatch.setattr(pipeline, "centralizer_in_symmetric", lambda group: group)
    return "s3_seven_words"


@pytest.mark.parametrize("stage, message", [
    ("structure_group", "must be transitive"),
    ("heights", "height invariants violated: h=1, h_cl=2, l-1=15"),
    ("degree_map (not normal)", "R-set word lengths do not define a degree mod h"),
    ("degree_map (two cosets)", "the degree-0 elements differ from the normal completion"),
    ("classical_height_bruteforce", "must return to its first letter"),
    ("global_description (classical height)", "classical height mismatch: grading 1, brute force 5"),
    ("automorphism_data", "must be fixed-point-free")])
def test_each_pipeline_check_names_its_stage(stage, message, tmp_path, monkeypatch, capsys):
    # a failed cross-check exits 2, and the stderr JSON names the function
    # of the stage that ran it
    path = tmp_path / "case.sub"
    path.write_text(CASES[_forced_check(stage, monkeypatch)])
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "internal-check"
    assert error["stage"] == stage.split(" ")[0]
    assert message in error["message"]


def test_golden_cli_passes():
    code, out, _ = run_cli(["golden"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "6/6 golden cases passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_golden_cli_deterministic():
    _, first, _ = run_cli(["golden"])
    _, second, _ = run_cli(["golden"])
    assert first == second


def test_golden_negative_control_reports_field_diff():
    expectations = load_expectations()
    expectations["thue_morse"]["fiber_size"] = 5  # deliberately wrong
    results = run_golden(expectations)
    by_name = {r.name: r for r in results}
    assert not by_name["thue_morse"].ok
    assert any("fiber_size" in d for d in by_name["thue_morse"].diffs)
    assert sum(1 for r in results if r.ok) == 5


def test_golden_snapshots_are_current():
    expectations = load_expectations()
    assert list(expectations) == list(CASE_ORDER)
    for name in CASE_ORDER:
        assert snapshot(run_case(name)) == expectations[name]


def test_main_callable_directly(tm_file, capsys):
    assert main(["analyze", tm_file]) == 0
    assert "structure group" in capsys.readouterr().out


def test_a_broken_product_law_exits_2_naming_the_law_and_triple(tm_file, monkeypatch, capsys):
    # a sandwich entry that disagrees with the column labels the fiber action
    # is built from: the sandwich relation fails at the minus row and column
    # 1, and the stderr JSON names the law, the triple and the stage; the
    # corrupted matrix is built through the constructor, which validates it
    import ellisub.pipeline
    from ellisub.rees import ReesMatrixSemigroup
    original = ellisub.pipeline.FiberAction

    def corrupted(matrix, fiber):
        plus, minus = matrix.sandwich
        assert matrix.base == (0, 0) and minus[1] == (1, 0)
        return original(ReesMatrixSemigroup(matrix.group, matrix.i_labels, matrix.lam_labels,
                                            (plus, (minus[0], (0, 1))), matrix.base), fiber)
    monkeypatch.setattr(ellisub.pipeline, "FiberAction", corrupted)
    assert main(["analyze", tm_file, "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "internal-check"
    assert error["law"] == "sandwich relation"
    assert error["witness"] == [0, [0, 1], 0]
    assert "sandwich relation at the triple (0, (0, 1), 0)" in error["message"]
    assert error["stage"] == "fiber action"


def test_power_six_input_gets_a_report(tmp_path):
    # simplified at power 6, rule words of 117649 letters
    path = tmp_path / "power_six.sub"
    path.write_text(POWER_6)
    code, out, err = run_cli(["analyze", "--format", "json", str(path)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["analyzed_power"] == 6
    assert payload["length"] == 117649
    assert payload["semigroup_size"] == 72


def test_group_of_order_120_verifies(tmp_path):
    # power 3 (length 125), |G| = 120, |S| = 960: the structural checks run
    # from generators, and the window oracle still compares every map
    path = tmp_path / "order_120.sub"
    path.write_text("a -> abdaa\nb -> baedb\nc -> cecec\nd -> ddbbd\ne -> ecace\n")
    code, out, err = run_cli(["analyze", "--verify", "--format", "json", str(path)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["semigroup_size"] == 960
    assert payload["oracle"]["equal"] is True


def analyze(args, stdin):
    """``main(["analyze", *args, "-"])`` with ``stdin`` (text, or bytes to
    decode as UTF-8) on stdin: the exit code, stdout and stderr."""
    if isinstance(stdin, bytes):
        stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    else:
        stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", *args, "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# a child's ru_maxrss starts at the RSS of the process that forked it, so a
# timed run is the one child of a fresh Python, which prints its exit code and
# peak RSS in kB; argv: the stdin, stdout and stderr files, timeout, command
LAUNCHER = """
import resource, subprocess, sys
source, out, err, timeout, *command = sys.argv[1:]
with open(source, "rb") as i, open(out, "wb") as o, open(err, "wb") as e:
    code = subprocess.run(command, stdin=i, stdout=o, stderr=e, timeout=float(timeout)).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_pin(pin, tmp_path, command=None):
    """The exit code, the sha256 and size of stdout, stderr and the peak RSS
    in kB of ``pin``'s run: through :func:`analyze`, with no peak, if it has no
    timeout, else ``command`` (by default its analyze command) as a child."""
    if pin.timeout is None:
        code, out, err = analyze(pin.args, pin.source)
        out, peak = out.encode("utf-8"), None
    else:
        command = command or [sys.executable, "-m", "ellisub", "analyze", *pin.args, "-"]
        paths = [tmp_path / name for name in ("stdin", "stdout", "stderr")]
        paths[0].write_text(pin.source)
        launcher = subprocess.run([sys.executable, "-c", LAUNCHER, *map(str, paths),
                                   str(pin.timeout), *command], capture_output=True, text=True)
        assert launcher.returncode == 0, f"{pin.name}: {launcher.stderr}"
        code, peak = map(int, launcher.stdout.split())
        out, err = paths[1].read_bytes(), paths[2].read_text()
    return code, hashlib.sha256(out).hexdigest(), len(out), err, peak


@pytest.mark.parametrize("pin", [pytest.param(pin, id=pin.name,
                                              marks=pytest.mark.slow if pin.slow else ())
                                 for pin in PINS])
def test_each_pin_holds(pin, tmp_path):
    code, digest, size, err, peak = run_pin(pin, tmp_path)
    assert code == pin.code, f"{pin.name}: {err}"
    if pin.sha256 is None:
        assert (size, err) == (0, pin.stderr + "\n"), pin.name
    else:
        assert (digest, err) == (pin.sha256, ""), \
            f"{pin.name}: pinned {pin.sha256}, measured {digest}"
    if pin.max_bytes is not None:
        assert size + len(err.encode("utf-8")) <= pin.max_bytes, pin.name
    if pin.max_rss_kb is not None:
        assert peak <= pin.max_rss_kb, f"{pin.name}: peak RSS {peak} kB"
    if pin.rss_percent_of is not None:
        name, percent = pin.rss_percent_of
        base = run_pin(ROWS[name], tmp_path)[-1]
        assert peak * 100 <= base * percent, f"{pin.name}: peak RSS {peak} kB, {name} {base} kB"


@pytest.mark.parametrize("pin", [pin for pin in PINS if pin.stderr and pin.timeout is None],
                         ids=lambda pin: pin.name)
def test_each_refusal_keeps_its_exit_code_and_stderr_line(pin):
    # in either format, plain and with --verify; render_json alone meets the
    # letter cap, so a refusal of that stage leaves the text report
    flags = [arg for arg in pin.args if arg not in ("--verify", "--format", "json", "text")]
    for fmt in ("json", "text"):
        for verify in ([], ["--verify"]):
            code, out, err = analyze([*flags, *verify, "--format", fmt], pin.source)
            if fmt == "text" and '"stage": "render_json"' in pin.stderr:
                assert (code, err) == (0, "") and out
            else:
                assert (code, out, err) == (pin.code, "", pin.stderr + "\n"), (fmt, verify)


def test_each_input_of_the_pin_table_is_spelled_out_there_alone():
    # a copy of an input of tests/pins.py, in a test or in CI, drifts from its
    # row; it may be written with newlines or with the two characters \n
    sources = {pin.source.rstrip("\n") for pin in PINS}
    sources |= {source.replace("\n", "\\n") for source in sources}
    tests = Path(__file__).resolve().parent
    workflow = (tests.parent / ".github" / "workflows" / "tests.yml").read_text()
    copies = [source for source in sources if source in workflow]
    for path in set(tests.glob("*.py")) - {tests / "pins.py"}:
        copies += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_bytes()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and any(source in node.value for source in sources)]
    assert copies == []


# the pipeline reads its fiber once, in check_input, through
# ellisub.pipeline.allowed_two_words, which this swaps; argv: the tests
# directory, then the analyze arguments
SWAP_THE_FIBER = """
import sys, ellisub.pipeline
from ellisub.cli import main
sys.path.insert(0, sys.argv.pop(1))
from test_oracle import swapped_fiber
ellisub.pipeline.allowed_two_words = swapped_fiber
sys.exit(main(["analyze", *sys.argv[1:]]))
"""


@pytest.mark.slow
def test_a_swapped_fiber_lists_each_unnamed_map_once(tmp_path):
    pin = SWAPPED_FIBER
    code, _, size, err, _ = run_pin(pin, tmp_path,
                                    [sys.executable, "-c", SWAP_THE_FIBER,
                                     str(Path(__file__).parent), *pin.args, "-"])
    assert (code, size) == (pin.code, 0)
    assert '"stage": "window oracle"' in err
    assert len(err.encode("utf-8")) <= pin.max_bytes
    discrepancies = json.loads(err)["error"]["message"].split(": ", 1)[1].split("; ")
    assert len(set(discrepancies)) == len(discrepancies) > 1


@pytest.mark.parametrize("name", ["gate_skips_bijectivity", "gate_skips_the_periodic_refusal",
                                  "exponent_from_the_junction_cycles_alone"])
def test_a_mutant_of_the_gate_fails_a_named_test(name, monkeypatch):
    pipeline = ellisub.pipeline
    target, old, new = {
        "gate_skips_bijectivity": ("check_input", "if bad:", "if False:"),
        "gate_skips_the_periodic_refusal": (
            "check_input", 'if verdict.kind == "periodic":', "if False:"),
        # n = M: the all-letters exponent no longer raises it
        "exponent_from_the_junction_cycles_alone": (
            "simplified_exponent", "m = -(-letters_exp // cycle_lcm)", "m = 1"),
    }[name]
    monkeypatch.setattr(pipeline, target, mutant(getattr(pipeline, target), old, new))
    with pytest.raises(AssertionError):
        if name == "exponent_from_the_junction_cycles_alone":
            test_pipeline.test_the_gate_hands_on_a_simplified_power()
        else:
            test_each_refusal_keeps_its_exit_code_and_stderr_line(
                ROWS["non-bijective" if name == "gate_skips_bijectivity" else "periodic"])


def rule_text(columns):
    """The rule text of the substitution with these columns: letter a's word
    holds column j's image of a at position j."""
    letters = "abc"[:len(columns[0])]
    return "".join(f"{letters[a]} -> {''.join(letters[col[a]] for col in columns)}\n"
                   for a in range(len(letters)))


bijective_rules = st.integers(2, 3).flatmap(
    lambda s: st.lists(st.permutations(range(s)), min_size=2, max_size=4)).map(rule_text)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(st.binary(max_size=40), bijective_rules),
       st.booleans(), st.sampled_from(["text", "json"]))
def test_the_cli_refuses_or_reports_every_input_without_a_traceback(source, verify, fmt):
    """Raw bytes and rule texts with random bijective columns, half of them
    under --verify, through ``cli.main``: a report (exit 0), a refusal
    (exit 1) or a resource guard (exit 3), with at most one JSON line on
    stderr.  The rules keep s <= 3 letters and length l <= 4.  The analysed
    power n is then at most 6: the lcm of the junction cycles is at most
    lcm(2, 3) = 6 on three letters, and the all-letters exponent at most
    (s-1)^2 + 1 = 5.  So L = l^n <= 4096, and the 80 examples fit the
    tier-1 budget."""
    code, out, err = analyze(["--verify"] * verify + ["--format", fmt], source)
    assert code in (0, 1, 3), err
    assert "Traceback" not in err and err.count("\n") <= 1
    if err:
        assert set(json.loads(err)) == {"error"} and out == ""
    else:
        assert code == 0 and out
