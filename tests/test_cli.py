import json
import subprocess
import sys

import pytest

from ellisub.cli import main
from ellisub.golden import (CASES, CASE_ORDER, load_expectations, run_case,
                            run_golden, snapshot)

THUE_MORSE = CASES["thue_morse"]
GUARD_TRIPPER = "a -> baab\nb -> cbbc\nc -> accd\nd -> ddda\n"


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
    assert out.strip() == "ellisub 1.0.0"


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
    assert data["schema"] == "ellis-report/1"
    assert data["height"] == 1
    assert data["structure_group"]["order"] == 2
    assert data["sandwich_matrix"] == [["()", "()"], ["()", "(a b)"]]
    assert data["oracle"]["equal"] is True


def test_json_report_validates_against_bundled_schema(tm_file):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    schema = json.loads(resources.files("ellisub").joinpath("data/report_schema.json").read_text())
    _, out, _ = run_cli(["analyze", tm_file, "--verify", "--format", "json"])
    jsonschema.validate(json.loads(out), schema)
    # also without the optional oracle section
    _, out, _ = run_cli(["analyze", tm_file, "--format", "json"])
    jsonschema.validate(json.loads(out), schema)


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
    path.write_text("a -> aba\nb -> bab\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "validation"
    assert payload["error"]["verdict"]["kind"] == "periodic"
    assert payload["error"]["verdict"]["period_evidence"] == 2


def test_non_bijective_exits_1(tmp_path):
    path = tmp_path / "bad.sub"
    path.write_text("a -> ab\nb -> ab\n")
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 1
    assert "not bijective" in json.loads(err)["error"]["message"]


def test_parse_error_exits_1_with_position():
    code, _, err = run_cli(["analyze", "-"], stdin="a -> ab\nb => ba\n")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["line"] == 2


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


def test_low_aperiodicity_bound_exits_1(tm_file):
    code, _, err = run_cli(["analyze", tm_file, "--aperiodicity-bound", "3"])
    assert code == 1
    assert json.loads(err)["error"]["verdict"]["kind"] == "inconclusive"


def test_resource_guard_exits_3(tmp_path):
    # junction cycles of order 12 push the simplification power past the cap
    path = tmp_path / "huge.sub"
    path.write_text(GUARD_TRIPPER)
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["kind"] == "resource-limit"


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


@pytest.mark.slow
def test_power_six_input_gets_a_report(tmp_path):
    # simplified at power 6, rule words of 117649 letters
    path = tmp_path / "power_six.sub"
    path.write_text("a -> ccaaacc\nb -> bacbbaa\nc -> abbccbb\n")
    code, out, err = run_cli(["analyze", "--format", "json", str(path)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["analyzed_power"] == 6
    assert payload["length"] == 117649
    assert payload["semigroup_size"] == 72
