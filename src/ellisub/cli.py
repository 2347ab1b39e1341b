"""Command-line front end: analyze one substitution, or run the golden suite.

Exit codes: 0 success, 1 usage error or input rejected (parse error,
non-bijective, non-primitive, periodic), 2 internal cross-check failure,
3 resource guard.  Errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (EllisubError, InternalCheckError, ParseError,
                     ResourceLimitError, ValidationError)
from .golden import CASE_ORDER, load_expectations, run_golden
from .pipeline import AnalysisConfig, analyze_substitution
from .report import render_json, render_text
from .substitution import parse_any


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so that :func:`main` reports it as JSON."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc.reason} at byte {exc.start}") from None


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"kind": kind, "message": str(exc)}}
    verdict = getattr(exc, "verdict", None)
    if verdict is not None:
        payload["error"]["verdict"] = {"kind": verdict.kind,
                                       "period_evidence": verdict.period_evidence}
    if isinstance(exc, ParseError):
        payload["error"]["line"] = exc.line
        payload["error"]["column"] = exc.column
    if isinstance(exc, InternalCheckError) and exc.law is not None:
        payload["error"]["law"] = exc.law
        payload["error"]["witness"] = exc.witness
    if getattr(exc, "stage", None) is not None:
        payload["error"]["stage"] = exc.stage
    print(json.dumps(payload), file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = AnalysisConfig(g0_index=args.g0, verify=args.verify, output_format=args.format)
    sub = parse_any(_read_source(args.path))
    report = analyze_substitution(sub, config)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    results = run_golden(load_expectations())
    width = max(len(name) for name in CASE_ORDER)
    failures = 0
    for result in results:
        tag = "PASS" if result.ok else "FAIL"
        print(f"{tag}  {result.name.ljust(width)}")
        for diff in result.diffs:
            print(f"      {diff}")
        failures += 0 if result.ok else 1
    print(f"{len(results) - failures}/{len(results)} golden cases passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellisub",
        description="Structural semigroup, heights and automorphism data of "
                    "bijective constant-length substitutions.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="analyze one substitution file ('-' for stdin)")
    analyze.add_argument("path", help="rule file, or '-' to read stdin")
    analyze.add_argument("--verify", action="store_true",
                         help="also run the finite-window oracle and cross-check")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--g0", type=int, default=None, metavar="INDEX",
                         help="normalize at this R-set index instead of the canonical first")
    analyze.set_defaults(func=_cmd_analyze)

    golden = commands.add_parser("golden", help="run the bundled reference suite")
    golden.set_defaults(func=_cmd_golden)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit_error("usage", exc)
        return 1
    except (ParseError, ValidationError) as exc:
        _emit_error("validation", exc)
        return 1
    except ResourceLimitError as exc:
        _emit_error("resource-limit", exc)
        return 3
    except InternalCheckError as exc:
        _emit_error("internal-check", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 1
    except EllisubError as exc:  # any stragglers are internal
        _emit_error("internal-check", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
