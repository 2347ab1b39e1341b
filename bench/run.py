#!/usr/bin/env python3
"""Benchmark of `ellisub analyze --format json` on one workload.

    python3 bench/run.py --workload golden --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload wide-group --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload long-power --seed 1 --list
    python3 bench/run.py --workload golden --negative-control

One process runs one workload as a closed loop: one client, one thread, one
analysis after another.  The inputs come from the seed, untimed.  One untimed
pass warms up; then whole passes over the inputs are timed until the given
seconds are spent.  Every analysis is checked (see checks.py) and counts as
failed when any check fails.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reference-normalised.  On a shared machine the speed of pure-Python
code drifts by up to 2x over minutes, so each timed interval is divided by
the mean time of a fixed pure-Python reference workload run right before and
right after it, and multiplied by ``REF_SECONDS``: a reported second is a
second on a machine where the reference takes ``REF_SECONDS``.  The raw wall
latencies go to ``bench/out/times-<workload>-<seed>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes, then makes one counting pass, and reports the per-layer
metrics; its spans go to ``bench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus
from checks import check_report, load_golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 11
REF_SECONDS = 0.010
REF_GENERATORS = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))  # generate S_7
SETUP_CODE = """\
import json, sys
import ellisub, ellisub.cli
from ellisub.substitution import parse_any
for source in json.load(sys.stdin):
    parse_any(source)
"""

SELF_TIMED = (
    "substitution.substitution_power", "substitution.is_aperiodic", "substitution.simplify",
    "perms.closure", "perms.normal_closure", "perms.quotient_data",
    "perms.centralizer_in_symmetric",
    "pipeline.gtwo_pairs", "pipeline.classical_height_bruteforce", "pipeline.fiber_semigroup",
    "pipeline.structural_semigroup", "pipeline.degree_map", "pipeline.heights",
    "pipeline.automorphism_data",
    "semigroups.table", "semigroups.green_structure", "semigroups.semigroup_closure",
    "rees.as_transformation_semigroup", "rees.verify_rees_isomorphism",
    "rees.rees_decomposition", "rees.presentations_isomorphic",
    "oracle.limit_maps", "oracle.compare_map_semigroups",
    "report.render_json",
)
COUNTED = (
    "substitution.columns", "substitution.is_simplified", "substitution.letter_at",
    "perms.closure", "perms.compose",
    "pipeline.r_set", "pipeline.structure_group", "pipeline.fiber_semigroup",
    "pipeline.gtwo_pairs",
    "semigroups.map_compose", "rees.verify_rees_isomorphism", "rees.multiply",
)
SIZE_UNITS = {"substitution.substitution_power.letters": "letters",
              "semigroups.table.entries": "entries"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("golden", "wide-group", "long-power"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the generated inputs with their make-up and exit")
    parser.add_argument("--negative-control", action="store_true",
                        help="check one pass against one deliberately wrong golden "
                             "expectation; exits 0 only if exactly one analysis fails")
    return parser.parse_args(argv)


class Bench:
    """The inputs of one workload, the operation on them, and the tally."""

    def __init__(self, cases, verify: bool, expected: dict):
        from ellisub import pipeline, report, substitution

        self.cases = cases
        self.verify = verify
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.last_ref = 0.0
        self.scales: list[float] = []  # normalisation factor of each attempt, in order
        config = pipeline.AnalysisConfig(verify=verify, output_format="json")

        def analyse(source: str) -> str:
            # module attributes, looked up per call, so tracing wrappers apply
            sub = substitution.parse_any(source)
            return report.render_json(pipeline.analyze_substitution(sub, config))
        self.analyse = analyse

    def reference(self) -> float:
        """Wall time of the reference workload: closing S_7 (5040 tuples)
        with the benchmark's own code, never with the program's."""
        start = perf_counter()
        corpus.group_closure(REF_GENERATORS, 7)
        self.last_ref = perf_counter() - start
        return self.last_ref

    def attempt(self, case, analyse) -> tuple[float, float] | None:
        """One checked analysis: its wall and reference-normalised latency in
        seconds, or None if it failed."""
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        before = self.last_ref or self.reference()
        gc.collect()
        start = perf_counter()
        try:
            output = analyse(case.source)
        except Exception as exc:  # a failed analysis is counted, and the run goes on
            wall, fails = None, [f"{type(exc).__name__}: {exc}"]
        else:
            wall = perf_counter() - start
            fails = None
        scale = REF_SECONDS / ((before + self.reference()) / 2)
        self.scales.append(scale)
        if fails is None:
            fails = check_report(output, case, self.verify, self.expected.get(case.name))
        if fails:
            self.failed += 1
            print(f"FAILED {case.name}: " + "; ".join(fails[:3]), file=sys.stderr)
            return None
        return wall, wall * scale

    def sweep(self, times: dict | None = None, analyse=None) -> None:
        """One pass over every input; (wall, normalised) latencies are
        appended to ``times`` by input name."""
        for case in self.cases:
            latency = self.attempt(case, analyse or self.analyse)
            if times is not None and latency is not None:
                times.setdefault(case.name, []).append(latency)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def corpus_seconds(times: dict) -> float:
    """One sweep over the corpus: each input's median normalised latency, summed."""
    return sum(statistics.median(n for _, n in t) for t in times.values())


def op_p50_ms(times: dict) -> float:
    return 1000 * statistics.median(statistics.median(n for _, n in t) for t in times.values())


def wall_summary(times: dict) -> str:
    fastest = sum(min(w for w, _ in t) for t in times.values())
    typical = statistics.median(statistics.median(w for w, _ in t) for t in times.values())
    return f"wall clock: sum of fastest {fastest:.4f} s, median latency {1000 * typical:.2f} ms"


def setup_seconds(bench: Bench) -> float:
    """Median normalised time of several fresh interpreters that import
    ellisub and the CLI and parse the workload's inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    stdin = json.dumps([case.source for case in bench.cases]).encode()
    before = bench.reference()
    starts = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], input=stdin, env=env,
                              capture_output=True, timeout=120, check=False)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
        after = bench.reference()
        starts.append(wall * REF_SECONDS / ((before + after) / 2))
        before = after
    return statistics.median(starts)


def measure(bench: Bench, seconds: float, times_file: Path) -> dict:
    setup = setup_seconds(bench)
    bench.sweep()  # warm-up
    times: dict = {}
    deadline = perf_counter() + seconds
    while True:
        bench.sweep(times)
        if perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times_file.parent.mkdir(exist_ok=True)
    times_file.write_text(json.dumps(times) + "\n", encoding="utf-8")
    metrics = {"setup_s": (setup, "s")}
    if times:
        metrics["corpus_s"] = (corpus_seconds(times), "s")
        metrics["op_p50_ms"] = (op_p50_ms(times), "ms")
        print(wall_summary(times))
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def measure_traced(bench: Bench, seconds: float, trace_file: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    traced_analyse = tracer.span("bench.analysis", bench.analyse)
    bench.sweep()  # warm-up
    plain: dict = {}
    traced: dict = {}
    passes = []
    deadline = perf_counter() + seconds
    while True:
        bench.sweep(plain)
        first = len(tracer.spans)
        bench.tracer = tracer
        tracer.install("span")
        try:
            bench.sweep(traced, traced_analyse)
        finally:
            tracer.uninstall()
            bench.tracer = None
        passes.append(tracer.self_times(first, bench.scales))
        if perf_counter() >= deadline:
            break
    tracer.install("count")
    try:
        bench.sweep()
    finally:
        tracer.uninstall()
    tracer.write_spans(trace_file)

    metrics = {f"{name}.self_s": (statistics.median(p[name] for p in passes), "s")
               for name in SELF_TIMED}
    metrics.update({f"{name}.calls": (tracer.calls[name], "count") for name in COUNTED})
    metrics.update({name: (tracer.sizes[name], unit) for name, unit in SIZE_UNITS.items()})
    if plain and traced:
        metrics["trace.corpus_s"] = (corpus_seconds(traced), "s")
        metrics["trace.overhead_s"] = (corpus_seconds(traced) - corpus_seconds(plain), "s")
    print(f"per-layer metrics over one pass: median normalised self time of "
          f"{len(passes)} traced passes, counts from one counting pass")
    if plain:
        print(f"untraced corpus_s {corpus_seconds(plain):.4f} s; " + wall_summary(plain))
    return metrics


def print_table(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{name.ljust(width)}  {shown:>14} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ellisub" / "__init__.py").is_file():
        print(f"bench: no ellisub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cases = corpus.generate(args.workload, args.seed)
    if args.list:
        for case in cases:
            print(json.dumps({"name": case.name, **case.make_up.row(),
                              "rules": case.source.strip().replace("\n", " / ")}))
        return 0
    _, verify = corpus.WORKLOADS[args.workload]
    expected = load_golden(ROOT) if args.workload == "golden" else {}

    if args.negative_control:
        if args.workload != "golden":
            print("bench: the negative control runs on the golden workload", file=sys.stderr)
            return 2
        first = sorted(expected)[0]
        expected[first]["semigroup_size"] += 1  # deliberately wrong
        bench = Bench(cases, verify, expected)
        bench.sweep()
        print(json.dumps(bench.result({})))
        return 0 if bench.failed == 1 else 1

    bench = Bench(cases, verify, expected)
    if args.trace:
        metrics = measure_traced(bench, args.seconds,
                                 OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = measure(bench, args.seconds, OUT / f"times-{args.workload}-{args.seed}.json")
    print_table(metrics)
    result = bench.result({name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
