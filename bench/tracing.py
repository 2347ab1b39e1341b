"""Spans and counters around the public functions of each ``ellisub`` module.

The program is not changed: ``Tracer.install`` rebinds every module attribute
that names a public function of a layer module to a wrapper, and
``Tracer.uninstall`` puts the originals back.  Calls between functions of the
program go through module attributes, so they pass through the wrappers too.

Two modes.  ``span`` records (name, start, end, parent) for every public
function except those in ``UNSPANNED``, whose time stays in their caller's
self time.  ``count`` counts the calls of every public function,
kernels included, and the sizes in ``SIZES``, without reading the clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("substitution", "perms", "pipeline", "semigroups", "rees", "oracle", "report")

# Not spanned, so their time stays in their caller's self time.  The kernels
# are called up to about a million times per analysis, and a span on each
# would add more time than the work it measures.  The first three are the
# inner steps of a single caller (substitution_power, is_aperiodic and
# limit_maps), whose self time should show the whole cost of that step.
UNSPANNED = frozenset({
    "substitution.compose_substitutions", "substitution.word_complexity",
    "oracle.induced_fiber_map",
    "perms.compose", "perms.inverse", "perms.identity", "perms.is_perm",
    "perms.element_order", "perms.cycles", "perms.cycle_string",
    "semigroups.map_compose", "semigroups.is_idempotent_map",
    "rees.multiply", "rees.normal_inverse",
    "substitution.letter_at", "substitution.junction_map",
})

TABLE = "semigroups.table"  # building a TransformationSemigroup (and its Cayley table)


# size name -> (traced name, size of one call from its result or built object)
SIZES = {
    "substitution.substitution_power.letters":
        ("substitution.substitution_power", lambda sub: sub.size * sub.length),
    "semigroups.table.entries":
        (TABLE, lambda sg: sg.size * sg.size if sg.table is not None else 0),
}


def public_functions():
    """(traced name, function) for every public function of each layer."""
    for layer in LAYERS:
        module = importlib.import_module(f"ellisub.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self.current = -1
        self.op = 0
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self, mode: str) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from ellisub.semigroups import TransformationSemigroup

        modules = [m for name, m in sys.modules.items()
                   if name == "ellisub" or name.startswith("ellisub.")]
        for traced, fn in public_functions():
            if mode == "span" and traced in UNSPANNED:
                continue
            wrapper = self._wrap(traced, fn, mode)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        init = TransformationSemigroup.__init__
        self._rebind(TransformationSemigroup, "__init__", self._wrap(TABLE, init, mode))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _rebind(self, target, attr: str, value) -> None:
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def span(self, name: str, fn):
        """``fn`` with a span of the given name around each call."""
        return self._wrap(name, fn, "span")

    def _wrap(self, traced: str, fn, mode: str):
        if mode == "span":
            spans = self.spans

            def wrapped(*args, **kwargs):
                record = [traced, 0, 0, self.current, self.op]
                self.current = len(spans)
                spans.append(record)
                record[1] = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter_ns()
                    self.current = record[3]
            return functools.wraps(fn)(wrapped)

        calls = self.calls
        sized = [(size, measure) for size, (name, measure) in SIZES.items() if name == traced]
        if not sized:
            def wrapped(*args, **kwargs):
                calls[traced] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(wrapped)

        [(size, measure)] = sized
        sizes = self.sizes
        is_init = traced == TABLE

        def wrapped_sized(*args, **kwargs):
            calls[traced] += 1
            result = fn(*args, **kwargs)
            sizes[size] += measure(args[0] if is_init else result)
            return result
        return functools.wraps(fn)(wrapped_sized)

    # -- reading ----------------------------------------------------------

    def self_times(self, first: int, scales: list[float]) -> Counter[str]:
        """Self time per traced name over spans[first:]: each span's duration
        minus the durations of its child spans, in seconds, multiplied by
        ``scales[op]`` of the analysis it belongs to."""
        own = {}
        for k in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[k]
            own[k] = own.get(k, 0) + end - start
            if parent >= first:
                own[parent] = own.get(parent, 0) - (end - start)
        total: Counter[str] = Counter()
        for k, ns in own.items():
            total[self.spans[k][0]] += ns / 1e9 * scales[self.spans[k][4]]
        return total

    def write_spans(self, path) -> None:
        """All recorded spans as JSON lines; ``op`` numbers the analysis."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"op": op, "id": k, "parent": parent if parent >= 0 else None,
                                      "name": name, "start_ns": start, "end_ns": end}) + "\n")
