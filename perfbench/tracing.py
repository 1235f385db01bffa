"""Per-layer tracing from outside the program, and the arithmetic on its spans.

``install`` wraps the public functions of c2n3's modules (laurent, rmpoly,
apoly, repcheck, cli) at every place they are looked up, plus the
``LaurentPoly`` operators and methods on the class.  Each call records a
span ``[name, start, end, parent, job]`` in memory; the pass hands them
over once, at its end.  The parent process turns spans into self times
(duration minus the time child spans cover) and per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (metric name, unit, better); BENCHMARK.json lists the same metrics in this order.
PER_LAYER = (
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.mul.out_terms", "count", "lower"),
    ("laurent.mul.fill", "1", "higher"),
    ("laurent.mul.max_coeff_bits", "bits", "lower"),
    ("laurent.pow.calls", "count", "lower"),
    ("laurent.pow.total_s", "s", "lower"),
    ("laurent.add.calls", "count", "lower"),
    ("laurent.add.self_s", "s", "lower"),
    ("laurent.substitute.calls", "count", "lower"),
    ("laurent.substitute.self_s", "s", "lower"),
    ("laurent.normalize_unit.self_s", "s", "lower"),
    ("laurent.coeff.calls", "count", "lower"),
    ("laurent.coeff.self_s", "s", "lower"),
    ("laurent.eval_numeric.calls", "count", "lower"),
    ("laurent.eval_numeric.self_s", "s", "lower"),
    ("laurent.render.self_s", "s", "lower"),
    ("laurent.render.bytes", "bytes", "lower"),
    ("rmpoly.rm_closed.calls", "count", "lower"),
    ("rmpoly.rm_closed.total_s", "s", "lower"),
    ("rmpoly.rm_closed.self_s", "s", "lower"),
    ("rmpoly.rm_recursive.calls", "count", "lower"),
    ("rmpoly.rm_recursive.total_s", "s", "lower"),
    ("rmpoly.rm_recursive.self_s", "s", "lower"),
    ("rmpoly.out_terms", "count", "lower"),
    ("apoly.apoly_theorem.calls", "count", "lower"),
    ("apoly.apoly_theorem.total_s", "s", "lower"),
    ("apoly.apoly_theorem.self_s", "s", "lower"),
    ("apoly.apoly_substitution.calls", "count", "lower"),
    ("apoly.apoly_substitution.total_s", "s", "lower"),
    ("apoly.apoly_substitution.self_s", "s", "lower"),
    ("apoly.newton_polygon.self_s", "s", "lower"),
    ("apoly.out_terms", "count", "lower"),
    ("repcheck.verify_family.total_s", "s", "lower"),
    ("repcheck.roots_of_rm.calls", "count", "lower"),
    ("repcheck.roots_of_rm.total_s", "s", "lower"),
    ("repcheck.roots_of_rm.self_s", "s", "lower"),
    ("repcheck.roots", "count", "higher"),
    ("repcheck.polyval_calls", "count", "lower"),
    ("repcheck.polyval_per_root", "count", "lower"),
    ("repcheck.words.calls", "count", "lower"),
    ("repcheck.words.self_s", "s", "lower"),
    ("repcheck.verify_point.calls", "count", "lower"),
    ("repcheck.verify_point.self_s", "s", "lower"),
    ("repcheck.pass_ratio", "1", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


class Tracer:
    """Span and counter store for one pass.

    The clock excludes the time the tracer spends on its own counters, so a
    span's duration holds the program's work, not the benchmark's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._excluded = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def wrap(self, name: str, fn, measure=None):
        """fn with a span named name around each call; measure(tracer, args, result) after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if measure is not None:
                began = time.perf_counter()
                measure(self, args, result)
                self._excluded += time.perf_counter() - began
            return result

        return traced


def _mul_stats(tracer, args, result):
    if result is NotImplemented:
        return
    left, right = args
    tracer.counters["laurent.mul.term_pairs"] += len(left) * (len(right) if hasattr(right, "terms") else 1)
    tracer.counters["laurent.mul.out_terms"] += len(result)
    if result:
        # terms() sorts; read the coefficient dict directly while the class keeps one
        store = getattr(result, "_terms", None)
        coeffs = store.values() if isinstance(store, dict) else [c for _, c in result.terms()]
        bits = max(max(coeffs), -min(coeffs)).bit_length()
        key = "laurent.mul.max_coeff_bits"
        tracer.counters[key] = max(tracer.counters[key], bits)


def _counting(key, size):
    def measure(tracer, args, result):
        tracer.counters[key] += size(result)
    return measure


_render_bytes = _counting("laurent.render.bytes", lambda r: len(r) if isinstance(r, str) else 0)
_rm_terms = _counting("rmpoly.out_terms", lambda r: len(r.poly))
_apoly_terms = _counting("apoly.out_terms", lambda r: len(r.poly))
_roots = _counting("repcheck.roots", len)
_passed = _counting("repcheck.verify_point.passed", lambda r: int(r.passed))


class _CountingMpmath:
    """Stands in for mpmath inside repcheck and counts its polyval calls."""

    def __init__(self, tracer, mpmath):
        self._tracer = tracer
        self._mpmath = mpmath

    def __getattr__(self, name):
        return getattr(self._mpmath, name)

    def polyval(self, *args, **kwargs):
        self._tracer.counters["repcheck.polyval_calls"] += 1
        return self._mpmath.polyval(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap c2n3's public functions wherever they are looked up; missing names are skipped."""
    import mpmath

    import c2n3
    from c2n3 import apoly, cli, laurent, repcheck, rmpoly

    functions = (
        (rmpoly, "rm_closed", "rmpoly.rm_closed", _rm_terms),
        (rmpoly, "rm_recursive", "rmpoly.rm_recursive", _rm_terms),
        (apoly, "apoly_theorem", "apoly.apoly_theorem", _apoly_terms),
        (apoly, "apoly_substitution", "apoly.apoly_substitution", _apoly_terms),
        (apoly, "newton_polygon", "apoly.newton_polygon", None),
        (repcheck, "verify_family", "repcheck.verify_family", None),
        (repcheck, "roots_of_rm", "repcheck.roots_of_rm", _roots),
        (repcheck, "relator_word", "repcheck.words", None),
        (repcheck, "build_longitude", "repcheck.words", None),
        (repcheck, "verify_point", "repcheck.verify_point", _passed),
        (cli, "main", "cli.main", None),
    )
    modules = (c2n3, laurent, rmpoly, apoly, repcheck, cli)
    for home, attr, span, measure in functions:
        original = getattr(home, attr, None)
        if original is None:
            continue
        traced = tracer.wrap(span, original, measure)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)

    methods = (
        ("__mul__", "laurent.mul", _mul_stats),
        ("__rmul__", "laurent.mul", _mul_stats),
        ("__pow__", "laurent.pow", None),
        ("__add__", "laurent.add", None),
        ("__radd__", "laurent.add", None),
        ("substitute", "laurent.substitute", None),
        ("normalize_unit", "laurent.normalize_unit", None),
        ("coeff", "laurent.coeff", None),
        ("eval_numeric", "laurent.eval_numeric", None),
        ("to_json_obj", "laurent.render", None),
        ("to_json", "laurent.render", _render_bytes),
        ("to_text", "laurent.render", _render_bytes),
        ("to_latex", "laurent.render", _render_bytes),
    )
    cls = laurent.LaurentPoly
    for attr, span, measure in methods:
        original = cls.__dict__.get(attr)
        if original is not None:
            setattr(cls, attr, tracer.wrap(span, original, measure))

    counting = _CountingMpmath(tracer, mpmath)
    for name, value in list(vars(repcheck).items()):
        if value is mpmath:
            setattr(repcheck, name, counting)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (outermost spans of that name only) and self_s."""
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    for (name, *_), own in zip(spans, self_times(spans)):
        stats[name]["self_s"] += own
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, stdout_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric but trace.overhead_ratio, from one traced pass."""
    stats = span_stats(spans)
    values: dict[str, float] = dict(counters)
    for name, entry in stats.items():
        for field, value in entry.items():
            values[f"{name}.{field}"] = value
    values["laurent.mul.fill"] = _ratio(values.get("laurent.mul.out_terms", 0),
                                        values.get("laurent.mul.term_pairs", 0))
    values["repcheck.polyval_per_root"] = _ratio(values.get("repcheck.polyval_calls", 0),
                                                 values.get("repcheck.roots", 0))
    values["repcheck.pass_ratio"] = _ratio(values.get("repcheck.verify_point.passed", 0),
                                           values.get("repcheck.verify_point.calls", 0))
    values["cli.stdout_bytes"] = stdout_bytes
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
