"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces a function at the place where callers look it up
(``module.name``) with a wrapper that records a span around each call.
The modules bind names with ``from ... import``, so a function is wrapped
once per importing module, e.g. ``double_shuffle.nullspace_int`` and
``period_poly.nullspace_int``.  Spans stay in memory until the pass ends.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``op`` the index of the benchmark
operation that caused it.  All spans of one pass share the run id.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name): every place the benchmark wraps.
WRAPPED = [
    ("cli", "dimension", "double_shuffle.dimension"),
    ("cli", "odd_rank", "odd_mzv.odd_rank"),
    ("cli", "pbw", "series.pbw"),
    ("cli", "bk_series", "series.bk_series"),
    ("series", "bk_series", "series.bk_series"),
    ("double_shuffle", "solve", "double_shuffle.solve"),
    ("double_shuffle", "membership_test", "double_shuffle.membership_test"),
    ("double_shuffle", "partial_sum_transform",
     "double_shuffle.partial_sum_transform"),
    ("double_shuffle", "nullspace_int", "exact_algebra.nullspace_int"),
    ("double_shuffle", "full_rank_certificate",
     "exact_algebra.full_rank_certificate"),
    ("period_poly", "nullspace_int", "exact_algebra.nullspace_int"),
    ("odd_mzv", "odd_matrix", "odd_mzv.odd_matrix"),
    ("odd_mzv", "depth1_action", "ihara.depth1_action"),
    ("odd_mzv", "rank_bareiss", "exact_algebra.rank_bareiss"),
    ("ihara", "compose_lifted", "ihara.compose_lifted"),
    ("ihara", "translation_lift", "words.translation_lift"),
    ("exceptional", "exceptional_elements", "exceptional.exceptional_elements"),
    ("exceptional", "basis_S", "period_poly.basis_S"),
    ("exceptional", "integral_generators", "period_poly.integral_generators"),
]

# per-layer time metric -> spans whose self time it sums
LAYER_TIMES = {
    "cli.self_s": ["cli.main"],
    "double_shuffle.assemble_s": ["double_shuffle.dimension",
                                  "double_shuffle.solve"],
    "double_shuffle.membership_s": ["double_shuffle.membership_test"],
    "double_shuffle.psum_transform_s": ["double_shuffle.partial_sum_transform"],
    "exact_algebra.nullspace_s": ["exact_algebra.nullspace_int"],
    "exact_algebra.certify_s": ["exact_algebra.full_rank_certificate"],
    "exact_algebra.rank_bareiss_s": ["exact_algebra.rank_bareiss"],
    "ihara.compose_s": ["ihara.compose_lifted"],
    "ihara.depth1_action_s": ["ihara.depth1_action"],
    "words.lift_s": ["words.translation_lift"],
    "exceptional.build_s": ["exceptional.exceptional_elements"],
    "odd_mzv.matrix_s": ["odd_mzv.odd_matrix"],
    "period_poly.s": ["period_poly.basis_S", "period_poly.integral_generators"],
    "series.s": ["series.pbw", "series.bk_series"],
}

# Counting runs after the call, inside a span of this name, so that its
# time is taken out of the self time of the layer that made the call.
COUNT_SPAN = "trace.count"


class Tracer:
    """Records spans and counters for one pass; ``uninstall`` restores
    every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self, modules: dict) -> None:
        for module_name, attr, span in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span: str):
        counter = _COUNTERS.get(span)

        def wrapper(*args, **kwargs):
            index = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                index = self.begin(COUNT_SPAN)
                counter(self.counts, args, result)
                self.end(index)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the time covered
        by direct children (spans nest, because a pass is single-threaded)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        metrics = {metric: sum(own.get(name, 0.0) for name in names)
                   for metric, names in LAYER_TIMES.items()}
        c = self.counts
        metrics["exact_algebra.rows"] = c["exact_algebra.rows"]
        metrics["exact_algebra.cols"] = c["exact_algebra.cols"]
        metrics["exact_algebra.nullity"] = c["exact_algebra.nullity"]
        metrics["exact_algebra.rows_distinct_ratio"] = _ratio(
            c["exact_algebra.rows_distinct"], c["exact_algebra.rows"])
        metrics["exact_algebra.certify_hit_ratio"] = _ratio(
            c["exact_algebra.certified"], c["exact_algebra.certify_calls"])
        for name in ("ihara.compose_calls", "ihara.compose_terms",
                     "ihara.depth1_action_calls", "words.cache_entries"):
            metrics[name] = c[name]
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(part: int, base: int) -> float:
    """part / base, and 0 when the layer was not reached (base 0)."""
    return part / base if base else 0.0


def _count_rows(counts, args) -> None:
    rows, ncols = args[0], args[1]
    counts["exact_algebra.rows"] += len(rows)
    counts["exact_algebra.cols"] += ncols
    counts["exact_algebra.rows_distinct"] += len({tuple(r) for r in rows})


def _count_nullspace(counts, args, basis) -> None:
    _count_rows(counts, args)
    counts["exact_algebra.nullity"] += len(basis)


def _count_certificate(counts, args, certified) -> None:
    _count_rows(counts, args)
    counts["exact_algebra.certify_calls"] += 1
    counts["exact_algebra.certified"] += bool(certified)


def _count_compose(counts, args, _) -> None:
    F, G = args[0], args[1]
    counts["ihara.compose_calls"] += 1
    counts["ihara.compose_terms"] += len(F.terms) * len(G.terms)


def _count_depth1(counts, args, _) -> None:
    counts["ihara.depth1_action_calls"] += 1


_COUNTERS = {
    "exact_algebra.nullspace_int": _count_nullspace,
    "exact_algebra.full_rank_certificate": _count_certificate,
    "ihara.compose_lifted": _count_compose,
    "ihara.depth1_action": _count_depth1,
}


def cache_entries(modules: dict) -> int:
    """Entries held by the program's unbounded ``lru_cache``s."""
    words, ihara = modules["words"], modules["ihara"]
    caches = (words._shuffle_words, words._stuffle_words,
              words._compose_words, ihara._difference_power)
    return sum(fn.cache_info().currsize for fn in caches)
