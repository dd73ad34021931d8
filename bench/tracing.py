"""Span tracing for the traced benchmark passes.

The tracer wraps each layer's public function at the module attribute its
caller looks it up by (``spectrum.mld_argmin_batch`` is the name
``spectrum._scan_r`` calls, ``verifiers.transfer_classify`` the name
``lift_to_fivefold`` calls, and so on), so spans are recorded from the
benchmark's own files and nothing inside mldlab changes.  The wrappers are
installed for a traced pass and removed after it; untraced passes run the
original functions.

Each span records its name, its parent span, the pass it belongs to, and
its start and end.  A layer's self time is its spans' duration minus the
time their child spans cover.  Spans stay in memory; `layer_table` reduces
one pass to per-name calls, total and self seconds.  Only work done in the
benchmark's own process is seen, so traced passes run at jobs=1.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, pass id, start, end]
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.pass_id, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_generator(self, name, fn, count=None):
        # the span runs from the first next() to exhaustion
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    if count is not None:
                        count(self.counts, args, item)
                    yield item
            finally:
                self._close(index)
        return traced

    def start_pass(self) -> None:
        self.pass_id += 1
        self.counts = Counter()

    def layer_table(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} for the current pass."""
        child_time: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[2] == self.pass_id]
        for _, (_, parent, _, start, end) in mine:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, _, _, start, end) in mine:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table


def _count_batch(prefix):
    def count(counts, args, result):
        r, rows = args[0], len(args[1])
        counts["quotient.batch_rows"] += rows
        counts["quotient.batch_row_k"] += rows * max(r - 1, 0)
        counts[prefix + ".batch_rows"] += rows
    return count


def _count_mld(counts, args, result):
    counts["quotient.mld_k"] += max(args[0].r - 1, 0)


def _count_record(counts, args, record):
    counts["spectrum.records"] += 1


def _count_boxes(counts, args, region):
    counts["regions.boxes_out"] += len(region.boxes)


def _count_n0(counts, args, part):
    counts["hyperquot.n0_weights"] += len(part.psi1) + len(part.psi2) + len(part.rest)


# (module, attribute its caller looks up, span name, generator?, counter)
PATCH_POINTS = (
    ("cli", "main", "cli.main", False, None),
    ("spectrum", "scan", "spectrum.scan", True, _count_record),
    ("spectrum", "mld_argmin_batch", "quotient.batch", False, _count_batch("spectrum")),
    ("spectrum", "canonical_weights", "spectrum.canonical", False, None),
    ("spectrum", "record_to_json", "spectrum.emit", False, None),
    ("verifiers", "mld_argmin_batch", "quotient.batch", False, _count_batch("verifiers")),
    ("quotient", "mld", "quotient.mld", False, _count_mld),
    ("verifiers", "mld", "quotient.mld", False, _count_mld),
    ("verifiers", "transfer_classify", "verifiers.classify", False, None),
    ("verifiers", "lift_to_fivefold", "verifiers.lift", False, None),
    ("verifiers", "terminal_bruteforce", "verifiers.terminal", False, None),
    ("verifiers", "fourfold_gap_scan", "verifiers.fourfold", False, None),
    ("verifiers", "fivefold_scan", "verifiers.fivefold", False, None),
    ("verifiers", "first_fracsum_identity_failure", "qarith.identity", False, None),
    ("hyperquot", "fracsum_identity_failures", "qarith.identity", False, None),
    ("hyperquot", "psi_classify", "hyperquot.psi", False, _count_n0),
    ("regions", "constraint_refine", "regions.refine", False, _count_boxes),
)


class installed:
    """Context manager: the PATCH_POINTS wrappers are in place inside it."""

    def __init__(self, tracer: Tracer, mods):
        self.tracer = tracer
        self.mods = mods
        self.saved = []

    def __enter__(self):
        for module_name, attr, span, generator, count in PATCH_POINTS:
            module = getattr(self.mods, module_name)
            original = getattr(module, attr)
            wrap = self.tracer.wrap_generator if generator else self.tracer.wrap
            self.saved.append((module, attr, original))
            setattr(module, attr, wrap(span, original, count))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def layer_metrics(table: dict, counts: Counter, items: int, bytes_out: int) -> dict:
    """The per-layer metrics of one traced pass, except pool.efficiency.

    Times of leaf layers are span totals; verifiers.*_s, spectrum.self_s,
    cli.self_s and verifiers.lift_self_s are self times (children excluded).
    A layer the workload never reaches reads 0.
    """
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    scan_rows = counts["spectrum.batch_rows"]
    return {
        "quotient.batch_calls": calls("quotient.batch"),
        "quotient.batch_rows": counts["quotient.batch_rows"],
        "quotient.batch_row_k": counts["quotient.batch_row_k"],
        "quotient.batch_s": total("quotient.batch"),
        "quotient.mld_calls": calls("quotient.mld"),
        "quotient.mld_k": counts["quotient.mld_k"],
        "quotient.mld_s": total("quotient.mld"),
        "spectrum.scan_s": total("spectrum.scan"),
        "spectrum.self_s": own("spectrum.scan"),
        "spectrum.canonical_calls": calls("spectrum.canonical"),
        "spectrum.canonical_s": total("spectrum.canonical"),
        "spectrum.records": counts["spectrum.records"],
        "spectrum.keep_ratio": counts["spectrum.records"] / scan_rows if scan_rows else 0.0,
        "spectrum.emit_s": total("spectrum.emit"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_out": bytes_out,
        "verifiers.classify_calls": calls("verifiers.classify"),
        "verifiers.classify_per_item": calls("verifiers.classify") / items if items else 0.0,
        "verifiers.classify_s": total("verifiers.classify"),
        "verifiers.lift_self_s": own("verifiers.lift"),
        "verifiers.terminal_s": own("verifiers.terminal"),
        "verifiers.fourfold_s": own("verifiers.fourfold"),
        "verifiers.fivefold_s": own("verifiers.fivefold"),
        "regions.refine_calls": calls("regions.refine"),
        "regions.boxes_out": counts["regions.boxes_out"],
        "regions.refine_s": total("regions.refine"),
        "hyperquot.n0_weights": counts["hyperquot.n0_weights"],
        "hyperquot.psi_s": total("hyperquot.psi"),
        "qarith.identity_calls": calls("qarith.identity"),
        "qarith.identity_s": total("qarith.identity"),
    }
