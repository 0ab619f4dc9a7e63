"""Outside-in span tracing of the mapping layers.

The benchmark times layers without touching the program: it replaces
the public functions each layer exposes *where the caller looks them
up* (e.g. ``repro.core.pipeline.align_banded`` for DP at candidates but
``repro.mapper.mm2.align_banded`` for the full-DP fallback) with
wrappers that record a span around each call.  A span is
``(name, start, end, parent, group, counts)``: ``parent`` is the index
of the span that was open on the same thread when it started (-1 for
none), ``group`` is the traced pass it belongs to, and ``counts`` holds
the work the call did (taken from its arguments and result, so ratios
are measured where the work happens).
Spans are kept in memory and written out once, when tracing ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int, Optional[Dict[str, int]]]

# Span names, one per layer boundary.
PARSE = "io_fasta.parse"
RENDER = "sam.render"
HASH = "hashing.hash"
PROBE = "seedmap.probe"
FILTER = "pairfilter.filter"
LIGHT = "light_align.align"
BANDED = "banded.candidate"
FALLBACK = "mm2.fallback"
MINIMIZER = "mm2.minimizer"
CHAIN = "mm2.chain"
MM2_ALIGN = "mm2.align"
PIPELINE = "pipeline"
PASS = "pass"


class Tracer:
    """Collects spans and per-layer counts from wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.group = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span; returns its index (close it with :meth:`end`)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent,
                               self.group, None))
        stack.append(index)
        return index

    def end(self, index: int, counts: Optional[Dict[str, int]] = None
            ) -> None:
        now = time.perf_counter()
        self._stack().pop()
        name, start, _, parent, group, _ = self.spans[index]
        self.spans[index] = (name, start, now, parent, group, counts)

    # -- wrapping ------------------------------------------------------

    def _install(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_call(self, owner, attr: str, name: str,
                  counted: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr``; ``counted(result)`` returns
        the call's counts."""
        inner = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, None if counted is None else counted(result))
            return result

        self._install(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time every ``next()`` of the generator ``owner.attr`` returns
        (its work happens lazily, inside each step)."""
        inner = owner.__dict__[attr]
        tracer = self

        def stepped(iterator):
            try:
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        def wrapper(*args, **kwargs):
            return stepped(iter(inner(*args, **kwargs)))

        self._install(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.api import mapper as api_mapper
    from repro.core import pipeline
    from repro.core.light_align import LightAligner
    from repro.core.pipeline import GenPairPipeline
    from repro.genome.sam import AlignmentRecord
    from repro.mapper import mm2
    from repro.mapper.mm2 import Mm2LikeMapper

    def probed(results):
        return {"seedmap.locations_fetched":
                sum(result.locations_fetched for result in results)}

    def filtered(result):
        return {"pairfilter.calls": 1,
                "pairfilter.passed": int(result.passed)}

    def light(hit):
        return {"light_align.attempts": 1,
                "light_align.hits": int(hit is not None)}

    def banded(result):
        return {"banded.candidate_calls": 1,
                "banded.candidate_cells": int(result.cells)}

    def mm2_aligned(result):
        return {"mm2.dp_cells": int(result.cells)}

    def fallback(outcome):
        return {"mm2.fallback_pairs": 1}

    def rendered(line):
        return {"sam.records": 1}

    tracer.wrap_generator(api_mapper, "iter_pairs", PARSE)
    tracer.wrap_generator(GenPairPipeline, "map_stream", PIPELINE)
    tracer.wrap_call(AlignmentRecord, "to_sam_line", RENDER, rendered)
    tracer.wrap_call(pipeline, "hash_reads_batch", HASH)
    tracer.wrap_call(pipeline, "query_hash_groups", PROBE, probed)
    tracer.wrap_call(pipeline, "filter_adjacent", FILTER, filtered)
    tracer.wrap_call(LightAligner, "align", LIGHT, light)
    tracer.wrap_call(pipeline, "align_banded", BANDED, banded)
    tracer.wrap_call(Mm2LikeMapper, "map_pair", FALLBACK, fallback)
    tracer.wrap_call(mm2, "extract_minimizers", MINIMIZER)
    tracer.wrap_call(mm2, "chain_anchors", CHAIN)
    tracer.wrap_call(mm2, "align_banded", MM2_ALIGN, mm2_aligned)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds per span name, each span minus its direct children.

    Spans nest properly per thread, so the direct children of a span
    cover disjoint parts of it and their durations simply add up.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, group, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span[0]] += (span[2] - span[1]) - child_time[index]
    return dict(totals)


def inclusive_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds per span name, children included."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[0]] += span[2] - span[1]
    return dict(totals)


def span_counts(spans: List[Span]) -> Dict[str, int]:
    """The counts recorded on the spans, summed."""
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[5]:
            for name, amount in span[5].items():
                totals[name] += amount
    return dict(totals)


def layer_metrics(spans: List[Span], pairs: int) -> Dict[str, float]:
    """Per-layer metrics of a traced section that mapped ``pairs`` pairs.

    Times are self times (``mm2.fallback_s`` alone includes its
    minimizer, chaining and alignment children: it is the whole full-DP
    arc) and, like counts, are given per 1000 pairs mapped.
    """
    own = self_times(spans)
    whole = inclusive_times(spans)
    counts = defaultdict(int, span_counts(spans))
    scale = 1000.0 / pairs if pairs else 0.0
    def ratio(part: float, total: float) -> float:
        return part / total if total else 0.0

    return {
        "io_fasta.parse_s": own.get(PARSE, 0.0) * scale,
        "sam.render_s": own.get(RENDER, 0.0) * scale,
        "sam.records": counts["sam.records"] * scale,
        "hashing.hash_s": own.get(HASH, 0.0) * scale,
        "seedmap.probe_s": own.get(PROBE, 0.0) * scale,
        "seedmap.locations_fetched":
            counts["seedmap.locations_fetched"] * scale,
        "pairfilter.filter_s": own.get(FILTER, 0.0) * scale,
        "pairfilter.calls": counts["pairfilter.calls"] * scale,
        "pairfilter.pass_ratio": ratio(counts["pairfilter.passed"],
                                       counts["pairfilter.calls"]),
        "light_align.align_s": own.get(LIGHT, 0.0) * scale,
        "light_align.attempts": counts["light_align.attempts"] * scale,
        "light_align.hit_ratio": ratio(counts["light_align.hits"],
                                       counts["light_align.attempts"]),
        "banded.candidate_s": own.get(BANDED, 0.0) * scale,
        "banded.candidate_calls": counts["banded.candidate_calls"] * scale,
        "banded.candidate_cells": counts["banded.candidate_cells"] * scale,
        "banded.candidate_mcups": ratio(
            counts["banded.candidate_cells"] / 1e6, own.get(BANDED, 0.0)),
        "mm2.fallback_s": whole.get(FALLBACK, 0.0) * scale,
        "mm2.fallback_pairs": counts["mm2.fallback_pairs"] * scale,
        "mm2.minimizer_s": own.get(MINIMIZER, 0.0) * scale,
        "mm2.chain_s": own.get(CHAIN, 0.0) * scale,
        "mm2.align_s": own.get(MM2_ALIGN, 0.0) * scale,
        "mm2.dp_cells": counts["mm2.dp_cells"] * scale,
        "pipeline.self_s": own.get(PIPELINE, 0.0) * scale,
    }
