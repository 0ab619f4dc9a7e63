"""Small shared pieces: where the program is, the per-workload outcome,
and order statistics."""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: The program under test: ``src/`` of the checkout holding perfbench.
SRC = Path(__file__).resolve().parent.parent / "src"


def program_env() -> Dict[str, str]:
    """The environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end metrics by name (the untraced figures).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics by name (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Raw samples behind the medians, by name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Context recorded with the numbers (counters, digests, sizes).
    info: Dict[str, object] = field(default_factory=dict)
    #: Failed output checks; empty means the outputs are correct.
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


#: Calibration-loop speed (chunks per second) of the reference host;
#: timings are reported as if measured on it.
REFERENCE_SPEED = 1200.0
#: Seconds of one host-speed sample.
CALIBRATION_S = 0.1


def host_speed(seconds: float = CALIBRATION_S) -> float:
    """The host's current speed: chunks per second of a fixed
    pure-Python loop that touches nothing of the program.

    On a shared 2-vCPU VM the speed of one vCPU drifted by 1.3-1.8x
    over minutes, and a run's wall-clock figures drifted with it.
    Sampled between the timed sections, this loop tracked that drift
    (correlation 0.78 with the pass rate of map-lowerr there); each
    timed section is scaled by the mean of the samples around it to the
    reference host.
    """
    started = time.perf_counter()
    chunks = 0
    while time.perf_counter() - started < seconds:
        total = 0
        for value in range(10_000):
            total += value * value
        chunks += 1
    return chunks / (time.perf_counter() - started)


def at_reference(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds, measured between host-speed samples
    ``before`` and ``after``, as seconds on the reference host."""
    return elapsed * (before + after) / 2.0 / REFERENCE_SPEED


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return [median(values)] * 3
    return statistics.quantiles(values, n=4)


def arc_counts(stats: Dict[str, int], pairs: int) -> Dict[str, float]:
    """Fig 10 arcs from exact ``PipelineStats`` counters, per 1000 pairs.

    Pairs that reach the full-DP fallback are the seed-map, filter and
    residual fallbacks; those it cannot place are the unmapped ones.
    """
    if not stats or not pairs:
        return {name: 0.0 for name in (
            "pipeline.light_pairs", "pipeline.dp_candidate_pairs",
            "pipeline.full_dp_pairs", "pipeline.unmapped_pairs")}
    scale = 1000.0 / pairs
    fallback = (stats["seedmap_fallback"] + stats["filter_fallback"]
                + stats["residual_fallback"])
    return {
        "pipeline.light_pairs": stats["light_mapped"] * scale,
        "pipeline.dp_candidate_pairs": stats["light_fallback"] * scale,
        "pipeline.full_dp_pairs": (fallback - stats["unmapped"]) * scale,
        "pipeline.unmapped_pairs": stats["unmapped"] * scale,
    }
