"""The offline workloads: FASTQ to SAM through the ``repro map --index``
path (``Mapper.from_index`` -> ``map_file`` -> ``write``).

A *pass* maps one paired FASTQ shard of the world to a SAM file; passes
cycle through the shards until the run's time is spent, and every shard
is mapped, shard 0 at least twice.  Set-up (index open, ``warm_up()``
and one warm-up map whose input ends in a random pair that always
reaches the full-DP fallback) is timed on its own, several times, and
never inside a pass.  Every pass of a shard must write the same SAM
bytes and the same exact counters.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import checks
import serving
import spans
from common import Outcome, arc_counts, at_reference, host_speed, median
from world import shard_fastqs

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Most traced passes a traced run makes (spans are kept in memory).
MAX_TRACED_PASSES = 2
#: Closed-loop seconds against a daemon, for the ``serve.*`` metrics.
DAEMON_SECONDS = 8.0


def _speed(outcome: Outcome) -> float:
    """Sample the host's speed, keeping the sample with the run's."""
    speed = host_speed()
    outcome.samples.setdefault("host_speed", []).append(speed)
    return speed


def _stats(mapper) -> Dict[str, int]:
    return dataclasses.asdict(mapper.last_stats)


def set_up(world: Path, workdir: Path, outcome: Outcome):
    """Time SETUP_REPEATS set-ups (open the index, ``warm_up()``, map
    the warm-up input); returns the last one's mapper."""
    from repro.api import Mapper

    warm_out = workdir / "warmup.sam"
    times: List[float] = []
    raw_times: List[float] = []
    warm_stats: List[Dict[str, int]] = []
    warm_sam: List[str] = []
    mapper = None
    speed = _speed(outcome)
    for _ in range(SETUP_REPEATS):
        if mapper is not None:
            # Drop the previous mapper first, so peak RSS holds one.
            mapper.close()
            mapper = None
        started = time.perf_counter()
        mapper = Mapper.from_index(world / "world.rpix")
        mapper.warm_up()
        mapper.write(mapper.map_file(world / "warmup_1.fq",
                                     world / "warmup_2.fq"), warm_out)
        raw_times.append(time.perf_counter() - started)
        after = _speed(outcome)
        times.append(at_reference(raw_times[-1], speed, after))
        speed = after
        warm_stats.append(_stats(mapper))
        warm_sam.append(checks.digest(warm_out))
    outcome.problems += checks.same_across("warm-up counters", warm_stats)
    outcome.problems += checks.same_across("warm-up SAM bytes", warm_sam)
    if warm_stats[-1]["seedmap_fallback"] < 1:
        outcome.problems.append("warm-up input did not reach the "
                                "full-DP fallback")
    outcome.samples["setup_s"] = times
    outcome.samples["raw_setup_s"] = raw_times
    return mapper


def one_pass(mapper, world: Path, shard: int, out: Path) -> float:
    started = time.perf_counter()
    mapper.write(mapper.map_file(*shard_fastqs(world, shard)), out)
    return time.perf_counter() - started


def _done(durations: List[float], traced: List[float], trace: bool,
          shards: int, elapsed: float, seconds: float) -> bool:
    """Stop once the run's time is spent -- or would be, before another
    pass got halfway -- and every shard was mapped, shard 0 twice.  A
    traced run maps each shard untraced and then traced."""
    if trace:
        if len(traced) >= MAX_TRACED_PASSES and len(durations) >= len(traced):
            return True
        enough = min(len(durations), len(traced)) >= 1
    else:
        enough = len(durations) > shards
    made = durations + traced
    mean = sum(made) / len(made) if made else 0.0
    return enough and elapsed + mean / 2 >= seconds


def run(world: Path, meta: dict, seconds: float, trace: bool,
        workdir: Path) -> Outcome:
    from repro.genome.io_fasta import read_pairs

    outcome = Outcome()
    mapper = set_up(world, workdir, outcome)
    shards = meta["shards"]
    pairs = meta["pairs"] // shards  # per pass
    digests: Dict[int, List[str]] = defaultdict(list)
    counters: Dict[int, List[Dict[str, int]]] = defaultdict(list)
    durations: List[float] = []
    scaled: List[float] = []  # the untraced passes, on the reference host
    traced_durations: List[float] = []
    tracer = spans.Tracer() if trace else None
    started = time.perf_counter()
    speed = _speed(outcome)
    try:
        while not _done(durations, traced_durations, trace, shards,
                        time.perf_counter() - started, seconds):
            traced = trace and len(durations) > len(traced_durations)
            shard = (len(traced_durations) if trace
                     else len(durations)) % shards
            out = workdir / f"pass{shard}.sam"
            outcome.attempted += 1
            try:
                if traced:
                    tracer.group += 1
                    spans.install_layers(tracer)
                    root = tracer.begin(spans.PASS)
                    try:
                        elapsed = one_pass(mapper, world, shard, out)
                    finally:
                        tracer.end(root)
                        tracer.uninstall()
                    traced_durations.append(elapsed)
                else:
                    durations.append(one_pass(mapper, world, shard, out))
            except Exception as exc:  # a failed pass is counted, not fatal
                outcome.failed += 1
                outcome.problems.append(f"pass failed: {exc!r}")
                if outcome.failed >= 3:
                    break
                speed = _speed(outcome)
                continue
            after = _speed(outcome)
            if not traced:
                scaled.append(at_reference(durations[-1], speed, after))
            speed = after
            digests[shard].append(checks.digest(out))
            counters[shard].append(_stats(mapper))
    finally:
        mapper.close()
    if not durations:
        raise RuntimeError(f"no pass completed: {outcome.problems}")
    mapped = sorted(digests)
    for shard in mapped:
        outcome.problems += checks.same_across(f"shard {shard} SAM bytes",
                                               digests[shard])
        outcome.problems += checks.same_across(
            f"shard {shard} last_stats counters", counters[shard])
    sam_lines = [line for shard in mapped
                 for line in (workdir / f"pass{shard}.sam").read_text()
                 .splitlines() if not line.startswith("@")]
    truths = checks.read_truth(world / "truth.tsv")
    report, problems = checks.accuracy(
        sam_lines, [truth for shard in mapped
                    for truth in truths[2 * pairs * shard:
                                        2 * pairs * (shard + 1)]])
    outcome.problems += problems
    outcome.samples["pairs_per_s"] = [pairs / d for d in scaled]
    outcome.samples["raw_pairs_per_s"] = [pairs / d for d in durations]
    outcome.metrics.update({
        # The whole run's rate: steadier than the median pass when the
        # host's speed drifts over seconds.
        "pairs_per_s": pairs * len(scaled) / sum(scaled),
        "setup_s": median(outcome.samples["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "precision": report.precision if report else 0.0,
        "recall": report.recall if report else 0.0,
    })
    outcome.info.update({
        "shards_mapped": mapped,
        "sam_sha256": {shard: digests[shard][0] for shard in mapped},
        "last_stats": {shard: counters[shard][0] for shard in mapped},
        "passes": len(durations),
        "wall_clock": {
            "pairs_per_s": pairs * len(durations) / sum(durations),
            "setup_s": median(outcome.samples["raw_setup_s"])},
        "mapeval": dataclasses.asdict(report) if report else None,
    })
    if trace:
        stats = {key: sum(counters[shard][0][key] for shard in mapped)
                 for key in counters[mapped[0]][0]}
        mapped_pairs = pairs * len(mapped)
        outcome.layers = spans.layer_metrics(
            tracer.spans, pairs * len(traced_durations))
        outcome.layers.update(arc_counts(stats, mapped_pairs))
        # Untraced and traced passes come in pairs over the same shard.
        outcome.layers["trace.overhead_frac"] = 1.0 - (
            sum(durations[:len(traced_durations)]) / sum(traced_durations))
        outcome.layers["trace.unattributed_frac"] = (
            spans.self_times(tracer.spans)[spans.PASS]
            / sum(traced_durations))
        tracer.write(workdir / "spans.jsonl")
        outcome.info["spans_file"] = str(workdir / "spans.jsonl")
        shard_pairs = [pair for shard in mapped
                       for pair in read_pairs(*shard_fastqs(world, shard))]
        outcome.layers.update(serving.daemon_layers(
            world, workdir, DAEMON_SECONDS, shard_pairs, sam_lines, outcome))
    return outcome
