"""GenPairX reproduction benchmark: FASTQ to SAM throughput.

Runs one or more workloads on inputs generated from ``--seed``, checks
the outputs, prints every metric by name with its unit, writes a
machine-readable result file, and prints one JSON result as its last
line.  With ``--trace 1`` it instead reports the per-layer metrics of a
traced run and writes the span file beside the result.

    python3 perfbench/run.py --workload map-lowerr --seed 1 --seconds 10

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``map-giab``    -- DP-heavy: repeat-rich reference, GIAB-like errors;
* ``map-lowerr``  -- light-path: repeat-free reference, 0.05% errors.

Timings are scaled to a reference host by a host-speed loop sampled
around every timed section (``common.host_speed``); the unscaled
wall-clock figures are printed beside them.  A set of several workloads
runs each in its own child process, so that each reports its own peak
RSS.  Generated worlds are cached under
``.perfbench_work/`` (per seed and size), so repeated runs of a seed do
not rebuild them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional


#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "pairs_per_s": "pairs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "precision": "ratio",
    "recall": "ratio",
}

#: Per-layer metrics of a traced run: name -> unit.  Times and counts
#: are per 1000 pairs mapped in the traced section.
PER_LAYER = {
    "io_fasta.parse_s": "s/kpair",
    "sam.render_s": "s/kpair",
    "sam.records": "1/kpair",
    "hashing.hash_s": "s/kpair",
    "seedmap.probe_s": "s/kpair",
    "seedmap.locations_fetched": "1/kpair",
    "pairfilter.filter_s": "s/kpair",
    "pairfilter.calls": "1/kpair",
    "pairfilter.pass_ratio": "ratio",
    "light_align.align_s": "s/kpair",
    "light_align.attempts": "1/kpair",
    "light_align.hit_ratio": "ratio",
    "banded.candidate_s": "s/kpair",
    "banded.candidate_calls": "1/kpair",
    "banded.candidate_cells": "1/kpair",
    "banded.candidate_mcups": "MCUPS",
    "mm2.fallback_s": "s/kpair",
    "mm2.fallback_pairs": "1/kpair",
    "mm2.minimizer_s": "s/kpair",
    "mm2.chain_s": "s/kpair",
    "mm2.align_s": "s/kpair",
    "mm2.dp_cells": "1/kpair",
    "pipeline.self_s": "s/kpair",
    "pipeline.light_pairs": "1/kpair",
    "pipeline.dp_candidate_pairs": "1/kpair",
    "pipeline.full_dp_pairs": "1/kpair",
    "pipeline.unmapped_pairs": "1/kpair",
    "serve.server_s.p50": "s",
    "serve.server_s.p99": "s",
    "serve.queue_wait_s.p50": "s",
    "serve.queue_wait_s.p99": "s",
    "serve.batch_requests.mean": "count",
    "serve.engine_runs": "1/kpair",
    "serve.seed_query_s.mean": "s",
    "serve.busy": "count",
    "serve.timeouts": "count",
    "serve.errors": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Workload -> world it maps.
WORKLOADS = {
    "map-giab": "giab",
    "map-lowerr": "lowerr",
}

SCOPE_NOTE = (
    "Both SeedMaps (2.6 MB giab, 7.8 MB lowerr) fit in the last-level "
    "cache, so memory-bound seed location (the paper's NMSL) is not "
    "measured here.")


def _import_program():
    """Put the checkout's ``src`` on the path and import the program;
    outside a full checkout, exit with an error instead."""
    from common import SRC

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}; run from "
                 "the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path):
    """Run one workload; returns its Outcome and world metadata."""
    import batch
    import world

    world_path, meta = world.ensure(work / "worlds",
                                    world.WORLDS[WORKLOADS[name]], seed)
    workdir = work / "runs" / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcome = batch.run(world_path, meta, seconds, trace, workdir)
    for leftover in [*workdir.glob("pass*.sam"), workdir / "warmup.sam"]:
        leftover.unlink(missing_ok=True)
    return outcome, meta


def _summary(values: List[float]) -> Dict[str, float]:
    from common import quartiles

    q1, mid, q3 = quartiles(values)
    return {"q1": q1, "median": mid, "q3": q3, "n": len(values)}


def _report(name: str, outcome, meta: dict, trace: bool) -> List[str]:
    from common import REFERENCE_SPEED, median

    lines = [f"== {name} (world {meta['world']}, seed {meta['seed']}: "
             f"{meta['reference_bp']} bp reference, SeedMap "
             f"{meta['seedmap_bytes']} B, {meta['pairs']} pairs in "
             f"{meta['shards']} FASTQ shard(s)) =="]
    if not trace:
        for metric, unit in END_TO_END.items():
            text = f"  {metric:<28} {outcome.metrics[metric]:>14.6g} {unit}"
            source = outcome.samples.get(metric)
            if source:
                s = _summary(source)
                text += (f"   (q1 {s['q1']:.6g}, median {s['median']:.6g}, "
                         f"q3 {s['q3']:.6g}, n={s['n']})")
            lines.append(text)
        wall = outcome.info["wall_clock"]
        lines.append(f"  wall clock, unscaled: {wall['pairs_per_s']:.6g} pairs/s, "
                     f"setup {wall['setup_s']:.6g} s; host speed median "
                     f"{median(outcome.samples['host_speed']):.6g} chunks/s "
                     f"(reference {REFERENCE_SPEED:g})")
    else:
        for metric, unit in PER_LAYER.items():
            lines.append(f"  {metric:<28} {outcome.layers[metric]:>14.6g} "
                         f"{unit}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    lines.append(f"  failed_frac {failed_frac:.6g} "
                 f"({outcome.failed} of {outcome.attempted} attempted)")
    lines.append(f"  outputs: {'correct' if not outcome.problems else 'WRONG'}")
    lines += [f"    problem: {problem}" for problem in outcome.problems]
    lines.append(f"  note: {SCOPE_NOTE}")
    return lines




def _run_here(name: str, args, trace: bool) -> tuple:
    """Run one workload in this process; returns its result-file entry
    and its result line."""
    outcome, meta = run_workload(name, args.seed, args.seconds, trace,
                                 Path(args.work))
    print("\n".join(_report(name, outcome, meta, trace)), flush=True)
    units = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.metrics
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    entry = {
        "world": meta,
        "metrics": {} if trace else metrics,
        "samples": {key: dict(_summary(samples), values=samples)
                    for key, samples in outcome.samples.items()},
        "layers": metrics if trace else {},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems, "info": outcome.info,
    }
    return entry, {"correct": not outcome.problems,
                   "attempted": outcome.attempted,
                   "failed": outcome.failed, "metrics": metrics}


def _run_child(name: str, args) -> tuple:
    """Run one workload of a set in a child process (so its peak RSS is
    its own); returns what :func:`_run_here` returns there."""
    out = (Path(args.work) / "results"
           / f"{name}-s{args.seed}-t{args.trace}.json")
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work", args.work, "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        print("\n".join(lines))
        sys.exit(f"error: workload {name} exited {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    record = json.loads(out.read_text())
    return record["workloads"][name], json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all: "
                             + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=".perfbench_work",
                        help="cache and output directory")
    parser.add_argument("--out", default=None,
                        help="result file (default: under --work)")
    args = parser.parse_args(argv)
    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    _import_program()
    from repro.obs import host_metadata

    trace = bool(args.trace)
    started = time.perf_counter()
    entries, results = {}, {}
    for name in names:
        entries[name], results[name] = (
            _run_here(name, args, trace) if len(names) == 1
            else _run_child(name, args))

    record = {
        "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "host": host_metadata(), "note": SCOPE_NOTE,
        "elapsed_s": time.perf_counter() - started,
        "workloads": entries,
    }
    out = Path(args.out) if args.out else (
        Path(args.work) / "results" / f"{args.workload.replace(',', '+')}"
        f"-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"result file: {out}")

    prefixed = len(results) > 1
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {(f"{name}." if prefixed else "") + metric: value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
