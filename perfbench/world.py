"""Seeded input worlds for the benchmark.

Each world is built from ``repro.genome`` simulators and written to disk
in the only forms the program under test receives: a paired FASTQ
stream and a ``.rpix`` index (``repro.index.save_index``).  Ground truth
(where each read came from) is kept beside them for the accuracy check.
The reads may be split into several FASTQ shards (``reads<k>_1.fq`` and
``reads<k>_2.fq``), each mapped by a pass of its own: a run then maps
more distinct pairs in the same time, while every shard is still short
enough to be mapped twice and checked.

Like a real genome, each world's reference is fixed; ``--seed`` draws
the sample: the donor's variants and the reads.  A seeded reference
also moves how many candidates its repeats create, which made the DP
work per pass vary much more between seeds.

Two worlds, chosen to stress different arcs of the GenPair dataflow:

* ``giab``: the ``benchmarks/conftest.py`` world -- its 240 kb repeat-rich
  human-like reference, a donor with SNPs and INDELs, and GIAB-like
  overdispersed errors.  About a fifth of the pairs leave the light path
  for DP at candidates or the full-DP fallback, so banded DP dominates.
* ``lowerr``: a 600 kb repeat-free reference, an SNP-only donor and
  0.05% substitution-only reads.  Nearly every pair is light-aligned, so
  DP barely runs.

Every world also gets a small warm-up FASTQ: a few error-free pairs,
which take the light path, then one pair of random sequence.  That pair
has no seed hits, so mapping it always reaches the full-DP fallback and
forces its lazy minimizer-index build before any timing.  The warm-up
input does not depend on ``--seed``, so set-up does the same work for
every seed: drawn per seed, the random pair's full-DP cost alone moved
set-up time by up to 2.5x between seeds.

Run as a script to build one world directory::

    python3 perfbench/world.py --world lowerr --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: Bumped whenever generation changes, so cached worlds are rebuilt.
WORLD_VERSION = 5

#: Fixed reference seed per world (giab's is ``benchmarks/conftest.py``'s).
REFERENCE_SEEDS = {"giab": 101, "lowerr": 601}

#: Pairs per warm-up input, before the random no-seed-hit pair.
WARMUP_PAIRS = 4
#: Seed of the warm-up input, the same for every world seed.
WARMUP_SEED = 0


@dataclass(frozen=True)
class WorldSpec:
    """How one world is generated (sizes are overridable for tests)."""

    name: str
    chromosomes: Tuple[int, ...]
    #: Pairs per FASTQ shard, which is one timed pass.
    pairs: int
    shards: int = 1


#: Default world sizes.  A shard is long enough that a pass takes
#: seconds, short enough that a run maps every shard and shard 0 twice.
#: giab's pairs differ a lot in cost (a tenth reach the full-DP
#: fallback), so it has more distinct pairs: with a single shard of 1000
#: the DP work of a pass varied by about 9% from seed to seed.
WORLDS: Dict[str, WorldSpec] = {
    "giab": WorldSpec("giab", (160_000, 80_000), 500, shards=4),
    "lowerr": WorldSpec("lowerr", (360_000, 240_000), 4000),
}


def shard_fastqs(world: Path, shard: int) -> Tuple[Path, Path]:
    """The paired FASTQ files of one shard of a built world."""
    return world / f"reads{shard}_1.fq", world / f"reads{shard}_2.fq"


def _sim_inputs(spec: WorldSpec, seed: int):
    """The world's reference and, for ``seed``, its read simulators
    (measured reads, warm-up reads)."""
    import numpy as np

    from repro.genome import (ErrorModel, ReadSimulator,
                              generate_reference, plant_variants)
    from repro.genome.reference import RepeatProfile

    streams = np.random.SeedSequence(seed).spawn(2)
    genome_rng = np.random.default_rng(REFERENCE_SEEDS[spec.name])
    if spec.name == "giab":
        reference = generate_reference(genome_rng, spec.chromosomes,
                                       repeats=RepeatProfile.human_like())
        donor = plant_variants(np.random.default_rng(streams[0]),
                               reference)
        errors = ErrorModel.giab_like()
    else:
        reference = generate_reference(genome_rng, spec.chromosomes,
                                       repeats=None)
        donor = plant_variants(np.random.default_rng(streams[0]),
                               reference, snp_rate=2e-3, indel_rate=0.0)
        errors = ErrorModel(mean_rate=5e-4, substitution_fraction=1.0,
                            insertion_fraction=0.0, deletion_fraction=0.0)
    simulator = ReadSimulator(reference, donor=donor, error_model=errors,
                              seed=int(streams[1].generate_state(1)[0]))
    warmup = ReadSimulator(reference, error_model=ErrorModel.perfect(),
                           seed=WARMUP_SEED)
    return reference, simulator, warmup


def _random_pair(seed: int, length: int = 150):
    """A pair of uniformly random reads: no 50 bp seed of either can
    occur in a few-hundred-kb reference, so it has no seed hits."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    return (rng.integers(0, 4, size=length, dtype=np.uint8),
            rng.integers(0, 4, size=length, dtype=np.uint8))


def _write_pairs(prefix: Path, pairs: List[Tuple]) -> None:
    from repro.genome.io_fasta import write_fastq

    write_fastq(f"{prefix}_1.fq", ((f"{name}/1", r1) for r1, _, name in pairs))
    write_fastq(f"{prefix}_2.fq", ((f"{name}/2", r2) for _, r2, name in pairs))


def build(spec: WorldSpec, seed: int, out: Path) -> dict:
    """Generate the world into ``out``; returns its metadata."""
    from repro.core import SeedMap
    from repro.index import save_index

    out.mkdir(parents=True, exist_ok=True)
    reference, simulator, warmup = _sim_inputs(spec, seed)
    simulated = simulator.simulate_pairs(spec.pairs * spec.shards)
    pairs = [(p.read1.codes, p.read2.codes, p.name) for p in simulated]
    for shard in range(spec.shards):
        _write_pairs(out / f"reads{shard}",
                     pairs[shard * spec.pairs:(shard + 1) * spec.pairs])
    with open(out / "truth.tsv", "w") as handle:
        for pair in simulated:
            for read in (pair.read1, pair.read2):
                handle.write(f"{read.name}\t{read.chromosome}\t"
                             f"{read.ref_start}\t{read.ref_end}\t"
                             f"{read.strand}\n")
    warm1, warm2 = _random_pair(WARMUP_SEED)
    warm = [(pair.read1.codes, pair.read2.codes, pair.name)
            for pair in warmup.simulate_pairs(WARMUP_PAIRS,
                                              name_prefix="warmup")]
    _write_pairs(out / "warmup", warm + [(warm1, warm2, "warmup_random")])
    seedmap = SeedMap.build(reference)
    index_bytes = save_index(out / "world.rpix", seedmap, reference)
    meta = {
        "world": spec.name,
        "seed": seed,
        "version": WORLD_VERSION,
        "reference_bp": int(reference.total_length),
        "chromosomes": list(spec.chromosomes),
        "pairs": spec.pairs * spec.shards,
        "shards": spec.shards,
        "warmup_pairs": WARMUP_PAIRS + 1,
        "seedmap_bytes": int(seedmap.stats.seed_table_bytes
                             + seedmap.stats.location_table_bytes),
        "index_file_bytes": int(index_bytes),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta


def world_dir(cache: Path, spec: WorldSpec, seed: int) -> Path:
    """Cache directory of one world; sizes are part of the key."""
    sizes = "x".join(str(n) for n in spec.chromosomes)
    return (cache / f"{spec.name}-v{WORLD_VERSION}-{sizes}"
            f"-p{spec.pairs}x{spec.shards}-s{seed}")


def ensure(cache: Path, spec: WorldSpec, seed: int) -> Tuple[Path, dict]:
    """The world directory for ``spec``/``seed``, built if missing.

    Building happens in a child interpreter, so the generator's memory
    never counts towards the benchmark process's peak RSS.  A world is
    built into a temporary directory and renamed into place only when
    complete, so an interrupted build is never reused.
    """
    import subprocess
    import sys

    from common import program_env

    target = world_dir(cache, spec, seed)
    meta_path = target / "meta.json"
    if not meta_path.exists():
        staging = target.with_name(target.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--world", spec.name, "--seed", str(seed),
                   "--out", str(staging),
                   "--chromosomes", ",".join(map(str, spec.chromosomes)),
                   "--pairs", str(spec.pairs),
                   "--shards", str(spec.shards)]
        subprocess.run(command, check=True, env=program_env(), timeout=600,
                       stdout=subprocess.DEVNULL)
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
    return target, json.loads(meta_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", required=True, choices=sorted(WORLDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--chromosomes", default=None,
                        help="comma-separated chromosome lengths")
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs per shard")
    parser.add_argument("--shards", type=int, default=None)
    args = parser.parse_args(argv)
    spec = WORLDS[args.world]
    spec = WorldSpec(
        spec.name,
        tuple(int(n) for n in args.chromosomes.split(","))
        if args.chromosomes else spec.chromosomes,
        args.pairs if args.pairs is not None else spec.pairs,
        args.shards if args.shards is not None else spec.shards)
    build(spec, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
