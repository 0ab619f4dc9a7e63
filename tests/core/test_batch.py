"""The batched engine must be bit-identical to the scalar reference path.

Covers the whole batch stack: vectorized seed hashing
(``hash_reads_batch`` via ``partition_pairs_batch``), the array-backed
SeedMap batch probe (``query_reads_batch``), and
``GenPairPipeline.map_batch`` — including chunking, unequal read
lengths, and the forked-worker sharded mode with merged statistics.
"""

import numpy as np
import pytest

from repro.core import (GenPairConfig, GenPairPipeline, PipelineStats,
                        partition_pair, partition_pairs_batch, query_read,
                        query_reads_batch)
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          reverse_complement)


@pytest.fixture(scope="module")
def batch_pairs(small_reference, donor):
    """A 500-pair simulated dataset dedicated to the equivalence tests."""
    simulator = ReadSimulator(small_reference, donor=donor,
                              error_model=ErrorModel.giab_like(), seed=71)
    return simulator.simulate_pairs(500)


def record_signature(record):
    return (record.query_name, record.chromosome, record.position,
            record.strand, record.mapq, str(record.cigar), record.score,
            record.mate, record.mapped, record.method,
            record.mate_chromosome, record.mate_position,
            record.mate_strand, record.template_length,
            record.proper_pair)


def result_signature(result):
    return (result.name, result.stage, result.orientation,
            result.joint_score, record_signature(result.record1),
            record_signature(result.record2))


class TestSeedingBatch:
    def test_partition_pairs_batch_matches_scalar(self, clean_pairs):
        pairs = [(p.read1.codes, p.read2.codes) for p in clean_pairs[:20]]
        batched = partition_pairs_batch(pairs)
        for (read1, read2), orientations in zip(pairs, batched):
            scalar = partition_pair(read1, read2)
            assert len(orientations) == len(scalar) == 2
            for got, want in zip(orientations, scalar):
                assert got.orientation == want.orientation
                for got_seeds, want_seeds in ((got.read1, want.read1),
                                              (got.read2, want.read2)):
                    assert len(got_seeds) == len(want_seeds)
                    for g, w in zip(got_seeds, want_seeds):
                        assert g.read_offset == w.read_offset
                        assert g.hash_value == w.hash_value
                        assert np.array_equal(g.codes, w.codes)

    def test_short_reads_yield_no_seeds(self):
        rng = np.random.default_rng(0)
        short = rng.integers(0, 4, size=30, dtype=np.uint8)
        full = rng.integers(0, 4, size=150, dtype=np.uint8)
        batched = partition_pairs_batch([(short, full)])
        assert batched[0][0].read1 == ()
        assert len(batched[0][0].read2) == 3


class TestQueryBatch:
    def test_matches_query_read(self, plain_seedmap, clean_pairs):
        reads = []
        for pair in clean_pairs[:20]:
            for pair_seeds in partition_pair(pair.read1.codes,
                                             pair.read2.codes):
                reads.append(pair_seeds.read1)
                reads.append(pair_seeds.read2)
        batched = query_reads_batch(plain_seedmap, reads)
        for seeds, got in zip(reads, batched):
            want = query_read(plain_seedmap, seeds)
            assert np.array_equal(got.candidates, want.candidates)
            assert got.candidates.dtype == want.candidates.dtype
            assert got.seed_hits == want.seed_hits
            assert got.locations_fetched == want.locations_fetched
            assert got.seed_table_accesses == want.seed_table_accesses
            assert got.traffic_bytes == want.traffic_bytes

    def test_empty_inputs(self, plain_seedmap):
        assert query_reads_batch(plain_seedmap, []) == []
        results = query_reads_batch(plain_seedmap, [()])
        assert len(results) == 1
        assert results[0].candidates.size == 0
        assert results[0].seed_table_accesses == 0


class TestMapBatchEquivalence:
    def test_identical_results_and_stats(self, small_reference, seedmap,
                                         batch_pairs):
        sequential = GenPairPipeline(small_reference, seedmap=seedmap)
        batched = GenPairPipeline(small_reference, seedmap=seedmap)
        seq_results = sequential.map_pairs(batch_pairs)
        bat_results = batched.map_batch(batch_pairs, chunk_size=256)
        assert ([result_signature(r) for r in seq_results]
                == [result_signature(r) for r in bat_results])
        assert sequential.stats == batched.stats

    def test_chunking_does_not_change_results(self, plain_reference,
                                              plain_seedmap, clean_pairs,
                                              small_reference, seedmap,
                                              batch_pairs):
        # On the giab-like pairs a stricter DP acceptance score makes
        # DP at candidates both place pairs and reject some of them.
        worlds = ((plain_reference, plain_seedmap, clean_pairs[:30],
                   GenPairConfig(), (1, 7, 64)),
                  (small_reference, seedmap, batch_pairs,
                   GenPairConfig(min_dp_score_fraction=0.9),
                   (1, 7, 64, 256)))
        for reference, index, pairs, config, chunk_sizes in worlds:
            want = GenPairPipeline(reference, seedmap=index, config=config)
            want_results = want.map_pairs(pairs)
            for chunk_size in chunk_sizes:
                pipeline = GenPairPipeline(reference, seedmap=index,
                                           config=config)
                got = pipeline.map_batch(pairs, chunk_size=chunk_size)
                assert ([result_signature(r) for r in got]
                        == [result_signature(r) for r in want_results])
                assert pipeline.stats == want.stats
        assert want.stats.light_fallback > 0
        assert want.stats.residual_fallback > 0

    def test_accepts_tuples_and_names(self, plain_reference,
                                      plain_seedmap, clean_pairs):
        pair = clean_pairs[0]
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        named, unnamed = pipeline.map_batch(
            [(pair.read1.codes, pair.read2.codes, "tup"),
             (pair.read1.codes, pair.read2.codes)])
        assert named.name == "tup"
        assert unnamed.name == "pair1"
        assert named.mapped

    def test_rejects_bad_chunk_size(self, plain_reference, plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        with pytest.raises(ValueError):
            pipeline.map_batch([], chunk_size=0)

    def test_empty_batch(self, plain_reference, plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        assert pipeline.map_batch([]) == []
        assert pipeline.stats.pairs_total == 0


class TestShardedWorkers:
    def test_workers_identical_results_and_merged_stats(
            self, small_reference, seedmap, batch_pairs):
        subset = batch_pairs[:120]
        sequential = GenPairPipeline(small_reference, seedmap=seedmap)
        want = sequential.map_pairs(subset)
        sharded = GenPairPipeline(small_reference, seedmap=seedmap)
        got = sharded.map_batch(subset, chunk_size=32, workers=2)
        assert ([result_signature(r) for r in got]
                == [result_signature(r) for r in want])
        assert sharded.stats == sequential.stats

    def test_stats_merge_adds_every_counter(self):
        import dataclasses
        left = PipelineStats(pairs_total=3, light_mapped=2,
                             filter_iterations=10, traffic_bytes=100)
        right = PipelineStats(pairs_total=2, light_mapped=1,
                              filter_iterations=5, exact_pairs=1)
        left.merge(right)
        assert left.pairs_total == 5
        assert left.light_mapped == 3
        assert left.filter_iterations == 15
        assert left.traffic_bytes == 100
        assert left.exact_pairs == 1
        # Nothing lost: merging two fresh instances stays all-zero.
        merged = PipelineStats().merge(PipelineStats())
        for spec in dataclasses.fields(merged):
            assert getattr(merged, spec.name) == 0


class TestUnequalReadLengths:
    @pytest.fixture()
    def unequal_pair(self, plain_reference):
        # 140bp keeps the shorter read above the light-alignment quality
        # threshold (perfect 280 >= 276) while exercising unequal lengths.
        read1 = plain_reference.fetch("chr1", 5000, 5150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 5240,
                                                         5380))
        return read1, read2

    def test_exact_pair_uses_per_read_perfect_scores(self, plain_reference,
                                                     plain_seedmap,
                                                     unequal_pair):
        read1, read2 = unequal_pair
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        result = pipeline.map_pair(read1, read2, "uneq")
        assert result.stage == "light"
        # 150bp at +2/base plus 140bp at +2/base — not 2 * either read.
        assert result.joint_score == 2 * 150 + 2 * 140
        assert pipeline.stats.exact_pairs == 1

    def test_batch_matches_scalar_on_unequal_pairs(self, plain_reference,
                                                   plain_seedmap,
                                                   unequal_pair):
        read1, read2 = unequal_pair
        swapped = (reverse_complement(read2), reverse_complement(read1))
        pairs = [(read1, read2, "a"), (swapped[0], swapped[1], "b"),
                 (read1, read1[:40], "c")]
        sequential = GenPairPipeline(plain_reference,
                                     seedmap=plain_seedmap)
        want = [sequential.map_pair(r1, r2, name)
                for r1, r2, name in pairs]
        batched = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        got = batched.map_batch(pairs, chunk_size=2)
        assert ([result_signature(r) for r in got]
                == [result_signature(r) for r in want])
        assert batched.stats == sequential.stats


class TestChromosomeBoundary:
    @pytest.fixture(scope="class")
    def two_chromosomes(self):
        return generate_reference(np.random.default_rng(23),
                                  (30_000, 30_000), repeats=None)

    def test_cross_boundary_pair_rejected(self, two_chromosomes):
        """A pair whose mates straddle the chr1/chr2 boundary is within Δ
        in linear coordinates but must not be emitted as a joint
        candidate (regression: the filter used to pair them)."""
        reference = two_chromosomes
        pipeline = GenPairPipeline(reference)
        read1 = reference.fetch("chr1", 29_850, 30_000)
        read2 = reverse_complement(reference.fetch("chr2", 50, 200))
        result = pipeline.map_pair(read1, read2, "straddle")
        assert result.stage in ("unmapped", "full_dp")
        assert pipeline.stats.filter_fallback >= 1

    def test_mapped_pairs_never_span_chromosomes(self, two_chromosomes):
        reference = two_chromosomes
        simulator = ReadSimulator(reference,
                                  error_model=ErrorModel.perfect(),
                                  seed=29)
        pipeline = GenPairPipeline(reference)
        for result in pipeline.map_batch(simulator.simulate_pairs(100)):
            if result.stage in ("light", "dp_candidate"):
                assert (result.record1.chromosome
                        == result.record2.chromosome)
