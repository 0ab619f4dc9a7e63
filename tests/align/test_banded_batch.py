"""The batched banded-DP kernel must reproduce the scalar one exactly.

``align_banded`` is the reference: for every job, the batched kernel's
score, CIGAR, ``ref_start``, ``ref_end`` and ``cells`` must equal it,
whatever else shares the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import ScoringScheme, align_banded
from repro.align.banded import (BATCH_MIN_ROW_CELLS, BandedJob,
                                align_banded_batch)
from repro.genome import random_sequence

DEFAULT = ScoringScheme()


def outcome(result):
    return (result.score, str(result.cigar), result.ref_start,
            result.ref_end, result.read_start, result.read_end,
            result.cells)


def assert_matches_scalar(jobs, scheme=DEFAULT):
    got = align_banded_batch(jobs, scheme)
    assert len(got) == len(jobs)
    for job, result in zip(jobs, got):
        want = align_banded(job.read, job.ref, scheme=scheme,
                            diagonal=job.diagonal, bandwidth=job.bandwidth)
        assert outcome(result) == outcome(want), job
    return got


def codes(values):
    return np.array(values, dtype=np.uint8)


class TestFixedCases:
    def test_leading_insertion_at_band_right_edge(self):
        """The path leaves row 0 at row 1's rightmost band column."""
        rng = np.random.default_rng(3)
        window = random_sequence(rng, 80)
        diagonal, bandwidth = 10, 4
        edge = 1 + diagonal + bandwidth
        # Three leading bases that mismatch the columns before the edge
        # cost more than a 3-base insertion at the edge column.
        read = np.concatenate([(window[edge - 3:edge] + 1) % 4,
                               window[edge:edge + 40]])
        got, = assert_matches_scalar([BandedJob(read, window, diagonal,
                                                bandwidth)])
        assert got.cigar.ops[0] == (3, "I")
        assert got.ref_start == edge

    def test_column0_starts(self):
        """diagonal < bandwidth: the band reaches column 0."""
        rng = np.random.default_rng(4)
        window = random_sequence(rng, 60)
        jobs = [BandedJob(np.concatenate([random_sequence(rng, lead),
                                          window[:30]]),
                          window, diagonal, bandwidth)
                for lead in (0, 1, 3)
                for diagonal, bandwidth in ((0, 5), (2, 6), (-3, 5))]
        got = assert_matches_scalar(jobs)
        assert any(result.cigar.ops and result.cigar.ops[0][1] == "I"
                   and result.ref_start == 0 for result in got)

    def test_band_leaves_window(self):
        rng = np.random.default_rng(5)
        jobs = [BandedJob(random_sequence(rng, 100), random_sequence(rng, 20),
                          0, 4),
                BandedJob(random_sequence(rng, 30), random_sequence(rng, 40),
                          60, 3),
                BandedJob(random_sequence(rng, 30), random_sequence(rng, 40),
                          -9, 3),
                BandedJob(random_sequence(rng, 10), codes([]), 0, 4)]
        got = assert_matches_scalar(jobs)
        assert all(result.score < 0 for result in got)
        assert got[0].cells > 0

    def test_mixed_lengths_and_windows_in_one_batch(self):
        rng = np.random.default_rng(6)
        jobs = []
        for length, pad, bandwidth in ((150, 24, 16), (30, 5, 2),
                                       (151, 24, 16), (75, 40, 30),
                                       (1, 3, 1), (90, 0, 7)):
            window = random_sequence(rng, length + 2 * pad)
            read = window[pad:pad + length].copy()
            read[::17] = (read[::17] + 1) % 4
            if length > 40:
                read = np.delete(read, [10, 11, 30])
            jobs.append(BandedJob(read, window, pad, bandwidth))
        assert_matches_scalar(jobs)

    def test_n_codes(self):
        rng = np.random.default_rng(7)
        window = rng.integers(0, 5, 70).astype(np.uint8)
        read = window[10:60].copy()
        read[[3, 20, 21]] = 4
        assert_matches_scalar([BandedJob(read, window, 10, 6),
                               BandedJob(codes([4] * 12), window, 2, 3)])

    def test_zero_gap_open(self):
        rng = np.random.default_rng(8)
        window = random_sequence(rng, 90)
        read = np.delete(window[15:75], [5, 6, 40])
        read = np.insert(read, 20, [1, 1])
        assert_matches_scalar([BandedJob(read, window, 15, 6)],
                              ScoringScheme(match=1, mismatch=3,
                                            gap_open=0, gap_extend=1))

    def test_huge_costs(self):
        """A gap cost that takes NEG_INF out of 32-bit range."""
        rng = np.random.default_rng(12)
        window = random_sequence(rng, 120)
        read = window[10:110].copy()
        read[[30, 70]] = (read[[30, 70]] + 1) % 4
        got = assert_matches_scalar(
            [BandedJob(read, window, 10, 8)],
            ScoringScheme(gap_open=1_500_000_000))
        assert got[0].score == 2 * 98 - 2 * 8

    def test_empty_read(self):
        rng = np.random.default_rng(9)
        got = assert_matches_scalar([BandedJob(codes([]),
                                               random_sequence(rng, 10),
                                               0, 4)])
        assert got[0].score == 0

    def test_empty_batch(self):
        assert align_banded_batch([]) == []

    @pytest.mark.parametrize("bandwidth", [0, -3])
    def test_non_positive_bandwidth_raises(self, bandwidth):
        rng = np.random.default_rng(10)
        job = BandedJob(random_sequence(rng, 10), random_sequence(rng, 20),
                        0, bandwidth)
        with pytest.raises(ValueError):
            align_banded_batch([job])
        with pytest.raises(ValueError):
            align_banded_batch([job], scalar=align_banded)


class TestScalarCrossover:
    def test_small_batches_go_through_scalar(self):
        rng = np.random.default_rng(11)
        window = random_sequence(rng, 60)
        job = BandedJob(window[5:45].copy(), window, 5, 4)
        calls = []

        def scalar(*args, **kwargs):
            calls.append(args)
            return align_banded(*args, **kwargs)

        per_job = 2 * job.bandwidth + 1
        below = [job] * ((BATCH_MIN_ROW_CELLS - 1) // per_job)
        above = [job] * -(-BATCH_MIN_ROW_CELLS // per_job)
        small = align_banded_batch(below, scalar=scalar)
        assert len(calls) == len(below)
        large = align_banded_batch(above, scalar=scalar)
        assert len(calls) == len(below)
        assert {outcome(result) for result in small + large} \
            == {outcome(align_banded(job.read, job.ref, diagonal=5,
                                     bandwidth=4))}


@st.composite
def batches(draw):
    scheme = draw(st.builds(ScoringScheme,
                            match=st.integers(0, 3),
                            mismatch=st.integers(0, 9),
                            gap_open=st.integers(0, 13),
                            gap_extend=st.integers(0, 4)))
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        window = codes(draw(st.lists(st.integers(0, 4), max_size=50)))
        if window.size and draw(st.booleans()):
            # A read taken from the window, with a few edits.
            start = draw(st.integers(0, len(window) - 1))
            read = window[start:start + draw(st.integers(0, 40))].copy()
            for _ in range(draw(st.integers(0, 3))):
                if read.size:
                    where = draw(st.integers(0, len(read) - 1))
                    read = draw(st.sampled_from([
                        np.delete(read, where),
                        np.insert(read, where, draw(st.integers(0, 3))),
                        np.where(np.arange(len(read)) == where,
                                 (read + 1) % 4, read).astype(np.uint8)]))
            diagonal = start + draw(st.integers(-4, 4))
        else:
            read = codes(draw(st.lists(st.integers(0, 4), max_size=30)))
            diagonal = draw(st.integers(-12, 50))
        jobs.append(BandedJob(read, window, diagonal,
                              draw(st.integers(1, 12))))
    return scheme, jobs


class TestProperty:
    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_scalar(self, case):
        scheme, jobs = case
        assert_matches_scalar(jobs, scheme)
