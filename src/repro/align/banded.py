"""Banded affine-gap alignment (Banded Smith-Waterman, as in GenDP).

GenDP — the DP fallback engine GenPairX integrates with — implements the
Banded Smith-Waterman algorithm (§7.4).  This module provides the same
banded semiglobal alignment for the functional model: DP cells are computed
only within ``bandwidth`` diagonals of the expected read-to-window offset.

The band is expressed relative to the *expected diagonal*: a candidate
mapping location tells the pipeline where the read should start inside the
reference window, and edits only shift the alignment by a handful of bases,
so a narrow band loses nothing for the short-read regime (Table 1 tops out
at 5-base gaps).

Two entry points compute the same alignment:

* :func:`align_banded` -- one alignment, a per-cell Python loop (the
  reference the batched kernel is tested against);
* :func:`align_banded_batch` -- many alignments at once, the way GenDP
  runs DP tasks side by side in its processing elements: every job's
  band is one NumPy row in *band coordinates*, so a DP row of the whole
  batch is a handful of array operations.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..genome.cigar import Cigar
from .dp import NEG_INF, AlignmentResult, _FROM_DIAG, _FROM_E, _FROM_F, \
    _traceback
from .scoring import DEFAULT_SCHEME, ScoringScheme


def align_banded(read: np.ndarray, ref: np.ndarray,
                 scheme: ScoringScheme = DEFAULT_SCHEME,
                 diagonal: int = 0, bandwidth: int = 16) -> AlignmentResult:
    """Banded semiglobal alignment of ``read`` within a reference window.

    Parameters
    ----------
    diagonal:
        Expected offset of the read start within the window (``j - i`` of
        the main alignment diagonal).
    bandwidth:
        Half-width of the band, in diagonals, around ``diagonal``.
    """
    read_list = np.asarray(read, dtype=np.uint8).tolist()
    ref_list = np.asarray(ref, dtype=np.uint8).tolist()
    n, m = len(read_list), len(ref_list)
    if n == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0, 0, 0)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    match, mismatch = scheme.match, scheme.mismatch
    open_cost = scheme.gap_open + scheme.gap_extend
    extend = scheme.gap_extend

    h_prev = [0] * (m + 1)  # row 0: free reference prefix
    f_prev = [NEG_INF] * (m + 1)
    ptr_h = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_e = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_f = [bytearray(m + 1) for _ in range(n + 1)]
    cells = 0

    prev_lo, prev_hi = 0, m  # row 0 is fully defined
    for i in range(1, n + 1):
        base = read_list[i - 1]
        lo = max(1, i + diagonal - bandwidth)
        hi = min(m, i + diagonal + bandwidth)
        if lo > hi:
            # The band leaves the window entirely; alignment is hopeless.
            return AlignmentResult(NEG_INF, Cigar(()), 0, 0, 0, n, cells)
        h_row = [NEG_INF] * (m + 1)
        f_row = [NEG_INF] * (m + 1)
        if lo == 1:
            h_row[0] = -(scheme.gap_open + extend * i)
            f_row[0] = h_row[0]
        e_val = NEG_INF
        row_ptr_h = ptr_h[i]
        row_ptr_e = ptr_e[i]
        row_ptr_f = ptr_f[i]
        for j in range(lo, hi + 1):
            open_e = h_row[j - 1] - open_cost
            ext_e = e_val - extend
            if open_e >= ext_e:
                e_val = open_e
                row_ptr_e[j] = 0
            else:
                e_val = ext_e
                row_ptr_e[j] = 1
            prev_h = h_prev[j] if prev_lo <= j <= prev_hi or i == 1 else \
                NEG_INF
            open_f = prev_h - open_cost
            ext_f = f_prev[j] - extend
            if open_f >= ext_f:
                f_row[j] = open_f
                row_ptr_f[j] = 0
            else:
                f_row[j] = ext_f
                row_ptr_f[j] = 1
            diag_h = h_prev[j - 1]
            diag = diag_h + (match if base == ref_list[j - 1] else -mismatch)
            best = diag
            origin = _FROM_DIAG
            if e_val > best:
                best = e_val
                origin = _FROM_E
            if f_row[j] > best:
                best = f_row[j]
                origin = _FROM_F
            h_row[j] = best
            row_ptr_h[j] = origin
            cells += 1
        h_prev = h_row
        f_prev = f_row
        prev_lo, prev_hi = lo, hi

    end_j = max(range(prev_lo, prev_hi + 1), key=lambda j: h_prev[j])
    score = h_prev[end_j]
    if score <= NEG_INF // 2:
        return AlignmentResult(NEG_INF, Cigar(()), 0, 0, 0, n, cells)
    cigar, start_j = _traceback(read_list, ref_list, ptr_h, ptr_e, ptr_f,
                                n, end_j, stop_at_row0=True)
    return AlignmentResult(score=score, cigar=cigar, ref_start=start_j,
                           ref_end=end_j, read_start=0, read_end=n,
                           cells=cells)


class BandedJob(NamedTuple):
    """One :func:`align_banded` call: its read, window, and band."""

    read: np.ndarray
    ref: np.ndarray
    diagonal: int
    bandwidth: int


#: Smallest batch, in band cells per DP row summed over its jobs
#: (``2 * bandwidth + 1`` each), for which the NumPy kernel beats
#: calling :func:`align_banded` once per job.  Measured on 150 bp reads
#: (median of 7 interleaved runs, 2-vCPU x86 VM): with a 16-diagonal
#: band the kernel runs 0.49x the scalar speed at one job (33 cells),
#: 0.76x at two (66) and 1.21x at three (99); with an 8-diagonal band
#: 0.83x at 68 cells and 1.10x at 85.
BATCH_MIN_ROW_CELLS = 90

#: Upper bound on the DP cells of one kernel slice (jobs x rows x band
#: slots, unless a single job is larger).  A slice keeps one pointer
#: byte and a 4-byte substitution score per cell, so this caps the
#: kernel's working set at about 2.5 MiB however many jobs a batch has.
SLICE_CELLS = 1 << 19

# Bits of the one-byte traceback pointer of a cell.
_E_WINS = 1      # H came from E (unless _F_WINS)
_F_WINS = 2      # H came from F
_E_EXTENDS = 4   # E extended E of the cell to the left (else opened)
_F_EXTENDS = 8   # F extended F of the cell above (else opened)
_MATCH = 16      # read base equals reference base

_EMPTY_CIGAR = Cigar(())


def align_banded_batch(jobs: Sequence[BandedJob],
                       scheme: ScoringScheme = DEFAULT_SCHEME,
                       scalar: Optional[Callable[..., AlignmentResult]]
                       = None) -> List[AlignmentResult]:
    """Align every job as :func:`align_banded` would, in job order.

    The band of each job is filled in band coordinates: slot ``s`` of
    DP row ``i`` is reference column ``j = i + diagonal - bandwidth - 1
    + s``, so the diagonal predecessor of a cell sits in the same slot
    of the row above, the vertical one a slot to the right, and the
    horizontal one a slot to the left.  Slot 0 and the last slot pad the
    band on either side.  Rows are filled for all jobs at once; the
    horizontal-gap state E, which runs along a row, comes from a
    prefix-max scan.

    With ``scalar`` given, a batch smaller than
    :data:`BATCH_MIN_ROW_CELLS` is aligned one job at a time through
    ``scalar`` (called like :func:`align_banded`) instead.
    """
    if scalar is not None and sum(2 * job.bandwidth + 1 for job in jobs) \
            < BATCH_MIN_ROW_CELLS:
        return [scalar(job.read, job.ref, scheme=scheme,
                       diagonal=job.diagonal, bandwidth=job.bandwidth)
                for job in jobs]
    results: List[Optional[AlignmentResult]] = [None] * len(jobs)
    pending = []
    for index, job in enumerate(jobs):
        n = len(job.read)
        if n == 0:
            results[index] = AlignmentResult(0, _EMPTY_CIGAR, 0, 0, 0, 0, 0)
            continue
        if job.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        rows, cells = _band_rows(n, len(job.ref), job.diagonal,
                                 job.bandwidth)
        if rows < n:
            # The band leaves the window before the last row.
            results[index] = AlignmentResult(NEG_INF, _EMPTY_CIGAR, 0, 0,
                                             0, n, cells)
        else:
            pending.append((2 * job.bandwidth + 1, n, index, cells))
    # Widest bands and longest reads first, so a slice holds jobs of
    # similar shape and few padding cells.
    pending.sort(key=lambda entry: (-entry[0], -entry[1], entry[2]))
    piece: list = []
    rows = 0
    for entry in pending:
        if piece and (len(piece) + 1) * (piece[0][0] + 2) \
                * max(rows, entry[1]) > SLICE_CELLS:
            _fill_slice(jobs, piece, scheme, results)
            piece, rows = [], 0
        piece.append(entry)
        rows = max(rows, entry[1])
    if piece:
        _fill_slice(jobs, piece, scheme, results)
    return results  # type: ignore[return-value]


def _band_rows(n: int, m: int, diagonal: int, bandwidth: int):
    """``(rows, cells)`` :func:`align_banded` fills before its band
    leaves the window (``rows == n`` when it never does)."""
    if m < 1 or diagonal + bandwidth < 0:
        return 0, 0
    rows = min(n, max(0, m - diagonal + bandwidth))
    i = np.arange(1, rows + 1)
    widths = (np.minimum(m, i + diagonal + bandwidth)
              - np.maximum(1, i + diagonal - bandwidth) + 1)
    return rows, int(widths.sum())


def _fill_slice(jobs: Sequence[BandedJob], entries, scheme: ScoringScheme,
                results: List[Optional[AlignmentResult]]) -> None:
    """Fill the bands of one slice of jobs and trace each one back.

    Only two kinds of out-of-band slot can feed an in-band cell, so only
    they are masked: slots left of the window's column 1, which the E
    scan runs over (column 0 itself holds its leading-insertion score),
    and the slots right of a band, which the next row's F reads.  Other
    out-of-band slots may hold any value; the end column is chosen among
    in-band slots only.
    """
    # Longest read first: the jobs still filling a row are a prefix.
    entries = sorted(entries, key=lambda entry: -entry[1])
    picked = [jobs[entry[2]] for entry in entries]
    count = len(picked)
    n = np.array([entry[1] for entry in entries], dtype=np.int64)
    m = np.array([len(job.ref) for job in picked], dtype=np.int64)
    band = np.array([entry[0] for entry in entries], dtype=np.int64)
    # Row i, slot s is reference column j = i + shift + s.
    shift = np.array([job.diagonal - job.bandwidth - 1 for job in picked],
                     dtype=np.int64)
    rows = int(n[0])
    width = int(band.max()) + 2
    slots = np.arange(width, dtype=np.int64)
    match, mismatch = scheme.match, scheme.mismatch
    open_cost = scheme.gap_open + scheme.gap_extend
    extend = scheme.gap_extend
    # int32 holds NEG_INF minus every penalty a slice can add to it,
    # unless the scheme's costs are enormous.
    dtype = np.int32 if (rows + width) * (match + mismatch + open_cost) \
        < 10 ** 8 else np.int64

    # Row i, slot s compares read base i - 1 with reference base
    # j - 1 = shift + (i - 1 + s): one sliding window per job and row.
    reads = np.zeros((count, rows), dtype=np.uint8)
    refs = np.full((count, rows + width - 1), 255, dtype=np.uint8)
    for row, job in enumerate(picked):
        reads[row, :len(job.read)] = job.read
        first = max(0, -int(shift[row]))
        last = min(refs.shape[1], len(job.ref) - int(shift[row]))
        if last > first:
            refs[row, first:last] = \
                job.ref[first + shift[row]:last + shift[row]]
    windows = np.lib.stride_tricks.sliding_window_view(
        refs, width, axis=1)[:, :rows, :]
    # (rows, jobs, slots): a DP row of the slice is contiguous.
    same = np.empty((rows, count, width), dtype=bool)
    np.equal(windows.transpose(1, 0, 2), reads.T[:, :, None], out=same)
    substitution = same.astype(dtype)
    substitution *= match + mismatch
    substitution -= mismatch
    pointers = same.view(np.uint8)
    pointers *= _MATCH

    scan_bias = (extend * slots).astype(dtype)
    e_bias = (-(open_cost + extend * (slots[1:] - 1))).astype(dtype)
    right_of_band = slots[None, :] > band[:, None]
    # Column 0 (j = 0) sits in slot -shift - i of row i while the band
    # reaches it; it holds the cost of a leading insertion of i bases.
    column0_rows = int(max(0, (-shift).max()))

    # Row 0 is defined across the window (a free reference prefix), up
    # to the slot right of each job's band.
    j_row0 = shift[:, None] + slots[None, :]
    h_prev = np.where((j_row0 >= 0) & (j_row0 <= m[:, None])
                      & (slots[None, :] <= band[:, None] + 1),
                      0, NEG_INF).astype(dtype)
    h_next = np.empty_like(h_prev)
    f_prev = np.full((count, width), NEG_INF, dtype=dtype)
    f_next = f_prev.copy()
    diag, best, scan, e_val, f_open, f_extend = (
        np.empty((count, width), dtype=dtype) for _ in range(6))
    e_val[:, 0] = NEG_INF
    flag = np.empty((count, width), dtype=bool)
    last_h = np.empty((count, width), dtype=dtype)
    gap_open = scheme.gap_open
    active = count
    for i in range(1, rows + 1):
        while n[active - 1] < i:
            active -= 1
        a = active
        hp, fp, h, f = h_prev[:a], f_prev[:a], h_next[:a], f_next[:a]
        dg, bs, sc, ev = diag[:a], best[:a], scan[:a], e_val[:a]
        fo, fe, fl = f_open[:a, :-1], f_extend[:a, :-1], flag[:a]
        code = pointers[i - 1, :a]
        np.add(hp, substitution[i - 1, :a], out=dg)
        np.subtract(hp[:, 1:], open_cost, out=fo)
        np.subtract(fp[:, 1:], extend, out=fe)
        np.maximum(fo, fe, out=f[:, :-1])
        f[:, -1] = NEG_INF
        np.maximum(dg, f, out=bs)
        # E: prefix-max scan of the row's diagonal/vertical scores.
        np.add(bs, scan_bias, out=sc)
        sc[:, 0] = NEG_INF
        column0 = None
        if i <= column0_rows:
            slot0 = -shift[:a] - i
            np.copyto(sc, NEG_INF, where=slots[None, :] < slot0[:, None])
            hit = np.flatnonzero(slot0 >= 0)
            column0 = (hit, slot0[hit])
            sc[column0] = -(gap_open + extend * i) + scan_bias[slot0[hit]]
        np.maximum.accumulate(sc, axis=1, out=sc)
        np.add(sc[:, :-1], e_bias, out=ev[:, 1:])
        np.maximum(bs, ev, out=h)
        np.copyto(h, NEG_INF, where=right_of_band[:a])
        if column0 is not None:
            h[column0] = -(gap_open + extend * i)
        # Pointer bits.  E wins over the diagonal only when strictly
        # better, F over both only when strictly better; a gap extends
        # only when strictly better than opening (the E bit is taken
        # from the final H and E of the cell to the left).
        np.greater(ev, dg, out=fl)
        code |= fl.view(np.uint8)
        np.maximum(dg, ev, out=sc)
        np.greater(f, sc, out=fl)
        code |= fl.view(np.uint8) << 1
        np.subtract(h[:, :-1], ev[:, :-1], out=sc[:, :-1])
        np.less(sc[:, :-1], gap_open, out=fl[:, 1:])
        code[:, 1:] |= fl[:, 1:].view(np.uint8) << 2
        np.greater(fe, fo, out=fl[:, :-1])
        code[:, :-1] |= fl[:, :-1].view(np.uint8) << 3
        if n[a - 1] == i:
            done = int(np.searchsorted(-n[:a], -i))
            last_h[done:a] = h[done:]
        h_prev, h_next = h_next, h_prev
        f_prev, f_next = f_next, f_prev

    first_slot = np.maximum(1, 1 - n - shift)
    last_slot = np.minimum(band, m - n - shift)
    in_band = (slots >= first_slot[:, None]) & (slots <= last_slot[:, None])
    end_slot = np.argmax(np.where(in_band, last_h, np.iinfo(dtype).min),
                         axis=1)
    scores = last_h[np.arange(count), end_slot]
    for row, entry in enumerate(entries):
        index, cells = entry[2], entry[3]
        score = int(scores[row])
        read_len = int(n[row])
        if score <= NEG_INF // 2:
            results[index] = AlignmentResult(NEG_INF, _EMPTY_CIGAR, 0, 0, 0,
                                             read_len, cells)
            continue
        slot = int(end_slot[row])
        cigar, start_j = _band_traceback(pointers[:, row], read_len, slot,
                                         int(shift[row]))
        results[index] = AlignmentResult(
            score=score, cigar=cigar, ref_start=start_j,
            ref_end=read_len + int(shift[row]) + slot, read_start=0,
            read_end=read_len, cells=cells)


def _band_traceback(pointers: np.ndarray, i: int, slot: int, shift: int):
    """Walk one job's pointers from row ``i``, ``slot`` back to row 0.

    ``pointers[i - 1, s]`` is the pointer byte of row ``i``, slot ``s``.
    Moves stay in band coordinates: a diagonal step keeps the slot, a
    deletion moves one slot left, an insertion one slot right.  A run of
    diagonal steps is one column of ``pointers``, taken in one slice.
    Returns the CIGAR and the reference column the alignment starts at.
    """
    runs: List[Tuple[int, str]] = []  # last operation first
    state = 0  # 0: H, 1: E (deletion), 2: F (insertion)
    j = i + shift + slot
    while i > 0:
        if j == 0:
            runs.append((i, "I"))
            break
        if state == 0:
            column = pointers[:i, slot]
            turns = np.flatnonzero(column & (_E_WINS | _F_WINS))
            top = int(turns[-1]) + 1 if len(turns) else 0
            steps = min(i - top, j)
            if steps == 0:
                state = 2 if column[i - 1] & _F_WINS else 1
                continue
            _diagonal_runs(column[i - steps:i], runs)
            i -= steps
            j -= steps
            continue
        code = pointers[i - 1, slot]
        if state == 1:
            runs.append((1, "D"))
            if not code & _E_EXTENDS:
                state = 0
            j -= 1
            slot -= 1
        else:
            runs.append((1, "I"))
            if not code & _F_EXTENDS:
                state = 0
            i -= 1
            slot += 1
    return Cigar.from_pairs(reversed(runs)), j


def _diagonal_runs(codes: np.ndarray, runs: List[Tuple[int, str]]) -> None:
    """Append the ``=``/``X`` runs of a diagonal stretch, last first."""
    end = len(codes)
    for miss in np.flatnonzero((codes & _MATCH) == 0)[::-1].tolist():
        if end > miss + 1:
            runs.append((end - miss - 1, "="))
        runs.append((1, "X"))
        end = miss
    if end:
        runs.append((end, "="))
