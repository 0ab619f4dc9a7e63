"""Output checks: every run verifies what the program produced.

* timed passes (and the traced run) write byte-identical SAM;
* the exact per-run counters (``Mapper.last_stats`` or the daemon's
  ``stats``) repeat exactly;
* every served reply equals offline ``Mapper.lines`` for the same pairs;
* mapping accuracy is scored against the simulator's truth with
  ``repro.variants.mapeval``.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def same_across(label: str, values: Sequence) -> List[str]:
    """Problems if the values of ``label`` are not all equal."""
    if not values:
        return [f"{label}: nothing recorded"]
    first = values[0]
    return [f"{label}: run {index} differs from run 0"
            for index, value in enumerate(values) if value != first]


def replies_match(replies: Iterable[Tuple[int, List[str]]],
                  expected: Sequence[List[str]]) -> List[str]:
    """Each ``(request_number, lines)`` reply against the offline lines
    for the same request."""
    problems = []
    for number, lines in replies:
        if lines != expected[number]:
            problems.append(f"served reply for request {number} differs "
                            "from offline Mapper.lines")
    return problems


def read_truth(path):
    """Simulator truth written by ``world.build``, as SimulatedReads."""
    import numpy as np

    from repro.genome.simulate import SimulatedRead

    truths = []
    with open(path) as handle:
        for line in handle:
            name, chromosome, start, end, strand = line.rstrip("\n") \
                .split("\t")
            truths.append(SimulatedRead(name, np.empty(0, dtype=np.uint8),
                                        chromosome, int(start), int(end),
                                        strand))
    return truths


def sam_records(lines: Iterable[str]) -> Dict[str, object]:
    """Minimal AlignmentRecords (name, placement, mapped) from SAM lines;
    a read named twice raises ValueError."""
    from repro.genome.sam import AlignmentRecord

    records: Dict[str, object] = {}
    for line in lines:
        if not line or line.startswith("@"):
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 11:
            raise ValueError(f"malformed SAM line: {line[:60]!r}")
        name, flag, chromosome, position = fields[0], int(fields[1]), \
            fields[2], int(fields[3])
        if name in records:
            raise ValueError(f"read {name!r} has two SAM records")
        records[name] = AlignmentRecord(
            query_name=name, chromosome=chromosome,
            position=max(position - 1, 0), mapped=not flag & 4)
    return records


def accuracy(lines: Iterable[str], truths) -> Tuple[object, List[str]]:
    """``mapeval`` report of SAM lines against truth, plus problems
    (reads missing from or unknown to the SAM output)."""
    from repro.genome.sam import AlignmentRecord
    from repro.variants.mapeval import evaluate_mappings

    problems: List[str] = []
    try:
        records = sam_records(lines)
    except ValueError as exc:
        return None, [f"SAM output unreadable: {exc}"]
    ordered = []
    for truth in truths:
        record = records.pop(truth.name, None)
        if record is None:
            problems.append(f"read {truth.name!r} has no SAM record")
            record = AlignmentRecord(query_name=truth.name, mapped=False)
        ordered.append(record)
    if records:
        problems.append(f"{len(records)} SAM records name no simulated "
                        "read")
    return evaluate_mappings(ordered, truths), problems
