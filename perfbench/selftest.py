"""Fast self-test of the benchmark at tiny sizes (about a minute).

* every workload, untraced and traced, emits exactly the metric names
  and units ``BENCHMARK.json`` lists, with correct outputs;
* each output check fails when fed a corrupted SAM line or reply;
* outside a full checkout (only ``BENCHMARK.json`` and ``perfbench/``)
  the benchmark exits non-zero without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

import run  # noqa: E402  (sibling module)

run._import_program()

import checks  # noqa: E402
import world  # noqa: E402

TINY = {
    "giab": world.WorldSpec("giab", (30_000, 20_000), 12, shards=2),
    "lowerr": world.WorldSpec("lowerr", (40_000, 20_000), 40),
}
SEED = 3


def _declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]},
            [w["name"] for w in declared["workloads"]])


def check_metric_names(work: Path) -> None:
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == run.END_TO_END, "end_to_end differs from run.py"
    assert per_layer == run.PER_LAYER, "per_layer differs from run.py"
    assert workloads == list(run.WORKLOADS), "workloads differ from run.py"
    saved = dict(world.WORLDS)
    world.WORLDS.update(TINY)
    try:
        for name in run.WORKLOADS:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run.main(["--workload", name, "--seed", str(SEED),
                                     "--seconds", "0.4", "--trace",
                                     str(trace), "--work", str(work)])
                result = json.loads(stdout.getvalue().splitlines()[-1])
                assert code == 0
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, result.keys()
                assert result["correct"], stdout.getvalue()
                assert result["attempted"] >= 1 and result["failed"] == 0
                got = {key: value["unit"]
                       for key, value in result["metrics"].items()}
                assert got == expected, (name, trace, set(got) ^ set(expected))
                print(f"ok  {name} trace={trace}: {len(got)} metrics")
    finally:
        world.WORLDS.clear()
        world.WORLDS.update(saved)


def check_corruption_is_caught(work: Path) -> None:
    from repro.api import Mapper

    path, _ = world.ensure(work / "worlds", TINY["lowerr"], SEED)
    with Mapper.from_index(path / "world.rpix") as mapper:
        fastqs = world.shard_fastqs(path, 0)
        mapper.write(mapper.map_file(*fastqs), work / "a.sam")
        pairs = mapper.map_file(*fastqs)
        lines = list(mapper.lines(pairs, header=False))
        stats = dict(mapper.last_stats.__dict__)
    sam = (work / "a.sam").read_text().splitlines(keepends=True)
    record = next(i for i, line in enumerate(sam) if not line.startswith("@"))

    def corrupt(line: str) -> str:
        fields = line.split("\t")
        fields[3] = str(int(fields[3]) + 1000)
        return "\t".join(fields)

    bad = list(sam)
    bad[record] = corrupt(bad[record])
    (work / "b.sam").write_text("".join(bad))
    assert not checks.same_across("SAM", [checks.digest(work / "a.sam")] * 2)
    assert checks.same_across("SAM", [checks.digest(work / "a.sam"),
                                      checks.digest(work / "b.sam")])
    print("ok  SAM byte identity catches a corrupted line")

    assert checks.same_across("counters", [stats, dict(stats, unmapped=1)])
    print("ok  counter identity catches a changed count")

    expected = [lines[0:8], lines[8:16]]
    assert not checks.replies_match([(0, lines[0:8]), (1, lines[8:16])],
                                    expected)
    reply = list(lines[8:16])
    reply[3] = corrupt(reply[3])
    assert checks.replies_match([(0, lines[0:8]), (1, reply)], expected)
    print("ok  reply check catches a corrupted reply line")

    truths = checks.read_truth(path / "truth.tsv")
    report, problems = checks.accuracy(sam, truths)
    assert not problems and report.precision == 1.0, (report, problems)
    worse, problems = checks.accuracy(bad, truths)
    assert not problems and worse.correct == report.correct - 1
    _, problems = checks.accuracy(sam[:record] + sam[record + 1:], truths)
    assert problems, "a dropped SAM record went unnoticed"
    _, problems = checks.accuracy(sam + ["garbage\n"], truths)
    assert problems, "a malformed SAM line went unnoticed"
    print("ok  mapeval scores a misplaced record; dropped/malformed lines fail")


def check_fails_outside_checkout() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERFBENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "map-lowerr",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok  without the program the benchmark exits "
          f"{done.returncode} and prints no result")


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_corruption_is_caught(work)
    check_fails_outside_checkout()
    check_metric_names(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
