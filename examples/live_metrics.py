"""Live observability: metrics, spans, and the daemon dashboard.

Walks the ``repro.obs`` story in one script:

1. simulate a dataset and build a persistent index;
2. map offline and read the process metrics registry directly —
   per-stage pipeline histograms, per-engine run counters, output
   writer totals — then dump it the way ``repro map --metrics-json``
   does;
3. capture a span trace of an in-process run (what the daemon's
   ``trace`` request flag returns over the wire);
4. start a daemon, drive it with a few requests across engines and
   formats, and render the expanded ``stats`` reply with the same
   code ``repro stats`` / ``repro top`` use.

Run:  python examples/live_metrics.py
"""

import json
import threading

import numpy as np

from repro.api import Client, Mapper, MapServer
from repro.core import SeedMap
from repro.genome import (ErrorModel, ReadSimulator, decode,
                          generate_reference, write_fastq)
from repro.index import save_index
from repro.obs import (capture_trace, get_registry, render_metrics,
                       render_top, write_metrics_json)

SOCKET = "metrics_demo.sock"


def main() -> None:
    rng = np.random.default_rng(42)

    print("1. Simulating a 120kb reference and 200 read pairs ...")
    reference = generate_reference(rng, (80_000, 40_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(),
                              seed=7)
    pairs = simulator.simulate_pairs(200)
    write_fastq("metrics_1.fq",
                ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq("metrics_2.fq",
                ((p.read2.name, p.read2.codes) for p in pairs))
    save_index("metrics.rpix", SeedMap.build(reference), reference)

    print("2. Mapping offline; every layer records into one "
          "process-wide registry ...")
    registry = get_registry()
    registry.reset()  # a clean slate makes the printout readable
    with Mapper.from_index("metrics.rpix") as mapper:
        results = mapper.map_file("metrics_1.fq", "metrics_2.fq")
        mapper.write(results, "metrics_demo.sam")
    snapshot = registry.snapshot()
    chunks = snapshot["counters"]["pipeline.chunks"]
    histograms = snapshot["histograms"]
    seed_ms = histograms["pipeline.seed_query_s"]["sum"] * 1e3
    light_ms = histograms["pipeline.filter_align_s"]["sum"] * 1e3
    dp_ms = histograms["pipeline.dp_candidate_s"]["sum"] * 1e3
    full_ms = histograms["pipeline.full_dp_s"]["sum"] * 1e3
    align_ms = light_ms + dp_ms + full_ms
    print(f"   {chunks} chunks: seeding {seed_ms:.1f}ms, "
          f"filter+light-align {light_ms:.1f}ms, DP at candidates "
          f"{dp_ms:.1f}ms, full-DP fallback {full_ms:.1f}ms "
          f"({align_ms / (seed_ms + align_ms) * 100:.0f}% of stage "
          "time in alignment)")
    write_metrics_json("metrics_demo.json")
    print("   full registry + host metadata -> metrics_demo.json "
          "(what `repro map --metrics-json` writes)")

    print("3. Capturing a span trace of one in-process run ...")
    with Mapper.from_index("metrics.rpix") as mapper:
        items = [(p.read1.codes, p.read2.codes, p.name)
                 for p in pairs[:64]]
        with capture_trace() as tracer:
            mapper.map(items)
    for span in tracer.to_dicts()[:6]:
        print(f"   {'  ' * span['depth']}{span['name']}: "
              f"{span['elapsed_s'] * 1e3:.2f}ms")
    print(f"   ... {len(tracer.records)} spans total (the daemon "
          "returns exactly this for `trace: true` requests)")

    print("4. Starting a daemon and driving it across engines ...")
    server = MapServer(Mapper.from_index("metrics.rpix"), SOCKET)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with Client(SOCKET) as client:
            wire = [(decode(p.read1.codes), decode(p.read2.codes),
                     p.name) for p in pairs[:50]]
            client.map_pairs(wire)
            client.map_pairs(wire, engine="mm2", format="paf")
            client.map_file("metrics_1.fq", "metrics_2.fq",
                            "metrics_daemon.sam")
            reply = client.stats()
        print("   the dashboard `repro top` redraws live:")
        for line in render_top(reply):
            print("   " + line.replace("\n", "\n   "))
        print("   ... and `repro stats` appends the full registry "
              "tables:")
        for line in render_metrics(reply["metrics"]):
            print("   " + line.replace("\n", "\n   "))
        print("   (the same reply as JSON: `repro stats --json`, "
              f"{len(json.dumps(reply))} bytes here)")
    finally:
        with Client(SOCKET) as client:
            client.shutdown()
        thread.join(timeout=10)
    print("done.")


if __name__ == "__main__":
    main()
