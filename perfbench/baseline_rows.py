"""Print the ROADMAP "Baseline measurements" rows from the traced runs.

    for w in exact-scan state-search models point-queries; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 1
    done
    python3 perfbench/baseline_rows.py

Reads ``perfbench/out/trace-<workload>.jsonl`` (spans) and
``perfbench/out/layers-<workload>.json`` (peak RSS of the traced worker).
Traced times include the tracing overhead that each layer table reports.
Rows at n=512 are left out: the benchmark never builds a 512-element lattice,
because classify there needs about 4 GB.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

# operation, size, workload, span name, job labels (None: every job), repeat
ROWS = [
    ("`direct_product` (→ `lattice_from_leq`)", "n=256", "exact-scan",
     "lattice.direct_product", ("product MO3xB8 B4",), 1),
    ("`classify`", "n=256", "exact-scan", "lattice.classify",
     ("check MO3xB8xB4", "check B8xB8xB4"), 1),
    ("`is_compatible` ×1000", "n=256", "point-queries", "analysis.is_compatible", None, 1000),
    ("`compatible_via_definition` ×200", "n=256", "point-queries",
     "analysis.compatible_via_definition", None, 200),
    ("`enumerate_dispersion_free`", "B8×B8 (n=64)", "state-search",
     "states.enumerate_dispersion_free", ("states B8xB8",), 1),
    ("`projector_lattice`", "B64 (d=6, 5 commuting rays)", "models",
     "quantum.projector_lattice", ("quantum commuting d=6",), 1),
    ("`infer_order`", "B64", "models", "quantum.infer_order", ("quantum commuting d=6",), 1),
]


def durations(workload: str, span: str, labels) -> list[float]:
    with open(OUT / f"trace-{workload}.jsonl", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        jobs = header["jobs"]
        out = []
        for line in fh:
            _, name, start, end, _, job = json.loads(line)
            if name == span and isinstance(job, int) and (labels is None or jobs[job] in labels):
                out.append(end - start)
    return out


def main() -> None:
    print("| operation | size | time | note |")
    print("| --- | --- | --- | --- |")
    for operation, size, workload, span, labels, repeat in ROWS:
        times = durations(workload, span, labels)
        layers = json.loads((OUT / f"layers-{workload}.json").read_text())
        note = (f"median of {len(times)} traced calls on `{workload}` "
                f"(tracing overhead {layers['tracing_overhead_pct']:.1f} %)")
        if span == "lattice.classify":
            note += f"; **peak RSS {layers['peak_rss_mb']:.0f} MB** for the workload"
        print(f"| {operation} | {size} | {statistics.median(times) * repeat:.3g} s | {note} |")


if __name__ == "__main__":
    main()
