#!/usr/bin/env python3
"""Self-check of the benchmark harness on the shipped smoke config.

    python3 bench/selfcheck.py

Runs configs/sig11_smoke.cfg (all eight experiments, about 1.3 s a run)
through bench/run.py once untraced and once traced, and checks that

* every metric BENCHMARK.json names is emitted, with its unit and a finite
  value, and no other metric is;
* the self times of a traced run sum to no more than its wall time;
* no expected criterion failed (criteria_failed_frac is 0).

Exit code 0 when all three hold.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import run as bench


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    smoke = bench.Workload(
        "sig11_smoke", (bench.ROOT / "configs" / "sig11_smoke.cfg").read_text(),
        tuple(f"A{i}" for i in range(1, 10)),
        partial(bench.check_sections, degrees=(-1, 1), ladder=(4, 6, 8, 10)))
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=bench.ROOT))
    try:
        # The shipped config carries its own seed; one round of children each.
        plain = bench.measure(smoke, 0, 0.1, False, work)
        traced = bench.measure(smoke, 0, 0.1, True, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    for res, group in ((plain, "end_to_end"), (traced, "per_layer")):
        named = {m["name"]: m["unit"] for m in spec[group]}
        for name, unit in named.items():
            value = res.metrics.get(name)
            if value is None or res.units.get(name) != unit or not math.isfinite(value):
                problems.append(f"{group} metric {name}: {value!r} {res.units.get(name)!r}, "
                                f"expected a finite value in {unit}")
        if set(res.metrics) - set(named):
            problems.append(f"{group} metrics missing from BENCHMARK.json: "
                            f"{sorted(set(res.metrics) - set(named))}")
    for c in traced.children:
        if c.mode == "trace":
            total = sum(bench.self_times(c.spans).values())
            if total > c.wall_s:
                problems.append(f"self times sum to {total:.4f} s > traced wall {c.wall_s:.4f} s")
    for res in (plain, traced):
        if res.criteria_failed or not res.correct:
            problems.append(f"{res.criteria_failed} of {res.criteria_expected} criteria failed, "
                            f"{res.failed} of {res.attempted} checks failed: "
                            + "; ".join(p for c in res.children for p in c.problems))
    for p in problems:
        print(f"FAIL {p}")
    print(f"selfcheck: {'FAIL' if problems else 'ok'} "
          f"({len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics; "
          f"traced wall {traced.metrics['trace.wall_s']:.3f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
