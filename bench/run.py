#!/usr/bin/env python3
"""Benchmark of the torusbergman CLI: `torus-bergman all` on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn.  The benchmark uses
the package source of the checkout that holds this file (`src/`), writes the
workload's config with the given seed, and runs the CLI in one child process
at a time until S seconds have passed, with OpenBLAS and OpenMP pinned to one
thread.

With `--trace 0` every child runs untraced and the end-to-end metrics are
medians over children.  With `--trace 1` untraced and traced children
alternate; the traced ones wrap each layer's functions from outside the
package (bench/child.py) and give the per-layer metrics.

Each child's outputs are checked: its exit status, the workload's expected
acceptance criteria in summary.json, experiment-failure warnings, an
independent check of one CSV against a closed form, and byte-identical CSVs
across the children of one run.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 means the
outputs were correct, 1 that they were not, 2 that the benchmark could not
run (for instance when the checkout has no package source).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

# BLAS threads trade CPU for wall time and made dims_sig12 spread 3.1-4.8 s.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPS = 10      # extra setup-only children per untraced run
RUN_LIMIT_S = 165    # a run, children included, ends within this many seconds

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SELF_TIMED = [
    "theta.weighted_table",
    "basis.build_basis", "basis.factor_gram", "basis.gram", "basis.orthonormalize",
    "basis.factor_tables", "basis.values", "basis.jets",
    "kernel.density", "kernel.trace_density", "kernel.offdiagonal_fit",
    "kernel.far_separation_check", "kernel.ratio_profile", "kernel.disc_model_density",
    "embedding.well_defined_check", "embedding.injectivity_scan", "embedding.differential",
    "embedding.convergence_report", "embedding.pullback_jacobian_many",
    "embedding.pullback_ddbar_many", "embedding.derivative_sums",
    *(f"experiment.{e}" for e in ("dims", "density", "offdiag", "far", "ratio",
                                  "embed", "pullback", "derivs", "emit_report")),
    "cli.parse_config",
]
PER_LAYER = {
    **{f"{s}.s": "s" for s in SELF_TIMED},
    "theta.weighted_table.calls": "count",
    "theta.weighted_table.entries": "count",
    "theta.weighted_table.peak_mb": "MB",
    "basis.build_basis.calls": "count",
    "basis.build_basis.unique_frac": "ratio",
    "experiment.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# -- independent output checks: each returns a problem or None -------------


def _rows(path: Path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def check_sections(out: Path, degrees, ladder):
    """dims.csv lists k^n * prod|d| sections for every rung."""
    got = [(int(r["k"]), int(r["sections"])) for r in _rows(out / "dims.csv")]
    want = [(k, k ** len(degrees) * math.prod(abs(d) for d in degrees)) for k in ladder]
    return None if got == want else f"dims.csv sections {got}, expected {want}"


def check_plateau(out: Path, factors, k_min=16, tol=0.02):
    """density.csv is within tol of b0 k^n for k >= k_min.

    b0 = prod |d| / (2 Im tau): the density integrates to the section count
    over a torus of volume 2 Im tau per factor.
    """
    b0 = math.prod(abs(d) / (2 * im) for im, d in factors)
    n = len(factors)
    devs = [abs(float(r["density"]) / (b0 * int(r["k"]) ** n) - 1.0)
            for r in _rows(out / "density.csv") if int(r["k"]) >= k_min]
    if not devs or max(devs) > tol:
        return f"density.csv deviates from b0 k^n by {max(devs, default=math.nan):.3g} > {tol}"
    return None


def check_pullback(out: Path, n, grid, ladder):
    """pullback.csv has both methods on the whole grid, and the error falls."""
    count, err = Counter(), defaultdict(float)   # streamed: the file is 11 MB
    for r in _rows(out / "pullback.csv"):
        key = (r["method"], int(r["k"]))
        count[key] += 1
        err[key] = max(err[key], float(r["err"]))
    methods = sorted({m for m, _ in count})
    want = {(m, k): grid ** (2 * n) for m in methods for k in ladder}
    if len(methods) != 2 or dict(count) != want:
        return f"pullback.csv rows per (method, k) {dict(count)}, expected {grid ** (2 * n)} each"
    for m in methods:
        if not err[m, ladder[-1]] < err[m, ladder[0]]:
            return f"pullback.csv {m} error does not fall from k={ladder[0]} to k={ladder[-1]}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # config text; {seed} is replaced by the seed
    expected: tuple          # criterion ids the run must report, each passing
    check: Callable          # check(out_dir) -> problem or None


_COMMON = "theta_eps = 1e-12\ngram_tol = 1e-9\nslope_margin = 0.3\nseed = {seed}\nworkers = 1\n"
WORKLOADS = {w.name: w for w in [
    # configs/sig10_decay.cfg: bulk order-0 theta grids and the kernel layer.
    Workload("decay_sig10",
             "factor = 0.0 1.0 -1\nk_ladder = 8 12 16 20 24 28 32 36 40\ngrid_n = 160\n"
             + _COMMON + "experiments = density offdiag far ratio\n"
             "probe_offdiag = 0.45 0.30 ; 0.35 0.30\nprobe_far = 0.85 0.80 ; 0.35 0.30\n",
             ("A3", "A4", "A5", "A6"),
             partial(check_plateau, factors=[(1.0, -1)])),
    # Kronecker Gram and dense eigensolves up to dimension 1728; little theta work.
    Workload("dims_sig12",
             "factor = 0.0 1.0 -1\nfactor = 0.0 1.0 1\nfactor = 0.0 1.0 1\n"
             "k_ladder = 4 8 10 12\ngrid_n = 48\n" + _COMMON + "experiments = dims\n",
             ("A1", "A2"),
             partial(check_sections, degrees=(-1, 1, 1), ladder=(4, 8, 10, 12))),
    # Jets, pullback forms and FS scans on scattered points; an 11 MB report.
    Workload("embed_sig11",
             "factor = 0.0 1.0 -1\nfactor = 0.0 1.0 1\nk_ladder = 4 6 8 10 12 14 16\n"
             "grid_n = 64\nembed_grid_n = 8\n" + _COMMON + "experiments = embed pullback derivs\n",
             ("A7", "A8", "A9"),
             partial(check_pullback, n=2, grid=8, ladder=(4, 6, 8, 10, 12, 14, 16))),
]}


# -- children ---------------------------------------------------------------


@dataclass
class Child:
    mode: str                # setup, run or trace
    returncode: int          # negative: killed by that signal
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None    # spawn until experiment.run was entered
    spans: list = field(default_factory=list)
    info: dict = field(default_factory=dict)     # numpy and BLAS facts, from `info` children
    report_bytes: int = 0
    failed: set = field(default_factory=set)      # expected criteria not passed
    problems: list = field(default_factory=list)  # output checks not passed


def spawn(mode: str, cfg: Path, out: Path, limit: float) -> Child:
    """Run bench/child.py once; it reports into out, out.json and out.log."""
    record, log = out.with_suffix(".json"), out.with_suffix(".log")
    env = {**os.environ, "PYTHONPATH": str(SRC), **PIN}
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), mode, str(SRC), str(cfg),
                                 str(out), str(record)],
                                env=env, cwd=out.parent, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = json.loads(record.read_text()) if record.exists() else {}
    entry = rec.get("run_entry")
    child = Child(mode, proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss * 1024 / 1e6, None if entry is None else entry - t0,
                  rec.get("spans", []), rec.get("info", {}))
    if child.returncode != 0 or entry is None:
        tail = log.read_text()[-2000:]
        child.problems.append(f"{mode} child exited {child.returncode}: {tail}")
    return child


def assess(w: Workload, child: Child, out: Path) -> str | None:
    """Apply the correctness gate to a full child; return its CSV digest."""
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        summary = {"criteria": [], "warnings": [f"experiment summary failed: {exc}"]}
    verdicts = defaultdict(list)
    for c in summary.get("criteria", []):
        verdicts[c.get("criterion_id")].append(c.get("pass") is True)
    broken = child.returncode != 0 or any(
        x.startswith("experiment ") and " failed" in x for x in summary.get("warnings", []))
    child.failed = {cid for cid in w.expected
                    if broken or not verdicts[cid] or not all(verdicts[cid])}
    files = sorted(out.glob("*")) if out.is_dir() else []
    child.report_bytes = sum(p.stat().st_size for p in files)
    if child.returncode != 0:
        return None
    try:
        problem = w.check(out)
    except (OSError, KeyError, ValueError) as exc:
        problem = f"output check raised {type(exc).__name__}: {exc}"
    if problem:
        child.problems.append(problem)
    digest = hashlib.sha256()
    for p in files:
        if p.suffix == ".csv":
            digest.update(p.name.encode() + b"\0")
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
    return digest.hexdigest()


# -- metrics ----------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the child spans'."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s = defaultdict(float)
    for (name, t0, t1, *_), cov in zip(spans, covered):
        self_s[name] += (t1 - t0) - cov
    return self_s


def layer_metrics(child: Child) -> dict[str, float]:
    """Per-layer numbers of one traced child."""
    self_s = self_times(child.spans)
    calls = Counter(s[0] for s in child.spans)
    entries = peak = 0
    builds = set()
    for name, _, _, _, k, extra in child.spans:
        entries += extra.get("entries", 0)
        peak = max(peak, extra.get("peak_bytes", 0))
        if name == "basis.build_basis":
            builds.add((extra["model"], k))
    n_builds = calls["basis.build_basis"]
    return {
        **{f"{s}.s": self_s[s] for s in SELF_TIMED},
        "theta.weighted_table.calls": calls["theta.weighted_table"],
        "theta.weighted_table.entries": entries,
        "theta.weighted_table.peak_mb": peak / 1e6,
        "basis.build_basis.calls": n_builds,
        # no builds means none repeated
        "basis.build_basis.unique_frac": len(builds) / n_builds if n_builds else 1.0,
        "experiment.report_bytes": child.report_bytes,
        "trace.wall_s": child.wall_s,
    }


@dataclass
class Result:
    workload: str
    seed: int
    children: list
    metrics: dict            # name -> value
    units: dict              # name -> unit
    attempted: int
    failed: int
    criteria_expected: int
    criteria_failed: int
    info: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()}}


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    start = time.monotonic()
    work = Path(tempfile.mkdtemp(dir=work))
    cfg = work / f"{w.name}.cfg"
    cfg.write_text(w.config.format(seed=seed))
    left = lambda: RUN_LIMIT_S - (time.monotonic() - start)  # noqa: E731

    outs = (work / f"{i}.out" for i in itertools.count())
    warm = spawn("info", cfg, next(outs), left())   # byte-compiles the package
    children = [spawn("setup", cfg, next(outs), left())
                for _ in range(0 if trace else SETUP_REPS)]
    t_loop = time.monotonic()
    ref = None
    while True:
        t_round = time.monotonic()
        for mode in ("run", "trace") if trace else ("run",):
            out = next(outs)
            child = spawn(mode, cfg, out, left())
            digest = assess(w, child, out)
            shutil.rmtree(out, ignore_errors=True)
            ref = ref or digest
            if digest is not None and digest != ref:
                child.problems.append("CSV bodies differ from the run's first child")
            children.append(child)
        took = time.monotonic() - t_round
        if (time.monotonic() - t_loop + took > seconds or left() < 2 * took + 5
                or any(c.problems for c in children)):
            break

    # Every child has its own check; a full child also has its expected criteria.
    full = [c for c in children if c.mode != "setup"]
    attempted = len(children) + len(w.expected) * len(full)
    failed = sum(bool(c.problems) + len(c.failed) for c in children)
    plain = [c for c in full if c.mode == "run"]
    if trace:
        traced = [layer_metrics(c) for c in full if c.mode == "trace"]
        metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / statistics.median(c.wall_s for c in plain) - 1.0)
        units = PER_LAYER
    else:
        setups = [c.setup_s for c in children if c.setup_s is not None]
        metrics = {"wall_s": statistics.median(c.wall_s for c in plain),
                   "cpu_s": statistics.median(c.cpu_s for c in plain),
                   "peak_rss_mb": statistics.median(c.peak_rss_mb for c in plain),
                   "setup_s": statistics.median(setups) if setups else math.nan}
        units = END_TO_END
    return Result(w.name, seed, children, metrics, dict(units), attempted, failed,
                  len(w.expected) * len(full), sum(len(c.failed) for c in full), warm.info)


# -- provenance and entry point ---------------------------------------------


def _git_head(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(res: Result) -> None:
    """Human-readable lines for one workload, provenance first."""
    prov = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **res.info, "env": PIN, "git_head": _git_head(ROOT), "seed": res.seed}
    print(f"# {res.workload}  provenance={json.dumps(prov)}")
    for c in res.children:
        setup = "-" if c.setup_s is None else f"{c.setup_s:.4f}"
        print(f"#   child {c.mode:5s} rc={c.returncode} wall={c.wall_s:.3f}s cpu={c.cpu_s:.3f}s "
              f"rss={c.peak_rss_mb:.1f}MB setup={setup}s failed={sorted(c.failed)}")
        for p in c.problems:
            print(f"#     problem: {p}")
    for name, value in res.metrics.items():
        print(f"{res.workload} {name} = {value:.6g} {res.units[name]}")
    frac = res.criteria_failed / res.criteria_expected if res.criteria_expected else math.nan
    print(f"{res.workload} criteria_failed_frac = {frac:.6g} "
          f"({res.criteria_failed} of {res.criteria_expected} expected criteria)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "torusbergman" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'torusbergman'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        results = [measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), work)
                   for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for res in results:
        report(res)
    if len(results) == 1:
        line = results[0].line()
    else:
        line = {"correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {f"{r.workload}.{k}": v for r in results
                            for k, v in r.line()["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
