"""Command-line driver.

    torus-bergman <experiment> --config <path> --out <dir>

where <experiment> is one of dims, density, offdiag, far, ratio, embed,
pullback, derivs, or all.  `all` runs the config's enabled experiment list;
a named experiment runs exactly that experiment.  Each criterion prints one
PASS or FAIL line; a FAIL line ends with its failing sub-checks, written
name=value (bound).  Exit code is 0 iff every criterion evaluated in the run
passed.  Importing this module calls gc.freeze()
once: the import heap lives until exit, so no collection, exit's included, need
walk it; objects made later are collected as before.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from .config import EXPERIMENTS, ConfigError, parse_config
from .experiment import run
from .report import emit_report

# The import heap lives until exit: frozen, no later collection walks it, exit's
# included.  Not in __init__ (library use) nor in main (tests call it in process).
gc.freeze()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torus-bergman",
                                     description="flat-torus Bergman kernel experiment suites")
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",), help="the suite to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory for CSV/JSON reports")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print("config validation failed:", file=sys.stderr)
        for ln, fieldn, msg in exc.violations:
            print(f"  line {ln}: [{fieldn}] {msg}", file=sys.stderr)
        return 2

    names = None if args.experiment == "all" else (args.experiment,)
    t0 = time.perf_counter()
    report = run(cfg, experiments=names)
    wall = time.perf_counter() - t0
    try:
        written = emit_report(report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for c in report.criteria:       # a FAIL line ends with its failing sub-checks
        failing = "".join(f"  {s['name']}={s['measured']:.6g} ({s['bound']:.6g})" for s in c["checks"] if not s["pass"])
        print(f"{c['criterion_id']} {'PASS' if c['pass'] else 'FAIL'}  measured={c['measured']:.6g} "
              f"threshold={c['threshold']:.6g}  {c['description']}{failing}")
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"wall time {wall:.1f}s; wrote {len(written)} files to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
