"""One `torus-bergman all` run in this process, for bench/run.py.

    python3 bench/child.py MODE SRC CONFIG OUT RECORD

MODE is `setup` (stop when `experiment.run` is entered), `info` (as
`setup`, and record the numpy version and the BLAS and its thread count),
`run` (the plain CLI run) or `trace` (the CLI run with a span around every
layer function listed in SPANS).  SRC is the directory the package must be
imported from.  RECORD receives a JSON object: the CLOCK_MONOTONIC time at
which `run` was entered and, when tracing, the spans.  The exit code is the
CLI's.

Spans are wrapped from outside the package: each listed function is replaced
in every `torusbergman` module namespace that holds it, because some modules
bind a function at import (`basis` binds `weighted_table`) and others look it
up at call time (`embedding` imports it inside a function, which reads the
patched `theta` attribute).

tracemalloc runs only inside the first `theta.weighted_table` call of each
(m, orders, len(z)) shape, which fixes the size of its tables.  Tracing
every allocation triples the self time of small theta calls, so the other
calls run without it.
"""

from __future__ import annotations

import ctypes
import functools
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

# Functions (or Class.method) wrapped in a traced run; spans are named <module>.<function>.
SPANS = {
    "theta": ["weighted_table"],
    "basis": ["build_basis", "factor_gram", "gram", "orthonormalize",
              "HarmonicBasis.factor_tables", "HarmonicBasis.values", "HarmonicBasis.jets"],
    "kernel": ["density", "trace_density", "offdiagonal_fit", "far_separation_check",
               "ratio_profile", "disc_model_density"],
    "embedding": ["well_defined_check", "injectivity_scan", "differential",
                  "convergence_report", "pullback_jacobian_many", "pullback_ddbar_many",
                  "derivative_sums"],
    "experiment": ["emit_report", "run"],
    "cli": ["parse_config"],
}


class _SetupDone(Exception):
    pass


class Tracer:
    """In-memory spans: [name, start, end, parent index, k, extra].

    One stack of open spans, so the run must be single-threaded; every
    workload sets workers = 1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._mem_shapes = set()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        mem = name == "theta.weighted_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            k = a.get("k")
            if k is None:
                k = next((v.k for v in a.values() if isinstance(getattr(v, "k", None), int)), None)
            k = None if k is None else int(k)
            extra = {}
            if name == "basis.build_basis":
                extra["model"] = repr(a["model"])
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, k, extra]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            sample = False
            if mem:
                nz = len(a["z"]) if hasattr(a["z"], "__len__") else 1
                extra["entries"] = int((a["orders"] + 1) * a["m"] * nz)
                shape = (a["m"], a["orders"], nz)
                sample = shape not in self._mem_shapes
                if sample:
                    self._mem_shapes.add(shape)
                    tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if sample:
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper

    def install(self, modules, exp_fn):
        """Wrap every SPANS entry, and each experiment in `exp_fn` in place."""
        for modname, names in SPANS.items():
            mod = modules[f"torusbergman.{modname}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = getattr(owner, attr)
                new = self.wrap(f"{modname}.{attr}", orig)
                if owner_name:
                    setattr(owner, attr, new)
                    continue
                for m in modules.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
        for key, fn in exp_fn.items():
            exp_fn[key] = self.wrap(f"experiment.{key}", fn)


def blas_info() -> dict:
    """numpy version, BLAS vendor and the thread count of the loaded OpenBLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    return {"numpy": np.__version__, "blas": vendor, "blas_threads": _openblas_threads()}


def _openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def main(mode, src, config, out, record) -> int:
    import torusbergman
    from torusbergman import cli, experiment

    if not Path(torusbergman.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"torusbergman imported from {torusbergman.__file__}, not {src}", file=sys.stderr)
        return 3
    rec = {"run_entry": None}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "torusbergman" or n.startswith("torusbergman."))}
        tracer.install(modules, experiment._EXP_FN)
    real_run = cli.run

    def entered(*args, **kwargs):
        rec["run_entry"] = time.monotonic()
        if mode in ("setup", "info"):
            raise _SetupDone
        return real_run(*args, **kwargs)

    cli.run = entered
    try:
        rc = cli.main(["all", "--config", config, "--out", out])
    except _SetupDone:
        rc = 0
    if tracer is not None:
        rec["spans"] = tracer.spans
    if mode == "info":
        rec["info"] = blas_info()
    Path(record).write_text(json.dumps(rec))
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
