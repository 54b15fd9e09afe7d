"""bench/ drives the package from outside: child.py wraps the functions named in
its SPANS and binds their arguments by name, and run.py feeds its workload
configs to the CLI.  These tests keep that contract visible in Tier 1."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusbergman import basis, embedding, theta
from torusbergman.cli import main as cli_main
from torusbergman.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules while being built
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


@pytest.fixture(scope="module")
def child():
    return _load("child")


@pytest.fixture(scope="module")
def bench_run():
    return _load("run")


def test_every_span_resolves_to_a_callable(child):
    for modname, names in child.SPANS.items():
        mod = importlib.import_module(f"torusbergman.{modname}")
        for qual in names:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{modname}.{qual}"


def test_span_arguments_bound_by_name_exist():
    # the tracer reads weighted_table's m, z and orders and build_basis's model
    assert {"m", "z", "orders"} <= set(inspect.signature(theta.weighted_table).parameters)
    assert "model" in inspect.signature(basis.build_basis).parameters


def test_every_workload_config_parses_at_seed_1(bench_run):
    assert bench_run.WORKLOADS
    for name, w in bench_run.WORKLOADS.items():
        cfg = parse_config(w.config.format(seed=1))
        assert cfg.seed == 1, name


def test_every_workload_passes_the_bench_gate(bench_run, tmp_path):
    # what run.py's correctness gate reads: the workload's own output check,
    # its expected criteria, and no failed-experiment warning
    for name, w in bench_run.WORKLOADS.items():
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_text(w.config.format(seed=1))
        assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 0, name
        assert w.check(out) is None, name
        summary = json.loads((out / "summary.json").read_text())
        verdicts = {}
        for c in summary["criteria"]:
            verdicts.setdefault(c["criterion_id"], []).append(c["pass"])
        for cid in w.expected:
            assert verdicts.get(cid) and all(verdicts[cid]), (name, cid)
        assert not [x for x in summary["warnings"] if x.startswith("experiment ")], name


def test_no_embed_run_enters_a_product_route(bench_run, tmp_path, monkeypatch):
    # every shipped config that runs embed, and the bench's embed workload,
    # read factor tables only: the (dim, P) product tables, the product Gram
    # and the one-point differential are the tests' oracles
    def refuse(*args, **kwargs):
        raise AssertionError("a run entered a product-basis route")

    for owner, name in [(basis.HarmonicBasis, "values"), (basis.HarmonicBasis, "jets"),
                        (basis.HarmonicBasis, "_combine"), (basis, "gram"), (embedding, "differential")]:
        monkeypatch.setattr(owner, name, refuse)
    configs = Path(__file__).resolve().parents[1] / "configs"
    runs = {p.stem: p for p in sorted(configs.glob("*.cfg")) if "embed" in parse_config(p.read_text()).experiments}
    assert sorted(runs) == ["sig10_embed", "sig11_embed", "sig11_smoke"]
    runs["embed_sig11"] = tmp_path / "embed_sig11.cfg"
    runs["embed_sig11"].write_text(bench_run.WORKLOADS["embed_sig11"].config.format(seed=1))
    for name, cfg in runs.items():
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0, name


def test_no_run_calls_lapack(bench_run, tmp_path, monkeypatch):
    # every shipped config and every bench workload runs on closed forms: line
    # fits, two-row factor ranks and b0 take no LAPACK route, so a run never
    # loads its code; np.linalg.norm is no LAPACK call and stays allowed
    called = []

    def refusing(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"a run called np.linalg.{name}")
        return refuse

    for name in ("lstsq", "svd", "svdvals", "det", "slogdet", "eig", "eigh", "eigvals", "eigvalsh",
                 "solve", "inv", "pinv", "qr", "cholesky", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refusing(name))
    runs = {p.stem: p for p in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))}
    assert len(runs) == 10
    for name, w in bench_run.WORKLOADS.items():
        runs[name] = tmp_path / f"{name}.cfg"
        runs[name].write_text(w.config.format(seed=1))
    codes = {name: cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / name)]) for name, cfg in runs.items()}
    assert called == []
    assert codes == dict.fromkeys(runs, 0)


_BOTH = {"basis.build_basis", "basis.orthonormalize", "cli.parse_config", "experiment.emit_report", "experiment.run"}
TRACED_SPANS = {
    "decay_sig10": _BOTH | {"basis.factor_tables", "theta.weighted_table", "kernel.density",
                            "kernel.disc_model_density", "kernel.far_separation_check", "kernel.offdiagonal_fit",
                            "kernel.ratio_profile", "kernel.trace_density", "experiment.density",
                            "experiment.far", "experiment.offdiag", "experiment.ratio"},
    "dims_sig12": _BOTH | {"basis.factor_gram", "experiment.dims"},
    "embed_sig11": _BOTH | {"basis.factor_tables", "theta.weighted_table", "embedding.convergence_report",
                            "embedding.derivative_sums", "embedding.injectivity_scan", "embedding.pullback_ddbar_many",
                            "embedding.pullback_jacobian_many", "embedding.well_defined_check", "experiment.derivs",
                            "experiment.embed", "experiment.pullback"},
}


@pytest.mark.parametrize("name", sorted(TRACED_SPANS))
def test_traced_child_records_every_span(bench_run, tmp_path, name):
    # `bench/run.py --trace 1` children wrap the SPANS functions from outside,
    # on the modules that held them when the bench was written; a route that
    # moves module must stay reachable there (0.2-0.4 s a workload)
    cfg, record = tmp_path / f"{name}.cfg", tmp_path / "record.json"
    cfg.write_text(bench_run.WORKLOADS[name].config.format(seed=1))
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "trace", str(ROOT / "src"), str(cfg),
                           str(tmp_path / "out"), str(record)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, **bench_run.PIN, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads(record.read_text())["spans"]
    assert {s[0] for s in spans} == TRACED_SPANS[name]
