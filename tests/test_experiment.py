import json
from pathlib import Path

import numpy as np
import pytest

from _oracles import fmt17
from torusbergman.cli import main as cli_main
from torusbergman.experiment import (
    EXPERIMENTS,
    ConfigError,
    emit_report,
    fit_slope,
    parse_config,
    run,
)

MINIMAL = """
factor = 0.0 1.0 -1
k_ladder = 2 3 4 5
seed = 7
experiments = dims
"""

SMOKE = """
factor = 0.0 1.0 -1
factor = 0.0 1.0 1
k_ladder = 4 6 8 10
theta_eps = 1e-12
seed = 20260810
experiments = dims density offdiag
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.k_ladder == (2, 3, 4, 5)
        assert cfg.model.degrees == (-1,)

    def test_non_monotone_ladder_rejected(self):
        bad = MINIMAL.replace("k_ladder = 2 3 4 5", "k_ladder = 8 8 12")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("non-monotone" in v[2] for v in err.value.violations)

    def test_retired_keys_ignored_with_warning(self):
        # grid_n and gram_tol took no effect; they still parse (old configs carry
        # them) and each is named in the summary's warnings, which bench reads
        # as failures only when they start with "experiment "
        cfg = parse_config(MINIMAL + "grid_n = 10\ngram_tol = 1e-9\n")
        rep = run(cfg)
        retired = [w for w in rep.warnings if "retired" in w]
        assert [w.split()[2] for w in retired] == ["grid_n", "gram_tol"]
        assert rep.passed and not any(w.startswith("experiment ") for w in rep.warnings)
        assert not {"grid_n", "gram_tol"} & set(rep.environment)
        assert run(parse_config(MINIMAL)).warnings == []

    def test_thin_torus_dims_passes_a1_at_grid_floor(self):
        # at Im tau = 0.05 a 4m-point quadrature leaves the factor Gram 8.6e-5
        # off its closed form; dims sizes its quadrature from Im tau itself.
        # A2's stencil residual at grid 64 is 2.0e-5 there, so A2 doubles its
        # grid until the residual meets 1e-6 (3.3e-7 at grid 128); at tau =
        # 0.3 + i grid 64 already gives 8.6e-9
        for factor, grid in [("0.0 0.05 -1", 128), ("0.3 1.0 1", 64)]:
            cfg = f"factor = {factor}\nk_ladder = 2 4 6 8\nexperiments = dims\n"
            rep = run(parse_config(cfg))
            assert [c["pass"] for c in rep.criteria if c["criterion_id"] == "A1"] == [True]
            assert max(row[4] for row in rep.tables["dims"][1]) <= 1e-9
            (a2,) = [c for c in rep.criteria if c["criterion_id"] == "A2"]
            assert a2["pass"] and a2["measured"] <= 1e-6
            assert f"at grid {grid} " in a2["description"]

    def test_unknown_key_rejected_with_line(self):
        bad = MINIMAL + "wibble = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any(v[1] == "wibble" and "unknown" in v[2] for v in err.value.violations)

    def test_all_violations_collected(self):
        bad = "factor = 0.0 -1.0 0\nk_ladder = 5 4\nnope = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        fields = {v[1] for v in err.value.violations}
        assert {"factor", "k_ladder", "nope"} <= fields

    def test_fit_based_requires_four_ladder_points(self):
        bad = MINIMAL.replace("k_ladder = 2 3 4 5", "k_ladder = 2 3 4").replace(
            "experiments = dims", "experiments = offdiag")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("fit-based" in v[2] for v in err.value.violations)

    def test_dims_only_allows_short_ladder(self):
        ok = MINIMAL.replace("k_ladder = 2 3 4 5", "k_ladder = 2 3")
        cfg = parse_config(ok)
        assert cfg.k_ladder == (2, 3)

    def test_probe_and_budget_parsing(self):
        cfg = parse_config(MINIMAL + "probe_offdiag = 0.45 0.3 ; 0.35 0.3\nbudget_dims = 5.0\n")
        assert cfg.probes["offdiag"] == [(0.45, 0.3), (0.35, 0.3)]
        assert cfg.budgets["dims"] == 5.0

    def test_factors_reordered_negative_first(self):
        cfg = parse_config(SMOKE.replace("factor = 0.0 1.0 -1\nfactor = 0.0 1.0 1",
                                         "factor = 0.0 1.0 1\nfactor = 0.0 1.0 -1"))
        assert cfg.model.degrees == (-1, 1)

    def test_missing_required_keys_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 3\n")
        fields = {v[1] for v in err.value.violations}
        assert {"factor", "k_ladder"} <= fields

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "just some words\n")
        assert any("key = value" in v[2] for v in err.value.violations)

    def test_negative_seed_and_empty_scan_grid_rejected_with_line(self):
        # default_rng rejects a negative seed, and embed_grid_n < 1 left the
        # pullback grid empty, so A8 took its sup over the random cloud alone
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("seed = 7", "seed = -1") + "embed_grid_n = 0\n")
        assert {v[:2] for v in err.value.violations} == {(4, "seed"), (6, "embed_grid_n")}
        assert parse_config(MINIMAL.replace("seed = 7", "seed = 0") + "embed_grid_n = 1\n").seed == 0

    def test_bad_scalar_value_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("seed = 7", "seed = seven"))
        assert any(v[1] == "seed" and "parse" in v[2] for v in err.value.violations)


class TestFitSlope:
    def test_exact_power_law(self):
        ks = np.arange(4, 20)
        fit = fit_slope(ks, ks.astype(float) ** 2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_sequence(self):
        fit = fit_slope([4, 8, 16, 32], [3.7, 3.7, 3.7, 3.7])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_near_power_law_window(self):
        ks = np.arange(20, 41)
        fit = fit_slope(ks, ks**2 * (1 + 1 / ks))
        assert 1.95 <= fit.slope <= 2.0

    def test_nonpositive_value_reported_with_k(self):
        with pytest.raises(ValueError) as err:
            fit_slope([1, 2, 3, 4], [1.0, -1.0, 2.0, 3.0])
        assert "k=2" in str(err.value)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([1, 2, 3], [1.0, 2.0, 3.0])


def _cell_oracle(header, rows) -> bytes:
    """The CSV of a table with every cell formatted on its own by _cell, each
    block first expanded to its lines (the arrays' line and the scalar cells)."""
    from torusbergman.experiment import _cell

    lines = [header]
    for row in rows:
        arrays = [v for v in row if isinstance(v, np.ndarray)]
        if not arrays:
            lines.append([_cell(v) for v in row])
        for i in range(len(arrays[0]) if arrays else 0):
            lines.append([_cell(x) for v in row
                          for x in (np.atleast_1d(v[i]) if isinstance(v, np.ndarray) else [v])])
    return "".join(",".join(line) + "\n" for line in lines).encode()


@pytest.fixture(scope="module")
def smoke():
    return parse_config(SMOKE)


class TestRun:
    def test_rerun_byte_identical(self, smoke, tmp_path):
        r1 = run(smoke)
        r2 = run(smoke)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(r1, d1)
        emit_report(r2, d2)
        for name in ("dims.csv", "density.csv", "offdiag.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_isolation_of_experiments(self, smoke, tmp_path):
        full = run(smoke)
        partial = run(smoke, experiments=("dims", "density"))
        d1, d2 = tmp_path / "full", tmp_path / "part"
        emit_report(full, d1)
        emit_report(partial, d2)
        for name in ("dims.csv", "density.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert not (d2 / "offdiag.csv").exists()

    def test_summary_schema(self, smoke, tmp_path):
        rep = run(smoke, experiments=("dims",))
        emit_report(rep, tmp_path)
        data = json.loads((tmp_path / "summary.json").read_text())
        assert set(data) >= {"criteria", "environment", "pass", "warnings"}
        ids = [c["criterion_id"] for c in data["criteria"]]
        assert len(ids) == len(set(ids))
        for c in data["criteria"]:
            assert set(c) == {"criterion_id", "description", "measured", "threshold", "pass"}
            assert c["criterion_id"].startswith("A")
        env = data["environment"]
        assert "numpy" in env and "wall_seconds" in env and env["seed"] == 20260810

    def test_csv_format(self, smoke, tmp_path):
        rep = run(smoke, experiments=("density",))
        emit_report(rep, tmp_path)
        lines = (tmp_path / "density.csv").read_bytes().split(b"\n")
        assert lines[0] == b"z0,z1,z2,z3,k,density,b0k_n,relerr"
        cells = [l.split(b",")[5].decode() for l in lines[1:] if l]
        assert cells and all(c == fmt17(float(c)) for c in cells)
        assert not any(l.endswith(b"\r") for l in lines)

    def test_cell_formats_like_fmt17(self):
        from torusbergman.experiment import _cell

        for v in (0.1, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  np.float32(0.1), np.float64(1 / 3)):
            assert _cell(v) == format(float(v), ".17g")
        assert _cell(1 + 2j) == format(1.0, ".17g") + "," + format(2.0, ".17g")
        assert _cell(np.complex128(0.1 - 1j / 3)) == "0.10000000000000001,-0.33333333333333331"
        assert (_cell(np.int64(5)), _cell(True), _cell("x")) == ("5", "True", "x")

    def test_row_templates_write_what_cell_writes(self, tmp_path):
        from torusbergman.experiment import RunReport, _cell

        values = [0.1, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  np.float32(0.1), np.float64(1 / 3), np.int64(5), True, "x",
                  1 + 2j, np.complex128(0.1 - 1j / 3)]
        # the first column takes every type in turn; the last row repeats the
        # first row's types, so it reuses a cached template
        rows = [[v] + values for v in values] + [[0.25] + values]
        header = [f"c{i}" for i in range(len(rows[0]))]
        rep = RunReport(criteria=[], tables={"dims": (header, rows)}, wall={}, warnings=[],
                        environment={})
        emit_report(rep, tmp_path)
        want = "".join(",".join(line) + "\n" for line in [header] + [map(_cell, r) for r in rows])
        assert (tmp_path / "dims.csv").read_bytes() == want.encode()

    def test_emit_report_streams_rows(self, tmp_path):
        # pullback.csv's shape in the embed_sig11 benchmark: 57,344 rows x 13
        # floats, about 15 MB of text; the writer holds one row of it at a time
        import tracemalloc

        from torusbergman.experiment import RunReport

        block = np.random.default_rng(0).random((64, 13)).tolist()
        rep = RunReport(criteria=[], tables={"pullback": ([f"c{i}" for i in range(13)], block * 896)},
                        wall={}, warnings=[], environment={})
        tracemalloc.start()
        try:
            emit_report(rep, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "pullback.csv").stat().st_size > 10_000_000
        assert peak < 5_000_000

    def test_blocks_write_what_cell_writes(self, tmp_path):
        from torusbergman.experiment import _CHUNK, RunReport

        edge = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, 1 / 3])
        edge = np.concatenate([edge, np.nextafter(edge[6:], np.inf), np.nextafter(edge[6:], -np.inf),
                               np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)])
        rng = np.random.default_rng(5)
        P = 2 * _CHUNK + 5       # two full chunks and a short one
        rows = [[1, "x", 0.25, True],
                [rng.choice(edge, (P, 3)), 7, "m", True, 1 + 2j, np.complex128(0.5 - 1j),
                 rng.choice(edge, P), np.float32(0.1), rng.choice(edge, (P, 1))],
                [np.float64(-0.0), np.int64(3), "y", 2j],
                [rng.choice(edge, (5, 4)), rng.choice(edge, 5)],
                [np.empty((0, 2)), "empty block"]]
        header = [f"c{i}" for i in range(12)]
        rep = RunReport(criteria=[], tables={"pullback": (header, rows)}, wall={}, warnings=[],
                        environment={})
        emit_report(rep, tmp_path)
        assert (tmp_path / "pullback.csv").read_bytes() == _cell_oracle(header, rows)

    def test_block_of_unequal_lengths_rejected(self, tmp_path):
        from torusbergman.experiment import RunReport

        block = [np.zeros(3), 4, np.zeros((4, 2))]
        rep = RunReport(criteria=[], tables={"pullback": (["a", "k", "b0", "b1"], [block])},
                        wall={}, warnings=[], environment={})
        with pytest.raises(ValueError, match="unequal lengths"):
            emit_report(rep, tmp_path)

    @pytest.mark.parametrize("blocks,lines", [(14, 4096), (1, 65536)])
    def test_emit_report_streams_blocks(self, tmp_path, blocks, lines):
        # embed_sig11's pullback table (14 blocks of 4096 lines), and one block
        # at embed_grid_n = 16: the text is held one chunk at a time.  As in
        # pullback.csv, a cell depends on one factor's grid point (the error
        # column on both, through a max)
        import tracemalloc

        from torusbergman.experiment import RunReport

        rng = np.random.default_rng(1)
        q = int(np.sqrt(lines))
        i, j = np.divmod(np.arange(lines), q)
        rows = []
        for _ in range(blocks):
            z, f, e = rng.random((2, q, 2)), rng.random((2, q)), rng.random((2, q))
            zero = np.zeros(lines)
            rows.append([np.hstack([z[0][i], z[1][j]]), 4, "ddbar_log",
                         np.stack([f[0][i], zero, zero, zero, zero, f[1][j]], axis=1),
                         np.maximum(e[0][i], e[1][j])])
        rep = RunReport(criteria=[], tables={"pullback": ([f"c{i}" for i in range(13)], rows)},
                        wall={}, warnings=[], environment={})
        tracemalloc.start()
        try:
            emit_report(rep, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "pullback.csv").read_bytes().count(b"\n") == blocks * lines + 1
        assert peak < 5_000_000

    def test_smoke_pullback_csv_is_the_cell_oracle(self, tmp_path):
        cfg = parse_config((Path(__file__).parent.parent / "configs" / "sig11_smoke.cfg").read_text())
        rep = run(cfg, experiments=("pullback",))
        emit_report(rep, tmp_path)
        header, rows = rep.tables["pullback"]
        assert (tmp_path / "pullback.csv").read_bytes() == _cell_oracle(header, rows)

    def test_pullback_blocks_are_block_diagonal(self):
        cfg = parse_config(SMOKE.replace("dims density offdiag", "pullback") + "embed_grid_n = 3\n")
        rep = run(cfg)
        assert rep.passed, rep.criteria
        header, blocks = rep.tables["pullback"]
        assert sum(len(b[0]) for b in blocks) == 2 * 4 * 3 ** 4
        cross = [header.index(h) - header.index("f01") for h in ("f02", "f03", "f12", "f13")]
        for grid, k, method, comps, err in blocks:
            assert type(k) is int and type(method) is str
            assert grid.dtype == comps.dtype == err.dtype == np.float64
            assert len(grid) == len(comps) == len(err)
            assert grid.shape[1] + 2 + comps.shape[1] + 1 == len(header)
            assert np.all(comps[:, cross] == 0.0)     # cross-factor cells

    def test_budget_warning_not_failure(self, smoke):
        cfg = parse_config(SMOKE + "budget_dims = 0.000001\n")
        rep = run(cfg, experiments=("dims",))
        assert any("exceeded budget" in w for w in rep.warnings)
        assert rep.passed

    def test_budget_all_bounds_the_summed_time(self, smoke):
        rep = run(parse_config(SMOKE + "budget_all = 0.000001\n"), experiments=("dims",))
        assert [w for w in rep.warnings if "budget_all" in w]
        assert rep.passed and not any(w.startswith("experiment ") for w in rep.warnings)
        assert not run(smoke, experiments=("dims",)).warnings

    def test_failed_experiment_recorded_not_raised(self):
        cfg = parse_config(SMOKE + "probe_offdiag = 0.1 0.2 ; 0.3\n")  # wrong length
        rep = run(cfg, experiments=("offdiag", "dims"))
        assert not rep.passed
        assert any("offdiag" in w for w in rep.warnings)
        # the warning names the exception type and where it was raised
        (w,) = [w for w in rep.warnings if w.startswith("experiment offdiag failed: ")]
        assert "ValueError: " in w and "(at geometry.py:" in w and " in check_point)" in w
        ids = {c["criterion_id"]: c["pass"] for c in rep.criteria}
        assert ids["A4"] is False
        assert ids["A1"] is True    # sibling unaffected

    def test_retired_workers_key_warned_same_result(self, smoke, tmp_path):
        # experiments run one after another; a workers key is parsed, warned about
        # and ignored
        cfg2 = parse_config(SMOKE + "workers = 2\n")
        assert [w.split()[2] for w in cfg2.warnings] == ["workers"]
        r1 = run(smoke)
        r2 = run(cfg2)
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        emit_report(r1, d1)
        emit_report(r2, d2)
        for name in ("dims.csv", "density.csv", "offdiag.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_emit_idempotent_overwrite(self, smoke, tmp_path):
        rep = run(smoke, experiments=("dims",))
        emit_report(rep, tmp_path)
        first = (tmp_path / "dims.csv").read_bytes()
        emit_report(rep, tmp_path)
        assert (tmp_path / "dims.csv").read_bytes() == first


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert cli_main(["dims", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("k_ladder = 2 3 4 5", "k_ladder = 8 8"))
        assert cli_main(["dims", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "non-monotone" in capsys.readouterr().err

    def test_exit_two_on_missing_config(self, tmp_path):
        assert cli_main(["dims", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "out")]) == 2

    def test_exit_one_on_failed_criterion(self, tmp_path):
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(SMOKE + "probe_offdiag = 0.1 0.2 ; 0.3\n")
        assert cli_main(["offdiag", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1

    def test_all_runs_config_experiments(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "dims.csv").exists()


class TestShippedConfigs:
    def test_all_shipped_configs_parse(self):
        cfg_dir = Path(__file__).resolve().parents[1] / "configs"
        files = sorted(cfg_dir.glob("*.cfg"))
        assert files
        for f in files:
            cfg = parse_config(f.read_text())
            assert set(cfg.experiments) <= set(EXPERIMENTS)

    def test_dims_passes_a1_on_shipped_configs(self):
        cfg_dir = Path(__file__).resolve().parents[1] / "configs"
        for f in sorted(cfg_dir.glob("*.cfg")):
            rep = run(parse_config(f.read_text()), experiments=("dims",))
            a1 = [c for c in rep.criteria if c["criterion_id"] == "A1"]
            assert a1 and a1[0]["pass"], f.name
