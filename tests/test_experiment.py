import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import expand_form_fields, fmt17, lstsq_fit_line, product_grid
from torusbergman import basis as basis_mod
from torusbergman.cli import main as cli_main
from torusbergman.config import EXPERIMENTS, ConfigError, parse_config
from torusbergman.experiment import _describe, run
from torusbergman.report import IndexedColumn, emit_report
from torusbergman.util import Draws, fit_line, fit_slope

MINIMAL = """
factor = 0.0 1.0 -1
k_ladder = 2 3 4 5
seed = 7
experiments = dims
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMOKE = """
factor = 0.0 1.0 -1
factor = 0.0 1.0 1
k_ladder = 4 6 8 10
theta_eps = 1e-12
seed = 20260810
experiments = dims density offdiag
"""


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports the package from this checkout; its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


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
        # grid_n and gram_tol took no effect, and slope_margin could only loosen
        # A9; they still parse (old configs carry them) and each is named in the
        # summary's warnings, which bench reads as failures only when they start
        # with "experiment "
        cfg = parse_config(MINIMAL + "grid_n = 10\ngram_tol = 1e-9\nslope_margin = 5\n")
        rep = run(cfg)
        retired = [w for w in rep.warnings if "retired" in w]
        assert [w.split()[2] for w in retired] == ["grid_n", "gram_tol", "slope_margin"]
        assert rep.passed and not any(w.startswith("experiment ") for w in rep.warnings)
        assert not {"grid_n", "gram_tol", "slope_margin"} & set(rep.environment)
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
        # random.Random(-s) repeats seed s's stream, and embed_grid_n < 1 left the
        # pullback grid empty, so A8 took its sup over the random cloud alone;
        # embed_grid_n = 1 leaves A7's FS scan one point, paired with itself
        for grid_n in (0, 1):
            with pytest.raises(ConfigError) as err:
                parse_config(MINIMAL.replace("seed = 7", "seed = -1") + f"embed_grid_n = {grid_n}\n")
            assert {v[:2] for v in err.value.violations} == {(4, "seed"), (6, "embed_grid_n")}
        assert parse_config(MINIMAL.replace("seed = 7", "seed = 0") + "embed_grid_n = 2\n").seed == 0

    def test_repeated_experiment_rejected_with_line(self):
        # experiments = dims dims ran dims twice and wrote A1 and A2 twice
        # into summary.json
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("experiments = dims", "experiments = dims embed dims"))
        ((ln, key, msg),) = err.value.violations
        assert (ln, key) == (5, "experiments") and "repeated" in msg

    def test_empty_experiment_list_rejected_with_line(self, tmp_path, capsys):
        # experiments = parsed to (): the run evaluated no criterion, and
        # `torus-bergman all` exited 0 with "criteria": [], a pass that checked nothing
        bad = MINIMAL.replace("experiments = dims", "experiments =")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        ((ln, key, msg),) = err.value.violations
        assert (ln, key) == (5, "experiments") and "names no experiment" in msg
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad)
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "line 5: [experiments]" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key, problem", [
        ("k_ladder = 8 8 16 20", "k_ladder", "non-monotone ladder (8, 8, 16, 20)"),
        ("k_ladder = 0 3 4 5", "k_ladder", "entries must be positive: (0, 3, 4, 5)"),
        ("k_ladder = 2 3 4\nexperiments = far", "k_ladder", "length 3 < 4 required by fit-based experiments"),
        ("theta_eps = 0", "theta_eps", "must be positive"),
    ])
    def test_ladder_and_eps_violations_name_their_line(self, line, key, problem, tmp_path, capsys):
        # each was reported at line 0, which only a missing required key keeps
        text = "factor = 0.0 1.0 -1\nseed = 7\n" + line + "\n"
        text += "" if "k_ladder" in line else "k_ladder = 2 3 4 5\n"
        text += "" if "experiments" in line else "experiments = dims\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [(3, key, problem)]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"line 3: [{key}] {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["budget_dims = -1", "budget_all = 0", "budget_embed = -0.0"])
    def test_non_positive_budget_rejected_with_line(self, line):
        # budget_dims = -1 warned "exceeded budget: 0.0s > -1.0s" on every run
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        ((ln, key, msg),) = err.value.violations
        assert (ln, key) == (6, line.split()[0]) and "must be positive" in msg
        assert parse_config(MINIMAL + line.split("=")[0] + "= 1e-9\n").budgets

    @pytest.mark.parametrize("line, problem", [
        ("probe_far = 0.1 0.2 0.3 ; 0.4 0.5 0.6", "got [3, 3]"),
        ("probe_derivs = 0.1", "got [1]"),
        ("probe_density = 0.1 0.2 ; 0.3", "got [2, 1]"),
        ("probe_offdaig = 0.1 0.2 ; 0.3 0.4", "unknown probe 'offdaig'"),
        ("probe_offdiag = 0.1 0.2", "at least 2 points, got 1"),
        ("probe_far = 0.1 0.2", "at least 2 points, got 1"),
        ("probe_ratio = 0.1 0.2 ;", "at least 2 points, got 1"),
        ("probe_density =", "at least 1 point, got 0"),
        ("probe_derivs = ;", "at least 1 point, got 0"),
    ])
    def test_bad_probe_rejected_with_line(self, line, problem, tmp_path, capsys):
        # each of these used to pass the validator: the first three then failed
        # their experiment with a ValueError, the misspelt name was ignored,
        # and a one-point pair probe was replaced by a random pair, as an empty
        # probe list was by random points
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        ((ln, key, msg),) = err.value.violations
        assert (ln, key) == (6, line.split()[0]) and problem in msg
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + line + "\n")
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"line 6: [{key}]" in capsys.readouterr().err

    def test_bad_scalar_value_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("seed = 7", "seed = seven"))
        assert any(v[1] == "seed" and "parse" in v[2] for v in err.value.violations)

    @pytest.mark.parametrize("line, key", [
        ("factor = nan 1.0 1", "factor"),                   # tau_re
        ("factor = 0.0 inf 1", "factor"),                   # tau_im
        ("theta_eps = nan", "theta_eps"),
        ("theta_eps = inf", "theta_eps"),
        ("budget_density = nan", "budget_density"),
        ("budget_all = inf", "budget_all"),
        ("probe_density = nan 0.5", "probe_density"),
        ("probe_far = 0.1 0.2 ; 0.3 -inf", "probe_far"),
    ])
    def test_non_finite_number_rejected_with_line(self, line, key):
        # each passed every range check: a nan probe or an infinite tau gave an
        # all-nan density.csv with A3 passing, a nan tau or theta_eps failed
        # density with a ValueError, and a nan budget never warned
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        ((ln, k, msg),) = err.value.violations
        assert (ln, k) == (6, key) and "finite" in msg

    @pytest.mark.parametrize("line", ["seed = 2", "k_ladder = 2 3 4 6", "experiments = dims", "theta_eps = 1e-10",
                                      "embed_grid_n = 4", "probe_density = 0.1 0.2", "budget_dims = 5"])
    def test_repeated_key_rejected_naming_both_lines(self, line):
        # the later line silently won: seed = 7 then seed = 2 parsed to seed 2
        key = line.split()[0]
        text = MINIMAL if key in MINIMAL else MINIMAL + line + "\n"
        first = next(i for i, raw in enumerate(text.splitlines(), 1) if raw.split()[:1] == [key])
        with pytest.raises(ConfigError) as err:
            parse_config(text + line + "\n")
        ((ln, k, msg),) = err.value.violations
        assert (ln, k) == (len(text.splitlines()) + 1, key) and f"line {first}" in msg
        # factor repeats by design, one line per factor
        assert len(parse_config(MINIMAL + "factor = 0.0 1.0 1\n").factors) == 2


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

    def test_is_fit_line_on_logs(self):
        ks, vals = np.arange(4, 20), np.linspace(1.0, 9.0, 16) ** 3
        assert fit_slope(ks, vals) == fit_line(np.log(ks), np.log(vals))


class TestFitLine:
    # the closed form against the least-squares solve: slopes times the x
    # span, fitted values and residuals, all over max |y|, agree within 1e-14
    # (worst seen 6.7e-15 over 34,000 draws of these kinds)
    @staticmethod
    def _deviation(x, y):
        a, b = fit_line(x, y), lstsq_fit_line(x, y)
        scale = np.max(np.abs(y))
        return max(abs(a.slope - b.slope) * np.ptp(x),
                   np.max(np.abs(a.intercept + a.slope * x - b.intercept - b.slope * x)),
                   abs(a.residual - b.residual)) / scale

    def test_integer_line_recovered_exactly(self):
        # exact on 7 - 3x over x = 4..19, where the least-squares solve came
        # back 1.3e-15 off in slope and 1.5e-14 in intercept
        x = np.arange(4, 20)
        assert tuple(fit_line(x, 7 - 3 * x)) == (-3.0, 7.0, 0.0)

    def test_matches_lstsq_on_random_data(self):
        rng = np.random.default_rng(25)
        for n in rng.integers(3, 41, size=200):
            assert self._deviation(rng.normal(size=n), rng.normal(size=n)) <= 1e-14

    def test_matches_lstsq_on_integer_lines(self):
        rng = np.random.default_rng(26)
        for lo, n, a, b in rng.integers([-50, 3, 1, -20], [50, 60, 50, 20], size=(200, 4)):
            x = np.arange(lo, lo + n)
            assert self._deviation(x, a + b * x) <= 1e-14

    @pytest.mark.parametrize("lo, hi, step", [(4, 16, 1), (8, 40, 4), (200, 800, 50), (400, 1600, 100)])
    def test_matches_lstsq_on_log_ladders(self, lo, hi, step):
        # log f(k) against log k as the rate fits see it, plus a decay line in k
        x = np.log(np.arange(lo, hi + 1, step))
        rng = np.random.default_rng(lo)
        for slope, icpt in rng.uniform(-5, 5, size=(100, 2)) * [1, 6]:
            assert self._deviation(x, slope * x + icpt + 0.1 * rng.normal(size=len(x))) <= 1e-14
        assert self._deviation(x, -0.7 * np.exp(x)) <= 1e-14


class TestDraws:
    def test_shapes_and_uniform_range(self):
        d = Draws(3)
        assert d.random(5).shape == (5,) and d.random((4, 3)).shape == (4, 3)
        assert d.normal(size=7).shape == (7,) and d.normal((2, 5)).shape == (2, 5)
        u = Draws(3).random((100, 4))
        assert np.all((u >= 0) & (u < 1))

    def test_same_seed_same_stream_distinct_seeds_distinct(self):
        a, b = Draws(11), Draws(11)
        assert a.random(6).tolist() == b.random(6).tolist()
        assert a.normal(size=5).tolist() == b.normal(size=5).tolist()
        assert Draws(11).random(6).tolist() != Draws(12).random(6).tolist()

    def test_normal_moments(self):
        # mean and variance of 10^4 standard normals within 5 standard errors
        n = 10**4
        x = Draws(5).normal(size=n)
        assert abs(x.mean()) < 5 / np.sqrt(n)
        assert abs(x.var() - 1) < 5 * np.sqrt(2 / n)

    def test_injectivity_scan_default_rng_deterministic(self):
        from torusbergman.basis import build_basis
        from torusbergman.embedding import injectivity_scan

        b = build_basis(parse_config(SMOKE).model, 4)
        r1, r2 = injectivity_scan(b, grid_n=6), injectivity_scan(b, grid_n=6)
        assert r1.near_diagonal_alpha == r2.near_diagonal_alpha
        assert r1.min_fs_distance == r2.min_fs_distance


def _cell_oracle(header, rows) -> bytes:
    """The CSV of a table with every cell formatted on its own by _cell, each
    block first expanded to its lines (the arrays' line and the scalar cells;
    an IndexedColumn is first spread to its P values)."""
    from torusbergman.report import IndexedColumn, _cell

    lines = [header]
    for row in rows:
        row = [v.values[v.index] if isinstance(v, IndexedColumn) else v for v in row]
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
            assert set(c) == {"criterion_id", "description", "measured", "threshold", "pass", "checks"}
            assert c["criterion_id"].startswith("A")
            # sub-check records: the criterion's pass is their AND, its measured and
            # threshold are the first one's
            assert c["checks"] and all(set(s) == {"name", "measured", "bound", "pass"} for s in c["checks"])
            assert c["pass"] is all(s["pass"] for s in c["checks"])
            assert (c["measured"], c["threshold"]) == (c["checks"][0]["measured"], c["checks"][0]["bound"])
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
        from torusbergman.report import _cell

        for v in (0.1, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  np.float32(0.1), np.float64(1 / 3)):
            assert _cell(v) == format(float(v), ".17g")
        assert _cell(1 + 2j) == format(1.0, ".17g") + "," + format(2.0, ".17g")
        assert _cell(np.complex128(0.1 - 1j / 3)) == "0.10000000000000001,-0.33333333333333331"
        assert (_cell(np.int64(5)), _cell(True), _cell("x")) == ("5", "True", "x")

    def test_row_templates_write_what_cell_writes(self, tmp_path):
        from torusbergman.report import RunReport, _cell

        values = [0.1, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  np.float32(0.1), np.float64(1 / 3), np.int64(5), True, "x",
                  1 + 2j, np.complex128(0.1 - 1j / 3)]
        # the first column takes every type in turn; the last row repeats the
        # first row's types, so it reuses a cached template
        rows = [[v] + values for v in values] + [[0.25] + values]
        header = [f"c{i}" for i in range(len(rows[0]))]
        rep = RunReport(criteria=[], tables={"dims": (header, rows)}, warnings=[],
                        environment={})
        emit_report(rep, tmp_path)
        want = "".join(",".join(line) + "\n" for line in [header] + [map(_cell, r) for r in rows])
        assert (tmp_path / "dims.csv").read_bytes() == want.encode()

    def test_emit_report_streams_rows(self, tmp_path):
        # pullback.csv's row shape in the embed_sig11 benchmark, 13 floats, on
        # 14,336 rows: about 3.7 MB of text, over 3x the peak bound, so a writer
        # that holds the whole text fails; this one holds a row at a time
        import tracemalloc

        from torusbergman.report import RunReport

        block = np.random.default_rng(0).random((64, 13)).tolist()
        rep = RunReport(criteria=[], tables={"pullback": ([f"c{i}" for i in range(13)], block * 224)},
                        warnings=[], environment={})
        tracemalloc.start()
        try:
            emit_report(rep, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1_000_000
        assert (tmp_path / "pullback.csv").stat().st_size > 3 * bound
        assert peak < bound

    def test_blocks_write_what_cell_writes(self, tmp_path):
        from torusbergman.report import _CHUNK, RunReport

        edge = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, 1 / 3])
        edge = np.concatenate([edge, np.nextafter(edge[6:], np.inf), np.nextafter(edge[6:], -np.inf),
                               np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)])
        rng = np.random.default_rng(5)
        P = 2 * _CHUNK + 5       # two full chunks and a short one
        every = np.arange(P) % len(edge)        # each edge bit pattern on some line
        shared = rng.integers(0, 6, P)

        def col(shape, lines=P):     # edge values, each line reading a random one
            values = rng.choice(edge, shape)
            return IndexedColumn(values, rng.integers(0, len(values), lines))

        rows = [[1, "x", 0.25, True],
                [IndexedColumn(np.stack([edge, edge[::-1], np.roll(edge, 3)], axis=1), every), 7, "m", True,
                 1 + 2j, np.complex128(0.5 - 1j), IndexedColumn(edge, every[::-1]), np.float32(0.1), col((40, 1))],
                [np.float64(-0.0), np.int64(3), "y", 2j],
                [col((5, 4), 5), col(5, 5)],
                [IndexedColumn(np.empty((0, 2)), np.empty(0, dtype=np.intp)), "empty block"],
                # a 2-D IndexedColumn, and scalars before the first column
                [2, "lead", np.float64(0.5), col((7, 3)), col(P)],
                # scalars between two columns and after the last one
                [col(30), 4, "mid", col(9), 0.0, 0.0, col((11, 2)), -0.0, "tail", 3j],
                # IndexedColumns sharing an index, with and without scalars between them
                [IndexedColumn(rng.choice(edge, (6, 2)), shared), IndexedColumn(rng.choice(edge, 6), shared),
                 "k", IndexedColumn(rng.choice(edge, 6), shared), col((50, 5))]]
        header = [f"c{i}" for i in range(12)]
        rep = RunReport(criteria=[], tables={"pullback": (header, rows)}, warnings=[],
                        environment={})
        emit_report(rep, tmp_path)
        assert (tmp_path / "pullback.csv").read_bytes() == _cell_oracle(header, rows)

    def test_block_of_unequal_lengths_rejected(self, tmp_path):
        from torusbergman.report import RunReport

        block = [IndexedColumn(np.zeros(1), np.zeros(3, dtype=np.intp)), 4,
                 IndexedColumn(np.zeros((1, 2)), np.zeros(4, dtype=np.intp))]
        rep = RunReport(criteria=[], tables={"pullback": (["a", "k", "b0", "b1"], [block])},
                        warnings=[], environment={})
        with pytest.raises(ValueError, match="unequal lengths"):
            emit_report(rep, tmp_path)

    @pytest.mark.parametrize("blocks,lines", [(14, 4096), (1, 65536)])
    def test_emit_report_streams_blocks(self, tmp_path, blocks, lines):
        # embed_sig11's pullback table (14 blocks of 4096 lines), and one block
        # at embed_grid_n = 16: the text is held one chunk at a time.  As in
        # pullback.csv, a cell reads one factor's grid pair (the error column
        # reads the worse of the two factors' deviations)
        import tracemalloc

        from torusbergman.report import RunReport

        rng = np.random.default_rng(1)
        q = int(np.sqrt(lines))
        i, j = np.divmod(np.arange(lines), q)
        rows = []
        for _ in range(blocks):
            z, f, e = rng.random((2, q, 2)), rng.random((2, q)), rng.random(2 * q)
            rows.append([IndexedColumn(z[0], i), IndexedColumn(z[1], j), 4, "ddbar_log",
                         IndexedColumn(f[0], i), 0.0, 0.0, 0.0, 0.0, IndexedColumn(f[1], j),
                         IndexedColumn(e, np.where(e[i] >= e[q + j], i, q + j))])
        rep = RunReport(criteria=[], tables={"pullback": ([f"c{i}" for i in range(13)], rows)},
                        warnings=[], environment={})
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

    def test_smoke_pullback_bytes_and_a8_pinned(self, tmp_path):
        # pullback.csv and A8's rate on the smoke config, as written when A8
        # evaluated each factor's form on a one-factor HarmonicBasis through the
        # product-table route; the factor fields reproduce them bit for bit.
        # The rate is pinned as the closed-form line fit gives it, 1 ulp above
        # the least-squares solve's 9.155627425575709
        import hashlib

        cfg = parse_config((Path(__file__).parent.parent / "configs" / "sig11_smoke.cfg").read_text())
        rep = run(cfg, experiments=("pullback",))
        emit_report(rep, tmp_path)
        assert hashlib.sha256((tmp_path / "pullback.csv").read_bytes()).hexdigest() == (
            "c33a143b77baa27c43aef23d86fea43e5b4562a46a41bd2b53c6394b6b87bd7a")
        (a8,) = rep.criteria
        assert a8["pass"] and a8["measured"] == 9.15562742557571

    def test_sig11_embed_pullback_bytes_pinned(self, tmp_path):
        # configs/sig11_embed.cfg's pullback.csv (6,250 lines on grid 5 and
        # ladder 4..12) as written before the per-block text tables
        import hashlib

        cfg = parse_config((Path(__file__).parent.parent / "configs" / "sig11_embed.cfg").read_text())
        emit_report(run(cfg, experiments=("pullback",)), tmp_path)
        text = (tmp_path / "pullback.csv").read_bytes()
        assert text.count(b"\n") == 6251
        assert hashlib.sha256(text).hexdigest() == (
            "bb899fcb20bd88f1f47ad923f0bb23bb15fb1fdaecd31391bb4d378e8d965e23")

    def test_pullback_blocks_are_block_diagonal(self):
        from torusbergman.pullback import convergence_report

        cfg = parse_config(SMOKE.replace("dims density offdiag", "pullback") + "embed_grid_n = 3\n")
        rep = run(cfg)
        assert rep.passed, rep.criteria
        conv = convergence_report(cfg.model, cfg.k_ladder, grid_n=3)
        grid = product_grid(conv.grid, 2)
        header, blocks = rep.tables["pullback"]
        assert len(blocks) == 2 * 4 and header[:6] == ["z0", "z1", "z2", "z3", "k", "method"]
        own = [header.index(h) - header.index("f01") for h in ("f01", "f23")]
        for g0, g1, k, method, *comps, err in blocks:
            assert type(k) is int and type(method) is str
            assert isinstance(err, IndexedColumn) and err.values.dtype == np.float64
            assert len(err) == 3 ** 4 and err.values.shape == (2 * 3 ** 2,)
            assert 2 * 2 + 2 + len(comps) + 1 == len(header)
            # factor t's grid coordinates: its 3^2 pairs, gathered through each line's pair
            for t, g in enumerate((g0, g1)):
                assert isinstance(g, IndexedColumn) and g.values.shape == (3 ** 2, 2)
                assert g.values[g.index].tobytes() == grid[:, 2 * t:2 * t + 2].tobytes()
            form = expand_form_fields([f[:3 ** 2] for f in conv.fields[(method, k)]], 3 ** 2)
            for c, cell in enumerate(comps):
                if c in own:      # factor t's form values, gathered through its grid pair
                    t = own.index(c)
                    assert isinstance(cell, IndexedColumn) and len(cell) == len(err)
                    assert cell.values.dtype == np.float64
                    assert cell.values[cell.index].tobytes() == form[:, 2 * t, 2 * t + 1].tobytes()
                else:             # cross-factor cells
                    assert type(cell) is float and cell == 0.0

    @pytest.mark.parametrize("factors, ladder, grid_n", [
        ("factor = 0.3 1.1 -1\n", "4 6 8 10", 5),
        # a factor twice: both deviations tie wherever the two pairs agree
        ("factor = 0.0 1.0 1\nfactor = 0.0 1.0 1\n", "4 6 8 10", 3),
        ("factor = 0.0 1.0 -1\nfactor = 0.0 1.0 -1\nfactor = -0.2 0.9 1\n", "2 3 4 5", 2),
    ], ids=["n1", "n2", "n3"])
    def test_pullback_err_is_the_max_over_factors(self, factors, ladder, grid_n):
        from torusbergman.pullback import convergence_report
        from torusbergman.geometry import omega

        cfg = parse_config(factors + f"k_ladder = {ladder}\nembed_grid_n = {grid_n}\nexperiments = pullback\n")
        n, q = cfg.model.n, grid_n ** 2
        conv = convergence_report(cfg.model, cfg.k_ladder, grid_n=grid_n)
        w = np.diag(omega(cfg.model), 1)[::2]
        blocks = run(cfg).tables["pullback"][1]
        assert len(blocks) == 2 * len(cfg.k_ladder)
        ties = 0
        for block in blocks:
            k, method, err = block[n], block[n + 1], block[-1]
            form = expand_form_fields([f[:q] for f in conv.fields[(method, k)]], q)
            dev = np.abs(np.stack([form[:, 2 * t, 2 * t + 1] for t in range(n)]) - w[:, None])
            want = np.max(dev, axis=0)
            assert err.values[err.index].tobytes() == want.tobytes()
            ties += int(np.sum(np.sum(dev == want, axis=0) > 1))
        assert ties > 0 or n == 1

    @pytest.mark.parametrize("special, generic, passed", [
        (None, 2.5, True),      # special sums exactly zero: the gap is inf
        (None, None, False),    # generic fit missing too: the gap is nan, and generic_ok fails
        (1.0, None, False),     # a missing generic fit counts as slope -inf
        (1.3, 1.7, False),      # both slope bounds hold, but 1.7 - 1.3 rounds below 0.4
        (1.0, 1.8, True),
    ])
    def test_a9_verdict_with_exact_zeros_and_missing_fits(self, monkeypatch, special, generic, passed):
        # A9's gap is min(generic slopes) - max(special slopes); the verdict is
        # the one of the smallest pairwise gap, which skipped a nan pair
        from torusbergman import pullback
        from torusbergman.util import SlopeFit

        slopes = {(0, "L"): special, (0, "Lbar"): generic}

        def fake(bases, p):
            ks = np.array([b.k for b in bases], dtype=float)
            return pullback.DerivativeReport(
                ks=ks, sums={d: np.zeros(len(ks)) for d in slopes},
                families={(0, "L"): "special", (0, "Lbar"): "generic"},
                slopes={d: None if v is None else SlopeFit(v, 0.0, 0.0) for d, v in slopes.items()},
                exact_zero={d for d, v in slopes.items() if v is None}, extremal_dev=0.0)

        monkeypatch.setattr(pullback, "derivative_sums", fake)
        (a9,) = run(parse_config(MINIMAL.replace("experiments = dims", "experiments = derivs"))).criteria
        assert a9["criterion_id"] == "A9" and a9["pass"] is passed

    def test_nan_density_fails_a3(self, monkeypatch):
        # Python's max(a, nan) is a, so a nan density once vanished from A3's
        # worst deviation and A3 passed on nan densities
        from torusbergman import kernel

        real = kernel.density

        def one_nan(bas, pts):
            d = np.array(real(bas, pts))
            d[1] = np.nan
            return d

        monkeypatch.setattr(kernel, "density", one_nan)
        (a3,) = run(parse_config(SMOKE), experiments=("density",)).criteria
        assert a3["criterion_id"] == "A3" and np.isnan(a3["measured"])
        assert [c["name"] for c in a3["checks"] if not c["pass"]] == ["density_dev"]

    def test_nan_gram_deviation_fails_a1(self, monkeypatch):
        # the same for a rung's Gram deviation, once kept by max(dev, d) as 0
        from types import SimpleNamespace

        real = basis_mod.factor_gram

        def one_nan(f, k, **kw):
            d = real(f, k, **kw).diagonal.copy()
            d[0] = np.nan
            return SimpleNamespace(diagonal=d)

        monkeypatch.setattr(basis_mod, "factor_gram", one_nan)
        a1 = run(parse_config(MINIMAL)).criteria[0]
        assert {c["name"] for c in a1["checks"] if not c["pass"]} == {"gram_min_eig", "gram_dev"}

    def test_frontier_ladder_memory(self):
        # signature (1,2) to k = 36 (dim 46,656): A6 and A7's rank check go factor
        # by factor, so no product-basis table of the 65-point profile or of the
        # 50 rank points is formed (the product routes needed several hundred MB)
        cfg = parse_config("factor = 0 1 -1\nfactor = 0 1 1\nfactor = 0 1 1\n"
                           "k_ladder = 8 12 16 36\nexperiments = ratio embed\n")
        tracemalloc.start()
        try:
            rep = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed, rep.criteria
        assert peak < 40_000_000

    def test_generator_made_on_first_draw(self, tmp_path):
        # a CLI run of every experiment draws from the stdlib generator, so it
        # never imports numpy.random and the secrets / hmac / libcrypto modules
        # behind it, nor subprocess (platform.platform() forks `uname -p`), nor
        # numpy.polynomial (the disc oracle's radial integrals are closed forms), nor
        # traceback (a failed experiment's warning walks the traceback itself)
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "sig11_smoke.cfg"
        assert parse_config(cfg_path.read_text()).experiments == EXPERIMENTS
        code = (f"import sys\nfrom torusbergman.cli import main\n"
                f"assert main(['all', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                "print([m for m in ('numpy.random', 'numpy.polynomial', 'secrets', 'hmac', '_hashlib',"
                " 'subprocess', 'traceback') if m in sys.modules])\n")
        assert _fresh_python(code).splitlines()[-1] == "[]"
        # the stream is random.Random's at the experiment's seed: the run's
        # density probes, and the embed generator's first draws
        import random

        seed = parse_config(cfg_path.read_text()).seed
        r = random.Random(seed + 1000 * EXPERIMENTS.index("density"))
        probes = json.loads((tmp_path / "summary.json").read_text())["environment"]["probes"]
        assert probes["density"] == [[r.random() for _ in range(4)] for _ in range(5)]
        r = random.Random(seed + 1000 * EXPERIMENTS.index("embed"))
        want = [[r.random() for _ in range(4)] for _ in range(3)]
        assert Draws(seed + 1000 * EXPERIMENTS.index("embed")).random((3, 4)).tolist() == want

    def test_remaining_dataclasses_need_generated_methods(self):
        # each @dataclass costs a CLI run several exec'd functions at import, so a
        # plain record is a NamedTuple or a plain class; these read what is generated
        import dataclasses
        import importlib
        import inspect

        need = {
            "geometry.TorusFactor": "frozen value validated in __post_init__; ProductModel's __eq__ compares factors",
            "geometry.ProductModel": "value __eq__/__hash__, and repr(model) names a basis build in bench traces",
            "config.ExperimentConfig": "dataclasses.replace sets fields the validator refuses",
        }
        found = set()
        src = Path(__file__).resolve().parents[1] / "src" / "torusbergman"
        for name in sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__"):
            mod = importlib.import_module(f"torusbergman.{name}")
            found |= {f"{name}.{c}" for c, obj in vars(mod).items()
                      if inspect.isclass(obj) and obj.__module__ == mod.__name__ and dataclasses.is_dataclass(obj)}
        assert found == set(need)

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
        # the validator refuses a wrong-length probe, so it is set past parse_config
        from dataclasses import replace

        cfg = replace(parse_config(SMOKE), probes={"offdiag": [(0.1, 0.2), (0.3,)]})  # wrong length
        rep = run(cfg, experiments=("offdiag", "dims"))
        assert not rep.passed
        assert any("offdiag" in w for w in rep.warnings)
        # the warning names the exception type and where it was raised
        (w,) = [w for w in rep.warnings if w.startswith("experiment offdiag failed: ")]
        assert "ValueError: " in w and "(at geometry.py:" in w and " in check_point)" in w
        ids = {c["criterion_id"]: c["pass"] for c in rep.criteria}
        assert ids["A4"] is False
        assert ids["A1"] is True    # sibling unaffected

    def test_describe_names_the_innermost_frame(self):
        # the frame traceback.extract_tb names last, read from the traceback
        # itself: a nested raise, re-raised, from a call spanning two lines
        import traceback

        def inner():
            return int(
                "not a number")

        def outer():
            try:
                inner()
            except ValueError:
                raise

        try:
            outer()
        except ValueError as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            assert where.name == "inner"
            assert _describe(exc) == (f"ValueError: {exc} "
                                      f"(at {Path(where.filename).name}:{where.lineno} in {where.name})")

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


class TestDims:
    def test_one_factor_gram_per_tau_level_and_rung(self, monkeypatch):
        # bench dims_sig12's model: the conjugate factor's Gram is the conjugate of the
        # holomorphic one's, so one Gram per rung serves all three factors (4 calls, not 8),
        # and each row is bit for bit the per-factor route's
        cfg = parse_config("factor = 0 1 -1\nfactor = 0 1 1\nfactor = 0 1 1\n"
                           "k_ladder = 4 8 10 12\nexperiments = dims\n")
        calls = []
        real = basis_mod.factor_gram
        monkeypatch.setattr(basis_mod, "factor_gram",
                            lambda f, k, **kw: calls.append(k) or real(f, k, **kw))
        rep = run(cfg)
        assert rep.passed and calls == [4, 8, 10, 12]
        for k, _, _, eig, dev in rep.tables["dims"][1]:
            want_eig, want_dev = 1.0, 0.0
            for f in cfg.model.factors:
                g = real(f, k).diagonal
                c = basis_mod.theta_gram_diagonal(len(g), f.im_tau)
                want_eig *= g.min()
                want_dev = max(want_dev, float(np.max(np.abs(g - c))) / c)
            assert (eig, dev) == (want_eig, want_dev)

    def test_dims_makes_no_eigensolve(self, monkeypatch):
        # two distinct (tau, level) Grams per rung, (i, k) for both signs and
        # (0.3 + 1.2i, 2k): each is diagonal, so its eigenvalues are its entries
        cfg = parse_config("factor = 0 1 -1\nfactor = 0 1 1\nfactor = 0.3 1.2 2\n"
                           "k_ladder = 2 3 4\nexperiments = dims\n")
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: sizes.append(len(a)) or real(a, *args, **kw))
        (a1,) = run(cfg).criteria
        assert a1["pass"] and sizes == []

    def test_one_factor_quadrature_past_k_1000(self, monkeypatch):
        # the Gram and trace at levels 400..1600 hold one 1-D profile per grid:
        # the alias-pair route formed a (4m, N) term table, ~983 MB at m = 1600
        cfg = parse_config("factor = 0 1 -1\nk_ladder = 400 800 1200 1600\nexperiments = dims density\n")
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: sizes.append(len(a)) or real(a, *args, **kw))
        tracemalloc.start()
        try:
            rep = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c["criterion_id"] for c in rep.criteria if c["pass"]] == ["A1", "A2", "A3"]
        assert sizes == []
        assert peak < 5e6, peak      # measured: 2.4 MB

    @pytest.mark.parametrize("name, text", [
        ("a1_d2.cfg", "k,sections,expected,gram_min_eig,gram_dev\n"
                      "4,8,8,0.50000000000000011,2.2204460492503131e-16\n"
                      "8,16,16,0.35355339059327373,1.5700924586837749e-16\n"
                      "12,24,24,0.28867513459481287,1.9229626863835641e-16\n"
                      "16,32,32,0.24999999999999997,1.1102230246251565e-16\n"),
        ("a1_p12.cfg", "k,sections,expected,gram_min_eig,gram_dev\n"
                       "4,32,32,0.35355339059327379,2.2204460492503131e-16\n"
                       "8,128,128,0.17677669529663689,2.2204460492503131e-16\n"
                       "12,288,288,0.11785113019775789,1.9229626863835641e-16\n"
                       "16,512,512,0.088388347648318419,1.5700924586837749e-16\n"),
    ])
    def test_a1_dims_bytes_pinned(self, name, text, tmp_path):
        # A1's gram_min_eig and gram_dev bits on two shipped configs, as written
        # when each factor Gram is the profile-sum diagonal
        cfg = parse_config((Path(__file__).parent.parent / "configs" / name).read_text())
        emit_report(run(cfg, experiments=("dims",)), tmp_path)
        assert (tmp_path / "dims.csv").read_text() == text

    def test_a2_control_on_the_final_grid(self, monkeypatch):
        # a thin factor (Im tau = 0.05) takes A2 to grid 128; the control perturbs
        # factor 0's member on the final grid, and equals the separate evaluation
        cfg = parse_config("factor = 0 0.05 -1\nfactor = 0 1 1\nk_ladder = 2 3\nexperiments = dims\n")
        controls = []
        real_residual = basis_mod.factor_harmonicity_residual

        def residual(f, k, j, **kw):
            r = real_residual(f, k, j, **kw)
            if kw.get("perturb") is not None:
                controls.append((f, k, j, kw["grid_n"], kw["perturb"], r))
            return r

        monkeypatch.setattr(basis_mod, "factor_harmonicity_residual", residual)
        _, a2 = run(cfg).criteria
        assert a2["pass"] and "grid 128" in a2["description"]
        ((f, k, j, grid, perturb, got),) = controls
        assert (f, k, j, grid) == (cfg.model.factors[0], 1, 0, 128)
        assert got == real_residual(f, k, j, grid_n=grid, perturb=perturb)

    @pytest.mark.parametrize("im_tau, grid", [(0.03, 256), (0.005, 512)])
    def test_a2_doubles_its_grid_past_128(self, im_tau, grid):
        # thinner factors take A2's grid to 256 and to its cap, 512
        cfg = parse_config(f"factor = 0 {im_tau} -1\nfactor = 0 1 1\nk_ladder = 2 3\nexperiments = dims\n")
        a1, a2 = run(cfg).criteria
        assert a1["pass"] and a2["pass"], (a1, a2)
        assert f"grid {grid}" in a2["description"]


class TestCollectorFreeze:
    # importing torusbergman.cli freezes the import heap once, so no collection
    # walks it, the interpreter's final ones included; each check in a new interpreter
    def test_package_import_freezes_nothing(self):
        _fresh_python("import gc\nimport torusbergman\nassert gc.get_freeze_count() == 0\n")

    def test_cli_import_freezes_the_import_heap(self):
        _fresh_python("import gc\nthreshold = gc.get_threshold()\nimport torusbergman.cli\n"
                      "assert gc.get_freeze_count() > 10_000, gc.get_freeze_count()\n"
                      "assert len(gc.get_objects()) < 1_000, len(gc.get_objects())\n"
                      "assert gc.isenabled() and gc.get_threshold() == threshold\n")

    def test_cli_run_freezes_nothing_more(self, tmp_path):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "sig11_smoke.cfg"
        _fresh_python(f"import gc\nfrom torusbergman.cli import main\nfrozen = gc.get_freeze_count()\n"
                      f"assert main(['all', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                      "assert gc.get_freeze_count() == frozen, (frozen, gc.get_freeze_count())\n")

    def test_cycle_made_after_import_is_collected(self):
        _fresh_python("import gc\nimport weakref\nimport torusbergman.cli\n"
                      "class Node:\n    pass\n"
                      "node = Node()\nnode.self = node\nref = weakref.ref(node)\ndel node\n"
                      "gc.collect()\nassert ref() is None\n")


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
        # a valid probe pair half a period apart, too far for A4's Gaussian
        # decay law (rel_dev 0.20 > 0.1)
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(SMOKE + "probe_offdiag = 0.1 0.1 0.1 0.1 ; 0.6 0.1 0.1 0.1\n")
        assert cli_main(["offdiag", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("text, cid, failing", [
        # a far probe pair: the kernel is at its rounding floor at k = 10
        ((CONFIGS / "sig11_smoke.cfg").read_text() + "probe_offdiag = 0.1 0.2 0.3 0.4 ; 0.6 0.7 0.8 0.9\n",
         "A4", "floored_rungs"),
        # rounding drift above the floor: the ddbar route's E(k) rises 3.7x from k = 100 to 200
        ("factor = 0.0 1.0 -1\nfactor = 0.0 1.0 1\nk_ladder = 50 100 200 300\nexperiments = pullback\n",
         "A8", "rise_ddbar_log"),
        # at k = 4000 the full pair's kernel sits on a rounding plateau above
        # the floor while the half pair's still follows the law: the two decay
        # constants are not 4x apart
        ("factor = 0 1 -1\nfactor = 0 1 1\nfactor = 0 1 1\nk_ladder = 8 16 32 4000\nseed = 1\n"
         "experiments = offdiag\n", "A4", "quad_ratio_dev"),
    ], ids=["far_probe", "ddbar_rise", "quad_plateau"])
    def test_fail_line_names_the_sub_check_past_its_bound(self, tmp_path, capsys, text, cid, failing):
        # a failing check is reported, not raised: no experiment fails, and the
        # FAIL line ends with the failing sub-checks, each past its own bound
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(text)
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not any(w.startswith("experiment ") for w in summary["warnings"])
        (crit,) = [c for c in summary["criteria"] if not c["pass"]]
        check = {s["name"]: s for s in crit["checks"]}[failing]
        assert crit["criterion_id"] == cid and not check["pass"] and check["measured"] > check["bound"]
        tail = "".join(f"  {s['name']}={s['measured']:.6g} ({s['bound']:.6g})" for s in crit["checks"] if not s["pass"])
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(f"{cid} FAIL  ")]
        assert line.endswith(tail) and f"  {failing}={check['measured']:.6g} ({check['bound']:.6g})" in tail

    def test_all_runs_config_experiments(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "dims.csv").exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
                             ids=lambda p: p.name)
    def test_cli_all_passes_every_criterion_without_warnings(self, path, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["all", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["criteria"] and all(c["pass"] for c in summary["criteria"])
        assert summary["pass"] and summary["warnings"] == []
        # every criterion carries its sub-check records, and its pass is their AND
        assert all(c["checks"] and c["pass"] is all(s["pass"] for s in c["checks"]) for c in summary["criteria"])

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
