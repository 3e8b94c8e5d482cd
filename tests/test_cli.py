import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from nomacell import Inversion1DConfig, Inversion2DConfig, RateSolution, cli
from nomacell.cli import (ConfigError, PRESETS, load_config, main,
                          preset_path, run, validate)


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """
mode = conditional
sweep.axis = rate_far
sweep.values = 0.5, 1.0
methods = exact
seed = 7
"""


class TestConfigParsing:
    def test_defaults_mirror_table(self, tmp_path):
        cfg = load_config(_write(tmp_path, GOOD))
        assert cfg.params.M == 3 and cfg.params.N == 2 and cfg.params.K == 2
        assert cfg.params.alpha == 3.5
        assert cfg.params.P == pytest.approx(0.1)
        assert cfg.params.sigma2 == pytest.approx(10 ** -9.9 / 1000)
        assert cfg.pair.d_k == 50.0 and cfg.pair.d_kt == 125.0
        assert cfg.pair.beta_k2 == 0.3
        assert cfg.kappa == 0.9 and cfg.k_factor_db == 20.0
        assert cfg.seed == 7

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3"):
            load_config(_write(tmp_path, "\nmode = conditional\nbogus.key = 1\n"))

    def test_bad_value_reports_field(self, tmp_path):
        with pytest.raises(ConfigError, match="mc.trials"):
            load_config(_write(tmp_path, "mc.trials = many\n"))

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonempty"):
            load_config(_write(tmp_path, "sweep.values = \n"))

    def test_unsorted_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sorted"):
            load_config(_write(tmp_path, "sweep.values = 1.0, 0.5\n"))

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown method"):
            load_config(_write(tmp_path, "methods = exact, magic\n"))

    def test_nonpositive_rate_ratio_keeps_rate_near(self, tmp_path):
        for value in ("0", "-1"):
            cfg = load_config(_write(tmp_path, f"pair.rate_ratio = {value}\n"))
            assert cfg.rate_ratio is None

    def test_db_conversion_boundary(self, tmp_path):
        cfg = load_config(_write(tmp_path, "network.p_dbm = 30\n"))
        assert cfg.params.P == pytest.approx(1.0)

    def test_presets_all_parse(self):
        for name in PRESETS:
            cfg = load_config(preset_path(name), label=name)
            assert cfg.sweep_values
            assert cfg.label == name

    def test_readme_lists_every_key_with_its_default(self):
        # the README's config table is the schema's documentation: same
        # keys in the same order, and each written default parses to the
        # dataclass default
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = text.split("## Config format", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]*) \|", section, re.M)
        assert [key for key, _ in rows] == list(cli._KEYS)
        for key, cell in rows:
            part, name, parser = cli._KEYS[key]
            cls = cli._PARTS[part] if part else cli.ExperimentConfig
            default = {f.name: f.default for f in fields(cls)}[name]
            written = re.fullmatch(r"`([^`]*)`", cell.strip())
            assert written or default is None, key
            if written:
                assert parser(written.group(1)) == default, key


class TestRun:
    def test_csv_schema_and_determinism(self, tmp_path):
        text = GOOD + f"out = {tmp_path}/a\nmc.trials = 500\nmethods = exact, mc\n"
        cfg = load_config(_write(tmp_path, text))
        paths1 = run(cfg, deterministic=True)
        text2 = text.replace("/a", "/b")
        cfg2 = load_config(_write(tmp_path, text2, name="exp2.cfg"))
        paths2 = run(cfg2, deterministic=True)
        assert [p.name.split("_", 1)[1] for p in paths1] == \
               [p.name.split("_", 1)[1] for p in paths2]
        for p1, p2 in zip(sorted(paths1), sorted(paths2)):
            assert p1.read_bytes() == p2.read_bytes()
        header = sorted(paths1)[0].read_text().splitlines()[0]
        assert header == ("sweep_value,p_far,p_near,stderr_far,stderr_near,"
                          "goodput,method,seed")

    def test_timestamp_suppression(self, tmp_path):
        cfg = load_config(_write(tmp_path, GOOD + f"out = {tmp_path}/c\n"))
        (path,) = run(cfg, deterministic=False)
        assert path.read_text().startswith("# generated ")
        (path,) = run(cfg, deterministic=True)
        assert path.read_text().startswith("sweep_value,")

    @staticmethod
    def _fail_at(monkeypatch, name, rate):
        """Make one outage operator raise at far rate `rate`."""
        real = getattr(cli, name)

        def flaky(eff, pair, *args, **kwargs):
            if pair.R_kt == rate:
                raise FloatingPointError("transform returned non-finite values")
            return real(eff, pair, *args, **kwargs)

        monkeypatch.setattr(cli, name, flaky)

    def test_numerical_failure_does_not_abort(self, tmp_path, monkeypatch):
        # a point whose inversion fails is reported; the sweep finishes and
        # marks that row
        self._fail_at(monkeypatch, "far_outage_conditional", 0.5)
        cfg = load_config(_write(tmp_path, GOOD + f"out = {tmp_path}/d\n"))
        (path,) = run(cfg, deterministic=True)
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.5", "1"]
        assert rows[0][1:3] == ["nan", "nan"]
        assert "nan" not in rows[1]

    def test_failed_point_keeps_every_tag_aligned(self, tmp_path, monkeypatch):
        # each tag a method writes gets the failed point's NaN row, so every
        # CSV keeps one row per sweep value and no stray tag appears
        self._fail_at(monkeypatch, "far_outage_average", 1.0)
        text = ("mode = average\ngrouping = both\nsweep.values = 0.5, 1.0\n"
                f"methods = approx\nout = {tmp_path}/e\n")
        paths = run(load_config(_write(tmp_path, text)), deterministic=True)
        assert sorted(p.name for p in paths) == ["exp_approx-distance.csv",
                                                 "exp_approx-random.csv"]
        for p in paths:
            rows = [r.split(",") for r in p.read_text().splitlines()[1:]]
            tag = p.stem.split("_", 1)[1]
            assert [r[0] for r in rows] == ["0.5", "1"]
            assert rows[1][1:3] == ["nan", "nan"] and rows[1][6] == tag
            assert "nan" not in rows[0]

    def test_optimize_passes_both_inversion_configs(self, tmp_path,
                                                   monkeypatch):
        # the proposed design and the plain-NOMA baseline both run the exact
        # near-user outage, so both must see the configured 2D inversion
        seen = []

        def spy(link, epsilon, params, cfg=None, **kwargs):
            seen.append((cfg, kwargs.get("cfg2d")))
            return RateSolution(1.0, 0.5, 1.4, 0.01, 0.01)

        monkeypatch.setattr(cli, "maximize_goodput", spy)
        monkeypatch.setattr(cli, "baseline_goodput",
                            lambda *args, **kwargs: RateSolution(
                                0.5, 0.25, 0.7, 0.01, 0.01))
        text = ("methods = optimize\nsweep.axis = k_factor_db\n"
                "sweep.values = 20\ninv1d.q = 20\ninv2d.l = 30\n"
                f"inv2d.p_eps = 4\nout = {tmp_path}/o\n")
        run(load_config(_write(tmp_path, text)), deterministic=True)
        assert seen == [(Inversion1DConfig(q=20),
                         Inversion2DConfig(L=30, p_eps=4))] * 2


# Configs that must fail at load time, with a text the error must name.
BAD_CONFIGS = [
    pytest.param("channel.kappa = 1\n", "kappa", id="kappa"),
    pytest.param("sweep.axis = kappa\nsweep.values = 0.5, 1.0\n",
                 "kappa = 1.0", id="kappa-sweep"),
    pytest.param("sweep.values = -0.5, 0.5\n", "rate_far = -0.5",
                 id="rate-sweep"),
    pytest.param("sweep.values = nan, 0.5\n", "rate_far = nan",
                 id="rate-sweep-nan"),
    pytest.param("sweep.values = 2000\n", "rate_far = 2000.0",
                 id="rate-sweep-overflow"),
    pytest.param("sweep.axis = lambda_b\nsweep.values = -1e-5, 1e-5\n",
                 "lambda_b = -1e-05", id="lambda_b-sweep"),
    pytest.param("design = bogus\n", "bogus", id="design"),
    pytest.param("methods = optimize\noptimize.epsilon = 0\n",
                 "optimize.epsilon", id="epsilon"),
    pytest.param("mc.trials = 0\n", "mc.trials", id="trials"),
    pytest.param("mc.window_radius = -5000\n", "mc.window_radius",
                 id="window-radius"),
    pytest.param("mc.window_radius = nan\n", "mc.window_radius",
                 id="window-radius-nan"),
    pytest.param("mc.exclusion = bogus\n", "mc.exclusion", id="exclusion"),
    pytest.param("network.lambda_b = 0\nmc.exclusion = bogus\n",
                 "mc.exclusion", id="exclusion-no-base-stations"),
    pytest.param("inv1d.q = -1\n", "q=-1", id="inv1d-q"),
    pytest.param("inv2d.e_r = 2\n", "e_r=2.0", id="inv2d-e_r"),
    pytest.param("mode = average\nnetwork.lambda_b = 0\n", "lambda_b > 0",
                 id="average-no-base-stations"),
    pytest.param("mode = average\nsweep.axis = lambda_b\n"
                 "sweep.values = 0, 1e-5\n", "lambda_b > 0",
                 id="average-lambda_b-sweep"),
    # NaN fails every ordered comparison, so each check must reject it
    pytest.param("network.alpha = nan\n", "alpha must exceed 2", id="alpha-nan"),
    pytest.param("network.lambda_b = nan\n", "lambda_b must be",
                 id="lambda_b-nan"),
    pytest.param("network.p_dbm = nan\n", "P must be", id="p_dbm-nan"),
    pytest.param("network.rho_i_dbm = nan\n", "rho_I must be",
                 id="rho_i_dbm-nan"),
    pytest.param("network.sigma2_dbm = nan\n", "sigma2 must be",
                 id="sigma2_dbm-nan"),
    pytest.param("network.cell_constant = 0\n", "c must be positive",
                 id="cell-constant-zero"),
    pytest.param("network.pairs = 0\n", "K must be at least 1", id="pairs-zero"),
    pytest.param("network.pairs = -1\n", "K must be at least 1",
                 id="pairs-negative"),
    pytest.param("pair.d_near = nan\n", "distances", id="d_near-nan"),
    pytest.param("pair.d_far = nan\n", "distances", id="d_far-nan"),
    pytest.param("pair.rate_ratio = nan\n", "pair.rate_ratio",
                 id="rate-ratio-nan"),
    pytest.param("channel.k_factor_db = nan\n", "k_factor", id="k_factor-nan"),
    pytest.param("channel.h_norm2 = nan\n", "h_norm2", id="h_norm2-nan"),
    pytest.param("channel.h_norm2 = 0\n", "h_norm2", id="h_norm2-zero"),
    pytest.param("channel.h_norm2 = inf\n", "h_norm2", id="h_norm2-inf"),
    pytest.param("inv1d.a = nan\n", "A=nan", id="inv1d-a-nan"),
    pytest.param("inv1d.a = inf\n", "A=inf", id="inv1d-a-inf"),
    pytest.param("seed = -1\n", "seed must be a non-negative",
                 id="seed-negative"),
]


class TestMain:
    @pytest.mark.parametrize("text, named", BAD_CONFIGS)
    def test_bad_config_exits_2_before_any_point(self, tmp_path, monkeypatch,
                                                 capsys, text, named):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", str(_write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and named in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_validate_passes(self, capsys):
        assert main(["validate", "--trials", "4000"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_validate_detects_corrupt_discretization(self, capsys):
        assert main(["validate", "--trials", "2000", "--inv-a", "3"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] 1d discretization bound" in out
        assert "[FAIL] 1d:" in out

    @pytest.mark.parametrize("args, named", [
        (["--trials", "0"], "--trials"),
        (["--inv-a", "0"], "--inv-a"),
        (["--inv-a", "-3"], "--inv-a"),
        (["--inv-a", "inf"], "--inv-a"),
        (["--seed", "-1"], "--seed"),
    ])
    def test_validate_bad_option_exits_2_before_any_check(self, capsys, args,
                                                          named):
        assert main(["validate", *args]) == 2
        out, err = capsys.readouterr()
        assert "config error:" in err and named in err
        assert out == ""

    def test_missing_config_is_config_error(self, capsys):
        assert main(["sweep", "no-such-file.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_preset_sweep_runs(self, tmp_path):
        rc = main(["analyze", "fig6", "--out", str(tmp_path / "r"),
                   "--deterministic"])
        assert rc == 0
        files = sorted((tmp_path / "r").glob("*.csv"))
        assert any("exact" in f.name for f in files)
        assert any("asymptotic" in f.name for f in files)

    @pytest.mark.parametrize("line", ["network.alpha = 2.05",
                                      "network.sigma2_dbm = -inf"])
    def test_average_mode_boundaries(self, tmp_path, line):
        # alpha -> 2 is the distance average's hardest exponent (z^1.025
        # against z); a noise-free network takes its closed form
        text = (f"mode = average\ngrouping = both\nsweep.values = 0.25, 1.0\n"
                f"methods = exact\n{line}\nout = {tmp_path}/b\n")
        assert main(["analyze", str(_write(tmp_path, text)),
                     "--deterministic"]) == 0
        paths = sorted((tmp_path / "b").glob("*.csv"))
        assert len(paths) == 2
        for path in paths:
            rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
            assert len(rows) == 2
            assert all(math.isfinite(float(r[1])) and math.isfinite(float(r[2]))
                       for r in rows)

    @pytest.mark.parametrize("lines", ["network.alpha = 2.05",
                                       "network.sigma2_dbm = -inf",
                                       "network.m = 2",
                                       "network.m = 2\nnetwork.n = 3"])
    def test_conditional_mode_boundaries(self, tmp_path, capsys, lines):
        # the exponent next to 2, a noise-free network, and K = min(M, N)
        text = (f"sweep.values = 0.25, 1.0\nmethods = exact, approx, mc\n"
                f"mc.trials = 500\n{lines}\nout = {tmp_path}/b\n")
        assert main(["sweep", str(_write(tmp_path, text)),
                     "--deterministic"]) == 0
        assert "failed" not in capsys.readouterr().out
        paths = sorted((tmp_path / "b").glob("*.csv"))
        assert len(paths) == 3
        for path in paths:
            rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
            assert len(rows) == 2
            assert all(math.isfinite(float(v)) for r in rows for v in r[1:6]
                       if v)

    def test_fig1_near_user_ordering(self, tmp_path):
        # the Monte Carlo near-user column sits below the approximation at
        # every row (the exact curve is upper-bounded by the approximate one)
        rc = main(["sweep", "fig1", "--trials", "4000",
                   "--out", str(tmp_path / "f1"), "--deterministic"])
        assert rc == 0

        def col(tag, name):
            path = tmp_path / "f1" / f"fig1_{tag}.csv"
            rows = path.read_text().splitlines()
            idx = rows[0].split(",").index(name)
            return [float(r.split(",")[idx]) for r in rows[1:]]

        mc_near = col("mc", "p_near")
        approx_near = col("approx", "p_near")
        exact_near = col("exact", "p_near")
        for m, a, e in zip(mc_near, approx_near, exact_near):
            assert m <= a
            assert e <= a

    def test_fig4_intensity_trend(self, tmp_path):
        rc = main(["analyze", "fig4", "--out", str(tmp_path / "f4"),
                   "--deterministic"])
        assert rc == 0
        path = tmp_path / "f4" / "fig4_exact-random.csv"
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        lam = [float(r[0]) for r in rows]
        p_far = [float(r[1]) for r in rows]
        p_near = [float(r[2]) for r in rows]
        flat = [p for l, p in zip(lam, p_far) if l >= 1e-5]
        assert (max(flat) - min(flat)) / min(flat) <= 0.02
        flat_n = [p for l, p in zip(lam, p_near) if l >= 1e-5]
        assert (max(flat_n) - min(flat_n)) / min(flat_n) <= 0.02
        assert p_far[lam.index(min(lam))] > flat[0]
        assert p_near[lam.index(min(lam))] > flat_n[0]

    def test_seed_override(self, tmp_path):
        rc = main(["simulate", "fig1", "--trials", "400", "--seed", "9",
                   "--out", str(tmp_path / "s"), "--deterministic"])
        assert rc == 0
        (csv,) = sorted((tmp_path / "s").glob("*mc*.csv"))
        rows = csv.read_text().splitlines()[1:]
        assert all(row.endswith(",9") for row in rows)
