"""Experiment runner.

Parses flat key = value config files (dotted section names), dispatches
analytic, Monte Carlo and optimization sweeps, and writes one CSV per
method with a fixed column schema.  All dB-to-linear conversions happen
here; the library works in linear units throughout.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .design import baseline_goodput, maximize_goodput
from .geometry import GroupingPolicy
from .laplace import Inversion1DConfig, invert_1d, invert_2d
from .model import NetworkParams, PairConfig
from .montecarlo import estimate_outage
from .outage import (far_outage_average, far_outage_conditional,
                     near_outage_average, near_outage_conditional_approx,
                     near_outage_conditional_exact)
from .asymptotic import optimize_chernoff_far, optimize_chernoff_near
from .scenario import build_scenario

__all__ = ["ExperimentConfig", "load_config", "run", "validate", "main",
           "ConfigError", "preset_path", "PRESETS"]

CSV_COLUMNS = ("sweep_value", "p_far", "p_near", "stderr_far", "stderr_near",
               "goodput", "method", "seed")
PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7")

_SWEEP_AXES = ("rate_far", "k_factor_db", "lambda_b", "kappa")
_METHODS = ("exact", "approx", "mc", "asymptotic", "optimize")


class ConfigError(ValueError):
    """Configuration file violates the schema."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a scenario, one sweep axis, methods to run.

    Construction checks every field and builds each sweep point's scenario
    once, raising `ConfigError` before any point runs."""

    params: NetworkParams
    pair: PairConfig
    kappa: float = 0.9
    k_factor_db: float = 20.0
    h_norm2: float | None = None
    seed: int = 20240717
    policies: tuple[str, ...] = ("distance",)
    scheme: str = "aligned"
    mode: str = "conditional"
    sweep_axis: str = "rate_far"
    sweep_values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    methods: tuple[str, ...] = ("exact", "mc")
    rate_ratio: float | None = 2.0
    trials: int = 20000
    window_radius: float = 5000.0
    exclusion: str = "none"
    epsilon: float = 0.01
    inv1d: Inversion1DConfig = Inversion1DConfig()
    out: str = "results"
    label: str = "experiment"

    def __post_init__(self):
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigError(f"sweep.axis must be one of {_SWEEP_AXES}")
        if not self.sweep_values:
            raise ConfigError("sweep.values must be a nonempty sorted grid")
        if list(self.sweep_values) != sorted(self.sweep_values):
            raise ConfigError("sweep.values must be sorted ascending")
        for m in self.methods:
            if m not in _METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {_METHODS}")
        if self.mode not in ("conditional", "average"):
            raise ConfigError("mode must be conditional or average")
        for p in self.policies:
            if p not in ("random", "distance"):
                raise ConfigError(f"unknown grouping policy {p!r}")
        if self.exclusion not in ("none", "serving"):
            raise ConfigError("mc.exclusion must be none or serving")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.trials < 1:
            raise ConfigError("mc.trials must be at least 1")
        if not self.window_radius > 0:  # also rejects NaN
            raise ConfigError("mc.window_radius must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("optimize.epsilon must lie in (0, 1]")
        lambdas = (self.sweep_values if self.sweep_axis == "lambda_b"
                   else (self.params.lambda_b,))
        if self.mode == "average" and min(lambdas) <= 0:
            raise ConfigError("mode = average needs lambda_b > 0: the "
                              "serving-distance law has no base stations")
        for value in self.sweep_values:
            try:
                _scenario_at(self, value)
            except ValueError as exc:
                raise ConfigError(
                    f"sweep point {self.sweep_axis} = {value}: {exc}") from None


def _dbm_to_watt(text: str) -> float:
    return 10.0 ** (float(text) / 10.0) / 1000.0


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(","))


def _grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _grouping(text: str) -> tuple[str, ...]:
    return ("random", "distance") if text == "both" else (text,)


def _rate_ratio(text: str) -> float | None:
    ratio = float(text)
    if math.isnan(ratio):
        raise ValueError("rate_ratio must be a number")
    return ratio if ratio > 0 else None


# The config schema: key -> (part, field, parser).  `part` names the
# ExperimentConfig field holding a library config object, or None for a
# field of ExperimentConfig itself.  Unset keys keep the field's default.
_PARTS = {"params": NetworkParams, "pair": PairConfig,
          "inv1d": Inversion1DConfig}
_KEYS = {
    "network.lambda_b": ("params", "lambda_b", float),
    "network.alpha": ("params", "alpha", float),
    "network.p_dbm": ("params", "P", _dbm_to_watt),
    "network.rho_i_dbm": ("params", "rho_I", _dbm_to_watt),
    "network.sigma2_dbm": ("params", "sigma2", _dbm_to_watt),
    "network.m": ("params", "M", int),
    "network.n": ("params", "N", int),
    "network.pairs": ("params", "K", int),
    "network.cell_constant": ("params", "c", float),
    "channel.kappa": (None, "kappa", float),
    "channel.k_factor_db": (None, "k_factor_db", float),
    "channel.h_norm2": (None, "h_norm2", float),
    "pair.beta_near2": ("pair", "beta_k2", float),
    "pair.rate_near": ("pair", "R_k", float),
    "pair.rate_far": ("pair", "R_kt", float),
    "pair.rate_ratio": (None, "rate_ratio", _rate_ratio),
    "pair.d_near": ("pair", "d_k", float),
    "pair.d_far": ("pair", "d_kt", float),
    "grouping": (None, "policies", _grouping),
    "design": (None, "scheme", str),
    "mode": (None, "mode", str),
    "sweep.axis": (None, "sweep_axis", str),
    "sweep.values": (None, "sweep_values", _grid),
    "methods": (None, "methods", _names),
    "mc.trials": (None, "trials", int),
    "mc.window_radius": (None, "window_radius", float),
    "mc.exclusion": (None, "exclusion", str),
    "optimize.epsilon": (None, "epsilon", float),
    "inv1d.a": ("inv1d", "A", float),
    "inv1d.m_euler": ("inv1d", "m_euler", int),
    "inv1d.q": ("inv1d", "q", int),
    "seed": (None, "seed", int),
    "out": (None, "out", str),
}


def _parse_lines(text: str):
    """Group the parsed values of the set keys by part: {part: {field: value}}."""
    fields = {part: {} for part in (*_PARTS, None)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (side.strip() for side in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        part, name, parser = _KEYS[key]
        try:
            fields[part][name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key}: {exc}") from None
    return fields


def load_config(path: str | Path, label: str | None = None) -> ExperimentConfig:
    """Parse and validate a config file; unset keys keep their defaults."""
    path = Path(path)
    fields = _parse_lines(path.read_text(encoding="utf-8"))
    try:
        parts = {part: cls(**fields[part]) for part, cls in _PARTS.items()}
        return ExperimentConfig(**parts, **fields[None],
                                label=label or path.stem)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def preset_path(name: str) -> Path:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return Path(str(resources.files("nomacell").joinpath(f"presets/{name}.cfg")))


def _scenario_at(cfg: ExperimentConfig, axis_value: float,
                 policy: str | None = None, scheme: str | None = None):
    """Materialize the scenario for one sweep point (default: the first
    grouping policy and the configured design)."""
    params, pair = cfg.params, cfg.pair
    kappa, kdb = cfg.kappa, cfg.k_factor_db
    if cfg.sweep_axis == "rate_far":
        R_kt = axis_value
        R_k = cfg.rate_ratio * R_kt if cfg.rate_ratio else pair.R_k
        pair = pair.with_rates(R_k=R_k, R_kt=R_kt)
    elif cfg.sweep_axis == "k_factor_db":
        kdb = axis_value
    elif cfg.sweep_axis == "lambda_b":
        params = replace(params, lambda_b=axis_value)
    elif cfg.sweep_axis == "kappa":
        kappa = axis_value
    return build_scenario(params, pair, kappa=kappa, k_factor_db=kdb,
                          seed=cfg.seed,
                          policy=GroupingPolicy(policy or cfg.policies[0]),
                          scheme=scheme or cfg.scheme, h_norm2=cfg.h_norm2)


@dataclass(frozen=True)
class _Row:
    """One CSV row's values at a sweep point (the method column is the tag
    the row is filed under)."""

    p_far: float
    p_near: float
    goodput: float | None = None
    stderr_far: float | None = None
    stderr_near: float | None = None


def _goodput(pair: PairConfig, p_near: float, p_far: float) -> float:
    return pair.R_k * (1.0 - p_near) + pair.R_kt * (1.0 - p_far)


_OPTIMIZE_TAGS = ("optimize-proposed", "optimize-oma-precoded",
                  "optimize-oma-plain", "optimize-noma-plain")


def _method_tags(cfg: ExperimentConfig, method: str) -> tuple[str, ...]:
    """The CSV tags one method writes at every sweep point, in order."""
    if method == "optimize":
        return _OPTIMIZE_TAGS
    if method == "asymptotic" or cfg.mode == "conditional":
        return (method,)
    return tuple(f"{method}-{p}" for p in cfg.policies)


def _point_rows(cfg: ExperimentConfig, method: str, axis_value: float):
    """Evaluate one (method, sweep point); yields (tag, _Row) for each tag
    of `_method_tags`."""
    tags = _method_tags(cfg, method)
    if method == "optimize":
        sc = _scenario_at(cfg, axis_value)
        link, params = sc.link(1), sc.params
        plain = _scenario_at(cfg, axis_value, scheme="plain").link(1)
        eps, inv = cfg.epsilon, cfg.inv1d
        runs = (lambda: maximize_goodput(link, eps, params, inv),
                lambda: baseline_goodput("oma", link, eps, params, inv),
                lambda: baseline_goodput("oma", plain, eps, params, inv),
                lambda: maximize_goodput(plain, eps, params, inv))
        for tag, fn in zip(tags, runs):
            sol = fn()
            yield tag, _Row(sol.p_far, sol.p_near, goodput=sol.goodput)
        return
    # one tag per grouping policy in average mode, else the first policy only
    for tag, policy_name in zip(tags, cfg.policies):
        sc = _scenario_at(cfg, axis_value, policy_name)
        link, params = sc.link(1), sc.params
        if method == "mc":
            mode = ("conditional" if cfg.mode == "conditional"
                    else f"average-{policy_name}")
            rep = estimate_outage(sc, mode, cfg.trials, cfg.seed,
                                  window_radius=cfg.window_radius,
                                  exclusion=cfg.exclusion)
            yield tag, _Row(
                rep.far.p_hat, rep.near.p_hat,
                goodput=_goodput(link.pair, rep.near.p_hat, rep.far.p_hat),
                stderr_far=rep.far.stderr, stderr_near=rep.near.stderr)
            continue
        if method == "asymptotic":
            bf, _ = optimize_chernoff_far(link.eff_far, link.pair, params)
            bn, _ = optimize_chernoff_near(link.eff_near, link.pair, params)
            yield tag, _Row(min(bf, 1.0), min(bn, 1.0))
            continue
        if cfg.mode == "conditional":
            pf = far_outage_conditional(link.eff_far, link.pair, params,
                                        cfg.inv1d)
            if method == "exact":
                pn = near_outage_conditional_exact(link.eff_near, link.pair,
                                                   params)
            else:
                pn = near_outage_conditional_approx(link.eff_near, link.pair,
                                                    params, cfg.inv1d)
        else:
            # `approx` on averages means the interference-limited closed forms.
            il = method == "approx"
            pf = far_outage_average(link.eff_far, link.pair, params, sc.policy,
                                    cfg.inv1d, interference_limited=il)
            pn = near_outage_average(link.eff_near, link.pair, params,
                                     sc.policy, interference_limited=il)
        yield tag, _Row(
            pf.probability, pn.probability,
            goodput=_goodput(link.pair, pn.probability, pf.probability))


def _format(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def run(cfg: ExperimentConfig, deterministic: bool = False,
        stream=None) -> list[Path]:
    """Execute the configured sweep; returns the CSV paths written."""
    stream = stream or sys.stdout
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables: dict[str, list[tuple[float, _Row]]] = {}
    failures = 0
    for value in cfg.sweep_values:
        for method in cfg.methods:
            try:
                rows = list(_point_rows(cfg, method, value))
            except Exception as exc:  # sweep continues; point reported
                failures += 1
                print(f"warning: {method} failed at {cfg.sweep_axis}={value}: {exc}",
                      file=stream)
                rows = [(tag, _Row(math.nan, math.nan))
                        for tag in _method_tags(cfg, method)]
            for tag, report in rows:
                tables.setdefault(tag, []).append((value, report))
    paths = []
    for tag, rows in sorted(tables.items()):
        path = out_dir / f"{cfg.label}_{tag}.csv"
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            if not deterministic:
                fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for value, rep in rows:
                fields = (_format(value), _format(rep.p_far),
                          _format(rep.p_near), _format(rep.stderr_far),
                          _format(rep.stderr_near), _format(rep.goodput),
                          tag, str(cfg.seed))
                fh.write(",".join(fields) + "\n")
        paths.append(path)
        print(f"wrote {path} ({len(rows)} rows)", file=stream)
    if failures:
        print(f"{failures} grid point(s) failed numerically", file=stream)
    return paths


def validate(seed: int = 0, inv_a: float | None = None, trials: int = 20000,
             stream=None) -> bool:
    """Kernel-oracle and analytic-vs-Monte-Carlo consistency suite.

    Prints one PASS/FAIL line per check and returns overall success.
    `inv_a` overrides the 1D discretization parameter (small values must
    be caught by the error-bound check and the oracle failures).
    """
    from scipy.special import erfc

    stream = stream or sys.stdout
    checks = []
    cfg1 = Inversion1DConfig() if inv_a is None else Inversion1DConfig(A=inv_a)
    checks.append(("1d discretization bound <= 1e-10",
                   cfg1.discretization_error <= 1e-10))
    pairs_1d = [
        ("1d: 1/s @ 1 -> 1", lambda s: 1 / s, 1.0, 1.0),
        ("1d: 1/(s(s+1)) @ 2 -> 1-e^-2", lambda s: 1 / (s * (s + 1)), 2.0,
         1.0 - math.exp(-2.0)),
        ("1d: e^{-sqrt s}/s @ 1 -> erfc(1/2)", lambda s: np.exp(-np.sqrt(s)) / s,
         1.0, float(erfc(0.5))),
    ]
    for name, F, tau, want in pairs_1d:
        got = invert_1d(F, tau, cfg1)
        checks.append((name, abs(got - want) <= 1e-7))
    pairs_2d = [
        ("2d: 1/(st) @ (1,1) -> 1", lambda s, t: 1 / (s * t), (1.0, 1.0), 1.0),
        ("2d: 1/((s+1)(t+2)) @ (1,.5) -> e^-2",
         lambda s, t: 1 / ((s + 1) * (t + 2)), (1.0, 0.5), math.exp(-2.0)),
        ("2d: 1/(st(1+s+t)) @ (1,2) -> 1-e^-1",
         lambda s, t: 1 / (s * t * (1 + s + t)), (1.0, 2.0),
         1.0 - math.exp(-1.0)),
    ]
    for name, F, (t1, t2), want in pairs_2d:
        got = invert_2d(F, t1, t2)
        checks.append((name, abs(got - want) <= 1e-5))

    params = NetworkParams()
    sc = build_scenario(params, PairConfig(), seed=20240717)
    link = sc.link(1)
    pf = far_outage_conditional(link.eff_far, link.pair, params, cfg1).probability
    pn = near_outage_conditional_exact(link.eff_near, link.pair, params).probability
    rep = estimate_outage(sc, "conditional", trials, seed)
    tol_f = 4.0 * max(rep.far.stderr, 1e-4)
    tol_n = 4.0 * max(rep.near.stderr, 1e-4)
    checks.append((f"analytic far vs mc ({trials} trials)",
                   abs(pf - rep.far.p_hat) <= tol_f))
    checks.append((f"analytic near vs mc ({trials} trials)",
                   abs(pn - rep.near.p_hat) <= tol_n))

    ok = True
    for name, passed in checks:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}", file=stream)
    print(f"validation {'passed' if ok else 'FAILED'}", file=stream)
    return ok


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nomacell",
                                description="MIMO-NOMA small-cell outage "
                                            "and design experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("config", help="config file path or preset name "
                                       f"({', '.join(PRESETS)})")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--deterministic", action="store_true",
                        help="suppress the timestamp header line in CSVs")

    for name, help_text in (("analyze", "run analytic methods over the sweep"),
                            ("simulate", "run the Monte Carlo estimator"),
                            ("optimize", "run goodput optimization"),
                            ("sweep", "run all methods configured in the file")):
        sp = sub.add_parser(name, help=help_text)
        add_common(sp)
    sp = sub.add_parser("validate", help="run the kernel/consistency suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=20000)
    sp.add_argument("--inv-a", type=float, default=None,
                    help="override the 1D discretization parameter A")
    return p


def _resolve_config(arg: str) -> ExperimentConfig:
    path = Path(arg)
    if path.exists():
        return load_config(path)
    if arg in PRESETS:
        return load_config(preset_path(arg), label=arg)
    raise ConfigError(f"no such config file or preset: {arg}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            if args.trials < 1:
                raise ConfigError("--trials must be at least 1")
            if args.seed < 0:
                raise ConfigError("--seed must be a non-negative integer")
            if args.inv_a is not None:
                try:  # the check a config file's inv1d.a gets
                    Inversion1DConfig(A=args.inv_a)
                except ValueError as exc:
                    raise ConfigError(f"--inv-a: {exc}") from None
            return 0 if validate(args.seed, args.inv_a, args.trials) else 1
        cfg = _resolve_config(args.config)
        overrides = {name: getattr(args, name) for name in ("seed", "trials", "out")
                     if getattr(args, name) is not None}
        if args.command == "analyze":
            overrides["methods"] = tuple(
                m for m in cfg.methods
                if m in ("exact", "approx", "asymptotic")) or ("exact",)
        elif args.command == "simulate":
            overrides["methods"] = ("mc",)
        elif args.command == "optimize":
            overrides["methods"] = ("optimize",)
        run(replace(cfg, **overrides), deterministic=args.deterministic)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
