"""Experiment configs: parse and validate the config text into an ExperimentConfig.

Config files are plain key = value lines (``#`` comments allowed).  Keys:

    factor        = tau_re tau_im degree          (one line per factor)
    k_ladder      = 4 6 8 10
    theta_eps     = 1e-12
    seed          = 12345
    experiments   = dims density offdiag far ratio embed pullback derivs
    embed_grid_n  = 9                              (optional scan override)
    budget_<exp>  = 30.0                           (optional wall budget, s;
                                                    budget_all bounds the summed time)
    probe_<name>  = a1 b1 a2 b2 ; a1 b1 a2 b2      (point lists, 2 coordinates per factor;
                                                    name one of density offdiag far ratio derivs)

Every key but factor is set at most once, every number is finite, every
budget is positive, no experiment is named twice, and no list is empty (a
pair probe holds two points); each violation names its line.
Retired keys (grid_n, gram_tol, workers, slope_margin) are accepted, ignored
and named in ExperimentConfig.warnings, which the run's summary carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import ProductModel, TorusFactor

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "EXPERIMENTS"]

EXPERIMENTS = ("dims", "density", "offdiag", "far", "ratio", "embed", "pullback", "derivs")
_FIT_BASED = {"offdiag", "far", "embed", "pullback", "derivs"}
_KNOWN_KEYS = {"factor", "k_ladder", "theta_eps", "seed", "experiments", "embed_grid_n"}
_RETIRED_KEYS = {"grid_n", "gram_tol", "workers", "slope_margin"}   # accepted, ignored and warned about
_INT_MIN = {"seed": 0, "embed_grid_n": 2}            # integer keys and their least value
_PROBES = ("density", "offdiag", "far", "ratio", "derivs")    # the probe_<name> lists experiments read
_PAIR_PROBES = ("offdiag", "far", "ratio")                     # read as a pair (x, y): 2 points at least


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"line {ln}: [{fieldn}] {msg}" for ln, fieldn, msg in self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    factors: tuple[TorusFactor, ...]
    k_ladder: tuple[int, ...]
    theta_eps: float = 1e-12
    seed: int = 20260810
    experiments: tuple[str, ...] = EXPERIMENTS
    embed_grid_n: int | None = None
    budgets: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()        # retired keys met while parsing

    @property
    def model(self) -> ProductModel:
        return ProductModel.from_factors(self.factors)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError carrying all violations."""
    violations, factors, retired = [], [], []
    probes, probe_lines, budgets, scalars, first_line = {}, {}, {}, {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append((ln, "-", f"expected key = value, got {line!r}"))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key != "factor" and key not in _RETIRED_KEYS:     # the later line would silently win
            if key in first_line:
                violations.append((ln, key, f"repeated key, first set on line {first_line[key]}"))
                continue
            first_line[key] = ln
        if key == "factor":
            parts = val.split()
            if len(parts) != 3:
                violations.append((ln, "factor", "expected: tau_re tau_im degree"))
                continue
            try:
                tre, tim = float(parts[0]), float(parts[1])
                deg = int(parts[2])
            except ValueError:
                violations.append((ln, "factor", f"non-numeric factor spec {val!r}"))
                continue
            if not (math.isfinite(tre) and math.isfinite(tim)):
                violations.append((ln, "factor", f"non-finite tau in {val!r}"))
                continue
            if tim <= 0:
                violations.append((ln, "factor", f"Im(tau) must be positive, got {tim}"))
                continue
            if deg == 0:
                violations.append((ln, "factor", "degree must be nonzero"))
                continue
            factors.append(TorusFactor(tau=complex(tre, tim), degree=deg))
        elif key.startswith("probe_"):
            name = key[len("probe_"):]
            if name not in _PROBES:
                violations.append((ln, key, f"unknown probe {name!r}; probes are {' '.join(_PROBES)}"))
                continue
            try:
                pts = [tuple(float(x) for x in chunk.split()) for chunk in val.split(";") if chunk.strip()]
            except ValueError:
                violations.append((ln, key, f"non-numeric probe {val!r}"))
                continue
            if not all(math.isfinite(x) for pt in pts for x in pt):
                violations.append((ln, key, f"non-finite probe coordinate in {val!r}"))
                continue
            probes[name] = pts
            probe_lines[name] = ln
        elif key.startswith("budget_"):
            name = key[len("budget_"):]
            if name not in EXPERIMENTS and name != "all":
                violations.append((ln, key, f"unknown experiment {name!r} in budget"))
                continue
            try:
                budgets[name] = float(val)
            except ValueError:
                violations.append((ln, key, f"non-numeric budget {val!r}"))
                continue
            if not math.isfinite(budgets[name]):
                violations.append((ln, key, f"non-finite budget {val!r}"))
            elif budgets[name] <= 0:
                violations.append((ln, key, f"budget must be positive, got {val}"))
        elif key in _KNOWN_KEYS:
            scalars[(ln, key)] = val
        elif key in _RETIRED_KEYS:
            retired.append(f"config key {key} (line {ln}) is retired and ignored")
        else:
            violations.append((ln, key, "unknown key"))

    kw = {}
    for (ln, key), val in scalars.items():
        try:
            if key == "k_ladder":
                kw[key] = tuple(int(x) for x in val.split())
            elif key == "experiments":
                names = tuple(val.split())
                bad = [n for n in names if n not in EXPERIMENTS]
                if bad:
                    violations.append((ln, key, f"unknown experiments {bad}"))
                    continue
                if len(set(names)) < len(names):
                    violations.append((ln, key, f"repeated experiments in {val!r}"))
                    continue
                if not names:       # a run would check nothing and pass
                    violations.append((ln, key, f"names no experiment; experiments are {' '.join(EXPERIMENTS)}"))
                    continue
                kw[key] = names
            elif key in _INT_MIN:
                kw[key] = int(val)
                if kw[key] < _INT_MIN[key]:
                    violations.append((ln, key, f"must be >= {_INT_MIN[key]}, got {val}"))
            elif key == "theta_eps":
                kw[key] = float(val)
                if not math.isfinite(kw[key]):
                    violations.append((ln, key, f"must be finite, got {val}"))
                elif kw[key] <= 0:
                    violations.append((ln, key, "must be positive"))
        except ValueError:
            violations.append((ln, key, f"could not parse value {val!r}"))

    if not factors:
        violations.append((0, "factor", "at least one factor is required"))
    for name, pts in probes.items():
        counts = [len(pt) for pt in pts]
        if factors and any(c != 2 * len(factors) for c in counts):
            violations.append((probe_lines[name], f"probe_{name}",
                               f"each point needs {2 * len(factors)} coordinates (2 per factor), got {counts}"))
        least = 2 if name in _PAIR_PROBES else 1     # a pair (x, y), or one point; none draws random points
        if len(pts) < least:
            violations.append((probe_lines[name], f"probe_{name}",
                               f"needs at least {least} point{'s' if least > 1 else ''}, got {len(pts)}"))
    ladder, ln = kw.get("k_ladder", ()), first_line.get("k_ladder", 0)
    if not ladder:
        violations.append((ln, "k_ladder", "k_ladder is required"))
    else:
        if any(k <= 0 for k in ladder):
            violations.append((ln, "k_ladder", f"entries must be positive: {ladder}"))
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            violations.append((ln, "k_ladder", f"non-monotone ladder {ladder}"))
        enabled = kw.get("experiments", EXPERIMENTS)
        if len(ladder) < 4 and _FIT_BASED & set(enabled):
            violations.append((ln, "k_ladder", f"length {len(ladder)} < 4 required by fit-based experiments"))
    if violations:
        raise ConfigError(violations)
    try:
        ordered = tuple(sorted(factors, key=lambda f: f.degree >= 0))
        return ExperimentConfig(factors=ordered, probes=probes, budgets=budgets,
                                warnings=tuple(retired), **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError([(0, "-", str(exc))])
