"""Experiment configuration: flat key/value files, CLI overrides, bin-width rule."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigError
from .hawkes import HawkesParams, ParamBounds
from .privacy import PrivacyBudget, check_b_mode

OUT_DIR_ENV = "DPHAWKES_OUT"

# Delta = round-to-multiple-of-5(c * log T); c chosen so Delta = 10 at T = 1e5.
LOG_RULE_C = 10.0 / math.log(1e5)

CONFIG_KEYS = ("mu", "alpha", "mu_lower", "mu_upper", "alpha_lower", "alpha_upper",
               "gamma", "epsilons", "b_values", "delta_mode", "horizon",
               "repetitions", "seed", "out_dir")

DEFAULT_EPSILONS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
DEFAULT_B_VALUES = ("10", "25", "100", "auto")


def round_to_multiple_of_5(x: float) -> int:
    """Nearest multiple of 5, half rounded up, floored at 5."""
    return max(5, 5 * int(math.floor(x / 5.0 + 0.5)))


def delta_from_rule(delta_mode: str, horizon: float) -> float:
    """Bin width for a horizon: 'log' applies the rounded c*log(T) rule,
    anything numeric is a fixed width."""
    if delta_mode == "log":
        return float(round_to_multiple_of_5(LOG_RULE_C * math.log(horizon)))
    try:
        value = float(delta_mode)
    except ValueError:
        raise ConfigError(f"delta_mode must be 'log' or a number, got {delta_mode!r}")
    if not 0 < value < math.inf:
        raise ConfigError(f"fixed delta must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    mu: float = 1.0
    alpha: float = 0.5
    mu_lower: float = 0.5
    mu_upper: float = 2.0
    alpha_lower: float = 0.1
    alpha_upper: float = 0.75
    gamma: float = 0.05
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    b_values: tuple[str, ...] = DEFAULT_B_VALUES
    delta_mode: str = "log"
    horizon: float = 100000.0
    repetitions: int = 50
    seed: int = 12345
    out_dir: str = field(default_factory=lambda: os.environ.get(OUT_DIR_ENV, "."))

    def __post_init__(self):
        # mu, alpha, the prior box, epsilon and gamma are checked by their types
        self.params
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.epsilons or not self.b_values:
            raise ConfigError("epsilon and B grids must be nonempty")
        for eps in self.epsilons:
            PrivacyBudget.for_total(eps, self.gamma)
        object.__setattr__(self, "b_values", tuple(map(check_b_mode, self.b_values)))
        # cells are keyed by (epsilon, B): a repeated value would merge two cells
        if len(set(self.epsilons)) < len(self.epsilons):
            raise ConfigError(f"epsilons must not repeat a value, got {self.epsilons}")
        if len(set(self.b_values)) < len(self.b_values):
            raise ConfigError(f"b_values must not repeat a tree cap, got {self.b_values}")
        self.bounds
        self.delta

    @property
    def params(self) -> HawkesParams:
        return HawkesParams(self.mu, self.alpha)

    @cached_property
    def bounds(self) -> ParamBounds:
        return ParamBounds(self.mu_lower, self.mu_upper, self.alpha_lower, self.alpha_upper)

    @property
    def delta(self) -> float:
        return delta_from_rule(self.delta_mode, self.horizon)


def parse_value(key: str, raw: str):
    """A config value from its text, as written in a file or given as a flag."""
    raw = raw.strip()
    if key in ("mu", "alpha", "mu_lower", "mu_upper", "alpha_lower", "alpha_upper",
               "gamma", "horizon"):
        return float(raw)
    if key in ("repetitions", "seed"):
        return int(raw)
    if key == "epsilons":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if key == "b_values":
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    return raw  # delta_mode, out_dir


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (tok.strip() for tok in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parse_value(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def load_config(**values) -> ExperimentConfig:
    """The configuration from identically named values; an unknown name is a ConfigError."""
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
