"""Seeded synthetic evaluation sets over two correlated score channels.

Three populations (correct ID, misclassified ID, OOD) each draw their
(s_id, s_ood) pair from a bivariate Gaussian. Generation is fully determined
by the seed; the draw order (correct block, wrong block, OOD block) is part
of the determinism contract.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .core import DsevalError, EvalSet

# Not called here: perfbench/spans.py wraps this name in this module.
from .core import build_eval_set  # noqa: F401

__all__ = [
    "InvalidConfig",
    "PopulationParams",
    "SynthConfig",
    "generate",
    "far_ood_config",
    "near_ood_config",
    "config_from_dict",
    "config_to_dict",
    "CHANNEL_ID",
    "CHANNEL_OOD",
]

CHANNEL_ID = "s_id"
CHANNEL_OOD = "s_ood"


# Largest n_id + n_ood that generate accepts: 100 times the largest benchmark
# set. At this size the sample ids alone take about 1 GB.
MAX_SAMPLES = 10_000_000


class InvalidConfig(DsevalError):
    pass


@dataclass(frozen=True)
class PopulationParams:
    """Bivariate Gaussian over (s_id, s_ood) for one sample population."""

    mean_s_id: float
    mean_s_ood: float
    std_s_id: float = 1.0
    std_s_ood: float = 1.0
    corr: float = 0.0


@dataclass(frozen=True)
class SynthConfig:
    n_id: int
    n_ood: int
    id_accuracy: float
    correct: PopulationParams
    wrong: PopulationParams
    ood: PopulationParams
    seed: int


def _validate(config: SynthConfig) -> None:
    if config.n_id < 1:
        raise InvalidConfig("n_id must be >= 1")
    if config.n_ood < 0:
        raise InvalidConfig("n_ood must be >= 0")
    if config.n_id + config.n_ood > MAX_SAMPLES:
        raise InvalidConfig(
            f"n_id + n_ood is {config.n_id + config.n_ood}, above the cap of {MAX_SAMPLES}"
        )
    if config.seed < 0:
        raise InvalidConfig("seed must be >= 0")
    if not 0.0 < config.id_accuracy <= 1.0:
        raise InvalidConfig("id_accuracy must be in (0, 1]")
    for name in ("correct", "wrong", "ood"):
        pop: PopulationParams = getattr(config, name)
        if not np.isfinite([pop.mean_s_id, pop.mean_s_ood, pop.std_s_id, pop.std_s_ood]).all():
            raise InvalidConfig(f"{name} population needs finite means and stds")
        if pop.std_s_id <= 0 or pop.std_s_ood <= 0:
            raise InvalidConfig(f"{name} population needs positive stds")
        if not -1.0 < pop.corr < 1.0:
            raise InvalidConfig(f"{name} correlation must lie in (-1, 1)")


def _draw(rng: np.random.Generator, pop: PopulationParams, n: int) -> np.ndarray:
    z = rng.standard_normal((n, 2))
    out = np.empty((n, 2))
    out[:, 0] = pop.mean_s_id + pop.std_s_id * z[:, 0]
    out[:, 1] = pop.mean_s_ood + pop.std_s_ood * (
        pop.corr * z[:, 0] + np.sqrt(1.0 - pop.corr**2) * z[:, 1]
    )
    return out


def generate(config: SynthConfig) -> EvalSet:
    """Draw an evaluation set; identical configs give bit-identical sets."""
    _validate(config)
    n_correct = int(round(config.n_id * config.id_accuracy))
    rng = np.random.default_rng(config.seed)
    blocks = {
        "correct": n_correct,
        "wrong": config.n_id - n_correct,
        "ood": config.n_ood,
    }
    draws = []
    for name, n in blocks.items():
        with np.errstate(over="ignore", invalid="ignore"):
            draws.append(_draw(rng, getattr(config, name), n))
        if not np.isfinite(draws[-1]).all():
            raise InvalidConfig(f"{name} population draws a score that is not finite")
    scores = np.vstack(draws)
    rows = np.arange(len(scores))
    ids = chain(
        map("id-{:06d}".format, range(config.n_id)),
        map("ood-{:06d}".format, range(config.n_id, len(scores))),
    )
    channels = {CHANNEL_ID: scores[:, 0], CHANNEL_OOD: scores[:, 1]}
    return EvalSet.from_columns(ids, rows < config.n_id, rows < n_correct, channels)


# Preset populations: the OOD population mirrors the correct population on
# s_id, so a lone ID-confidence threshold cannot reject it; only the s_ood
# placement differs between the two presets.
_CORRECT = PopulationParams(mean_s_id=2.0, mean_s_ood=0.0)
_WRONG = PopulationParams(mean_s_id=-1.5, mean_s_ood=0.0)


def _preset(
    n_id: int, n_ood: int, id_accuracy: float, seed: int, mean_s_ood: float
) -> SynthConfig:
    return SynthConfig(
        n_id, n_ood, id_accuracy, _CORRECT, _WRONG,
        PopulationParams(mean_s_id=2.0, mean_s_ood=mean_s_ood), seed,
    )


def far_ood_config(
    n_id: int, n_ood: int, id_accuracy: float = 0.75, seed: int = 0
) -> SynthConfig:
    """OOD shifted 8 sigma below the ID bulk on s_ood."""
    return _preset(n_id, n_ood, id_accuracy, seed, mean_s_ood=-8.0)


def near_ood_config(
    n_id: int, n_ood: int, id_accuracy: float = 0.75, seed: int = 0
) -> SynthConfig:
    """OOD overlapping the ID bulk on s_ood."""
    return _preset(n_id, n_ood, id_accuracy, seed, mean_s_ood=-1.0)


def config_to_dict(config: SynthConfig) -> dict:
    return asdict(config)


def _integer(data: dict, key: str) -> int:
    """``data[key]`` if it is an integer: not a bool, a float or a string."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{key} must be an integer, got {value!r}")
    return value


def config_from_dict(data: dict) -> SynthConfig:
    try:
        pops = {
            name: PopulationParams(**{k: float(v) for k, v in data[name].items()})
            for name in ("correct", "wrong", "ood")
        }
        return SynthConfig(
            n_id=_integer(data, "n_id"),
            n_ood=_integer(data, "n_ood"),
            id_accuracy=float(data["id_accuracy"]),
            seed=_integer(data, "seed"),
            **pops,
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InvalidConfig(f"malformed synth config: {exc}") from None
