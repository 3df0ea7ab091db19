"""Flat key=value run configuration shared by every subcommand.

A config file holds ``key = value`` lines (``#`` comments allowed); CLI flags
override file values. Unknown keys are rejected by name, and every value is
checked when the config is built, so a bad value fails before any stage
runs: one rule table (``_RULES``) declares each field's check, a few rules
tie fields together, and ``rmac.region_grid`` checks the region grid. One
codec table (``_CODECS``) parses and formats each field type. The merged,
effective config is echoed to each run's output directory and can be fed
back in to reproduce the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dataspace import facet_zones
from .rmac import region_grid


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # dataspace
    num_landmarks: int = 40
    num_sections: int = 6
    drones_per_landmark: int = 18
    grounds_per_landmark: int = 10
    channels: int = 32
    map_side: int = 6
    latent_rank: int = 16
    basis_density: float = 0.1
    noise_sigma: float = 0.7
    train_fraction: float = 0.5
    # encoder
    embed_dim: int = 128
    encoder_tanh: bool = True
    # training
    epochs_senior: int = 20
    epochs_junior: int = 20
    epochs_patch: int = 20
    batch_streets: int = 8
    batch_pairs: int = 4
    num_negatives: int = 4
    tau: float = 0.1
    lambda1: float = 1.0
    lambda2: float = 1.0
    margin: float = 0.3
    lr_head: float = 0.01
    lr_body: float = 0.01
    momentum: float = 0.9
    junior_lr_scale: float = 0.1
    # region grid
    scales: tuple[int, ...] = (1, 2, 3)
    # diffusion
    alpha: float = 0.9
    gamma: float = 3.0
    k_graph: int = 10
    k_init: int = 20
    tol: float = 1e-9
    closed_form: bool = True
    # evaluation
    ground_drone_relevance: str = "facet"  # or "landmark"
    # sweeps
    alpha_sweep: tuple[float, ...] = (0.5, 0.7, 0.9, 0.95, 0.99)
    tau_sweep: tuple[float, ...] = (2.0, 0.5, 0.1, 0.05, 0.01)

    def __post_init__(self) -> None:
        """Every value is checked here, once: a RunConfig that exists is valid.
        ``_RULES`` checks each field in field order, then come the rules that
        tie fields together; ``rmac.region_grid`` owns the grid's rules."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _RULES and not _RULES[f.name][0](value):
                raise ValueError(f"{f.name} {_RULES[f.name][1]} (got {value!r})")
        if self.drones_per_landmark < 1 or self.drones_per_landmark % self.num_sections:
            raise ValueError("drones_per_landmark must be a positive multiple of num_sections "
                             f"(got drones_per_landmark={self.drones_per_landmark}, "
                             f"num_sections={self.num_sections})")
        if not all(zone.any() for zone in facet_zones(self.num_sections, self.map_side)):
            raise ValueError(f"map_side={self.map_side} too small to host {self.num_sections} "
                             "facet wedges (some wedge would be empty)")
        region_grid(self.map_side, self.scales)


def _at_least(bound: int):
    return (lambda v: v >= bound), f"must be >= {bound}"


def _either(a: str, b: str):
    return (lambda v: v in (a, b)), f"must be {a!r} or {b!r}"


_POSITIVE = (lambda v: v > 0), "must be positive"
_IN_UNIT = (lambda v: 0 < v < 1), "must be in (0, 1)"

# field -> (test, text); a value failing its test raises "{field} {text} (got
# {value!r})". Tests state what is valid, so NaN fails every numeric rule.
# Bools need no rule; __post_init__ checks the other fields left out here.
_RULES = {
    "seed": _at_least(0), "num_landmarks": _at_least(2), "num_sections": _at_least(2),
    "grounds_per_landmark": _at_least(1), "channels": _at_least(1),
    "latent_rank": _at_least(1),
    "basis_density": ((lambda v: 0 < v <= 1), "must be in (0, 1]"),
    "noise_sigma": _at_least(0), "train_fraction": _IN_UNIT, "embed_dim": _at_least(1),
    "epochs_senior": _at_least(0), "epochs_junior": _at_least(0),
    "epochs_patch": _at_least(0), "batch_streets": _at_least(2),
    "batch_pairs": _at_least(2), "num_negatives": _at_least(1), "tau": _POSITIVE,
    "lambda1": _at_least(0), "lambda2": _at_least(0), "margin": _POSITIVE,
    "lr_head": _at_least(0), "lr_body": _at_least(0),  # a rate of 0 freezes a set
    "momentum": ((lambda v: 0 <= v < 1), "must be in [0, 1)"),
    "junior_lr_scale": _at_least(0),
    "alpha": _IN_UNIT, "gamma": _at_least(0), "k_graph": _at_least(1),
    # tol's floor stays clear of rounding: a float walk's step stops shrinking
    # there (trained graphs met tol 1e-16, not 1e-17 at alpha 0.9) and the walk fails
    "k_init": _at_least(1), "tol": _at_least(1e-12),
    "ground_drone_relevance": _either("facet", "landmark"),
    "alpha_sweep": ((lambda vs: vs and all(0 < v < 1 for v in vs)),
                    "must be one or more values in (0, 1)"),
    "tau_sweep": ((lambda vs: vs and all(v > 0 for v in vs)),
                  "must be one or more positive values"),
}

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError("expected a boolean")
    return _BOOLS[raw.lower()]


def _tuple_codec(parse, text):
    """Comma-separated items, each parsed and formatted by the item codec."""
    return (lambda raw: tuple(parse(t) for t in raw.split(",") if t.strip()),
            lambda values: ",".join(text(v) for v in values))


_FLOAT = (float, lambda v: repr(float(v)))
# field type -> (parse a stripped raw value, format a value)
_CODECS = {
    "int": (int, str),
    "float": _FLOAT,
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "str": (str, str),
    "tuple[int, ...]": _tuple_codec(int, str),
    "tuple[float, ...]": _tuple_codec(*_FLOAT),
}
_FIELD_CODECS = {f.name: _CODECS[f.type] for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_CODECS:
        raise ValueError(f"unknown config key '{key}'")
    raw = raw.strip()
    try:
        return _FIELD_CODECS[key][0](raw)
    except ValueError as err:
        raise ValueError(f"config key '{key}': cannot parse {raw!r} ({err})") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """A config text's pairs; a malformed line or a repeated key raises."""
    raw: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.partition("=")[::2])
        if key in first:
            raise ValueError(f"{source}:{lineno}: key '{key}' already set on line {first[key]}")
        first[key], raw[key] = lineno, value
    return raw


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults, then file values, then overrides; every key validated."""
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    pairs = [*parse_config_text(text, str(path)).items(), *(overrides or {}).items()]
    return replace(RunConfig(), **{key: _parse_value(key, raw) for key, raw in pairs})


def format_config(cfg: RunConfig) -> str:
    lines = [f"{name} = {codec[1](getattr(cfg, name))}"
             for name, codec in _FIELD_CODECS.items()]
    return "\n".join(lines) + "\n"


def write_config(path, cfg: RunConfig) -> None:
    Path(path).write_text(format_config(cfg), encoding="utf-8")
