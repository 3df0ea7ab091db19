"""Flat key=value run configuration shared by every subcommand.

A config file holds ``key = value`` lines (``#`` comments allowed); CLI flags
override file values. Unknown keys are rejected by name, and every value is
checked when the config is built, so a bad value fails before any stage
runs. The merged, effective config is echoed to each run's output directory
and can be fed back in to reproduce the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .dataspace import facet_zones


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
    num_positives: int = 0  # 0 -> one per section
    warmup_epochs: int = 0
    mining_space: str = "drone"
    tau: float = 0.1
    lambda1: float = 1.0
    lambda2: float = 1.0
    margin: float = 0.3
    lr_head: float = 0.01
    lr_body: float = 0.01
    momentum: float = 0.9
    decay_epoch: int = 40
    decay_factor: float = 0.1
    junior_lr_scale: float = 0.1
    peer_iterations: int = 1
    junior_init: str = "senior"  # or "fresh"
    student_init: str = "fresh"  # or "teacher"
    # region grid
    scales: tuple[int, ...] = (1, 2, 3)
    width_table: tuple[tuple[int, int], ...] = ((1, 12), (2, 9), (3, 7), (4, 5))
    reference_side: int = 12
    # diffusion
    alpha: float = 0.9
    gamma: float = 3.0
    k_graph: int = 10
    k_init: int = 20
    max_iters: int = 1000
    tol: float = 1e-9
    closed_form: bool = True
    closed_form_cap: int = 2000
    # evaluation
    ground_drone_relevance: str = "facet"  # or "landmark"
    cmc_per_landmark: bool = False
    # sweeps
    alpha_sweep: tuple[float, ...] = (0.5, 0.7, 0.9, 0.95, 0.99)
    tau_sweep: tuple[float, ...] = (2.0, 0.5, 0.1, 0.05, 0.01)

    def width_table_dict(self) -> dict[int, int]:
        return dict(self.width_table)

    def __post_init__(self) -> None:
        """Every value is checked here, once: a RunConfig that exists is valid."""
        if self.num_landmarks < 2:
            raise ValueError(f"num_landmarks must be >= 2 (got {self.num_landmarks})")
        if self.num_sections < 2:
            raise ValueError(f"num_sections must be >= 2 (got {self.num_sections})")
        if self.drones_per_landmark < 1 or self.drones_per_landmark % self.num_sections:
            raise ValueError(
                "drones_per_landmark must be a positive multiple of num_sections "
                f"(got drones_per_landmark={self.drones_per_landmark}, "
                f"num_sections={self.num_sections})"
            )
        if self.grounds_per_landmark < 1:
            raise ValueError(
                f"grounds_per_landmark must be >= 1 (got {self.grounds_per_landmark})"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1 (got {self.channels})")
        if self.latent_rank < 1:
            raise ValueError(f"latent_rank must be >= 1 (got {self.latent_rank})")
        if not 0 < self.basis_density <= 1:
            raise ValueError(
                f"basis_density must be in (0, 1] (got {self.basis_density})")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0 (got {self.noise_sigma})")
        if not 0 < self.train_fraction < 1:
            raise ValueError(
                f"train_fraction must be in (0, 1) (got {self.train_fraction})"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")
        zones = facet_zones(self.num_sections, self.map_side)
        if any(not zone.any() for zone in zones):
            raise ValueError(
                f"map_side={self.map_side} too small to host {self.num_sections} "
                "facet wedges (some wedge would be empty)"
            )
        # peer learning
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1 (got {self.embed_dim})")
        for name in ("epochs_senior", "epochs_junior", "epochs_patch", "num_positives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1 (got {self.num_negatives})")
        if self.peer_iterations < 1:
            raise ValueError(f"peer_iterations must be >= 1 (got {self.peer_iterations})")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1) (got {self.momentum})")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive (got {self.tau})")
        if any(t <= 0 for t in self.tau_sweep):
            raise ValueError(f"tau_sweep values must be positive (got {self.tau_sweep})")
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be >= 0 (got {self.lambda1})")
        if self.batch_streets < 2:
            raise ValueError(f"batch_streets must be >= 2 (got {self.batch_streets})")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0 (got {self.warmup_epochs})")
        if self.mining_space not in ("drone", "ground"):
            raise ValueError(
                f"mining_space must be 'drone' or 'ground' (got {self.mining_space!r})")
        if self.junior_init not in ("senior", "fresh"):
            raise ValueError(f"junior_init must be 'senior' or 'fresh' (got {self.junior_init!r})")
        # satellite-drone training
        if self.margin <= 0:
            raise ValueError(f"margin must be positive (got {self.margin})")
        if self.lambda2 < 0:
            raise ValueError(f"lambda2 must be >= 0 (got {self.lambda2})")
        if self.batch_pairs < 2:
            raise ValueError(f"batch_pairs must be >= 2 (got {self.batch_pairs})")
        if self.student_init not in ("teacher", "fresh"):
            raise ValueError(
                f"student_init must be 'teacher' or 'fresh' (got {self.student_init!r})")
        # diffusion
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1) (got {self.alpha})")
        if not all(0 < a < 1 for a in self.alpha_sweep):
            raise ValueError(f"alpha_sweep values must be in (0, 1) (got {self.alpha_sweep})")
        if self.k_graph < 1:
            raise ValueError(f"k_graph must be >= 1 (got {self.k_graph})")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1 (got {self.k_init})")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive (got {self.tol})")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1 (got {self.max_iters})")
        # evaluation
        if self.ground_drone_relevance not in ("facet", "landmark"):
            raise ValueError("ground_drone_relevance must be 'facet' or 'landmark' "
                             f"(got {self.ground_drone_relevance!r})")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"config key '{key}': expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw, key)
        if kind == "str":
            return raw
        if kind == "tuple[int, ...]":
            return tuple(int(t) for t in raw.split(",") if t.strip())
        if kind == "tuple[float, ...]":
            return tuple(float(t) for t in raw.split(",") if t.strip())
        if kind == "tuple[tuple[int, int], ...]":
            pairs = []
            for item in raw.split(","):
                if not item.strip():
                    continue
                left, right = item.split(":")
                pairs.append((int(left), int(right)))
            return tuple(pairs)
    except ValueError as err:
        raise ValueError(f"config key '{key}': cannot parse {raw!r} ({err})") from None
    raise ValueError(f"config key '{key}' has unsupported type {kind}")


def _format_value(key: str, value) -> str:
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        return "true" if value else "false"
    if kind == "tuple[int, ...]":
        return ",".join(str(v) for v in value)
    if kind == "tuple[float, ...]":
        return ",".join(repr(float(v)) for v in value)
    if kind == "tuple[tuple[int, int], ...]":
        return ",".join(f"{a}:{b}" for a, b in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults, then file values, then overrides; every key validated."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for key, raw in parse_config_text(fh.read(), str(path)).items():
                values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    return replace(RunConfig(), **values)


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def write_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
