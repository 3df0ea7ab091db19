"""Flat key=value run configuration shared by every subcommand.

A config file holds ``key = value`` lines (``#`` comments allowed); CLI flags
override file values. Unknown keys are rejected by name. The merged,
effective config is echoed to each run's output directory and can be fed
back in to reproduce the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .dataspace import GenConfig
from .diffusion import DiffusionConfig
from .patchmodel import PatchModelConfig
from .peerlearn import PeerConfig


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
    num_positives: int = 0
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
    junior_init: str = "senior"
    student_init: str = "fresh"
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

    def gen_config(self) -> GenConfig:
        return GenConfig(
            num_landmarks=self.num_landmarks,
            num_sections=self.num_sections,
            drones_per_landmark=self.drones_per_landmark,
            grounds_per_landmark=self.grounds_per_landmark,
            channels=self.channels,
            map_side=self.map_side,
            latent_rank=self.latent_rank,
            basis_density=self.basis_density,
            noise_sigma=self.noise_sigma,
            train_fraction=self.train_fraction,
            seed=self.seed,
        )

    def peer_config(self) -> PeerConfig:
        return PeerConfig(
            embed_dim=self.embed_dim,
            epochs_senior=self.epochs_senior,
            epochs_junior=self.epochs_junior,
            batch_streets=self.batch_streets,
            num_negatives=self.num_negatives,
            num_positives=self.num_positives,
            warmup_epochs=self.warmup_epochs,
            mining_space=self.mining_space,
            tau=self.tau,
            lambda1=self.lambda1,
            lr_head=self.lr_head,
            lr_body=self.lr_body,
            momentum=self.momentum,
            decay_epoch=self.decay_epoch,
            decay_factor=self.decay_factor,
            junior_lr_scale=self.junior_lr_scale,
            encoder_tanh=self.encoder_tanh,
            scales=self.scales,
            width_table=self.width_table_dict(),
            reference_side=self.reference_side,
            junior_init=self.junior_init,
            seed=self.seed,
        )

    def patch_config(self) -> PatchModelConfig:
        return PatchModelConfig(
            embed_dim=self.embed_dim,
            epochs=self.epochs_patch,
            batch_pairs=self.batch_pairs,
            margin=self.margin,
            lambda2=self.lambda2,
            lr_head=self.lr_head,
            lr_body=self.lr_body,
            momentum=self.momentum,
            decay_epoch=self.decay_epoch,
            decay_factor=self.decay_factor,
            encoder_tanh=self.encoder_tanh,
            scales=self.scales,
            width_table=self.width_table_dict(),
            reference_side=self.reference_side,
            student_init=self.student_init,
            seed=self.seed,
        )

    def diffusion_config(self) -> DiffusionConfig:
        return DiffusionConfig(
            alpha=self.alpha,
            gamma=self.gamma,
            k_graph=self.k_graph,
            k_init=self.k_init,
            max_iters=self.max_iters,
            tol=self.tol,
            closed_form=self.closed_form,
            closed_form_cap=self.closed_form_cap,
        )


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
