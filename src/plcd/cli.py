"""Command-line interface wiring the full pipeline to files.

Subcommands: gen-data, train-gd, train-sd, retrieve, evaluate, ablate, check.
Every tunable lives in a flat ``key = value`` config file; any key can also
be overridden on the command line via ``--set key=value`` (flags win). Each
run echoes its effective config next to its outputs, and rerunning from that
file reproduces the outputs byte for byte. Relative output paths resolve
under ``$PLCD_OUTPUT_ROOT`` when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import checks, dataspace, diffusion, evalkit, patchmodel, pipeline
from . import encoder as enc
from .config import RunConfig, load_config, write_config
from .ranking import read_ranking, write_ranking

TRAIN_DATA = "train-data.txt"
TEST_DATA = "test-data.txt"
EFFECTIVE_CONFIG = "effective-config.txt"
CHECKPOINTS = {
    "senior_ground": "senior-ground.txt",
    "senior_drone": "senior-drone.txt",
    "junior_ground": "junior-ground.txt",
    "junior_drone": "junior-drone.txt",
    "shared": "satdrone.txt",
}


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("PLCD_OUTPUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_cfg(args) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        return load_config(args.config, overrides)
    except (ValueError, OSError) as err:
        raise SystemExit(str(err))


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise SystemExit(f"{what} not found: {path}")
    return path


def _read_split(data_dir: Path) -> dataspace.DatasetSplit:
    train, num_landmarks, num_sections = dataspace.read_records(
        _require(data_dir / TRAIN_DATA, "train data"))
    test, _, _ = dataspace.read_records(_require(data_dir / TEST_DATA, "test data"))
    return dataspace.DatasetSplit(train=train, test=test,
                                  num_landmarks=num_landmarks,
                                  num_sections=num_sections)


def _write_log(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = pipeline.make_split(cfg)
    dataspace.write_records(out / TRAIN_DATA, split.train, split.num_landmarks,
                            split.num_sections)
    dataspace.write_records(out / TEST_DATA, split.test, split.num_landmarks,
                            split.num_sections)
    write_config(out / EFFECTIVE_CONFIG, cfg)
    print(f"wrote {len(split.train)} train / {len(split.test)} test records to {out}")
    return 0


def cmd_train_gd(args) -> int:
    cfg = _load_cfg(args)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _read_split(_out_path(args.data))
    senior, junior, logs = pipeline.train_ground_drone(cfg, split)
    enc.save_params(out / CHECKPOINTS["senior_ground"], senior[0])
    enc.save_params(out / CHECKPOINTS["senior_drone"], senior[1])
    enc.save_params(out / CHECKPOINTS["junior_ground"], junior[0])
    enc.save_params(out / CHECKPOINTS["junior_drone"], junior[1])
    _write_log(out / "train-senior.log", logs["senior"])
    _write_log(out / "train-junior.log", logs["junior"])
    write_config(out / EFFECTIVE_CONFIG, cfg)
    print(f"wrote ground-drone checkpoints to {out}")
    return 0


def cmd_train_sd(args) -> int:
    cfg = _load_cfg(args)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _read_split(_out_path(args.data))
    teacher_path = _require(_out_path(args.models) / CHECKPOINTS["junior_drone"],
                            "teacher checkpoint")
    teacher = enc.load_params(teacher_path, tanh=cfg.encoder_tanh)
    shared, log = patchmodel.train_satellite_drone(split, teacher, cfg.patch_config())
    enc.save_params(out / CHECKPOINTS["shared"], shared)
    _write_log(out / "train-sd.log", log)
    write_config(out / EFFECTIVE_CONFIG, cfg)
    print(f"wrote satellite-drone checkpoint to {out}")
    return 0


def _load_models(models_dir: Path, cfg: RunConfig,
                 require_shared: bool) -> pipeline.TrainedModels:
    loaded = {}
    for attr, fname in CHECKPOINTS.items():
        path = models_dir / fname
        loaded[attr] = (enc.load_params(path, tanh=cfg.encoder_tanh)
                        if path.exists() else None)
    required = ["junior_ground", "junior_drone"]
    if require_shared:
        required.append("shared")
    for attr in required:
        if loaded[attr] is None:
            raise SystemExit(f"checkpoint not found: {models_dir / CHECKPOINTS[attr]}")
    return pipeline.TrainedModels(
        senior_ground=loaded["senior_ground"] or loaded["junior_ground"],
        senior_drone=loaded["senior_drone"] or loaded["junior_drone"],
        junior_ground=loaded["junior_ground"],
        junior_drone=loaded["junior_drone"],
        shared=loaded["shared"] or loaded["junior_drone"],
        logs={},
    )


def cmd_retrieve(args) -> int:
    cfg = _load_cfg(args)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _read_split(_out_path(args.data))
    models = _load_models(_out_path(args.models), cfg,
                          require_shared=args.mode != "ground-drone")
    if args.mode in ("diffusion", "chain", "direct-cosine"):
        rankings = pipeline.ground_satellite_rankings(
            cfg, split, models, args.mode, use_drones=not args.no_drones)
    elif args.mode == "ground-drone":
        rankings = pipeline.ground_drone_rankings(
            cfg, split, models.junior_ground, models.junior_drone,
            best_region=args.best_region)
    else:
        rankings = pipeline.drone_satellite_rankings(cfg, split, models.shared)
    for ranking in rankings:
        write_ranking(out / f"ranking-{ranking.query_id}.txt", ranking)
    if args.dump_embeddings:
        _dump_embeddings(_out_path(args.dump_embeddings), cfg, split, models,
                         use_drones=not args.no_drones)
    write_config(out / EFFECTIVE_CONFIG, cfg)
    print(f"wrote {len(rankings)} ranking files to {out}")
    return 0


def _dump_embeddings(path: Path, cfg, split, models, use_drones: bool) -> None:
    """Exchange file: ground and satellite entries keep labels; drone
    reference entries are written with landmark 0 (unlabeled at query time)."""
    entries = []
    for r in split.test:
        if r.view == dataspace.GROUND:
            entries.append((r.id, r.view, r.landmark,
                            enc.forward(models.junior_ground, r)))
        elif r.view == dataspace.SATELLITE:
            entries.append((r.id, r.view, r.landmark,
                            enc.forward(models.shared, r)))
        elif use_drones:
            entries.append((r.id, r.view, 0, enc.forward(models.shared, r)))
    diffusion.write_embeddings(path, entries)


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    rankings_dir = _out_path(args.rankings)
    files = sorted(rankings_dir.glob("ranking-*.txt")) if rankings_dir.exists() else []
    if not files:
        raise SystemExit(f"no ranking files found in {rankings_dir}")
    rankings = [read_ranking(f) for f in files]
    records, _, num_sections = dataspace.read_records(
        _require(_out_path(args.data), "data file"))
    relevance = pipeline.relevance_for(records, args.task, cfg, num_sections)
    gallery_view = dataspace.DRONE if args.task == "ground-drone" else dataspace.SATELLITE
    gallery_size = sum(1 for r in records if r.view == gallery_view)
    landmarks = (pipeline.query_landmarks_for(records, args.task)
                 if cfg.cmc_per_landmark else None)
    report = evalkit.metrics_report(rankings, relevance, gallery_size,
                                    query_landmarks=landmarks)
    payload = evalkit.report_to_json(report)
    if args.out:
        out = _out_path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(payload, encoding="utf-8")
        (out / "metrics.csv").write_text(
            evalkit.reports_to_csv([(args.task, report)]), encoding="utf-8")
    sys.stdout.write(payload)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    try:
        result = evalkit.run_ablation(args.suite, cfg)
    except ValueError as err:
        raise SystemExit(str(err))
    if args.out:
        out = _out_path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.suite}.csv").write_text(result.to_csv(), encoding="utf-8")
        (out / f"{args.suite}.json").write_text(result.to_json(), encoding="utf-8")
        write_config(out / EFFECTIVE_CONFIG, cfg)
    sys.stdout.write(result.to_csv())
    return 0


def cmd_check(args) -> int:
    started = time.time()
    failures = 0
    worst = checks.gradient_suite(num_seeds=args.grad_seeds)
    for name, err in sorted(worst.items()):
        ok = err < 1e-4
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] gradient {name}: max rel err {err:.3e}")
    gap = checks.diffusion_oracle(num_graphs=args.graphs)
    ok = gap < 1e-6
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] diffusion iterative-vs-solver and "
          f"batched-vs-per-column gap {gap:.3e}")
    print(f"checks finished in {time.time() - started:.1f}s")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcd",
        description="ground->drone->satellite retrieval pipeline on synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; wins over the file)")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset splits")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-gd", help="train the ground-drone peers")
    common(p)
    p.add_argument("--data", required=True, help="directory with the dataset splits")
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.set_defaults(func=cmd_train_gd)

    p = sub.add_parser("train-sd", help="train the shared satellite-drone encoder")
    common(p)
    p.add_argument("--data", required=True, help="directory with the dataset splits")
    p.add_argument("--models", required=True, help="directory with the junior checkpoints")
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.set_defaults(func=cmd_train_sd)

    p = sub.add_parser("retrieve", help="rank the gallery for every query")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--mode", required=True, choices=pipeline.MODES)
    p.add_argument("--out", required=True)
    p.add_argument("--no-drones", action="store_true",
                   help="drop the drone reference set (diffusion degenerates)")
    p.add_argument("--best-region", action="store_true",
                   help="ground-drone only: score galleries by their best sub-region")
    p.add_argument("--dump-embeddings", default=None,
                   help="also write the embedding exchange file here")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="compute CMC/mAP over ranking files")
    common(p)
    p.add_argument("--rankings", required=True, help="directory of ranking files")
    p.add_argument("--data", required=True, help="dataset file defining relevance")
    p.add_argument("--task", required=True,
                   choices=("ground-drone", "ground-satellite", "drone-satellite"))
    p.add_argument("--out", default=None, help="directory for metrics.json/csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run a comparison suite")
    common(p)
    p.add_argument("--suite", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("check", help="run the gradient and diffusion oracles")
    common(p)
    p.add_argument("--grad-seeds", type=int, default=5)
    p.add_argument("--graphs", type=int, default=20)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
