"""Command-line interface wiring the full pipeline to files.

Subcommands: gen-data, train-gd, train-sd, retrieve, evaluate, ablate.
Every tunable lives in a flat ``key = value`` config file; any key can also
be overridden on the command line via ``--set key=value`` (flags win).
``main`` loads that config once for every stage and echoes it into the
stage's ``--out`` directory, and rerunning from that file
reproduces the outputs byte for byte. Every path argument resolves under
``$PLCD_OUTPUT_ROOT`` when it is set and relative. A split whose maps or
counts contradict the config exits, and ``retrieve`` reads only the
checkpoints ``pipeline.ENCODERS`` names for its mode. Dataset splits and
encoder checkpoints are ``.npz`` archives (``np.load`` opens them); rankings,
metrics, logs, configs and the embedding dump are line-oriented text.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import dataspace, evalkit, patchmodel, pipeline
from . import encoder as enc
from .config import RunConfig, load_config, write_config
from .ranking import read_ranking, write_ranking

TRAIN_DATA = "train-data.npz"
TEST_DATA = "test-data.npz"
EFFECTIVE_CONFIG = "effective-config.txt"
CHECKPOINTS = {
    "senior_ground": "senior-ground.npz",
    "senior_drone": "senior-drone.npz",
    "junior_ground": "junior-ground.npz",
    "junior_drone": "junior-drone.npz",
    "shared": "satdrone.npz",
}
ROLES = {"senior_ground": enc.ROLE_GROUND, "senior_drone": enc.ROLE_DRONE,
         "junior_ground": enc.ROLE_GROUND, "junior_drone": enc.ROLE_DRONE,
         "shared": enc.ROLE_SHARED}  # field -> the role its checkpoint stores


def _out_path(raw: str) -> Path:
    """Every path argument's ``type``: relative paths resolve under
    ``$PLCD_OUTPUT_ROOT`` when it is set."""
    path = Path(raw)
    root = os.environ.get("PLCD_OUTPUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_cfg(args) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        if key in overrides:
            raise SystemExit(f"--set key '{key}' given more than once")
        overrides[key] = value
    try:
        return load_config(args.config, overrides)
    except (ValueError, OSError) as err:
        raise SystemExit(str(err))


def _parse(path: Path, what: str, reader, **kwargs):
    """``reader(path, **kwargs)`` on an input file; a missing or malformed
    file exits with a message naming the path instead of a traceback."""
    if not path.exists():
        raise SystemExit(f"{what} not found: {path}")
    try:
        return reader(path, **kwargs)
    except ValueError as err:
        msg = str(err)
        raise SystemExit(msg if str(path) in msg else f"{path}: {msg}")


def _read_split(path: Path, cfg: RunConfig, part: str) -> dataspace.DatasetSplit:
    """The split with only its ``part`` ("train" or "test") read from ``path``;
    the other part stays empty. Data whose maps or counts contradict ``cfg``
    exits with a message naming the file, the field and both values."""
    records, num_landmarks, num_sections = _parse(path, f"{part} data", dataspace.read_records)
    found = {"num_landmarks": num_landmarks, "num_sections": num_sections}
    if records:
        channels, side, width = records[0].featmap.shape
        found.update(channels=channels, map_side=side if side == width else (side, width))
    for name, value in found.items():
        if value != getattr(cfg, name):
            raise SystemExit(f"{path}: {name} is {value} in the data but "
                             f"{getattr(cfg, name)} in the run config")
    return dataspace.DatasetSplit(**{"train": [], "test": [], part: records},
                                  num_landmarks=num_landmarks, num_sections=num_sections)


def _load_models(models_dir: Path, cfg: RunConfig, wanted: set[str]) -> pipeline.TrainedModels:
    """The checkpoints of the ``wanted`` ``TrainedModels`` fields; every other
    encoder stays unset. A checkpoint whose stored role is not its field's
    exits: a swapped or copied file would rank with the wrong branch."""
    models = {}
    for attr, name in CHECKPOINTS.items():
        if attr in wanted:
            path, role = models_dir / name, ROLES[attr]
            models[attr] = _parse(path, "checkpoint", enc.load_params, tanh=cfg.encoder_tanh)
            if models[attr].role != role:
                raise SystemExit(f"{path}: checkpoint for role {role!r} stores role "
                                 f"{models[attr].role!r}")
    return pipeline.TrainedModels(**models)


def _write_log(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def cmd_gen_data(args, cfg: RunConfig) -> None:
    split = pipeline.make_split(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, records in ((TRAIN_DATA, split.train), (TEST_DATA, split.test)):
        dataspace.write_records(args.out / name, records, split.num_landmarks,
                                split.num_sections)
    print(f"wrote {len(split.train)} train / {len(split.test)} test records to {args.out}")


def cmd_train_gd(args, cfg: RunConfig) -> None:
    split = _read_split(args.data / TRAIN_DATA, cfg, "train")
    senior, junior, logs = pipeline.train_ground_drone(cfg, split)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, params in zip(CHECKPOINTS.values(), (*senior, *junior)):  # shared is train-sd's
        enc.save_params(args.out / name, params)
    for peer in ("senior", "junior"):
        _write_log(args.out / f"train-{peer}.log", logs[peer])
    print(f"wrote ground-drone checkpoints to {args.out}")


def cmd_train_sd(args, cfg: RunConfig) -> None:
    split = _read_split(args.data / TRAIN_DATA, cfg, "train")
    teacher = _load_models(args.models, cfg, {"junior_drone"}).junior_drone
    try:
        shared, log = patchmodel.train_satellite_drone(split, teacher, cfg)
    except ValueError as err:
        raise SystemExit(f"train-sd on {args.data} with teacher "
                         f"{args.models / CHECKPOINTS['junior_drone']}: {err}")
    args.out.mkdir(parents=True, exist_ok=True)
    enc.save_params(args.out / CHECKPOINTS["shared"], shared)
    _write_log(args.out / "train-sd.log", log)
    print(f"wrote satellite-drone checkpoint to {args.out}")


def cmd_retrieve(args, cfg: RunConfig) -> None:
    if args.best_region and pipeline.MODES[args.mode] != "ground-drone":
        args.error(f"--best-region does not apply to --mode {args.mode}")
    split = _read_split(args.data / TEST_DATA, cfg, "test")
    dumped = ("junior_ground", "shared") if args.dump_embeddings else ()
    models = _load_models(args.models, cfg, {*pipeline.ENCODERS[args.mode], *dumped})
    try:
        rankings = pipeline.rankings(cfg, split, models, args.mode, best_region=args.best_region)
    except ValueError as err:
        raise SystemExit(f"retrieve --mode {args.mode} on {args.data}: {err}")
    args.out.mkdir(parents=True, exist_ok=True)
    for ranking in rankings:
        write_ranking(args.out / f"ranking-{ranking.query_id}.txt", ranking)
    if args.dump_embeddings:
        _dump_embeddings(args.dump_embeddings, split, models)
    print(f"wrote {len(rankings)} ranking files to {args.out}")


def _dump_embeddings(path: Path, split, models) -> None:
    """Exchange file, in test-split order: ground and satellite entries keep
    labels; drone reference entries are written with landmark 0 (unlabeled at
    query time). Each view is embedded as one stack, as retrieval embeds it."""
    rows = {}
    for view, params in ((dataspace.GROUND, models.junior_ground),
                         (dataspace.SATELLITE, models.shared), (dataspace.DRONE, models.shared)):
        records = [r for r in split.test if r.view == view]
        if records:
            rows.update(zip([r.id for r in records], enc.embed_records(params, records)))
    path.parent.mkdir(parents=True, exist_ok=True)
    dataspace.write_embeddings(path, [
        (r.id, r.view, 0 if r.view == dataspace.DRONE else r.landmark, rows[r.id])
        for r in split.test])


def cmd_evaluate(args, cfg: RunConfig) -> None:
    files = sorted(args.rankings.glob("ranking-*.txt"))
    if not files:
        raise SystemExit(f"no ranking files found in {args.rankings}")
    rankings = [_parse(f, "ranking file", read_ranking) for f in files]
    split = _read_split(args.data, cfg, "test")
    misfit = f"rankings in {args.rankings} do not fit task {args.task} on {args.data}"
    # a ranking over part of the gallery, or another gallery, would be scored
    # as if it ranked the task's whole gallery
    gallery = {r.id for r in split.test if r.view == pipeline.TASKS[args.task][1]}
    first: dict[int, Path] = {}  # query id -> the file that ranks it
    for f, ranking in zip(files, rankings):
        if first.setdefault(ranking.query_id, f) != f:
            raise SystemExit(f"query {ranking.query_id} is ranked in both "
                             f"{first[ranking.query_id]} and {f}")
        if set(ranking.gallery_ids) != gallery:
            raise SystemExit(f"{misfit}: {f} ranks query {ranking.query_id} over "
                             f"{len(ranking.gallery_ids)} gallery ids, which are not the "
                             f"{len(gallery)} of the task's gallery")
    try:
        report = pipeline.task_report(cfg, split.test, rankings, args.task)
    except ValueError as err:
        raise SystemExit(f"{misfit}: {err}")
    # a query with no ranking file would drop out of every metric's mean
    queries = {r.id for r in split.test if r.view == pipeline.TASKS[args.task][0]}
    missing = sorted(queries - first.keys())
    if missing:
        raise SystemExit(f"{misfit}: no ranking file for {len(missing)} of the task's "
                         f"{len(queries)} queries, the first query {missing[0]}")
    payload = evalkit.report_to_json(report)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "metrics.json").write_text(payload, encoding="utf-8")
        (args.out / "metrics.csv").write_text(
            evalkit.reports_to_csv([(args.task, report)]), encoding="utf-8")
    sys.stdout.write(payload)


def cmd_ablate(args, cfg: RunConfig) -> None:
    try:
        result = evalkit.run_ablation(args.suite, cfg)
    except ValueError as err:
        raise SystemExit(str(err))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.suite}.csv").write_text(result.to_csv(), encoding="utf-8")
        (args.out / f"{args.suite}.json").write_text(result.to_json(), encoding="utf-8")
    sys.stdout.write(result.to_csv())


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
    p.add_argument("--out", type=_out_path, required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-gd", help="train the ground-drone peers")
    common(p)
    p.add_argument("--data", type=_out_path, required=True,
                   help="directory with the dataset splits")
    p.add_argument("--out", type=_out_path, required=True, help="checkpoint output directory")
    p.set_defaults(func=cmd_train_gd)

    p = sub.add_parser("train-sd", help="train the shared satellite-drone encoder")
    common(p)
    p.add_argument("--data", type=_out_path, required=True,
                   help="directory with the dataset splits")
    p.add_argument("--models", type=_out_path, required=True,
                   help="directory with the junior checkpoints")
    p.add_argument("--out", type=_out_path, required=True, help="checkpoint output directory")
    p.set_defaults(func=cmd_train_sd)

    p = sub.add_parser("retrieve", help="rank the gallery for every query")
    common(p)
    p.add_argument("--data", type=_out_path, required=True)
    p.add_argument("--models", type=_out_path, required=True)
    p.add_argument("--mode", required=True, choices=pipeline.MODES)
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--best-region", action="store_true",
                   help="ground-drone only: score galleries by their best sub-region")
    p.add_argument("--dump-embeddings", type=_out_path, default=None,
                   help="also write the embedding exchange file here")
    p.set_defaults(func=cmd_retrieve, error=p.error)

    p = sub.add_parser("evaluate", help="compute CMC/mAP over ranking files")
    common(p)
    p.add_argument("--rankings", type=_out_path, required=True,
                   help="directory of ranking files")
    p.add_argument("--data", type=_out_path, required=True,
                   help="dataset file defining relevance")
    p.add_argument("--task", required=True, choices=pipeline.TASKS)
    p.add_argument("--out", type=_out_path, default=None, help="directory for metrics.json/csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run a comparison suite")
    common(p)
    p.add_argument("--suite", required=True)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    """One subcommand. Every stage gets the run config loaded here, and a
    stage given ``--out`` finds it echoed there once it returns."""
    args = build_parser().parse_args(argv)
    cfg = _load_cfg(args)
    args.func(args, cfg)
    if args.out:
        write_config(args.out / EFFECTIVE_CONFIG, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
