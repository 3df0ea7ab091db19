import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from plcd import cli, dataspace, pipeline
from plcd import encoder as enc
from plcd.seeds import substream
from support import read_embeddings

TINY = {
    "seed": "5",
    "num_landmarks": "4",
    "drones_per_landmark": "6",
    "grounds_per_landmark": "2",
    "channels": "4",
    "map_side": "6",
    "latent_rank": "8",
    "noise_sigma": "0.3",
    "embed_dim": "8",
    "epochs_senior": "2",
    "epochs_junior": "2",
    "epochs_patch": "2",
    "scales": "1,2",
    "k_graph": "4",
    "k_init": "4",
}


def write_tiny_config(path: Path) -> Path:
    lines = [f"{k} = {v}" for k, v in TINY.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_tiny_config(root / "run.cfg")
    assert run(["gen-data", "--config", cfg, "--out", root / "data"]) == 0
    assert run(["train-gd", "--config", cfg, "--data", root / "data",
                "--out", root / "models"]) == 0
    assert run(["train-sd", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--out", root / "models"]) == 0
    return root, cfg


def test_gen_data_outputs(workspace):
    root, _ = workspace
    with np.load(root / "data" / "train-data.npz") as train:
        assert str(train["format"]) == "plcd-data v2"
    assert (root / "data" / "test-data.npz").exists()
    assert (root / "data" / "effective-config.txt").exists()


def test_gen_data_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("foo = 1\n")
    with pytest.raises(SystemExit) as err:
        run(["gen-data", "--config", cfg, "--out", tmp_path / "out"])
    assert "foo" in str(err.value)


def test_set_flag_repeating_a_key_exits_naming_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\n")

    def load(*sets):
        return cli._load_cfg(cli.build_parser().parse_args(
            ["gen-data", "--config", str(cfg), *sets, "--out", str(tmp_path / "data")]))

    with pytest.raises(SystemExit) as err:
        load("--set", "alpha=0.7", "--set", "alpha = 0.9")
    assert str(err.value) == "--set key 'alpha' given more than once"
    assert load("--set", "alpha=0.7").alpha == 0.7  # a flag still wins over the file


def test_bad_config_value_exits_with_its_message(workspace, tmp_path):
    # every value is checked when the config loads, before any stage starts
    root, _ = workspace
    with pytest.raises(SystemExit) as err:
        run(["gen-data", "--set", "alpha=1.5", "--out", tmp_path / "data"])
    assert "alpha must be in (0, 1)" in str(err.value)
    assert not (tmp_path / "data").exists()
    with pytest.raises(SystemExit) as err:
        run(["train-gd", "--set", "tau=0", "--data", root / "data",
             "--out", tmp_path / "models"])
    assert "tau must be positive" in str(err.value)
    assert not (tmp_path / "models").exists()
    # rejected when the config loads, before the SGD state or the data
    with pytest.raises(SystemExit) as err:
        run(["train-gd", "--set", "momentum=1.0", "--data", root / "data",
             "--out", tmp_path / "models"])
    assert "momentum must be in [0, 1)" in str(err.value)
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("setting, message", [
    ("scales=0", "scales must be >= 1 (got 0)"),
    ("scales=24", "width rule gives 0 for scale 24 on side 6"),
    ("closed_form_cap=0", "unknown config key 'closed_form_cap'"),
])
def test_values_later_stages_cannot_use_exit_at_load(tmp_path, setting, message):
    # these once passed gen-data and died with a traceback in training or retrieval
    with pytest.raises(SystemExit) as err:
        run(["gen-data", "--set", setting, "--out", tmp_path / "data"])
    assert message in str(err.value)
    assert not (tmp_path / "data").exists()


def test_train_outputs_and_rerun_identical(workspace, tmp_path):
    root, cfg = workspace
    for name in ("senior-ground.npz", "senior-drone.npz", "junior-ground.npz",
                 "junior-drone.npz", "satdrone.npz", "train-senior.log",
                 "train-junior.log", "train-sd.log"):
        assert (root / "models" / name).exists(), name
    again = tmp_path / "models2"
    assert run(["train-gd", "--config", cfg, "--data", root / "data",
                "--out", again]) == 0
    for name in ("senior-ground.npz", "junior-drone.npz", "train-junior.log"):
        assert (again / name).read_bytes() == (root / "models" / name).read_bytes()


def test_zero_epochs_emits_untrained_checkpoint(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "untrained"
    assert run(["train-gd", "--config", cfg, "--set", "epochs_senior=0",
                "--set", "epochs_junior=0", "--data", root / "data",
                "--out", out]) == 0
    assert (out / "senior-ground.npz").exists()
    assert (out / "train-senior.log").read_text() == ""


def test_missing_dataset_path_in_message(workspace, tmp_path):
    _, cfg = workspace
    missing = tmp_path / "nowhere"
    with pytest.raises(SystemExit) as err:
        run(["train-gd", "--config", cfg, "--data", missing, "--out", tmp_path / "x"])
    assert str(missing) in str(err.value)


def _copy_with_nan(src: Path, dst: Path, member: str) -> Path:
    """``src`` copied to ``dst`` with the last value of array ``member`` set to nan."""
    with np.load(src) as archive:
        arrays = dict(archive)
    arrays[member].reshape(-1)[-1] = np.nan
    dst.parent.mkdir(parents=True, exist_ok=True)
    np.savez(dst, **arrays)
    return dst


def test_non_finite_inputs_exit_naming_the_path(workspace, tmp_path):
    root, cfg = workspace
    models = tmp_path / "nan-models"
    bad = _copy_with_nan(root / "models" / "junior-drone.npz",
                         models / "junior-drone.npz", "weight")
    with pytest.raises(SystemExit) as err:
        run(["train-sd", "--config", cfg, "--data", root / "data",
             "--models", models, "--out", tmp_path / "sd"])
    assert str(bad) in str(err.value) and "non-finite" in str(err.value)

    data = tmp_path / "nan-data"
    bad = _copy_with_nan(root / "data" / "test-data.npz", data / "test-data.npz", "values")
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", data, "--models", root / "models",
             "--mode", "diffusion", "--out", tmp_path / "r"])
    assert str(bad) in str(err.value) and "non-finite" in str(err.value)
    rankings = tmp_path / "good"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "chain", "--out", rankings]) == 0
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings,
             "--data", bad, "--task", "ground-satellite"])
    assert str(bad) in str(err.value) and "non-finite" in str(err.value)


def test_corrupt_inputs_exit_naming_the_path(workspace, tmp_path):
    # a truncated split, a checkpoint missing a member and a file in the
    # retired text format each end in an exit naming the file, not a traceback
    root, cfg = workspace
    data = tmp_path / "cut-data"
    data.mkdir()
    bad = data / "test-data.npz"
    bad.write_bytes((root / "data" / "test-data.npz").read_bytes()[:-100])
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", data, "--models", root / "models",
             "--mode", "diffusion", "--out", tmp_path / "r"])
    assert str(bad) in str(err.value) and "not a readable" in str(err.value)

    models = tmp_path / "partial-models"
    models.mkdir()
    with np.load(root / "models" / "junior-drone.npz") as archive:
        np.savez(models / "junior-drone.npz", **{k: v for k, v in archive.items()
                                                 if k != "bias"})
    with pytest.raises(SystemExit) as err:
        run(["train-sd", "--config", cfg, "--data", root / "data",
             "--models", models, "--out", tmp_path / "sd"])
    assert str(models / "junior-drone.npz") in str(err.value)
    assert "no member bias" in str(err.value)

    rankings = tmp_path / "good"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "chain", "--out", rankings]) == 0
    old = tmp_path / "test-data.txt"
    old.write_text("#plcd-data v1 1 4 6\n1 S 1 0 1 1 1 0.5\n")
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings,
             "--data", old, "--task", "ground-satellite"])
    assert str(old) in str(err.value) and "not a zip archive" in str(err.value)


def test_subcommands_read_only_the_split_they_use(workspace, tmp_path):
    # train-gd reads only the train file, retrieve only the test file
    root, cfg = workspace
    train_only, test_only = tmp_path / "train-only", tmp_path / "test-only"
    for path, name in ((train_only, "train-data.npz"), (test_only, "test-data.npz")):
        path.mkdir()
        (path / name).write_bytes((root / "data" / name).read_bytes())
    assert run(["train-gd", "--config", cfg, "--set", "epochs_senior=0",
                "--set", "epochs_junior=0", "--data", train_only,
                "--out", tmp_path / "m"]) == 0
    out = tmp_path / "r"
    assert run(["retrieve", "--config", cfg, "--data", test_only,
                "--models", root / "models", "--mode", "chain", "--out", out]) == 0
    assert list(out.glob("ranking-*.txt"))


def test_retrieve_and_evaluate_all_modes(workspace, tmp_path):
    root, cfg = workspace
    for mode, task in (("diffusion", "ground-satellite"),
                       ("chain", "ground-satellite"),
                       ("direct-cosine", "ground-satellite"),
                       ("ground-drone", "ground-drone"),
                       ("drone-satellite", "drone-satellite")):
        out = tmp_path / f"rank-{mode}"
        assert run(["retrieve", "--config", cfg, "--data", root / "data",
                    "--models", root / "models", "--mode", mode,
                    "--out", out]) == 0
        files = list(out.glob("ranking-*.txt"))
        assert files
        metrics_dir = tmp_path / f"metrics-{mode}"
        assert run(["evaluate", "--config", cfg, "--rankings", out,
                    "--data", root / "data" / "test-data.npz",
                    "--task", task, "--out", metrics_dir]) == 0
        payload = json.loads((metrics_dir / "metrics.json").read_text())
        assert set(payload) == {"cmc1", "cmc5", "cmc10", "cmc1pct", "map",
                                "n_queries"}


def test_retrieve_deterministic(workspace, tmp_path):
    root, cfg = workspace
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["retrieve", "--config", cfg, "--data", root / "data",
                    "--models", root / "models", "--mode", "diffusion",
                    "--out", out]) == 0
    files_a = sorted(p.name for p in a.glob("ranking-*.txt"))
    assert files_a == sorted(p.name for p in b.glob("ranking-*.txt"))
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_best_region_mode(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "bestregion"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "ground-drone",
                "--best-region", "--out", out]) == 0
    assert list(out.glob("ranking-*.txt"))


def _choices(command, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_mode_and_task_choices_are_the_tables():
    assert list(_choices("retrieve", "mode")) == list(pipeline.MODES)
    assert list(_choices("evaluate", "task")) == list(pipeline.TASKS)


@pytest.mark.parametrize("mode, flags", [
    ("diffusion", ["--best-region"]),
    ("chain", ["--best-region"]),
    ("drone-satellite", ["--best-region"]),
])
def test_retrieve_refuses_flags_its_mode_ignores(workspace, tmp_path, capsys, mode, flags):
    root, cfg = workspace
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data", "--models",
             root / "models", "--mode", mode, "--out", out, *flags])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert flags[0] in stderr and f"--mode {mode}" in stderr
    assert not out.exists()


@pytest.mark.parametrize("mode, flags, dropped", [
    ("chain", [], "D"),
    ("ground-drone", [], "D"),
    ("drone-satellite", [], "S"),
    ("diffusion", [], "G"),
    ("diffusion", [], "D"),
])
def test_retrieve_that_cannot_run_exits_naming_mode_and_data(workspace, tmp_path, mode,
                                                             flags, dropped):
    root, cfg = workspace
    data = root / "data"
    if dropped:
        data = tmp_path / "data"
        data.mkdir()
        records, num_landmarks, num_sections = dataspace.read_records(
            root / "data" / "test-data.npz")
        dataspace.write_records(data / "test-data.npz",
                                [r for r in records if r.view != dropped],
                                num_landmarks, num_sections)
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", data, "--models", root / "models",
             "--mode", mode, "--out", out, *flags])
    msg = str(err.value)
    assert f"--mode {mode}" in msg and str(data) in msg
    assert not out.exists()


def test_dump_embeddings_exchange_file(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "rankdump"
    emb = tmp_path / "embeddings.txt"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "diffusion",
                "--dump-embeddings", emb, "--out", out]) == 0
    entries = read_embeddings(emb)
    views = {view for _, view, _, _ in entries}
    assert views == {"G", "D", "S"}
    # drone reference entries carry no identity label
    assert all(lm == 0 for _, view, lm, _ in entries if view == "D")
    assert all(lm > 0 for _, view, lm, _ in entries if view != "D")
    # ground-drone mode reads no satdrone.npz for ranking, but its dump does
    gd_emb = tmp_path / "gd-embeddings.txt"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "ground-drone",
                "--dump-embeddings", gd_emb, "--out", tmp_path / "gd"]) == 0
    assert gd_emb.read_bytes() == emb.read_bytes()


def test_dump_holds_the_rows_retrieval_ranked(workspace, tmp_path, monkeypatch):
    from plcd import diffusion
    root, cfg = workspace
    seen = {}
    build, query = diffusion.build_index, diffusion.query
    # the index holds no drone ids: its drone rows come in the test split's
    # drone order
    records = dataspace.read_records(root / "data" / "test-data.npz")[0]
    drone_ids = [r.id for r in records if r.view == dataspace.DRONE]

    def capture_build(*args, **kwargs):
        seen["sats"] = dict(zip(kwargs["sat_ids"], kwargs["sat_sd_embs"]))
        assert len(kwargs["drone_sd_embs"]) == len(drone_ids)
        seen["drones"] = dict(zip(drone_ids, kwargs["drone_sd_embs"]))
        return build(*args, **kwargs)

    def capture_query(index, cfg, query_ids, query_embs):
        seen["grounds"] = dict(zip(query_ids, query_embs))
        return query(index, cfg, query_ids, query_embs)

    monkeypatch.setattr(diffusion, "build_index", capture_build)
    monkeypatch.setattr(diffusion, "query", capture_query)
    emb = tmp_path / "embeddings.txt"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "diffusion",
                "--dump-embeddings", emb, "--out", tmp_path / "gs"]) == 0
    dumped = {view: {rid: vec for rid, v, _, vec in read_embeddings(emb) if v == view}
              for view in ("G", "S", "D")}
    for view, rows in (("G", seen["grounds"]), ("S", seen["sats"]), ("D", seen["drones"])):
        assert sorted(dumped[view]) == sorted(rows)
        for rid, row in rows.items():
            assert dumped[view][rid].tobytes() == np.asarray(row, dtype=float).tobytes()


def test_evaluate_empty_rankings_dir_fails(workspace, tmp_path):
    root, cfg = workspace
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit, match="no ranking files"):
        run(["evaluate", "--config", cfg, "--rankings", empty,
             "--data", root / "data" / "test-data.npz",
             "--task", "ground-satellite"])


@pytest.mark.parametrize("mode,data,task,detail", [
    ("ground-drone", "test-data.npz", "ground-satellite", "of the task's gallery"),
    ("diffusion", "train-data.npz", "ground-satellite", "of the task's gallery"),
    ("diffusion", "test-data.npz", "drone-satellite", "no relevant gallery item"),
], ids=["drone-gallery", "train-data", "drone-queries"])
def test_evaluate_mismatched_rankings_exit_with_message(workspace, tmp_path, mode, data,
                                                        task, detail):
    root, cfg = workspace
    rankings = tmp_path / "rank"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", mode, "--out", rankings]) == 0
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings,
             "--data", root / "data" / data, "--task", task])
    msg = str(err.value)
    assert str(rankings) in msg and f"task {task}" in msg
    assert detail in msg


@pytest.mark.parametrize("relevance", ["facet", "landmark"])
def test_evaluate_refuses_a_ranking_over_part_of_the_gallery(workspace, tmp_path, relevance):
    # scored as it stands, a cut ranking reads as a ranking of the whole
    # gallery: with landmark relevance evaluate would report its metrics
    root, cfg = workspace
    rankings = tmp_path / "rank"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "ground-drone", "--out", rankings]) == 0
    cut = sorted(rankings.glob("ranking-*.txt"))[-1]
    lines = cut.read_text().splitlines(keepends=True)
    cut.write_text("".join(lines[:len(lines) // 2]))
    data = root / "data" / "test-data.npz"
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings, "--data", data,
             "--task", "ground-drone", "--set", f"ground_drone_relevance={relevance}"])
    assert str(err.value) == (
        f"rankings in {rankings} do not fit task ground-drone on {data}: {cut} ranks query "
        f"{lines[0].split()[0]} over {len(lines) // 2} gallery ids, which are not the "
        f"{len(lines)} of the task's gallery")


def test_evaluate_exits_on_a_query_ranked_in_two_files(workspace, tmp_path):
    root, cfg = workspace
    rankings = tmp_path / "rank"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "diffusion", "--out", rankings]) == 0
    first = sorted(rankings.glob("ranking-*.txt"))[0]
    copy = rankings / "ranking-copy.txt"
    copy.write_bytes(first.read_bytes())
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings,
             "--data", root / "data" / "test-data.npz", "--task", "ground-satellite"])
    query = first.read_text().split()[0]
    assert str(err.value) == f"query {query} is ranked in both {first} and {copy}"


def test_evaluate_refuses_rankings_missing_some_queries(workspace, tmp_path):
    # scored as they stand, the remaining files would report metrics over a
    # subset of the task's queries
    root, cfg = workspace
    rankings = tmp_path / "rank"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "diffusion", "--out", rankings]) == 0
    files = {int(f.stem.split("-")[1]): f for f in rankings.glob("ranking-*.txt")}
    dropped = sorted(files)[1:3]
    for query in dropped:
        files[query].unlink()
    data = root / "data" / "test-data.npz"
    with pytest.raises(SystemExit) as err:
        run(["evaluate", "--config", cfg, "--rankings", rankings, "--data", data,
             "--task", "ground-satellite"])
    assert str(err.value) == (
        f"rankings in {rankings} do not fit task ground-satellite on {data}: no ranking "
        f"file for 2 of the task's {len(files)} queries, the first query {dropped[0]}")


def test_config_echo_reproduces_run(workspace, tmp_path):
    root, cfg = workspace
    echoed = root / "data" / "effective-config.txt"
    out = tmp_path / "data-from-echo"
    assert run(["gen-data", "--config", echoed, "--out", out]) == 0
    assert (out / "train-data.npz").read_bytes() == \
        (root / "data" / "train-data.npz").read_bytes()


def test_missing_checkpoint_reports_path(workspace, tmp_path):
    root, cfg = workspace
    empty = tmp_path / "nomodels"
    empty.mkdir()
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data",
             "--models", empty, "--mode", "diffusion", "--out", tmp_path / "r"])
    assert "junior-ground.npz" in str(err.value)


def test_ground_drone_retrieve_reads_only_the_junior_checkpoints(workspace, tmp_path):
    root, cfg = workspace
    juniors = tmp_path / "juniors"
    juniors.mkdir()
    for name in ("junior-ground.npz", "junior-drone.npz"):
        (juniors / name).write_bytes((root / "models" / name).read_bytes())
    full, only = tmp_path / "full", tmp_path / "only"
    for models, out in ((root / "models", full), (juniors, only)):
        assert run(["retrieve", "--config", cfg, "--data", root / "data",
                    "--models", models, "--mode", "ground-drone", "--out", out]) == 0
    names = sorted(p.name for p in full.glob("ranking-*.txt"))
    assert names and names == sorted(p.name for p in only.glob("ranking-*.txt"))
    for name in names:
        assert (only / name).read_bytes() == (full / name).read_bytes()
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data",
             "--models", juniors, "--mode", "diffusion", "--out", tmp_path / "gs"])
    assert "satdrone.npz" in str(err.value)


def test_non_finite_junior_ground_exits_naming_the_path(workspace, tmp_path):
    root, cfg = workspace
    bad = _copy_with_nan(root / "models" / "junior-ground.npz",
                         tmp_path / "nan" / "junior-ground.npz", "weight")
    (bad.parent / "junior-drone.npz").write_bytes(
        (root / "models" / "junior-drone.npz").read_bytes())
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data",
             "--models", bad.parent, "--mode", "ground-drone", "--out", tmp_path / "r"])
    assert str(bad) in str(err.value) and "non-finite" in str(err.value)


def test_ablate_unknown_suite_lists_valid_names(workspace):
    _, cfg = workspace
    with pytest.raises(SystemExit) as err:
        run(["ablate", "--config", cfg, "--suite", "bogus"])
    assert "alpha-sweep" in str(err.value)


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PLCD_OUTPUT_ROOT", str(tmp_path))
    cfg = write_tiny_config(tmp_path / "run.cfg")
    assert run(["gen-data", "--config", cfg, "--out", "nested/data"]) == 0
    assert (tmp_path / "nested" / "data" / "train-data.npz").exists()


def test_ablate_writes_tables(workspace, tmp_path):
    _, cfg = workspace
    out = tmp_path / "ablate"
    assert run(["ablate", "--config", cfg, "--suite", "alpha-sweep",
                "--out", out]) == 0
    csv = (out / "alpha-sweep.csv").read_text()
    assert csv.splitlines()[0].split(",")[0].strip() == "variant"
    payload = json.loads((out / "alpha-sweep.json").read_text())
    assert payload["suite"] == "alpha-sweep"
    assert payload["rows"] and payload["signs"]


def _copy_checkpoints(root: Path, dst: Path, attrs) -> Path:
    dst.mkdir()
    for attr in attrs:
        name = cli.CHECKPOINTS[attr]
        (dst / name).write_bytes((root / "models" / name).read_bytes())
    return dst


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_each_mode_reads_only_its_table_checkpoints(workspace, tmp_path, mode):
    root, cfg = workspace
    only = _copy_checkpoints(root, tmp_path / "only", pipeline.ENCODERS[mode])
    for models, out in ((root / "models", tmp_path / "full"), (only, tmp_path / "only-r")):
        assert run(["retrieve", "--config", cfg, "--data", root / "data",
                    "--models", models, "--mode", mode, "--out", out]) == 0
    names = sorted(p.name for p in (tmp_path / "full").glob("ranking-*.txt"))
    assert names and names == sorted(p.name for p in (tmp_path / "only-r").glob("ranking-*.txt"))
    for name in names:
        assert (tmp_path / "only-r" / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes()


def test_ground_drone_dump_needs_the_shared_checkpoint(workspace, tmp_path):
    # the dump embeds satellites and drones with satdrone.npz, never a junior stand-in
    root, cfg = workspace
    juniors = _copy_checkpoints(root, tmp_path / "juniors", ("junior_ground", "junior_drone"))
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data", "--models", juniors,
             "--mode", "ground-drone", "--dump-embeddings", tmp_path / "gd.txt",
             "--out", tmp_path / "gd"])
    assert "satdrone.npz" in str(err.value)
    assert not (tmp_path / "gd.txt").exists()


@pytest.mark.parametrize("mode, swaps, expected, stored", [
    ("ground-drone", (("junior_ground", "junior_drone"), ("junior_drone", "junior_ground")),
     "ground", "drone"),
    ("diffusion", (("junior_ground", "shared"),), "ground", "satdrone"),
    ("drone-satellite", (("shared", "senior_drone"),), "satdrone", "drone"),
], ids=["swapped-juniors", "satdrone-as-ground", "drone-as-shared"])
def test_retrieve_exits_on_a_checkpoint_of_another_role(workspace, tmp_path, mode, swaps,
                                                        expected, stored):
    # a swapped or copied checkpoint loads fine but ranks with the wrong branch
    root, cfg = workspace
    models = _copy_checkpoints(root, tmp_path / "models", cli.CHECKPOINTS)
    for attr, source in swaps:
        (models / cli.CHECKPOINTS[attr]).write_bytes(
            (root / "models" / cli.CHECKPOINTS[source]).read_bytes())
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--data", root / "data", "--models", models,
             "--mode", mode, "--out", tmp_path / "r"])
    path = models / cli.CHECKPOINTS[swaps[0][0]]
    assert str(err.value) == f"{path}: checkpoint for role {expected!r} stores role {stored!r}"
    assert not (tmp_path / "r").exists()


def test_train_sd_exits_on_a_teacher_that_does_not_fit(workspace, tmp_path):
    # once a traceback from the patch loss: the 8-d juniors against a 16-d
    # student, and a teacher of 99 inputs against 4x6x6 maps
    root, cfg = workspace
    teacher = root / "models" / cli.CHECKPOINTS["junior_drone"]
    with pytest.raises(SystemExit) as err:
        run(["train-sd", "--config", cfg, "--set", "embed_dim=16", "--data", root / "data",
             "--models", root / "models", "--out", tmp_path / "sd"])
    assert str(err.value) == (
        f"train-sd on {root / 'data'} with teacher {teacher}: teacher maps 144 inputs to "
        "8 dimensions, but the data's maps hold 144 values and the run config's "
        "embed_dim is 16")
    models = tmp_path / "models"
    models.mkdir()
    enc.save_params(models / cli.CHECKPOINTS["junior_drone"], enc.init_params(
        enc.ROLE_DRONE, 8, 99, 4, substream(0, "test.teacher"), tanh=True))
    with pytest.raises(SystemExit) as err:
        run(["train-sd", "--config", cfg, "--data", root / "data",
             "--models", models, "--out", tmp_path / "sd"])
    assert str(models / cli.CHECKPOINTS["junior_drone"]) in str(err.value)
    assert "teacher maps 99 inputs to 8 dimensions" in str(err.value)
    assert not (tmp_path / "sd").exists()


def test_dump_embeddings_makes_its_directory(workspace, tmp_path):
    root, cfg = workspace
    emb = tmp_path / "nodir" / "deeper" / "emb.txt"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "direct-cosine",
                "--dump-embeddings", emb, "--out", tmp_path / "r"]) == 0
    assert {view for _, view, _, _ in read_embeddings(emb)} == {"G", "D", "S"}


@pytest.mark.parametrize("setting, message", [
    ("map_side=9", "map_side is 6 in the data but 9 in the run config"),
    ("channels=5", "channels is 4 in the data but 5 in the run config"),
    ("num_landmarks=6", "num_landmarks is 4 in the data but 6 in the run config"),
    ("num_sections=3", "num_sections is 6 in the data but 3 in the run config"),
], ids=["map_side", "channels", "num_landmarks", "num_sections"])
def test_train_gd_exits_on_data_that_contradicts_the_config(workspace, tmp_path, setting,
                                                            message):
    root, cfg = workspace
    with pytest.raises(SystemExit) as err:
        run(["train-gd", "--config", cfg, "--set", setting, "--data", root / "data",
             "--out", tmp_path / "m"])
    assert str(root / "data" / "train-data.npz") in str(err.value)
    assert message in str(err.value)
    assert not (tmp_path / "m").exists()


def test_retrieve_exits_on_data_that_contradicts_the_config(workspace, tmp_path):
    root, cfg = workspace
    with pytest.raises(SystemExit) as err:
        run(["retrieve", "--config", cfg, "--set", "map_side=9", "--data", root / "data",
             "--models", root / "models", "--mode", "diffusion", "--out", tmp_path / "r"])
    msg = str(err.value)
    assert str(root / "data" / "test-data.npz") in msg
    assert "map_side is 6 in the data but 9 in the run config" in msg
    assert not (tmp_path / "r").exists()


def test_evaluate_echoes_a_config_that_reproduces_it(workspace, tmp_path):
    root, cfg = workspace
    rankings, first, second = tmp_path / "r", tmp_path / "m1", tmp_path / "m2"
    assert run(["retrieve", "--config", cfg, "--data", root / "data",
                "--models", root / "models", "--mode", "ground-drone", "--out", rankings]) == 0
    test_data = root / "data" / "test-data.npz"
    assert run(["evaluate", "--config", cfg, "--set", "ground_drone_relevance=landmark",
                "--rankings", rankings, "--data", test_data, "--task", "ground-drone",
                "--out", first]) == 0
    echoed = first / "effective-config.txt"
    assert "ground_drone_relevance = landmark" in echoed.read_text()
    assert run(["evaluate", "--config", echoed, "--rankings", rankings,
                "--data", test_data, "--task", "ground-drone", "--out", second]) == 0
    assert (second / "metrics.json").read_bytes() == (first / "metrics.json").read_bytes()
