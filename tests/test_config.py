import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import plcd
from plcd.config import RunConfig, format_config, load_config, write_config


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "run.cfg"
    write_config(path, cfg)
    assert load_config(path) == cfg


def test_file_values_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 7\nalpha = 0.5\nscales = 1,2\n")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.alpha == 0.5 and cfg.scales == (1, 2)
    cfg = load_config(path, overrides={"alpha": "0.25"})
    assert cfg.alpha == 0.25  # flags win over the file


def test_key_set_twice_in_a_file_rejected_with_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.5\n# later\nalpha = 0.7\n")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:3: key 'alpha' already set on line 1"
    path.write_text("alpha = 0.5\n")
    assert load_config(path, overrides={"alpha": "0.7"}).alpha == 0.7  # a flag still wins


def test_unknown_key_rejected_by_name(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("foo = 1\n")
    with pytest.raises(ValueError, match="foo"):
        load_config(path)


def test_bad_value_mentions_key():
    with pytest.raises(ValueError, match="alpha"):
        load_config(None, overrides={"alpha": "not-a-number"})
    with pytest.raises(ValueError, match="encoder_tanh"):
        load_config(None, overrides={"encoder_tanh": "maybe"})


def test_malformed_line_reports_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 7\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)


# key, bad raw value, the message it is rejected with
INVALID_VALUES = [
    ("num_landmarks", "1", "num_landmarks must be >= 2 (got 1)"),
    ("num_sections", "1", "num_sections must be >= 2 (got 1)"),
    ("drones_per_landmark", "5", "drones_per_landmark must be a positive multiple of "
     "num_sections (got drones_per_landmark=5, num_sections=6)"),
    ("grounds_per_landmark", "0", "grounds_per_landmark must be >= 1 (got 0)"),
    ("channels", "0", "channels must be >= 1 (got 0)"),
    ("latent_rank", "0", "latent_rank must be >= 1 (got 0)"),
    ("basis_density", "0.0", "basis_density must be in (0, 1] (got 0.0)"),
    ("noise_sigma", "-0.1", "noise_sigma must be >= 0 (got -0.1)"),
    ("train_fraction", "1.0", "train_fraction must be in (0, 1) (got 1.0)"),
    ("seed", "-1", "seed must be >= 0 (got -1)"),
    ("map_side", "2", "map_side=2 too small to host 6 facet wedges (some wedge would be empty)"),
    ("embed_dim", "0", "embed_dim must be >= 1 (got 0)"),
    ("epochs_senior", "-3", "epochs_senior must be >= 0 (got -3)"),
    ("epochs_junior", "-1", "epochs_junior must be >= 0 (got -1)"),
    ("epochs_patch", "-1", "epochs_patch must be >= 0 (got -1)"),
    ("num_negatives", "0", "num_negatives must be >= 1 (got 0)"),
    ("momentum", "1.0", "momentum must be in [0, 1) (got 1.0)"),
    ("junior_lr_scale", "-1.0", "junior_lr_scale must be >= 0 (got -1.0)"),
    ("tau", "0.0", "tau must be positive (got 0.0)"),
    ("tau_sweep", "2,0", "tau_sweep must be one or more positive values (got (2.0, 0.0))"),
    ("tau_sweep", "", "tau_sweep must be one or more positive values (got ())"),
    ("lambda1", "-1.0", "lambda1 must be >= 0 (got -1.0)"),
    ("batch_streets", "1", "batch_streets must be >= 2 (got 1)"),
    ("margin", "0.0", "margin must be positive (got 0.0)"),
    ("lr_head", "-0.01", "lr_head must be >= 0 (got -0.01)"),
    ("lr_body", "-0.01", "lr_body must be >= 0 (got -0.01)"),
    ("lambda2", "-1.0", "lambda2 must be >= 0 (got -1.0)"),
    ("batch_pairs", "1", "batch_pairs must be >= 2 (got 1)"),
    ("scales", "0", "scales must be >= 1 (got 0)"),
    ("alpha", "1.0", "alpha must be in (0, 1) (got 1.0)"),
    ("gamma", "-1.0", "gamma must be >= 0 (got -1.0)"),
    ("alpha_sweep", "0.5,1.5",
     "alpha_sweep must be one or more values in (0, 1) (got (0.5, 1.5))"),
    ("alpha_sweep", "", "alpha_sweep must be one or more values in (0, 1) (got ())"),
    ("k_graph", "0", "k_graph must be >= 1 (got 0)"),
    ("k_init", "0", "k_init must be >= 1 (got 0)"),
    ("tol", "0.0", "tol must be positive (got 0.0)"),
    ("ground_drone_relevance", "facets",
     "ground_drone_relevance must be 'facet' or 'landmark' (got 'facets')"),
]
# the retired switches, as a parent config wrote them at their default:
# each is now an unknown key, whatever its value
RETIRED = {"num_positives": "0", "warmup_epochs": "0", "mining_space": "drone",
           "decay_epoch": "40", "decay_factor": "0.1", "peer_iterations": "1",
           "junior_init": "senior", "cmc_per_landmark": "false", "max_iters": "1000",
           "width_table": "1:12,2:9,3:7,4:5", "reference_side": "12",
           "student_init": "fresh", "closed_form_cap": "2000"}
INVALID_VALUES += [(key, raw, f"unknown config key '{key}'") for key, raw in RETIRED.items()]


@pytest.mark.parametrize("key, raw, message", INVALID_VALUES,
                         ids=[key if raw else f"{key}-empty"
                              for key, raw, _ in INVALID_VALUES])
def test_invalid_value_rejected_with_its_message(key, raw, message):
    with pytest.raises(ValueError) as err:
        load_config(None, {key: raw})
    assert str(err.value) == message


def test_format_is_flat_key_value():
    text = format_config(RunConfig())
    for line in text.strip().splitlines():
        key, eq, value = line.partition(" = ")
        assert eq and key and value


def test_every_checked_field_has_an_invalid_value_row():
    # a new field without a rule (and a row here) fails this test
    checked = {f.name for f in fields(RunConfig) if f.type != "bool"}
    assert {key for key, _, _ in INVALID_VALUES} == checked | set(RETIRED)


def test_a_config_written_with_the_retired_switches_fails_by_name(tmp_path):
    # an effective-config.txt written before the retirement: defaults with
    # the retired lines in their places
    lines = format_config(RunConfig()).splitlines()
    at = lines.index("tau = 0.1")
    lines[at:at] = [f"{key} = {raw}" for key, raw in list(RETIRED.items())[:3]]
    lines += [f"{key} = {raw}" for key, raw in list(RETIRED.items())[3:]]
    path = tmp_path / "effective-config.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^unknown config key 'num_positives'$"):
        load_config(path)


def test_every_field_is_read_by_the_package():
    # a field that no module but config reads is a switch no run can use
    package = Path(plcd.__file__).parent
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))
                     if p.name != "config.py")
    unread = [f.name for f in fields(RunConfig) if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def test_every_definition_is_referenced_by_the_package():
    # a helper that only tests call belongs with the tests
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(Path(plcd.__file__).parent.glob("*.py"))}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name)]
    dead = [f"{owner}.{name}" for owner, name in defined
            if name not in used and not name.startswith("__")]
    assert dead == []


def test_bool_parse_error_is_reported_once():
    with pytest.raises(ValueError) as err:
        load_config(None, {"encoder_tanh": "maybe"})
    assert str(err.value) == "config key 'encoder_tanh': cannot parse 'maybe' (expected a boolean)"


# a valid value other than the default for every field, so every field
# type goes through the writer and the parser
NON_DEFAULTS = dict(
    seed=3, num_landmarks=5, num_sections=4, drones_per_landmark=8, grounds_per_landmark=3,
    channels=6, map_side=8, latent_rank=5, basis_density=0.25, noise_sigma=0.35,
    train_fraction=0.6, embed_dim=16, encoder_tanh=False, epochs_senior=2, epochs_junior=3,
    epochs_patch=4, batch_streets=5, batch_pairs=3, num_negatives=2, tau=0.1 + 0.2,
    lambda1=0.5, lambda2=2.5, margin=1 / 3, lr_head=0.02, lr_body=0.0, momentum=0.5,
    junior_lr_scale=0.25,
    scales=(1, 2), alpha=0.75, gamma=2.0,
    k_graph=5, k_init=6, tol=1e-6, closed_form=False,
    ground_drone_relevance="landmark", alpha_sweep=(0.25, 0.8),
    tau_sweep=(1.0, 0.3),
)


def test_every_field_round_trips_at_a_non_default_value(tmp_path):
    assert set(NON_DEFAULTS) == {f.name for f in fields(RunConfig)}
    cfg, default = RunConfig(**NON_DEFAULTS), RunConfig()
    assert all(getattr(cfg, key) != getattr(default, key) for key in NON_DEFAULTS)
    path = tmp_path / "run.cfg"
    write_config(path, cfg)
    assert load_config(path) == cfg
