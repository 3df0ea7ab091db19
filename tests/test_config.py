import pytest

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


def test_width_table_parse_and_format(tmp_path):
    cfg = load_config(None, overrides={"width_table": "1:6,2:4"})
    assert cfg.width_table == ((1, 6), (2, 4))
    assert cfg.width_table_dict() == {1: 6, 2: 4}
    path = tmp_path / "run.cfg"
    write_config(path, cfg)
    assert load_config(path).width_table == ((1, 6), (2, 4))


def test_module_config_builders():
    cfg = RunConfig(tau=0.2, lambda1=0.5, margin=0.7, alpha=0.8, seed=3)
    peer = cfg.peer_config()
    assert peer.tau == 0.2 and peer.lambda1 == 0.5 and peer.seed == 3
    patch = cfg.patch_config()
    assert patch.margin == 0.7 and patch.seed == 3
    dcfg = cfg.diffusion_config()
    assert dcfg.alpha == 0.8


def test_format_is_flat_key_value():
    text = format_config(RunConfig())
    for line in text.strip().splitlines():
        key, eq, value = line.partition(" = ")
        assert eq and key and value
