"""Strict flat key-value configuration parsing."""

import inspect
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from abring import ConfigError, OffResonanceWarning, ValidityError, transmission
from abring.config import RunConfig, load_config, parse_config
from abring.transport import dot_arm_rms, phase_grid

PLAIN_NUMBER_TEXT = st.floats(0.0, 1.0).map(repr) | st.integers(4, 2000).map(str)
WILD_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),  # includes nan, +-inf, subnormals and huge values
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-320", "1e-155", "1e-170"]
    ),
)
# One value in three is wild, so that accepted configs stay common.
NUMBER_TEXT = st.sampled_from([PLAIN_NUMBER_TEXT, PLAIN_NUMBER_TEXT, WILD_NUMBER_TEXT]).flatmap(
    lambda strategy: strategy
)


@st.composite
def config_texts(draw):
    lines = []
    for key in ("ring.v_mag", "ring.eps_d", "ring.x", "sweep.n_phi"):
        value = draw(st.none() | NUMBER_TEXT)
        if value is not None:
            lines.append(f"{key} = {value}\n")
    lambdas = draw(st.none() | st.lists(NUMBER_TEXT, min_size=1, max_size=4))
    if lambdas is not None:
        lines.append(f"sweep.lambda_list = {', '.join(lambdas)}\n")
    return "".join(lines)


def test_empty_text_gives_reference_defaults():
    cfg = parse_config("")
    assert_allclose(cfg.ring.x, 0.4, rtol=1e-14)
    assert cfg.ring.v_mag == 0.75
    assert cfg.ring.eps_d == 1.25
    assert cfg.n_phi == 720
    assert cfg.lambda_list == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_run_config_holds_only_the_config_file():
    # The output directory and the seed are flags of the commands that read them.
    assert [f.name for f in fields(RunConfig)] == ["ring", "n_phi", "lambda_list"]
    assert list(inspect.signature(parse_config).parameters) == ["text"]
    assert list(inspect.signature(load_config).parameters) == ["path"]


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nring.v_mag = 0.5\n")
    assert cfg.ring.v_mag == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("ring.w = 1.0\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("sweep.n_phi = 8\nsweep.n_phi = 9\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("ring.eps_d = abc\n")
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config("sweep.n_phi = 7.5\n")


def test_detector_and_thermal_keys_are_unknown():
    # No subcommand read them; the overlaps come from sweep.lambda_list.
    # ring.w_mag would set the energy unit, which is fixed at |W| = 1.
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("ring.w_mag = 1.0\n")
    removed = {
        "detector": ("lambda", "theta0", "theta1"),
        "thermal": ("temperature", "quadrature_points", "energy_window"),
    }
    for section, names in removed.items():
        for name in names:
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"{section}.{name} = 0.5\n")


@pytest.mark.parametrize("line", ["ring.rho = 0.2", "output.dir = somewhere", "seed = 1"])
def test_run_setting_keys_are_unknown(line):
    # ring.x is the one coupling key; --out and --seed set the rest.
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line + "\n")


def test_lambda_list_parsing_and_range():
    cfg = parse_config("sweep.lambda_list = 0, 0.5, 1\n")
    assert cfg.lambda_list == (0.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_config("sweep.lambda_list = 0;1\n")
    with pytest.raises(ValidityError):
        parse_config("sweep.lambda_list = 0, 1.5\n")


def test_guard_violation_is_validity_error():
    with pytest.raises(ValidityError, match="resonance"):
        parse_config("ring.v_mag = 2.0\n")


def test_near_resonance_warns_but_loads():
    from abring import OffResonanceWarning

    with pytest.warns(OffResonanceWarning):
        cfg = parse_config("ring.v_mag = 1.2\n")
    assert cfg.ring.v_mag == 1.2


def test_n_phi_floor():
    with pytest.raises(ValidityError):
        parse_config("sweep.n_phi = 3\n")


def test_load_config_reads_the_file_or_the_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("ring.v_mag = 0.6\n", encoding="utf-8")
    assert load_config(str(path)) == parse_config("ring.v_mag = 0.6\n")
    assert load_config(None) == parse_config("")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_undecodable_file(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe sweep.n_phi = 8\n")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(path))


@settings(max_examples=500, deadline=None)
@given(config_texts())
def test_any_config_parses_to_finite_parameters_or_is_rejected(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", OffResonanceWarning)
        try:
            cfg = parse_config(text)
        except (ConfigError, ValidityError):
            return
        ring = cfg.ring
        derived = (ring.x, ring.gamma, dot_arm_rms(ring))
        for value in (ring.v_mag, ring.eps_d, ring.rho, *derived):
            assert math.isfinite(value)
        for lam in cfg.lambda_list:
            assert np.all(np.isfinite(transmission(ring, lam, phase_grid(8))))
