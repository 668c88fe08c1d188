"""Config defaults, validation messages, INI round-trip, and stable hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coss.config import (
    LOSS_VARIANTS,
    DistillConfig,
    config_hash,
    load_config,
    parse_config_text,
    render_config,
    validate_config,
)
from coss.errors import ConfigError
from coss.models import ACTIVATIONS


class TestDefaults:
    def test_documented_defaults(self):
        cfg = DistillConfig()
        assert cfg.lam == 1.0
        assert cfg.beta == 1.0
        assert cfg.k == 4
        assert cfg.pool == 16
        assert cfg.batch_size == 64
        assert cfg.epochs == 50
        assert cfg.momentum == 0.9
        assert cfg.loss_variant == "coss"
        validate_config(cfg)

    def test_student_spec_chains_dimensions(self):
        spec = DistillConfig(student_hidden=(48,), student_dim=8).student_spec(32)
        assert spec.layer_dims == (32, 48, 8)
        assert spec.hidden_activation == "relu"
        assert spec.output_activation == "identity"

    def test_replace_returns_new_instance(self):
        cfg = DistillConfig()
        other = cfg.replace(lam=0.25)
        assert other.lam == 0.25
        assert cfg.lam == 1.0


INVALID_CASES = [
    ({"lam": -0.1}, "lambda ≥ 0"),
    ({"beta": 0.0}, "beta > 0"),
    ({"k": -1}, "k ≥ 0"),
    ({"pool": 0}, "pool ≥ 1"),
    ({"k": 9, "pool": 8}, "k ≤ pool"),
    ({"batch_size": 0}, "batch_size ≥ 1"),
    ({"epochs": 0}, "epochs ≥ 1"),
    ({"lr": -0.1}, "lr ≥ 0"),
    ({"momentum": 1.0}, "momentum"),
    ({"momentum": -0.1}, "momentum"),
    ({"weight_decay": -1.0}, "weight_decay ≥ 0"),
    ({"aug_sigma": -0.5}, "aug_sigma ≥ 0"),
    ({"loss_variant": "mse"}, "loss_variant"),
    ({"bn_eps": 0.0}, "bn_eps > 0"),
    ({"loss_variant": "bn", "batch_size": 1, "k": 0}, "for bn"),
    ({"student_hidden": ()}, "hidden"),
    ({"student_dim": 0}, "output_dim"),
    ({"student_activation": "gelu"}, "activation"),
]


@pytest.mark.parametrize("overrides,message", INVALID_CASES)
def test_validation_names_the_violated_invariant(overrides, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(DistillConfig(**overrides))


FLOAT_KEYS = ("lambda", "beta", "lr", "momentum", "weight_decay", "aug_sigma", "bn_eps")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config_text(f"[distill]\n{key} = {value}\n")


class TestParse:
    def test_empty_text_yields_defaults(self):
        assert parse_config_text("") == DistillConfig()

    def test_sections_map_onto_fields(self):
        cfg = parse_config_text(
            "[distill]\n"
            "lambda = 0.5\n"
            "k = 2\n"
            "loss_variant = co_only\n"
            "[student]\n"
            "hidden_dims = 32,16\n"
            "output_dim = 4\n"
            "activation = tanh\n"
        )
        assert cfg.lam == 0.5
        assert cfg.k == 2
        assert cfg.loss_variant == "co_only"
        assert cfg.student_hidden == (32, 16)
        assert cfg.student_dim == 4
        assert cfg.student_activation == "tanh"

    def test_scientific_notation_floats(self):
        cfg = parse_config_text("[distill]\nbn_eps = 1e-4\n")
        assert cfg.bn_eps == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[distill]\ntemperature = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[optimizer]\nlr = 0.1\n")

    def test_malformed_text_rejected(self):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config_text("lr = 0.1\n")  # key before any section header

    @pytest.mark.parametrize("line,message", [
        ("loss_variant = co%only", "loss_variant ∈"),
        ("epochs = %(x)s", "cannot parse epochs"),
        ("loss_variant = co%%only", "loss_variant ∈"),
    ])
    def test_percent_signs_are_plain_text(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"[distill]\n{line}\n")

    def test_activation_message_lists_the_names_in_order(self):
        with pytest.raises(ConfigError) as info:
            validate_config(DistillConfig(student_activation="gelu"))
        assert str(info.value) == "student activation ∈ {identity, relu, tanh}"

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse k"):
            parse_config_text("[distill]\nk = 4.5\n")

    def test_invalid_values_fail_validation_on_load(self):
        with pytest.raises(ConfigError, match="lambda ≥ 0"):
            parse_config_text("[distill]\nlambda = -1\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[distill]\nseed = 9\n", encoding="utf-8")
        assert load_config(path).seed == 9


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def valid_configs(draw):
    """Configs that pass ``validate_config``, every field drawn."""
    pool = draw(st.integers(1, 10**6))
    k = draw(st.integers(0, pool))
    variant = draw(st.sampled_from(LOSS_VARIANTS))
    return DistillConfig(
        lam=draw(_floats(min_value=0.0)),
        beta=draw(_floats(min_value=0.0, exclude_min=True)),
        k=k,
        pool=pool,
        batch_size=draw(st.integers(2 if variant == "bn" and k == 0 else 1, 10**6)),
        epochs=draw(st.integers(1, 10**6)),
        lr=draw(_floats(min_value=0.0)),
        momentum=draw(_floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        weight_decay=draw(_floats(min_value=0.0)),
        aug_sigma=draw(_floats(min_value=0.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        loss_variant=variant,
        bn_eps=draw(_floats(min_value=0.0, exclude_min=True)),
        student_hidden=tuple(draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4))),
        student_dim=draw(st.integers(1, 4096)),
        student_activation=draw(st.sampled_from(ACTIVATIONS)),
    )


class TestRenderRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_every_valid_config_round_trips(self, cfg):
        back = parse_config_text(render_config(cfg))
        assert back == cfg
        # 1 == 1.0, but the hash tells an int from a float
        assert config_hash(back) == config_hash(cfg)

    def test_render_parse_identity(self):
        cfg = DistillConfig(lam=0.25, k=2, pool=5, student_hidden=(12, 6))
        assert parse_config_text(render_config(cfg)) == cfg

    def test_equal_configs_render_byte_identically(self):
        a = render_config(DistillConfig(seed=4))
        b = render_config(DistillConfig().replace(seed=4))
        assert a == b

    def test_render_keeps_float_precision(self):
        cfg = DistillConfig(lr=0.07, bn_eps=3e-7)
        back = parse_config_text(render_config(cfg))
        assert back.lr == cfg.lr
        assert back.bn_eps == cfg.bn_eps


class TestHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(DistillConfig()) == config_hash(DistillConfig())

    def test_sensitive_to_every_field(self):
        base = config_hash(DistillConfig())
        assert config_hash(DistillConfig(lam=0.9)) != base
        assert config_hash(DistillConfig(seed=1)) != base
        assert config_hash(DistillConfig(student_hidden=(47,))) != base

    def test_hex_digest_shape(self):
        digest = config_hash(DistillConfig())
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")
