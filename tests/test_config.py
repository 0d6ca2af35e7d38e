"""Config parsing, validation and derived slot counts."""

import pytest

from lwbsim import config
from lwbsim.config import CONFIG_KEYS, VALID_KEYS, SimConfig, parse_config
from lwbsim.errors import ConfigError
from lwbsim.units import parse_duration

# A valid value other than the default for every SimConfig field.
NON_DEFAULT = {
    "ipi": 20_000_000,
    "minimum_lwb_round": 2_000_000,
    "cooloff_period": 3_000_000,
    "stabilization_period": 7_500_000,
    "max_payload_len": 24,
    "sink_node_id": 5,
    "max_node_number": 200,
    "forwarder_selection": True,
    "glossy_guard_time": 1_500,
    "slot_length": 10_000,
    "sync_slot_length": 20_000,
    "loss_probability": 0.125,
    "drift_ppm_range": (-30.0, 60.0),
    "contention_policy": "collision",
    "rr_reduction_trigger": "rounds",
    "queue_capacity": 4,
    "seed": 77,
    "duration": 90_000_000,
}


class TestDefaults:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.ipi == 10_000_000
        assert cfg.minimum_lwb_round == 5_000_000
        assert cfg.cooloff_period == 10_000_000
        assert cfg.stabilization_period == 10_000_000
        assert cfg.max_payload_len == 40
        assert cfg.sink_node_id == 1
        assert cfg.max_node_number == 150
        assert cfg.forwarder_selection is False
        assert cfg.glossy_guard_time == 2_000
        assert cfg.slot_length == 15_000
        assert cfg.sync_slot_length == 15_000
        assert cfg.loss_probability == 0.0
        assert cfg.contention_policy == "capture"
        cfg.validate()

    def test_mode_string(self):
        assert SimConfig().mode == "lwb"
        assert SimConfig(forwarder_selection=True).mode == "fs-lwb"

    def test_rr_group_size(self):
        assert SimConfig().rr_group_size == 2
        assert SimConfig(forwarder_selection=True).rr_group_size == 3

    def test_initial_rr_slots_default_slot_length(self):
        # 65 slots of 15 ms fit after the sync slot in a one second round
        assert SimConfig().initial_rr_slots() == 64
        assert SimConfig(forwarder_selection=True).initial_rr_slots() == 63

    def test_initial_rr_slots_never_below_one_group(self):
        cfg = SimConfig(slot_length=300_000, minimum_lwb_round=5_000_000)
        # only 2 slots fit but the fs group needs 3; clamp to one group
        assert cfg.initial_rr_slots() == 2
        fs = SimConfig(
            slot_length=300_000,
            minimum_lwb_round=5_000_000,
            forwarder_selection=True,
        )
        assert fs.initial_rr_slots() == 3

    def test_data_slot_capacity(self):
        # 5 s round, 15 ms slots: (5_000_000 - 45_000) // 15_000 = 330
        assert SimConfig().data_slot_capacity() == 330
        fs = SimConfig(forwarder_selection=True)
        assert fs.data_slot_capacity() == 329


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == SimConfig()

    def test_keys_case_insensitive(self):
        cfg = parse_config("ipi = 20s\nSlot_Length = 10ms\n")
        assert cfg.ipi == 20_000_000
        assert cfg.slot_length == 10_000
        assert cfg.sync_slot_length == 10_000

    def test_duration_suffixes(self):
        cfg = parse_config(
            "IPI = 10000000us\nMINIMUM_LWB_ROUND = 5000ms\nDURATION = 60\n"
        )
        assert cfg.ipi == 10_000_000
        assert cfg.minimum_lwb_round == 5_000_000
        assert cfg.duration == 60_000_000

    @pytest.mark.parametrize(
        "text, us",
        [
            ("9007199254740993us", 9_007_199_254_740_993),
            ("1e20", 10**26),
            ("12345678901234567890.000001", 12_345_678_901_234_567_890_000_001),
            ("1.5", 1_500_000),
            ("2.5ms", 2_500),
            ("1_000ms", 1_000_000),
            ("-0", 0),
        ],
    )
    def test_durations_are_exact(self, text, us):
        assert parse_duration(text) == us

    def test_int_literal_is_exact_at_any_size(self):
        # only a decimal is held to the float range, as 1e400 always was
        assert parse_duration("1" + "0" * 400 + "us") == 10**400

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5us", "not a whole number of microseconds"),
            ("1.0000001s", "not a whole number of microseconds"),
            ("1e-7", "not a whole number of microseconds"),
            ("-1.5us", "negative"),
            ("-infms", "not finite"),
            ("nan", "not finite"),
            ("1e400", "not finite"),
            ("1e9999999999999999999", "out of range"),
            # its integer ratio would have a 100,000,001-digit denominator
            ("1e-100000000s", "not a whole number of microseconds"),
        ],
    )
    def test_bad_durations_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_duration(text)

    @pytest.mark.parametrize("text", ["soon", "", "0x10", "1/2", "5 days", "snan"])
    def test_non_numbers_are_value_errors(self, text):
        # Decimal's InvalidOperation is no ValueError, so it must not leak
        with pytest.raises(ValueError):
            parse_duration(text)

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nSEED = 9  # trailing\n")
        assert cfg.seed == 9

    def test_explicit_sync_slot_survives_slot_override(self):
        cfg = parse_config("SYNC_SLOT_LENGTH = 20ms\nSLOT_LENGTH = 10ms\n")
        assert cfg.sync_slot_length == 20_000
        assert cfg.slot_length == 10_000

    def test_forwarder_selection_spellings(self):
        for text in ("1", "true", "YES", "on"):
            assert parse_config(f"FORWARDER_SELECTION = {text}").forwarder_selection
        for text in ("0", "false", "No", "off"):
            assert not parse_config(
                f"FORWARDER_SELECTION = {text}"
            ).forwarder_selection

    def test_drift_range_forms(self):
        assert parse_config("DRIFT_PPM_RANGE = 100").drift_ppm_range == (-100.0, 100.0)
        assert parse_config("DRIFT_PPM_RANGE = -40:80").drift_ppm_range == (-40.0, 80.0)
        assert parse_config("DRIFT_PPM_RANGE = 100:100").drift_ppm_range == (
            100.0,
            100.0,
        )

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="unknown key 'IPX'") as exc:
            parse_config("IPX = 10s\n")
        assert "IPI" in str(exc.value)
        assert "line 1" in str(exc.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("SEED = 3\nIPI = soon\n")

    @pytest.mark.parametrize(
        "line", ["DURATION = inf", "IPI = 1e400", "DURATION = nan", "SLOT_LENGTH = -infms"]
    )
    def test_non_finite_duration_rejected(self, line):
        with pytest.raises(ConfigError, match="line 1: .*not finite"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "nan:nan", "-inf:0", "0:nan"])
    def test_non_finite_drift_rejected(self, value):
        with pytest.raises(ConfigError, match="DRIFT_PPM_RANGE must be finite"):
            parse_config(f"DRIFT_PPM_RANGE = {value}\n")

    def test_repeated_key_reports_both_lines(self):
        # keys are case insensitive, so "seed" repeats "SEED"
        with pytest.raises(ConfigError, match="line 3: SEED already set on line 1"):
            parse_config("SEED = 1\nIPI = 10s\nseed = 2\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected KEY = value"):
            parse_config("IPI 10s\n")

    def test_parse_rejects_invalid_combination(self):
        with pytest.raises(ConfigError, match="IPI"):
            parse_config("IPI = 1s\nMINIMUM_LWB_ROUND = 5s\n")


class TestValidate:
    def test_ipi_below_round_rejected(self):
        with pytest.raises(ConfigError, match="at least"):
            SimConfig(ipi=1_000_000).validate()

    def test_loss_probability_bounds(self):
        with pytest.raises(ConfigError, match="LOSS_PROBABILITY"):
            SimConfig(loss_probability=1.0).validate()
        with pytest.raises(ConfigError, match="LOSS_PROBABILITY"):
            SimConfig(loss_probability=-0.1).validate()
        SimConfig(loss_probability=0.99).validate()

    def test_non_finite_numbers_rejected(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ConfigError, match="DRIFT_PPM_RANGE must be finite"):
            SimConfig(drift_ppm_range=(-inf, inf)).validate()
        with pytest.raises(ConfigError, match="LOSS_PROBABILITY must be finite"):
            SimConfig(loss_probability=nan).validate()
        with pytest.raises(ConfigError, match="DURATION must be finite"):
            SimConfig(duration=inf).validate()

    def test_drift_range_order(self):
        with pytest.raises(ConfigError, match="DRIFT_PPM_RANGE"):
            SimConfig(drift_ppm_range=(10.0, -10.0)).validate()

    def test_contention_policy_enum(self):
        with pytest.raises(ConfigError, match="CONTENTION_POLICY"):
            SimConfig(contention_policy="anarchy").validate()

    def test_reduction_trigger_enum(self):
        with pytest.raises(ConfigError, match="RR_REDUCTION_TRIGGER"):
            SimConfig(rr_reduction_trigger="moon-phase").validate()

    def test_slot_must_fit_one_second_round(self):
        with pytest.raises(ConfigError, match="one second round"):
            SimConfig(slot_length=600_000).validate()

    def test_sink_id_range(self):
        with pytest.raises(ConfigError, match="SINK_NODE_ID"):
            SimConfig(sink_node_id=0).validate()
        with pytest.raises(ConfigError, match="SINK_NODE_ID"):
            SimConfig(sink_node_id=151).validate()

    def test_max_node_number_is_16_bit(self):
        # a neighbour mask is as wide as the largest node id
        with pytest.raises(ConfigError, match="MAX_NODE_NUMBER must not exceed 65535"):
            SimConfig(max_node_number=70000).validate()
        with pytest.raises(ConfigError, match="MAX_NODE_NUMBER"):
            parse_config("MAX_NODE_NUMBER = 70000\n")
        SimConfig(max_node_number=65535).validate()

    def test_negative_seed_rejected(self):
        # random.Random(-5) seeds exactly like Random(5), so -5 would alias 5
        with pytest.raises(ConfigError, match="SEED must not be negative"):
            SimConfig(seed=-5).validate()
        with pytest.raises(ConfigError, match="SEED must not be negative"):
            parse_config("SEED = -5\n")
        SimConfig(seed=0).validate()

    def test_problems_are_joined(self):
        with pytest.raises(ConfigError) as exc:
            SimConfig(queue_capacity=0, duration=0).validate()
        msg = str(exc.value)
        assert "QUEUE_CAPACITY" in msg and "DURATION" in msg

    def test_non_multiple_ipi_warns_but_passes(self, caplog):
        with caplog.at_level("WARNING", logger="lwbsim.config"):
            cfg = parse_config("IPI = 12s")
            cfg.validate()
        assert cfg.ipi == 12_000_000
        assert [rec.message for rec in caplog.records] == [
            "IPI 12s is not a multiple of MINIMUM_LWB_ROUND 5s; "
            "effective IPI for data rounds is 10s"
        ]


class TestSpecTable:
    def test_every_field_has_exactly_one_key(self):
        names = [name for name, _, _ in CONFIG_KEYS.values()]
        assert sorted(names) == sorted(config.FIELDS)
        assert len(set(names)) == len(names) == len(CONFIG_KEYS)
        # validate() names a field's key by upper-casing the field name
        assert all(key == name.upper() for key, (name, _, _) in CONFIG_KEYS.items())
        assert VALID_KEYS == sorted(CONFIG_KEYS)
        # the per-field round trip below varies every field
        assert NON_DEFAULT.keys() == set(names)


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_each_field_round_trips(self, name):
        cfg = SimConfig(**{name: NON_DEFAULT[name]})
        assert getattr(cfg, name) != getattr(SimConfig(), name)
        assert parse_config(cfg.to_text()) == cfg

    def test_to_text_parses_back_to_equal_config(self):
        original = SimConfig(
            ipi=20_000_000,
            forwarder_selection=True,
            loss_probability=0.125,
            drift_ppm_range=(-30.0, 60.0),
            contention_policy="collision",
            rr_reduction_trigger="rounds",
            queue_capacity=4,
            seed=77,
            duration=90_000_000,
            sync_slot_length=20_000,
        )
        assert parse_config(original.to_text()) == original

    def test_default_round_trip(self):
        assert parse_config(SimConfig().to_text()) == SimConfig()


class TestSimConfigContract:
    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_replace_changes_only_the_named_field(self, name):
        original = SimConfig()
        changed = original.replace(**{name: NON_DEFAULT[name]})
        assert type(changed) is SimConfig and changed is not original
        assert original == SimConfig()
        differ = [f for f in config.FIELDS if getattr(changed, f) != getattr(original, f)]
        assert differ == [name]
        assert getattr(changed, name) == NON_DEFAULT[name]

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="speed"):
            SimConfig(speed=2)
        with pytest.raises(TypeError, match="speed"):
            SimConfig().replace(speed=2)

    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_configs_differing_in_one_field_are_unequal(self, name):
        assert SimConfig() == SimConfig()
        changed = SimConfig().replace(**{name: NON_DEFAULT[name]})
        assert changed != SimConfig() and not changed == SimConfig()
