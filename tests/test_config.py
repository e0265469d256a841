from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest

from epgtool.config import _SCHEMA, _from_mapping, apply_overrides, load_config, resolve
from epgtool.params import ValidationError

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example1.json"


def _readme_schema() -> str:
    """The README's ``jsonc`` schema block with its ``//`` comments removed."""
    (block,) = re.findall(r"```jsonc\n(.*?)```", (ROOT / "README.md").read_text(),
                          re.DOTALL)
    return re.sub(r"//.*", "", block)


@pytest.mark.parametrize("source", [
    *(p.name for p in sorted((ROOT / "configs").glob("*.json"))), "README.md",
])
def test_checked_in_configs_and_readme_schema_resolve(source):
    text = (_readme_schema() if source == "README.md"
            else (ROOT / "configs" / source).read_text())
    run = resolve(_from_mapping(json.loads(text)))
    assert run.bundle.strategies.n >= 2


def test_example_config_resolves():
    run = resolve(load_config(CONFIG))
    assert run.bundle.strategies.n == 2
    assert run.horizon == 1500.0
    assert run.grid_size == 30
    assert run.initial.I == pytest.approx(0.029467, abs=1e-6)
    assert run.initial.x == (1.0, 0.0)


def test_defaults_fill_missing_sections(tmp_path):
    minimal = {
        "params": {"gamma": 0.1, "delta": 0.005, "psi": 0.011},
        "strategies": {"betas": [0.15, 0.19], "costs": [0.2, 0.0]},
        "policy": {"cstar": 0.1, "upsilon": 2.0},
        "initial": {"x": [1.0, 0.0]},
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(minimal))
    run = resolve(load_config(path))
    assert run.integrator.step == 0.01
    assert run.proto.rate_gain == 0.1
    assert run.alpha is None


def test_null_explicit_keys_leave_the_endemic_start():
    base = resolve(load_config(CONFIG))
    run = resolve(apply_overrides(load_config(CONFIG), [
        "initial.I=null", "initial.R=null",
    ]))
    assert run.initial == base.initial


@pytest.mark.parametrize("override", [
    "protocol={}", "integrator={}", "bounds={}", 'initial={"x": [1.0, 0.0]}',
])
def test_section_replaced_by_an_override_gets_its_defaults(override):
    # example1 sets these sections to their defaults; an emptied section
    # used to stop resolve with a KeyError
    base = resolve(load_config(CONFIG))
    run = resolve(apply_overrides(load_config(CONFIG), [override]))
    assert dataclasses.replace(run, config={}) == dataclasses.replace(base, config={})
    assert run.config == base.config


def test_missing_required_section_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"params": {"gamma": 0.1, "delta": 0.005}}))
    with pytest.raises(ValidationError) as err:
        resolve(load_config(path))
    assert {"strategies", "policy"} <= {v.name for v in err.value.violations}


def test_start_must_have_one_share_per_strategy():
    cfg = apply_overrides(load_config(CONFIG), ["initial.x=[0.5,0.25,0.25]"])
    with pytest.raises(ValidationError) as err:
        resolve(cfg)
    assert [v.name for v in err.value.violations] == ["initial.x"]


def test_overrides_parse_json_values():
    cfg = load_config(CONFIG)
    cfg = apply_overrides(cfg, [
        "policy.upsilon=6",
        "strategies.betas=[0.15, 0.19]",
    ])
    assert cfg["policy"]["upsilon"] == 6
    run = resolve(cfg)
    assert run.mech.upsilon == 6


def test_overrides_and_resolve_leave_their_input_as_it_was():
    # one loaded mapping may be resolved under several sets of overrides
    config = load_config(CONFIG)
    del config["bounds"]
    before = copy.deepcopy(config)
    overridden = apply_overrides(config, [
        "policy.upsilon=6", "strategies.betas=[0.12,0.15,0.19]",
        "strategies.costs=[0.3,0.12,0.0]", "initial.x=[1,0,0]", "bounds.grid_size=40",
        'protocol={"cap": 0.2}', "protocol.rate_gain=0.3",
    ])
    assert config == before
    after = copy.deepcopy(overridden)
    run = resolve(overridden)
    assert overridden == after
    assert run.config["bounds"]["grid_size"] == 40
    assert run.config["protocol"] == {"rate_gain": 0.3, "cap": 0.2}
    resolve(config)
    assert config == before


def test_override_rejects_malformed_entry():
    cfg = load_config(CONFIG)
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["policy.upsilon"])
    with pytest.raises(ValueError, match="policy.upsilon is not a section"):
        apply_overrides(cfg, ["policy.upsilon.gain=1"])


def test_top_level_value_must_be_an_object():
    with pytest.raises(ValidationError) as err:
        _from_mapping([1, 2])
    assert [v.name for v in err.value.violations] == ["config"]


def test_invalid_model_surfaces_all_violations():
    cfg = apply_overrides(load_config(CONFIG), [
        "params.delta=0.02", "policy.upsilon=0",
    ])
    with pytest.raises(ValidationError) as err:
        resolve(cfg)
    names = {v.name for v in err.value.violations}
    assert {"delta<omega", "upsilon>0"} <= names


def test_unknown_protocol_kind_rejected():
    cfg = apply_overrides(load_config(CONFIG), ['protocol.kind="imitation"'])
    with pytest.raises(ValueError):
        resolve(cfg)


def test_endemic_initial_by_rate():
    cfg = apply_overrides(load_config(CONFIG), [
        "initial.x=null", "initial.B=0.16",
    ])
    run = resolve(cfg)
    assert run.initial.x == pytest.approx((0.75, 0.25), abs=1e-15)
    assert run.initial.I == pytest.approx(0.033697, abs=1e-5)


# another valid value for every key of example1
_OTHER = {
    "params.gamma": 0.11, "params.delta": 0.004, "params.zeta": 0.001,
    "params.theta": 0.001, "params.psi": 0.012,
    "strategies.betas": [0.15, 0.2], "strategies.costs": [0.25, 0.0],
    "policy.cstar": 0.12, "policy.upsilon": 3.0, "policy.offsupport_margin": 0.02,
    "protocol.rate_gain": 0.2, "protocol.cap": 0.2,
    "integrator.step": 0.02, "integrator.horizon": 1000.0,
    "integrator.output_stride": 5,
    "initial.x": [0.5, 0.5], "initial.B": 0.16, "initial.q": 0.5,
    "initial.I": 0.05, "initial.R": 0.3,
    "bounds.grid_size": 40, "bounds.alpha": 0.001,
}


@pytest.mark.parametrize("key", [f"{section}.{key}" for section, keys in _SCHEMA.items()
                                 for key in keys])
def test_no_key_is_silently_ignored(key):
    base = resolve(load_config(CONFIG))
    cfg = apply_overrides(load_config(CONFIG), [f"{key}={json.dumps(_OTHER[key])}"])
    try:
        run = resolve(cfg)
    except ValidationError:
        return
    assert dataclasses.replace(run, config={}) != dataclasses.replace(base, config={})


_REQUIRED = dataclasses.MISSING


def test_schema_is_pinned():
    # {section: {key: (kind description, default)}} in order, MISSING for a
    # required key
    schema = {section: {key: (kind[0], default) for key, (kind, default) in keys.items()}
              for section, keys in _SCHEMA.items()}
    expected = {
        "params": {
            "gamma": ("a finite number", _REQUIRED), "delta": ("a finite number", _REQUIRED),
            "zeta": ("a finite number", 0.0), "theta": ("a finite number", 0.0),
            "psi": ("a finite number", 0.0),
        },
        "strategies": {"betas": ("a list of finite numbers", _REQUIRED),
                       "costs": ("a list of finite numbers", _REQUIRED)},
        "policy": {"cstar": ("a finite number", _REQUIRED),
                   "upsilon": ("a finite number", _REQUIRED),
                   "offsupport_margin": ("a finite number", 0.01)},
        "protocol": {"rate_gain": ("a positive finite number", 0.1),
                     "cap": ("a positive finite number", 0.1)},
        "integrator": {"step": ("a positive finite number", 0.01),
                       "output_stride": ("an integer of at least 1", 10),
                       "horizon": ("a finite number", 1500.0)},
        "initial": {"x": ("a list of finite numbers or null", None),
                    "q": ("a finite number", 0.0),
                    "B": ("a finite number or null", None),
                    "I": ("a finite number or null", None),
                    "R": ("a finite number or null", None)},
        "bounds": {"grid_size": ("an integer", 30),
                   "alpha": ("a nonnegative finite number or null", None)},
    }
    def ordered(table):
        return [(section, list(keys.items())) for section, keys in table.items()]
    assert ordered(schema) == ordered(expected)
