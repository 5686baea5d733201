import json

import pytest

from conftest import natural_config_dict, write_natural_config
from rinehart.config import (
    ConfigError,
    RepCheckFailure,
    load_module_config,
    module_from_dict,
    module_to_dict,
)
from rinehart.glmodules import rep_check


def test_shipped_natural_config_loads():
    import importlib.resources as res

    with res.as_file(res.files("rinehart").joinpath("data/natural_1_1.json")) as p:
        mod, mu = load_module_config(p)
    assert (mod.m, mod.n, mod.dim) == (1, 1, 3)
    assert rep_check(mod) == []
    assert all(not v for v in mu.values)


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "nat21.json"
    write_natural_config(path, 2, 1)
    mod, mu = load_module_config(path)
    assert mod.dim == 4
    assert mod.parities == (0, 0, 0, 1)


def test_mu_constraint_rejected():
    doc = natural_config_dict(1, 1)
    doc["mu"] = ["0", "0", "1"]
    with pytest.raises(ConfigError):
        module_from_dict(doc)


def test_missing_action_key_rejected():
    doc = natural_config_dict(1, 1)
    del doc["action"]["E_0_0"]
    with pytest.raises(ConfigError, match="E_0_0"):
        module_from_dict(doc)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_module_config(path)


def test_shape_validation():
    doc = natural_config_dict(1, 1)
    doc["parity"] = [0, 0]
    with pytest.raises(ConfigError):
        module_from_dict(doc)
    doc = natural_config_dict(1, 1)
    doc["action"]["E_0_0"] = [["1"]]
    with pytest.raises(ConfigError):
        module_from_dict(doc)
    doc = natural_config_dict(1, 1)
    doc["action"]["E_9_9"] = doc["action"]["E_0_0"]
    with pytest.raises(ConfigError, match="unknown"):
        module_from_dict(doc)


@pytest.mark.parametrize("rows", [
    [["1", "0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],  # a row too long
    [["1", "0", "0"], ["0", "0", "0"], "000"],  # a row that is no list
    [["1", "0", "0"], ["0", "0", "0"]],  # a row missing
])
def test_action_rows_are_validated_before_the_module(rows):
    """A malformed dense matrix is a ConfigError, never a bad GlModule."""
    doc = natural_config_dict(1, 1)
    doc["action"]["E_0_0"] = rows
    with pytest.raises(ConfigError, match="E_0_0 must be a 3x3 matrix"):
        module_from_dict(doc)


def test_rep_check_failure_is_distinct():
    doc = natural_config_dict(1, 1)
    doc["action"]["E_0_1"][0][1] = "2"
    with pytest.raises(RepCheckFailure) as err:
        module_from_dict(doc)
    assert err.value.violations != []


def test_scalars_survive_roundtrip(tmp_path):
    doc = natural_config_dict(1, 1)
    doc["mu"] = ["1/2+1/3i", "-2/7", "0"]
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(doc))
    _, mu = load_module_config(path)
    from fractions import Fraction

    assert mu.values[0].re == Fraction(1, 2)
    assert mu.values[0].im == Fraction(1, 3)
    assert mu.values[1].re == Fraction(-2, 7)


def test_module_dict_round_trip():
    """module_to_dict inverts module_from_dict, for the natural modules and
    for the dual at (1,1), whose E_ab is -(-1)^{(|a|+|b|)|a|} E_ba: its
    -1 entries load as a representation and come back as written."""
    docs = [natural_config_dict(1, 1), natural_config_dict(2, 1)]
    entries = {  # E_a_b: its one nonzero entry, at row b and column a
        "E_0_0": "-1", "E_0_1": "-1", "E_0_2": "-1",
        "E_1_0": "-1", "E_1_1": "-1", "E_1_2": "-1",
        "E_2_0": "1", "E_2_1": "1", "E_2_2": "-1",
    }
    action = {}
    for key, c in entries.items():
        a, b = int(key[2]), int(key[4])
        action[key] = [[c if (u, v) == (b, a) else "0" for v in range(3)]
                       for u in range(3)]
    docs.append({"m": 1, "n": 1, "dim": 3, "parity": [0, 0, 1],
                 "mu": ["1/2+1/3i", "-2/7", "0"], "action": action})
    for doc in docs:
        assert module_to_dict(*module_from_dict(doc)) == doc
