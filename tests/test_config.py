"""Config document validation: strict keys, presets, field-naming errors."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growreg import config
from growreg.config import PRESETS, config_from_dict, load_config
from growreg.errors import ConfigError
from growreg.harness import METHODS

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "preset": "desk",
        "experiment": {
            "net": {
                "input_shape": [2],
                "classes": 2,
                "layers": [
                    {"kind": "dense", "units": 8},
                    {"kind": "dense", "units": 2, "activation": "none",
                     "prunable": False},
                ],
            },
            "dataset": {"kind": "moons", "n_train": 64, "n_val": 32, "seed": 1},
            "plan": "[0, 0]",
            "method": "greg1",
            "pretrain": {"steps": 10, "batch_size": 8, "milestones": [[0, 0.01]]},
            "finetune": {"steps": 10, "batch_size": 8, "milestones": [[0, 0.001]]},
        },
    }
    doc["experiment"].update(overrides.pop("experiment", {}))
    doc.update(overrides)
    return doc


NUM = {"int", "float"}
# each dataclass-backed section written out: accepted keys with their JSON
# types, and required keys
SECTIONS = {
    "layer": ({"kind": {"str"}, "units": {"int"}, "kernel": {"list", "NoneType"},
               "activation": {"str"}, "prunable": {"bool"}}, {"kind", "units"}),
    "phase": ({"steps": {"int"}, "batch_size": {"int"}, "milestones": {"list"},
               "momentum": NUM}, {"steps", "batch_size", "milestones"}),
    "reg": ({"delta_lambda": NUM, "tau": NUM, "tau_prime": NUM | {"NoneType"},
             "k_update": {"int"}, "k_stabilize": {"int"}, "base_decay": NUM,
             "post_pick_delta_lambda": NUM | {"NoneType"}}, {"delta_lambda", "tau"}),
    "experiment optional": ({"granularity": {"str"}, "reg_batch_size": {"int"},
                             "reg_lr": NUM, "reg_momentum": NUM, "reg_max_iters": {"int"},
                             "seed": {"int"}, "metric_every": {"int"}}, set()),
}


@pytest.mark.parametrize("section", SECTIONS)
def test_section_schema_read_from_dataclass(section):
    types, required = {
        "layer": (config.LAYER_TYPES, config.LAYER_REQUIRED),
        "phase": (config._PHASE_TYPES, config._PHASE_REQUIRED),
        "reg": (config._REG_TYPES, config._REG_REQUIRED),
        "experiment optional": (config._EXP_OPTIONAL,
                                config._EXP_OPTIONAL.keys() & config._EXP_REQUIRED.keys()),
    }[section]
    assert {k: {t.__name__ for t in v} for k, v in types.items()} == SECTIONS[section][0]
    assert set(required) == SECTIONS[section][1]


def test_minimal_document_parses():
    exp = config_from_dict(minimal_doc())
    assert exp.method == "greg1"
    assert exp.reg.delta_lambda == PRESETS["desk"]["greg1"]["delta_lambda"]
    assert exp.layers[-1].prunable is False


def test_preset_selected_by_method():
    exp = config_from_dict(minimal_doc(experiment={"method": "greg2"}))
    assert exp.reg.tau_prime == PRESETS["desk"]["greg2"]["tau_prime"]
    assert exp.reg.post_pick_delta_lambda == PRESETS["desk"]["greg2"][
        "post_pick_delta_lambda"
    ]


def test_explicit_reg_overrides_preset():
    doc = minimal_doc(experiment={"reg": {"delta_lambda": 0.005}})
    exp = config_from_dict(doc)
    assert exp.reg.delta_lambda == 0.005
    assert exp.reg.tau == PRESETS["desk"]["greg1"]["tau"]


def test_preset_argument_stands_in_for_document_key():
    doc = minimal_doc(experiment={"reg": {"delta_lambda": 0.005}})
    exp = config_from_dict(doc, preset="paper")
    assert exp.reg.delta_lambda == 0.005
    assert exp.reg.tau == PRESETS["paper"]["greg1"]["tau"]
    del doc["preset"]
    assert config_from_dict(doc, preset="desk").reg.k_update == 5


def test_unknown_top_level_key_named():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(minimal_doc(bogus=1))


def test_missing_plan_named():
    doc = minimal_doc()
    del doc["experiment"]["plan"]
    with pytest.raises(ConfigError, match="plan"):
        config_from_dict(doc)


def test_unknown_layer_key_named():
    doc = minimal_doc()
    doc["experiment"]["net"]["layers"][0]["stride"] = 2
    with pytest.raises(ConfigError, match=r"layers\[0\]"):
        config_from_dict(doc)


def test_wrong_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict(minimal_doc(schema_version=2))


def test_unknown_dataset_kind():
    doc = minimal_doc(experiment={"dataset": {"kind": "rings", "n_val": 8}})
    with pytest.raises(ConfigError, match="dataset.kind"):
        config_from_dict(doc)


def test_generated_dataset_needs_n_train():
    doc = minimal_doc()
    del doc["experiment"]["dataset"]["n_train"]
    with pytest.raises(ConfigError, match=r"experiment\.dataset: missing .*n_train"):
        config_from_dict(doc)


def test_csv_path_must_resolve():
    doc = minimal_doc(
        experiment={"dataset": {"kind": "csv", "path": "/nope.csv", "n_val": 8}}
    )
    with pytest.raises(ConfigError, match="not found"):
        config_from_dict(doc)


def test_bad_method_rejected():
    with pytest.raises(ConfigError, match="method"):
        config_from_dict(minimal_doc(experiment={"method": "magnitude"}))


def test_reg_requires_preset_or_values():
    doc = minimal_doc()
    del doc["preset"]
    with pytest.raises(ConfigError, match="reg"):
        config_from_dict(doc)


def test_json_syntax_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "experiment": }\n')
    with pytest.raises(ConfigError, match=r":2:"):
        load_config(path)


def test_shipped_configs_parse():
    for name in ("greg1_desk", "greg2_desk", "compare_desk", "separation_desk"):
        exp = load_config(CONFIG_DIR / f"{name}.json")
        assert exp.classes == 2


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_load_under_every_method(path, method):
    doc = json.loads(path.read_text())
    doc["experiment"]["method"] = method
    assert config_from_dict(doc).method == method


def test_readme_config_example_loads():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    config_from_dict(json.loads(blocks[0]))


def _paths(node, prefix=()):
    """Every key path below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    # st.integers() stays within 128 bits; the wide range goes past float's range
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(["greg1_desk", "greg2_desk",
                                              "separation_desk"]))
def test_mutated_documents_load_or_raise_config_error(data, name):
    # one value replaced by any JSON value, or one object key deleted
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    try:
        config_from_dict(doc)
    except ConfigError:
        pass
