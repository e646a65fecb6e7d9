"""Config document validation: strict keys, presets, field-naming errors."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growreg.config import PRESETS, config_from_dict, load_config
from growreg.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def _paths(node, prefix=()):
    """Every key path below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats()
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
