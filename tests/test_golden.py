"""Golden digests of the pinned desk runs and of shortened variants.

The pinned configs are dense and prune filters. The variants pin the
other ways a weight group sits in a tensor: single weights of the desk
nets (at a fifth of their steps), and filters and single weights of a
small conv net trained on a seeded image CSV. The comparison table and
the separation records are pinned at a fifth of their steps too.

A change that alters these on purpose updates the digest and says why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from growreg.config import load_config
from growreg.harness import (
    ExperimentConfig,
    PhaseSchedule,
    compare_schedules,
    run_method,
    track_separation,
)
from growreg.netcore import LayerSpec
from growreg.scheduler import RegConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def digest(rec):
    text = rec.record_csv() + rec.summary_csv() + rec.snapshots_csv()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, expected", [
    ("greg1_desk", "60b1fc5b7521c34c"),
    ("greg2_desk", "b36d9cd553ca4b7e"),
])
def test_pinned_run_digest(name, expected):
    assert digest(run_method(load_config(CONFIG_DIR / f"{name}.json"))) == expected


def shortened(exp, granularity):
    """``exp`` at ``granularity`` with a fifth of its training steps.

    Fivefold ramp increments reach the same ceilings in a fifth of the
    boundaries, and stabilization is a fifth as long.
    """
    reg = replace(exp.reg, delta_lambda=5 * exp.reg.delta_lambda,
                  post_pick_delta_lambda=5 * exp.reg.post_pick_delta_lambda,
                  k_stabilize=exp.reg.k_stabilize // 5)
    return replace(exp, granularity=granularity, reg=reg,
                   pretrain=replace(exp.pretrain, steps=exp.pretrain.steps // 5),
                   finetune=replace(exp.finetune, steps=exp.finetune.steps // 5))


@pytest.mark.parametrize("name, expected", [
    ("greg1_desk", "9c8dbdb5ef50a330"),
    ("greg2_desk", "7cc57809f7126d6c"),
])
def test_weight_granularity_digest(name, expected):
    exp = shortened(load_config(CONFIG_DIR / f"{name}.json"), "weight")
    assert digest(run_method(exp)) == expected


@pytest.mark.parametrize("kind, expected", [
    ("l1", "51580618dd25e498"),
    ("random", "ad4e7e66f233dd96"),
])
def test_comparison_digest(kind, expected):
    exp = shortened(load_config(CONFIG_DIR / "compare_desk.json"), "filter")
    table = compare_schedules(exp, 2, kind).table_csv()
    assert hashlib.sha256(table.encode()).hexdigest()[:16] == expected


def test_separation_digest():
    exp = shortened(load_config(CONFIG_DIR / "separation_desk.json"), "filter")
    ramp, control = track_separation(exp)
    assert (digest(ramp), digest(control)) == ("e951c0e952b05983", "91efbd4eca471ce2")


def conv_config(tmp_path, method, granularity):
    """conv6 3x3 -> conv5 2x2 -> dense8 -> dense3 on 2x9x9 images from CSV.

    Each class is a fixed random template under unit noise. The plan prunes
    all three hidden layers, so filter pruning cuts a conv consumer's
    channels, a dense consumer's flattened blocks and a dense column.
    """
    rng = np.random.default_rng(21)
    n, shape = 240, (2, 9, 9)
    templates = rng.standard_normal((3,) + shape)
    y = rng.integers(0, 3, size=n)
    x = 0.8 * templates[y] + rng.standard_normal((n,) + shape)
    path = tmp_path / "images.csv"
    np.savetxt(path, np.column_stack([x.reshape(n, -1), y]), delimiter=",")
    return ExperimentConfig(
        layers=(
            LayerSpec("conv2d", 6, kernel=(3, 3)),
            LayerSpec("conv2d", 5, kernel=(2, 2)),
            LayerSpec("dense", 8),
            LayerSpec("dense", 3, activation="none", prunable=False),
        ),
        input_shape=shape,
        classes=3,
        dataset={"kind": "csv", "path": str(path), "n_val": 60, "seed": 4},
        plan="[0.5, 0.4, 0.5, 0]",
        granularity=granularity,
        method=method,
        reg=RegConfig(delta_lambda=0.05, tau=1.0, tau_prime=0.2, k_update=2,
                      k_stabilize=20, post_pick_delta_lambda=0.1),
        pretrain=PhaseSchedule(steps=120, batch_size=16, milestones=((0, 0.02),)),
        finetune=PhaseSchedule(steps=40, batch_size=16, milestones=((0, 0.01),)),
        reg_batch_size=16,
        reg_lr=0.01,
        seed=3,
        metric_every=10,
    )


@pytest.mark.parametrize("method, granularity, expected", [
    ("greg1", "filter", "578b2705951acdc2"),
    ("greg2", "filter", "c719601f3976c659"),
    ("greg1", "weight", "5452b94562347fc0"),
    ("greg2", "weight", "4e8eed2085decefc"),
])
def test_conv_digest(tmp_path, method, granularity, expected):
    assert digest(run_method(conv_config(tmp_path, method, granularity))) == expected
