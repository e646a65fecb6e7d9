"""Golden digests of the pinned desk runs.

A change that alters these on purpose updates the digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

from growreg.config import load_config
from growreg.harness import run_method

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, digest", [
    ("greg1_desk", "60b1fc5b7521c34c"),
    ("greg2_desk", "b36d9cd553ca4b7e"),
])
def test_pinned_run_digest(name, digest):
    rec = run_method(load_config(CONFIG_DIR / f"{name}.json"))
    text = rec.record_csv() + rec.summary_csv() + rec.snapshots_csv()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
