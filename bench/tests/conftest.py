"""Run the benchmark's own tests from the root of the checkout, with the
program's source importable (what ``python3 -m bench`` arranges for itself)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture(autouse=True)
def _from_checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)
