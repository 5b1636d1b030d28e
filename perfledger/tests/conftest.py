"""Harness self-tests: ``python -m pytest perfledger/tests -q``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); they
pin the ledger's own arithmetic, not the program's behaviour.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
