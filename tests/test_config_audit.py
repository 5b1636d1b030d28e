"""No config-record field that nobody sets.

Every field of the ten config records must be set by some caller
outside the module that declares it — as a keyword argument, an
attribute store or a ``cli.py`` flag row anywhere in ``src/``, ``perfledger/``, ``benchmarks/``,
``examples/`` or ``tests/`` (Python source embedded in a string, such
as the orphan tests' child scripts, counts).  A field with one value in
use is a constant; the allow-list is empty on purpose.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
import warnings
from pathlib import Path
from typing import Dict, Set

from repro.control.meta import MetaControllerConfig
from repro.core.best_effort import BestEffortScenario
from repro.core.multihop import MultiHopScenario
from repro.core.session import PelsScenario
from repro.fluid.scenario import FluidScenario
from repro.live.loadgen import LoadConfig
from repro.live.session import LiveConfig
from repro.live.shard import ShardConfig
from repro.live.supervisor import SupervisorConfig
from repro.service.api import ServiceConfig

RECORDS = (PelsScenario, MultiHopScenario, BestEffortScenario, LiveConfig,
           LoadConfig, FluidScenario, MetaControllerConfig, SupervisorConfig,
           ServiceConfig, ShardConfig)

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "perfledger", "benchmarks", "examples", "tests")


def _embedded_source(node: ast.AST) -> str:
    """The text of a string literal (an f-string's holes read ``None``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_embedded_source(part) or "None"
                       for part in node.values)
    return ""


def _names_set(tree: ast.AST) -> Set[str]:
    """Keyword-argument names, stored attribute names and the fields
    of ``("--flag", "field", ...)`` rows (``cli.py`` builds records from
    those) in ``tree``, descending into string literals that parse as
    Python."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and \
                _embedded_source(node.elts[0]).startswith("--"):
            names.add(_embedded_source(node.elts[1]))
        elif "(" in (text := _embedded_source(node)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # regex escapes
                    embedded = ast.parse(textwrap.dedent(text))
            except SyntaxError:
                continue
            names |= _names_set(embedded)
    return names


def _setters_by_file() -> Dict[Path, Set[str]]:
    return {path: _names_set(ast.parse(path.read_text()))
            for top in SCANNED for path in (ROOT / top).rglob("*.py")}


def test_every_record_field_has_a_setter_outside_its_module():
    by_file = _setters_by_file()
    unset = []
    total = 0
    for record in RECORDS:
        for field in dataclasses.fields(record):
            total += 1
            owner = next(cls for cls in record.__mro__
                         if field.name in cls.__dict__.get(
                             "__annotations__", {}))
            home = Path(inspect.getsourcefile(owner)).resolve()
            if not any(field.name in names
                       for path, names in by_file.items() if path != home):
                unset.append(f"{record.__name__}.{field.name}")
    assert unset == []
    assert total <= 170
