"""BENCHMARK.json against the code, and the public-names-only rule."""

import itertools
import json
import re
from pathlib import Path

from perfledger.workloads import MODULES
from perfledger.workloads.flood import MIX, make_batch
from perfledger.workloads.service import think_times
from perfledger.workloads.sim import build_scenario

LEDGER = Path(__file__).resolve().parent.parent
SOURCES = sorted(LEDGER.glob("*.py")) + sorted(LEDGER.glob("workloads/*.py"))
CONTRACT = json.loads((LEDGER.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["perfledger"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(MODULES)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(CONTRACT["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": setup[0]["bound"]}]
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in CONTRACT["per_layer"])


def test_every_emitted_layer_row_is_in_the_contract():
    """Row names are string literals in the ledger's sources; each must
    be declared (run.py refuses undeclared rows at run time too)."""
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    literal = re.compile(r'"((?:sim|core|cc|obs|fluid|live|service|'
                         r'experiments|ledger)\.[a-z_.0-9]+)"[:\]]')
    emitted = set()
    for path in SOURCES:
        emitted |= set(literal.findall(path.read_text()))
    assert emitted - declared == set()
    assert declared - emitted == set()


def test_no_private_name_of_the_program_is_used():
    """The ledger measures from outside: only public names of ``repro``
    (a later refactor of ``_ingest`` / ``_drain`` must not break it)."""
    private_attr = re.compile(r"(?<![\w.])(?!self\b)(\w+)\._(?!_)\w+")
    private_import = re.compile(r"from repro[\w.]* import[^\n]*\b_\w+")
    for path in SOURCES:
        text = path.read_text()
        assert not private_import.search(text), path
        hits = [m.group(0) for m in private_attr.finditer(text)]
        assert hits == [], (path, hits)


def test_seed_makes_the_inputs():
    assert make_batch(3, 500) == make_batch(3, 500)
    assert make_batch(3, 500) != make_batch(4, 500)
    colors = [d[20] for d in make_batch(3, 500)]
    assert [colors.count(c) for c in (0, 1, 2)] == list(MIX)
    first = list(itertools.islice(think_times(5, 0.2), 20))
    assert first == list(itertools.islice(think_times(5, 0.2), 20))
    assert first != list(itertools.islice(think_times(6, 0.2), 20))
    # Twenty consecutive think times hit every tenth of the poll period.
    phases = sorted(int((t - 0.05) / 0.2 * 10) for t in first)
    assert set(phases) == set(range(10))
    assert build_scenario("sim_cbr_100", 2).start_times \
        != build_scenario("sim_cbr_100", 3).start_times
