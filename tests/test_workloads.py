"""The benchmark's own suite calls still give their pinned outputs.

``perfbench/workloads.py`` makes the calls of each workload pass and
``perfbench/expected.json`` pins their outputs, so a suite that drops a key
those calls pass, or changes an output, fails here before a benchmark run.
The module is loaded from its source without writing anything under
``perfbench/``.  The ``k2`` filtration call is left out: C3 runs the same
work.  ``ia-axioms`` is kept although C2 runs it too, since C2 asserts only
that no check fails, not the ``chains`` and ``pairs`` counts pinned here.
``johnson-model`` runs at four of its pinned suite seeds.
"""

import json
import sys
import types
from pathlib import Path

from lcsforge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
# johnson-model at further pinned suite seeds (seed mod 64), so the suite is
# checked against its pins on more than one seeded sample
JOHNSON_SEEDS = (SEED, 0, 7, 63)


def load_workloads(monkeypatch):
    module = types.ModuleType("workloads")
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "workloads", module)
    source = PERFBENCH / "workloads.py"
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return module


def test_benchmark_calls_match_expected(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    calls = [
        ("filtration", call) for call in workloads.FILTRATION if call.key == "k3"
    ]
    for workload, seeds in (("kmm-sweep", [SEED]), ("johnson-model", JOHNSON_SEEDS)):
        for seed in seeds:
            made = workloads.make_calls(workload, seed, tmp_path / workload)
            calls += [(workload, call) for call in made]
    calls += [("axioms", call) for call in workloads.AXIOMS]
    assert len(calls) == 1 + workloads.GRAPH_SAMPLE + len(JOHNSON_SEEDS) + 2
    for workload, call in calls:
        got = workloads.summarize(cli.run_suite(call.suite, dict(call.params)))
        assert got == expected[workload][call.key], (workload, call.key)
