"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps the functions each module exports and reads
some of them by name, so unexporting one (``bns.soundness_sweep``,
``autom.compose``) breaks ``perfbench/run.py --trace 1``.  The tracer is
loaded from its source without writing anything under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

from lcsforge import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_fits_every_suite(tmp_path):
    tracer = load_tracer()
    modules = {layer: importlib.import_module(f"lcsforge.{layer}") for layer in tracer.LAYERS}
    graph = tmp_path / "path.graph"
    graph.write_text("3\n1 2\n2 3\n")
    calls = [
        ("depth", {"word": "x1.x2.X1.X2", "cutoff": 4}),
        ("kneser", {"max_n": 4, "max_m": 2}),
        ("ia-axioms", {"n": 3}),
        ("kmm-raag", {"graph": str(graph)}),
        ("johnson", {"n": 2, "budget": 1, "seed": 0}),
        ("normal-gens", {"k": 1, "n": 3, "budget": None}),
    ]
    run_suite = cli.run_suite
    spans = tracer.Tracer(modules)
    spans.install()
    try:
        reports = [cli.run_suite(suite, params) for suite, params in calls]
    finally:
        spans.uninstall()
    assert cli.run_suite is run_suite
    assert [r.suite for r in reports] == [suite for suite, _ in calls]
    metrics = spans.layer_metrics()
    for layer in tracer.LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["finc.elements"] == 9
    assert metrics["bns.kmm_check_calls"] > 0
