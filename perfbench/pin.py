"""Regenerate ``perfbench/expected.json``, the pinned outputs of every input
the benchmark can draw: both filtration calls, all 1024 labeled 5-vertex
graphs, johnson suite seeds 0..63 and both axiom suites.

    python3 perfbench/pin.py

Run it only on a source tree whose outputs are known good (it takes a few
minutes); the benchmark counts every later difference as a failed output.
Before writing, each graph's certificate count is checked against an
independent count from the living-subgraph criterion.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from lcsforge import cli  # noqa: E402


def living_certificates(mask: int) -> int:
    """Characters on the {-1, 0, 1, 2} grid whose nonzero vertices induce a
    connected subgraph adjacent to every zero vertex; a support S carries
    3^|S| of them."""
    edges = {e for bit, e in enumerate(wl.EDGE_SLOTS) if mask >> bit & 1}
    adjacent = lambda u, v: (min(u, v), max(u, v)) in edges  # noqa: E731
    vertices = range(1, wl.GRAPH_VERTICES + 1)
    total = 0
    for size in vertices:
        for live in combinations(vertices, size):
            reached, frontier = {live[0]}, [live[0]]
            while frontier:
                u = frontier.pop()
                for w in live:
                    if w not in reached and adjacent(u, w):
                        reached.add(w)
                        frontier.append(w)
            dominated = all(
                any(adjacent(v, u) for u in live) for v in vertices if v not in live
            )
            if len(reached) == size and dominated:
                total += 3**size
    return total


def pin(calls) -> dict:
    return {c.key: wl.summarize(cli.run_suite(c.suite, dict(c.params))) for c in calls}


def main() -> int:
    workdir = HERE / "out" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = {
        "filtration": pin(wl.FILTRATION),
        "axioms": pin(wl.AXIOMS),
        "johnson-model": pin(wl.johnson_call(s) for s in range(wl.JOHNSON_SEEDS)),
        "kmm-sweep": pin(wl.kmm_call(m, workdir) for m in range(wl.GRAPH_MASKS)),
    }
    for key, out in expected["kmm-sweep"].items():
        if out["certificates"] != living_certificates(int(key)):
            print(f"graph {key}: certificates disagree with the oracle count", file=sys.stderr)
            return 1
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
