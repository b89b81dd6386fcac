"""The benchmark's workloads: the inputs each one generates from its seed, the
suite calls that make up one pass, and the outputs each call is checked on.

Every call goes through the package's public entry point ``cli.run_suite``
with ``jobs=1``.  ``filtration`` and ``axioms`` are exact and ignore the seed;
``kmm-sweep`` draws its graph sample from the seed and ``johnson-model`` uses
the seed (mod ``JOHNSON_SEEDS``) as the suite seed of its functional sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

NAMES = ("filtration", "kmm-sweep", "johnson-model", "axioms")

GRAPH_VERTICES = 5
EDGE_SLOTS = tuple(combinations(range(1, GRAPH_VERTICES + 1), 2))
GRAPH_MASKS = 1 << len(EDGE_SLOTS)
GRAPH_SAMPLE = 32
# Suite seeds with pinned outputs; a benchmark seed maps to seed % JOHNSON_SEEDS.
JOHNSON_SEEDS = 64


@dataclass(frozen=True)
class Call:
    """One suite run of a pass; ``key`` names its pinned expected outputs."""

    key: str
    suite: str
    params: dict


def graph_text(mask: int) -> str:
    """Graph file for the labeled 5-vertex graph whose edges are the set
    bits of ``mask`` over ``EDGE_SLOTS``."""
    edges = [f"{u} {v}" for bit, (u, v) in enumerate(EDGE_SLOTS) if mask >> bit & 1]
    return "\n".join([str(GRAPH_VERTICES), *edges]) + "\n"


def kmm_call(mask: int, workdir: Path) -> Call:
    path = workdir / f"g{mask:04d}.graph"
    path.write_text(graph_text(mask))
    return Call(str(mask), "kmm-raag", {"graph": str(path), "max_n": GRAPH_VERTICES})


def johnson_call(suite_seed: int) -> Call:
    return Call(str(suite_seed), "johnson", {"n": 4, "budget": 4, "seed": suite_seed})


FILTRATION = (
    # the whole 90^2 tuple space at k=2
    Call("k2", "normal-gens", {"k": 2, "n": 6, "cutoff": 4, "budget": 8100, "jobs": 1}),
    # a small stride at k=3: 11 elements whose realized images total ~7k letters
    Call("k3", "normal-gens", {"k": 3, "n": 9, "cutoff": 5, "budget": 25, "jobs": 1}),
)

AXIOMS = (
    Call("ia-axioms", "ia-axioms", {"n": 6}),
    Call("kneser", "kneser", {"max_n": 12, "max_m": 5}),
)


def make_calls(workload: str, seed: int, workdir: Path) -> list[Call]:
    """Generate the workload's inputs (writing graph files under workdir)
    and return the calls of one pass."""
    if workload == "filtration":
        return list(FILTRATION)
    if workload == "kmm-sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        masks = sorted(random.Random(seed).sample(range(GRAPH_MASKS), GRAPH_SAMPLE))
        return [kmm_call(mask, workdir) for mask in masks]
    if workload == "johnson-model":
        return [johnson_call(seed % JOHNSON_SEEDS)]
    if workload == "axioms":
        return list(AXIOMS)
    raise ValueError(f"unknown workload {workload!r}")


def summarize(report) -> dict:
    """The outputs of one suite report that are compared with the pins."""
    checks = {c.name: c for c in report.checks}
    detail = {name: c.detail for name, c in checks.items()}
    if report.suite == "normal-gens":
        (d,) = detail.values()
        return {"elements": d["elements"], "exceptions": len(d["exceptions"])}
    if report.suite == "kmm-raag":
        d = detail["sweep-file"]
        return {
            "characters": d["characters"],
            "certificates": d["certificates"],
            "oracle_true_kmm_fail": d["oracle_true_kmm_fail"],
            "violations": len(d["violations"]),
        }
    if report.suite == "johnson":
        return {
            "tau_goldens": checks["tau-goldens"].passed,
            "additivity_failures": detail["tau-additivity"]["failures"],
            "rank": detail["h1-rank"]["rank"],
            "equivariance_checks": detail["equivariance-signed-perms"]["checks"]
            + detail["equivariance-transvections"]["checks"],
            "equivariance_failures": detail["equivariance-signed-perms"]["failures"]
            + detail["equivariance-transvections"]["failures"],
            "tilt_found": detail["tilt-search"]["found"],
            "tilt_invalid": detail["tilt-search"]["invalid"],
        }
    if report.suite == "ia-axioms":
        return {
            "passed": {name: c.passed for name, c in sorted(checks.items())},
            "chains": detail["functoriality"]["chains"],
            "pairs": detail["disjoint-commuting"]["pairs"],
            "coverage_degree": detail["coverage-degree"]["degree"],
        }
    if report.suite == "kneser":
        return {
            "sizes": sum(len(d["rows"]) for d in detail.values()),
            "mismatches": sorted(
                [m["n"], m["m"]] for d in detail.values() for m in d["mismatches"]
            ),
        }
    raise ValueError(f"no summary for suite {report.suite!r}")
