"""Batch driver: verification suites with machine-readable reports.

Each suite re-runs a family of checks at caller-supplied bounds and emits a
deterministic report (timing fields aside).  Exit code 0 means every check
passed, 1 means some check failed, 2 means a usage error.  The environment
variable ``LCSFORGE_SEED`` seeds the sampled sweeps (the tilt-search
functional sample); exact suites ignore it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from . import autom, bns, finc, graphs, johnson, magnus, words

__all__ = ["CheckRecord", "SuiteReport", "run_suite", "main", "SUITES"]

SCHEMA_VERSION = 1
DEFAULT_SEED = 20250211


class CheckRecord(NamedTuple):
    name: str
    passed: bool
    detail: dict
    time_ms: float = 0.0


class SuiteReport:
    """A suite's parameters and its check records, appended as they run."""

    def __init__(self, suite: str, parameters: dict) -> None:
        self.suite = suite
        self.parameters = parameters
        self.checks: list[CheckRecord] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "parameters": self.parameters,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "time_ms": round(c.time_ms, 3),
                }
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
            "status": "pass" if self.passed else "fail",
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite}  parameters {self.parameters}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            mark = "PASS" if c.passed else "FAIL"
            summary = c.detail.get("summary", "")
            lines.append(f"  [{mark}] {c.name}  {summary}")
        lines.append(f"status: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


def _admitted(suite: str, params: dict, costs) -> SuiteReport:
    """The suite's empty report, with its parameters less ``force``.  Unless
    ``force`` is set, refuse the first (what, estimate, bound) cost row whose
    estimate is above its bound; an estimate above 10 x bound is shown as
    ``over <10 x bound>``."""
    params = dict(params)
    if not params.pop("force", False):
        for what, estimate, bound in costs:
            if estimate > bound:
                # far above the bound the digits say nothing more
                shown = estimate if estimate <= 10 * bound else f"over {10 * bound}"
                raise ValueError(
                    f"{suite} estimates {shown} {what}, more than {bound}; "
                    "pass --force to run it anyway"
                )
    return SuiteReport(suite, params)


def _powers_sum(base: int, top: int) -> int:
    """Sum of base^i over 0 <= i <= top: 1 at base 0 and top + 1 at base 1.
    From base 2 the top is capped at 64, where the sum passes every bound."""
    if base == 1:
        return top + 1
    return (base ** (min(top, 64) + 1) - 1) // (base - 1)


def _timed(report: SuiteReport, name: str, fn) -> CheckRecord:
    start = time.perf_counter()
    passed, detail = fn()
    rec = CheckRecord(name, passed, detail, (time.perf_counter() - start) * 1e3)
    report.checks.append(rec)
    return rec


# ---------------------------------------------------------------------------
# depth


# Above this many monomials, or letters times monomials, depth refuses to
# start without --force.
DEPTH_MAX_MONOMIALS = 10**6
DEPTH_MAX_LETTER_MONOMIALS = 10**7


def suite_depth(params: dict) -> SuiteReport:
    w = words.parse_word(params["word"])
    cutoff = params["cutoff"]
    if cutoff < 2:
        raise ValueError(f"depth needs cutoff >= 2, got {cutoff}")
    # monomials in the support's letters up to the cutoff; the embedding
    # multiplies once per letter, so its work grows with letters x monomials
    cost = _powers_sum(len(words.support(w)), cutoff)
    report = _admitted("depth", params, [
        ("monomials", cost, DEPTH_MAX_MONOMIALS),
        ("letters x monomials", len(w) * cost, DEPTH_MAX_LETTER_MONOMIALS),
    ])

    def run():
        d = magnus.lcs_depth(w, cutoff)
        shown = f">= {cutoff}" if d is None else str(d)
        return True, {
            "summary": f"depth {shown}",
            "word": words.format_word(w),
            "depth": shown,
        }

    _timed(report, "depth", run)
    return report


# ---------------------------------------------------------------------------
# kneser


# Above this many neighbour visits kneser refuses to start without --force.
KNESER_MAX_VISITS = 10**7


def _kneser_visits(max_n: int, max_m: int) -> int:
    """Neighbour visits of the BFS over every (n, m) in the range: each of
    the C(n, m) vertices has C(n - m, m) neighbours.  The sum stops once it
    passes 10 x bound, so a huge range is not summed to its end."""
    total = 0
    for m in range(1, max_m + 1):
        for n in range(2 * m, max_n + 1):
            total += math.comb(n, m) * math.comb(n - m, m)
            if total > 10 * KNESER_MAX_VISITS:
                return total
    return total


def suite_kneser(params: dict) -> SuiteReport:
    max_n, max_m = params["max_n"], params["max_m"]
    if not 1 <= max_m <= max_n:
        raise ValueError(f"kneser needs 1 <= max_m <= max_n, got {max_m} and {max_n}")
    visits = _kneser_visits(max_n, max_m)
    report = _admitted("kneser", params, [("neighbour visits", visits, KNESER_MAX_VISITS)])
    for m in range(1, max_m + 1):

        def run(m=m):
            rows = []
            mismatches = []
            for n in range(m, max_n + 1):
                got = graphs.disjointness_connected(n, m)
                law = graphs.expected_disjointness_connectivity(n, m)
                rows.append(
                    {"n": n, "vertices": math.comb(n, m), "connected": got, "law": law}
                )
                if got != law:
                    mismatches.append({"n": n, "m": m, "connected": got, "law": law})
            detail = {
                "summary": f"{len(rows)} sizes, {len(mismatches)} law mismatches",
                "rows": rows,
                "mismatches": mismatches,
            }
            return not mismatches, detail

        _timed(report, f"law-m{m}", run)
    return report


# ---------------------------------------------------------------------------
# ia-axioms


def _disjoint_subset_pairs(n: int):
    """Unordered pairs of disjoint nonempty subsets of 1..n; the set holding
    the overall smallest element comes first."""
    for assignment in product((0, 1, 2), repeat=n):
        left = tuple(i + 1 for i, a in enumerate(assignment) if a == 1)
        right = tuple(i + 1 for i, a in enumerate(assignment) if a == 2)
        if left and right and left[0] < right[0]:
            yield left, right


# Above this many subset assignments plus generator pairs ia-axioms refuses
# to start without --force.
IA_AXIOMS_MAX_COST = 10**6


def suite_ia_axioms(params: dict) -> SuiteReport:
    n = params["n"]
    family = finc.FIncIA(n)
    # 3^n assignments of each index to left, right or neither, and the
    # (n^2(n-1)/2)^2 ordered pairs of Magnus generators
    gens = n * n * (n - 1) // 2
    report = _admitted("ia-axioms", params, [
        ("assignments plus generator pairs", 3 ** min(n, 64) + gens * gens,
         IA_AXIOMS_MAX_COST),
    ])

    @functools.cache
    def verdicts():
        # one verdict per disjoint generator pair, read by both commuting checks
        return finc.disjoint_pair_verdicts(family)

    def run_functoriality():
        bad = finc.check_functoriality(family)
        return not bad, {
            "summary": f"{4**n} chains",
            "chains": 4**n,
            "failures": [list(f) for f in bad],
        }

    def run_commuting():
        bad = []
        total = 0
        for left, right in _disjoint_subset_pairs(n):
            total += 1
            pairs = verdicts().counterexamples(left, right)
            if pairs:
                bad.append({"left": list(left), "right": list(right), "pairs": pairs})
        return not bad, {
            "summary": f"{total} disjoint subset pairs, trivial conjugators",
            "pairs": total,
            "generator_pairs": verdicts().decided,
            "failures": bad,
        }

    def run_eii():
        results = {
            m: finc.check_condition_eii(verdicts(), m) for m in range(1, n // 2 + 1)
        }
        ok = all(results.values())
        return ok, {
            "summary": f"m = 1..{n // 2}",
            "by_m": {str(m): v for m, v in results.items()},
        }

    def run_coverage():
        got = finc.generation_degree_coverage(family)
        # the documented law: n = 1 is the trivial group, with no generators
        want = 3 if n >= 3 else 2 if n == 2 else 0
        return got == want, {
            "summary": f"coverage degree {got}",
            "degree": got,
            "expected": want,
        }

    _timed(report, "functoriality", run_functoriality)
    _timed(report, "disjoint-commuting", run_commuting)
    _timed(report, "condition-eii", run_eii)
    _timed(report, "coverage-degree", run_coverage)
    return report


# ---------------------------------------------------------------------------
# kmm-raag


# Above this many characters kmm-raag refuses to start without --force.
KMM_MAX_CHARACTERS = 10**7


def suite_kmm_raag(params: dict) -> SuiteReport:
    graph_file = params.get("graph")
    graph = None
    if graph_file:
        # not pathlib, which interns every path part: many files grow the peak memory
        with open(graph_file) as fh:
            graph = bns.raag_from_text(fh.read())
    # grid values per vertex, on one graph or on every labeled graph on v vertices;
    # both estimates pass the bound long before 64 vertices
    base = len(bns.GRID)
    if graph is not None:
        if graph.n_vertices < 1:
            raise ValueError(
                f"kmm-raag needs a graph with vertex count >= 1, got {graph.n_vertices}"
            )
        cost = base ** min(graph.n_vertices, 64)
    elif params["max_n"] < 1:
        raise ValueError(f"kmm-raag needs max_n >= 1, got {params['max_n']}")
    else:
        top = min(params["max_n"], 64)
        cost = sum(2 ** (v * (v - 1) // 2) * base**v for v in range(1, top + 1))
    report = _admitted("kmm-raag", params, [("characters", cost, KMM_MAX_CHARACTERS)])
    if graph is not None:

        def run():
            sweep = bns.grid_sweep(graph)
            violations = sweep.soundness_violations
            return not violations, {
                "summary": (
                    f"{sweep.characters} characters, "
                    f"{sweep.certificates} certificates, "
                    f"{len(violations)} violations"
                ),
                "characters": sweep.characters,
                "certificates": sweep.certificates,
                "oracle_true_kmm_fail": sweep.oracle_true_kmm_fail,
                "violations": [
                    [str(v) for v in r.char_values] for r in violations
                ],
            }

        _timed(report, "sweep-file", run)
        return report

    max_vertices = params["max_n"]
    for v in range(1, max_vertices + 1):

        def run(v=v):
            total_chars = 0
            total_certs = 0
            violations = []
            n_graphs = 0
            for graph in bns.all_graphs(v):
                n_graphs += 1
                sweep = bns.grid_sweep(graph)
                total_chars += sweep.characters
                total_certs += sweep.certificates
                for r in sweep.soundness_violations:
                    violations.append(
                        {
                            "edges": sorted(map(list, graph.edges)),
                            "char": [str(x) for x in r.char_values],
                        }
                    )
            return not violations, {
                "summary": (
                    f"{n_graphs} graphs, {total_chars} characters, "
                    f"{len(violations)} violations"
                ),
                "graphs": n_graphs,
                "characters": total_chars,
                "certificates": total_certs,
                "violations": violations,
            }

        _timed(report, f"sweep-v{v}", run)

    def run_f2():
        edgeless = bns.raag(2, [])
        sweep = bns.grid_sweep(edgeless)
        return sweep.certificates == 0, {
            "summary": f"{sweep.certificates} certificates on the free pair",
            "characters": sweep.characters,
            "certificates": sweep.certificates,
        }

    _timed(report, "f2-edgeless", run_f2)
    return report


# ---------------------------------------------------------------------------
# johnson


def _all_signed_permutation_lifts(n: int):
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield autom.signed_permutation_lift(n, perm, signs)


def _all_transvection_lifts(n: int):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                for sign in (1, -1):
                    yield autom.transvection_lift(n, a, b, sign)


def sample_functionals(n: int, count: int, seed: int) -> list[johnson.H1Vector]:
    """Deterministic pseudo-random rational functionals: each coordinate is
    nonzero with probability 1/2, drawn from a small symmetric rational set."""
    rng = random.Random(seed)
    pool = [
        Fraction(-2), Fraction(-1), Fraction(-1, 2),
        Fraction(1, 2), Fraction(1), Fraction(2),
    ]
    keys = johnson.h1_basis_keys(n)
    if not keys:
        raise ValueError(f"no nonzero functional exists at n={n}")
    out = []
    while len(out) < count:
        coords = {
            k: rng.choice(pool) for k in keys if rng.random() < 0.5
        }
        lam = johnson.h1_vector(n, coords)
        if not lam.is_zero():
            out.append(lam)
    return out


def _revalidate_tilt(
    lam: johnson.H1Vector, result: johnson.TiltResult, n: int, s: int
) -> bool:
    """Independent re-check of a witness: the forward action of the returned
    matrix on basis vectors, with its inverse from exact elimination, and the
    rational pairing.  The search itself pulls integer-scaled functionals
    back move by move and uses neither elimination nor the pairing."""
    if not result.found:
        return False
    m = result.matrix
    act = johnson._action(m, johnson.mat_inverse_unimodular(m))
    return all(
        any(johnson.pairing(lam, act(vec)) != 0 for vec in johnson.subspace_image_basis(idx, n))
        for idx in combinations(range(1, n + 1), s)
    )


# Above this many lift/generator pairs, or tilt matrices per functional,
# johnson refuses to start without --force.
JOHNSON_MAX_COST = 10**6


def suite_johnson(params: dict) -> SuiteReport:
    n = params["n"]
    budget = params["budget"]
    seed = params["seed"]
    if n < 2:
        raise ValueError(f"johnson needs n >= 2, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    # 2^n n! signed permutations and 2n(n-1) transvections, each against the
    # n(n-1) + n(n-1)(n-2)/2 = n^2(n-1)/2 Magnus generators; the tilt search
    # examines up to (2n(n-1))^d matrices at depth d.  The pairs pass the
    # bound long before n = 64.
    moves = 2 * n * (n - 1)
    k = min(n, 64)
    report = _admitted("johnson", params, [
        ("lift/generator pairs",
         (2**k * math.factorial(k) + moves) * (n * n * (n - 1) // 2), JOHNSON_MAX_COST),
        ("tilt matrices per functional", _powers_sum(moves, budget), JOHNSON_MAX_COST),
    ])
    family = finc.FIncIA(n)
    gens = finc.magnus_generators(family)
    # each generator's realization and tau, shared by every check that reads them
    pairs = [(g.realized, johnson.tau(g.realized)) for g in gens]

    def run_goldens():
        k12 = autom.ia_word(n, [autom.conj(1, 2)]).realized
        ok = johnson.tau(k12) == johnson.h1_vector(n, {(1, 1, 2): -1})
        detail = {"summary": "conjugation and commutator move images"}
        if n >= 3:
            m123 = autom.ia_word(n, [autom.comm_move(1, 2, 3)]).realized
            ok = ok and johnson.tau(m123) == johnson.h1_vector(n, {(1, 2, 3): 1})
        ok = ok and johnson.tau(autom.identity_endo(n)).is_zero()
        return ok, detail

    def run_additivity():
        rng = random.Random(seed)
        bad = 0
        trials = 50
        for _ in range(trials):
            u = autom.ia_word(n, [rng.choice(gens).gens[0] for _ in range(3)])
            v = autom.ia_word(n, [rng.choice(gens).gens[0] for _ in range(3)])
            lhs = johnson.tau(autom.compose(u.realized, v.realized))
            rhs = johnson.h1_add(johnson.tau(u.realized), johnson.tau(v.realized))
            if lhs != rhs:
                bad += 1
        return bad == 0, {"summary": f"{trials} random pairs", "failures": bad}

    def run_rank():
        rows = [t.dense() for _, t in pairs]
        got = johnson.rational_rank(rows)
        want = johnson.h1_dimension(n)
        return got == want, {
            "summary": f"rank {got} of {len(rows)} generator images",
            "rank": got,
            "expected": want,
        }

    def run_equivariance(lifts):
        total, bad, conjugates = johnson.equivariance_failures(lifts, pairs)
        return bad == 0, {
            "summary": f"{total} lift/generator pairs",
            "checks": total,
            "failures": bad,
            "conjugates": conjugates,
        }

    def run_tilt():
        lams = sample_functionals(n, 100, seed)
        s = min(3, n)
        found = 0
        exhausted = 0
        invalid = 0
        for lam in lams:
            result = johnson.tilt_search(lam, n, s, budget)
            if result.found:
                found += 1
                if not _revalidate_tilt(lam, result, n, s):
                    invalid += 1
            else:
                exhausted += 1
        ok = found >= 95 and invalid == 0
        return ok, {
            "summary": f"{found} witnesses, {exhausted} exhausted, {invalid} invalid",
            "found": found,
            "exhausted": exhausted,
            "invalid": invalid,
        }

    _timed(report, "tau-goldens", run_goldens)
    _timed(report, "tau-additivity", run_additivity)
    _timed(report, "h1-rank", run_rank)
    _timed(
        report,
        "equivariance-signed-perms",
        lambda: run_equivariance(_all_signed_permutation_lifts(n)),
    )
    _timed(
        report,
        "equivariance-transvections",
        lambda: run_equivariance(_all_transvection_lifts(n)),
    )
    _timed(report, "tilt-search", run_tilt)
    return report


# ---------------------------------------------------------------------------
# normal-gens


# Above this many realized image letters normal-gens refuses to start
# without --force.
NORMAL_GENS_MAX_LETTERS = 5 * 10**7


def suite_normal_gens(params: dict) -> SuiteReport:
    k = params["k"]
    if k < 1:
        raise ValueError(f"normal-gens needs k >= 1, got {k}")
    n = params["n"] if params.get("n") else finc.GENERATION_DEGREE * k
    budget = params.get("budget")
    # the enumeration realizes the sampled tuples the support rule leaves
    # open, at most min(|S|^k, budget) for the n^2(n-1)/2 Magnus generators
    # S.  The largest mean over budgets 25-200 was 17, 284 and 30,882 letters
    # per sampled tuple at k = 2, 3 and 4 (n = 3k); 40^(k-1)/2 lies above each.
    cap = finc.DEFAULT_TUPLE_BUDGET if budget is None else budget
    tuples = min((n * n * (n - 1) // 2) ** min(k, 64), cap)
    report = _admitted("normal-gens", params, [
        ("realized letters", tuples * 40 ** (min(k, 64) - 1) // 2, NORMAL_GENS_MAX_LETTERS),
    ])
    family = finc.FIncIA(n)

    def run():
        generators = finc.enumerate_normal_generators(family, k, budget)
        exceptions = []
        for w in generators:
            # a level below k is a depth d <= k, which shows at every cutoff >= d:
            # cutoff max(k, 2) decides the verdict and every reported level
            level = magnus.johnson_level(w, max(k, 2))
            if level is not None and level < k:
                completion = list(finc.support_completion(w, k, n))
                exceptions.append(
                    {"element": finc.format_token(w), "completion": completion, "level": level}
                )
        exceptions.sort(key=lambda e: e["element"])
        return not exceptions, {
            "summary": (
                f"{len(generators)} deduplicated commutators at n={n}, "
                f"{len(exceptions)} below level {k}"
            ),
            "elements": len(generators),
            "exceptions": exceptions,
        }

    _timed(report, f"level-ge-{k}", run)
    return report


# ---------------------------------------------------------------------------
# driver

SUITES = {
    "depth": suite_depth,
    "kneser": suite_kneser,
    "ia-axioms": suite_ia_axioms,
    "kmm-raag": suite_kmm_raag,
    "johnson": suite_johnson,
    "normal-gens": suite_normal_gens,
}


def run_suite(name: str, params: dict) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](params)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsforge", description="verification suites"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sub = parser.add_subparsers(dest="suite", required=True, parser_class=argparse.ArgumentParser)

    guarded = argparse.ArgumentParser(add_help=False)
    guarded.add_argument("--force", action="store_true", help="run even above the cost bound")

    def add(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add("depth", guarded, help="lower-central-series depth of a word")
    p.add_argument("--word", required=True, help="dot-joined letters, e.g. x1.x2.X1.X2")
    p.add_argument("--cutoff", type=int, default=4)

    p = add("kneser", guarded, help="subset-disjointness connectivity table")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--max-m", type=int, default=5)

    p = add("ia-axioms", guarded, help="family axioms at one ambient rank")
    p.add_argument("--n", type=int, default=6)

    p = add("kmm-raag", guarded, help="criterion-vs-oracle soundness sweep")
    p.add_argument("--graph", metavar="FILE", help="sweep a single graph file")
    p.add_argument("--max-n", type=int, default=5, help="max vertex count")

    p = add("johnson", guarded, help="degree-one homology model checks")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--budget", type=int, default=4, help="tilt search depth")

    p = add("normal-gens", guarded, help="filtration level of commutator family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=0, help="ambient rank (default 3k)")
    p.add_argument("--budget", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("suite", "json")}
    if args.suite == "johnson":
        seed = os.environ.get("LCSFORGE_SEED", str(DEFAULT_SEED))
        try:
            params["seed"] = int(seed)
        except ValueError:
            print(f"error: LCSFORGE_SEED must be an integer, got {seed!r}", file=sys.stderr)
            return 2
    try:
        report = run_suite(args.suite, params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
