"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 checks the connectivity law as it is usually quoted (connected
iff n >= 2m+1 or one vertex) and asserts that it fails at exactly one size,
(n, m) = (2, 1): the two 1-subsets of {1, 2} are disjoint, so that graph is
a single edge and connected.  That graph is also checked on its own, through
its vertex and edge sets and a validated path, without going through
`is_connected`.  The test goes red if the quoted law breaks at any other size
or stops breaking at (2, 1).  The sibling test checks the corrected law
(connected iff n >= 2m+1 or at most two vertices) over the same sizes.
"""

import os
import time
from itertools import combinations, permutations, product

from lcsforge import autom, bns, cli, finc, graphs, johnson, magnus


def _line(tag: str, ok: bool, summary: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {summary}")


SEED = int(os.environ.get("LCSFORGE_SEED", cli.DEFAULT_SEED))


# -- criterion 1: disjointness-graph connectivity law -----------------------


def test_c1_disjointness_graph_law():
    # the quoted law breaks at exactly one size: K(2,1) is a single edge
    exception = (2, 1, True, False)
    start = time.perf_counter()
    mismatches = []
    for m in range(1, 6):
        for n in range(m, 13):
            g = graphs.disjointness_graph(n, m)
            computed = graphs.is_connected(g)
            law = n >= 2 * m + 1 or len(g.vertices) == 1
            if computed != law:
                mismatches.append((n, m, computed, law))
    # the exception, checked without is_connected
    k21 = graphs.disjointness_graph(2, 1)
    single_edge = k21.vertices == ((1,), (2,)) and k21.edges == {((1,), (2,))}
    path_ok = graphs.validate_path(k21, graphs.disjointness_path(2, 1, (1,), (2,)))
    elapsed = time.perf_counter() - start
    ok = mismatches == [exception] and single_edge and path_ok and elapsed < 10
    _line(
        "C1",
        ok,
        f"connectivity vs stated law over 60 sizes, "
        f"mismatches {mismatches}, the one exception (2, 1) where K(2,1) "
        f"is a single edge, {elapsed:.1f}s",
    )
    assert elapsed < 10
    assert mismatches == [exception], (
        f"stated law disagrees with the computed graph at {mismatches}; "
        f"expected only {exception}, where K(2,1) is a single edge"
    )
    assert single_edge, (k21.vertices, k21.edges)
    assert path_ok


def test_c1_disjointness_graph_law_corrected():
    # identical sweep against the law with its lone degenerate point repaired:
    # connected iff n >= 2m+1 or the graph has at most two vertices
    start = time.perf_counter()
    mismatches = []
    for m in range(1, 6):
        for n in range(m, 13):
            g = graphs.disjointness_graph(n, m)
            computed = graphs.is_connected(g)
            law = n >= 2 * m + 1 or len(g.vertices) <= 2
            if computed != law:
                mismatches.append((n, m, computed, law))
    elapsed = time.perf_counter() - start
    _line("C1*", not mismatches, f"corrected law exact over 60 sizes, {elapsed:.1f}s")
    assert not mismatches
    assert elapsed < 10


# -- criterion 2: family axioms at n <= 6 ------------------------------------
# The functoriality check compares two IA words that are equal by
# construction; it can fail only through rank validation at r_J.


def test_c2_ia_axioms():
    start = time.perf_counter()
    report = cli.suite_ia_axioms({"n": 6})
    failures = [(c.name, c.detail) for c in report.checks if not c.passed]
    coverage_ok = all(
        finc.generation_degree_coverage(finc.FIncIA(n)) == 3 for n in (3, 4, 5, 6)
    )
    elapsed = time.perf_counter() - start
    ok = not failures and coverage_ok and elapsed < 60
    _line(
        "C2",
        ok,
        f"functoriality, disjoint commuting, strengthened condition, "
        f"coverage at n=6, {elapsed:.1f}s",
    )
    assert not failures, failures
    assert coverage_ok
    assert elapsed < 60


# -- criterion 3: filtration containment on the commutator family -----------


def test_c3_filtration_containment():
    start = time.perf_counter()
    summaries = []
    for k, budget in ((1, None), (2, 8100), (3, None)):
        report = cli.suite_normal_gens(
            {"k": k, "n": 3 * k, "cutoff": k + 2, "budget": budget, "jobs": 2}
        )
        detail = report.checks[0].detail
        summaries.append(
            f"k={k}: {detail['elements']} elements, "
            f"{len(detail['exceptions'])} exceptions"
        )
        assert report.passed, detail["exceptions"]
    elapsed = time.perf_counter() - start
    ok = elapsed < 600
    _line("C3", ok, "; ".join(summaries) + f", {elapsed:.0f}s")
    assert elapsed < 600


# -- criterion 4: Lie-algebra bookkeeping ------------------------------------


def test_c4_lie_bookkeeping():
    start = time.perf_counter()
    for n in range(1, 5):
        for k in range(1, 7):
            assert len(magnus.hall_basis(n, k)) == magnus.witt_dimension(n, k)
    for k in range(1, 5):
        for t in magnus.hall_basis(3, k):
            assert magnus.lcs_depth(magnus.expand_bracket(t), k + 1) == k
    import random

    rng = random.Random(SEED)
    gens4 = finc.magnus_generators(finc.FIncIA(4))
    for _ in range(60):
        u = autom.ia_word(4, [rng.choice(gens4).gens[0] for _ in range(2)])
        v = autom.ia_word(4, [rng.choice(gens4).gens[0] for _ in range(2)])
        lhs = johnson.tau(autom.compose(u.realized, v.realized))
        assert lhs == johnson.h1_add(johnson.tau(u.realized), johnson.tau(v.realized))
    depth2 = finc.enumerate_normal_generators(finc.FIncIA(6), 2, budget=250)
    for w, _ in depth2:
        assert johnson.tau(w.realized).is_zero()
    elapsed = time.perf_counter() - start
    _line(
        "C4",
        True,
        f"hall==witt (n<=4, k<=6), exact bracket depths, tau additive, "
        f"tau kills {len(depth2)} depth-2 elements, {elapsed:.1f}s",
    )


# -- criterion 5: homology model rank and equivariance -----------------------


def test_c5_h1_model():
    start = time.perf_counter()
    for n, want in ((3, 9), (4, 24)):
        rows = [
            johnson.tau(g.realized).dense()
            for g in finc.magnus_generators(finc.FIncIA(n))
        ]
        assert johnson.rational_rank(rows) == want
    checks = 0
    for n in (2, 3, 4):
        gens = finc.magnus_generators(finc.FIncIA(n))
        taus = [johnson.tau(g.realized) for g in gens]
        lifts = []
        for perm in permutations(range(1, n + 1)):
            for signs in product((1, -1), repeat=n):
                lifts.append(autom.signed_permutation_lift(n, perm, signs))
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    for sign in (1, -1):
                        lifts.append(autom.transvection_lift(n, a, b, sign))
        for lift in lifts:
            m = autom.abelianized_matrix(lift.fwd)
            minv = johnson.mat_inverse_unimodular(m)
            for g, tg in zip(gens, taus):
                checks += 1
                lhs = johnson.tau(lift.conj_endo(g.realized))
                assert lhs == johnson.glnz_action(m, tg, minv), (
                    n,
                    autom.format_ia_word(g),
                )
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    _line(
        "C5",
        ok,
        f"ranks 9 and 24; {checks} equivariance checks at n<=4, {elapsed:.1f}s",
    )
    assert elapsed < 60


# -- criterion 6: criterion-vs-oracle soundness -------------------------------


def test_c6_kmm_soundness():
    start = time.perf_counter()
    violations = []
    graphs_seen = 0
    characters = 0
    certificates = 0
    for v in range(1, 6):
        for graph in bns.all_graphs(v):
            graphs_seen += 1
            sweep = bns.grid_sweep(graph)
            characters += sweep.characters
            certificates += sweep.certificates
            violations.extend(
                (sorted(graph.edges), r.char_values)
                for r in sweep.soundness_violations
            )
    f2 = bns.grid_sweep(bns.raag(2, []))
    elapsed = time.perf_counter() - start
    # the counts of the per-character route over the same grids
    counts = (graphs_seen, characters, certificates, f2.characters, f2.certificates)
    ok = not violations and counts == (1099, 1064409, 541389, 15, 0) and elapsed < 300
    _line(
        "C6",
        ok,
        f"{graphs_seen} graphs, {characters} characters, "
        f"{certificates} certificates, {len(violations)} violations, "
        f"free-pair certificates {f2.certificates}, {elapsed:.0f}s",
    )
    assert not violations
    assert counts == (1099, 1064409, 541389, 15, 0)
    assert elapsed < 300


# -- criterion 7: tilt-search witnesses ---------------------------------------


def test_c7_tilt_search():
    start = time.perf_counter()
    lams = cli.sample_functionals(4, 100, SEED)
    found = 0
    exhausted = []
    for lam in lams:
        result = johnson.tilt_search(lam, 4, 3, 4)
        if not result.found:
            exhausted.append(lam)
            continue
        found += 1
        minv = johnson.mat_inverse_unimodular(result.matrix)
        for idx in combinations(range(1, 5), 3):
            assert any(
                johnson.pairing(lam, johnson.glnz_action(result.matrix, vec, minv))
                != 0
                for vec in johnson.subspace_image_basis(idx, 4)
            ), "returned witness fails re-validation"
    elapsed = time.perf_counter() - start
    ok = found >= 95
    _line(
        "C7",
        ok,
        f"{found}/100 verified witnesses, {len(exhausted)} exhausted "
        f"(reported, not failed), {elapsed:.1f}s",
    )
    assert found >= 95
