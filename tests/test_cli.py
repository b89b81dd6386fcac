import gc
import json
import random
import warnings
from itertools import combinations

import pytest

from lcsforge import autom, bns, cli, finc, graphs, johnson, magnus
from lcsforge.cli import main, run_suite
from lcsforge.words import Word


def strip_times(payload):
    for check in payload["checks"]:
        check.pop("time_ms")
    return payload


def test_depth_suite():
    report = run_suite("depth", {"word": "x1.x2.X1.X2", "cutoff": 4})
    assert report.passed
    assert report.checks[0].detail["depth"] == "2"


def test_depth_reports_beyond_cutoff():
    report = run_suite("depth", {"word": "e", "cutoff": 4})
    assert report.checks[0].detail["depth"] == ">= 4"


def test_kneser_suite_reports_known_mismatch():
    report = run_suite("kneser", {"max_n": 12, "max_m": 2})
    by_name = {c.name: c for c in report.checks}
    # the quotable law breaks only at the degenerate point (2, 1)
    assert not by_name["law-m1"].passed
    assert by_name["law-m1"].detail["mismatches"] == [
        {"n": 2, "m": 1, "connected": True, "law": False}
    ]
    assert by_name["law-m2"].passed


def test_ia_axioms_suite():
    report = run_suite("ia-axioms", {"n": 4})
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "functoriality",
        "disjoint-commuting",
        "condition-eii",
        "coverage-degree",
    }
    commuting = next(c for c in report.checks if c.name == "disjoint-commuting")
    assert commuting.detail["generator_pairs"] == 12


def test_ia_axioms_decides_each_disjoint_generator_pair_once(monkeypatch):
    real_commute = finc.commute
    seen = []

    def counted(u, v):
        seen.append(frozenset((finc.format_token(u), finc.format_token(v))))
        return real_commute(u, v)

    monkeypatch.setattr(finc, "commute", counted)
    report = cli.suite_ia_axioms({"n": 6})
    assert report.passed
    commuting = next(c for c in report.checks if c.name == "disjoint-commuting")
    assert commuting.detail["generator_pairs"] == 630
    assert len(seen) == len(set(seen)) == 630


def test_ia_axioms_pair_verdicts_match_per_subset_tables(monkeypatch):
    real_commute = finc.commute
    # M[1,2,3] comes after K[4,5] among the generators, but its support holds
    # the smallest index, so every failing subset pair lists it first
    broken = frozenset(("K[4,5]", "M[1,2,3]"))

    def commute(u, v):
        if frozenset((finc.format_token(u), finc.format_token(v))) == broken:
            return False
        return real_commute(u, v)

    monkeypatch.setattr(finc, "commute", commute)
    family = finc.FIncIA(6)
    want = []
    for left, right in cli._disjoint_subset_pairs(6):
        wit = finc.check_commuting(family, left, right)
        if not wit.ok:
            want.append(
                {"left": list(left), "right": list(right), "pairs": wit.counterexamples()}
            )
    assert {tuple(p) for f in want for p in f["pairs"]} == {("M[1,2,3]", "K[4,5]")}
    # index 6 goes left, right or nowhere
    assert len(want) == 3
    checks = {c.name: c for c in cli.suite_ia_axioms({"n": 6}).checks}
    commuting = checks["disjoint-commuting"]
    assert not commuting.passed
    assert commuting.detail["failures"] == want
    assert commuting.detail["pairs"] == 301
    # only {1, 2, 3} against {4, 5, 6} holds both supports
    eii = checks["condition-eii"]
    assert not eii.passed
    assert eii.detail["by_m"] == {"1": True, "2": True, "3": False}


def test_ia_axioms_functoriality_catches_rank_dependent_realization(monkeypatch):
    # IAWord.realized builds its endomorphism through FreeEndo._of
    real_of = autom.FreeEndo._of

    def leaky(rank, images):
        # from rank 5 on, every realization also moves x_rank to x_rank x_1
        if rank >= 5:
            images = {rank: Word((rank, 1)), **images}
        return real_of(rank, images)

    monkeypatch.setattr(autom.FreeEndo, "_of", staticmethod(leaky))
    report = cli.suite_ia_axioms({"n": 6})
    check = next(c for c in report.checks if c.name == "functoriality")
    assert not check.passed
    assert check.detail["chains"] == 4096
    assert {r for _, r in check.detail["failures"]} == {5, 6}


def test_unchecked_constructors_match_validating_ones(monkeypatch):
    """With Word._of, FreeEndo._of and IAWord._of routed through the
    validating constructors, the suites raise nothing and report exactly
    what they report with the unchecked ones."""
    calls = [
        ("normal-gens", {"k": 2, "n": 6, "budget": 300}),
        ("ia-axioms", {"n": 6}),
        ("johnson", {"n": 3, "budget": 2, "seed": 7}),
    ]
    unchecked = [strip_times(run_suite(name, p).to_json()) for name, p in calls]
    used = set()

    def checked(cls, build):
        def of(*args):
            used.add(cls)
            return build(*args)

        monkeypatch.setattr(cls, "_of", staticmethod(of))

    checked(Word, Word)
    checked(autom.FreeEndo, autom.free_endo)
    checked(autom.IAWord, autom.IAWord)
    validated = [strip_times(run_suite(name, p).to_json()) for name, p in calls]
    assert used == {Word, autom.FreeEndo, autom.IAWord}
    assert validated == unchecked


def test_revalidate_tilt_matches_per_vector_action():
    """One action kernel per witness gives the verdicts of one glnz_action
    call per basis vector: on the n = 4, seed 1 sample with its found
    witnesses, and on seeded sparse functionals against products of
    elementary matrices, which tilt some of them only."""
    n, s = 4, 3

    def per_vector(lam, m):
        minv = johnson.mat_inverse_unimodular(m)
        return all(
            any(
                johnson.pairing(lam, johnson.glnz_action(m, vec, minv)) != 0
                for vec in johnson.subspace_image_basis(idx, n)
            )
            for idx in combinations(range(1, n + 1), s)
        )

    results = [
        (lam, johnson.tilt_search(lam, n, s, 4))
        for lam in cli.sample_functionals(n, 100, 1)
    ]
    rng = random.Random(1)
    keys = johnson.h1_basis_keys(n)
    for _ in range(100):
        coords = {k: rng.choice((1, -1, 2)) for k in rng.sample(keys, rng.randint(1, 4))}
        m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(1, n + 1), 2)
            m = johnson.mat_mul(m, johnson.elementary_matrix(n, i, j, rng.choice((1, -1))))
        results.append((johnson.h1_functional(n, coords), johnson.TiltResult(True, matrix=m)))
    verdicts = [cli._revalidate_tilt(lam, res, n, s) for lam, res in results]
    assert verdicts == [
        res.found and per_vector(lam, res.matrix) for lam, res in results
    ]
    assert all(verdicts[:100])
    assert sum(verdicts[100:]) == 44


def test_johnson_suite_small():
    report = run_suite("johnson", {"n": 3, "budget": 2, "seed": 7})
    assert report.passed, [
        (c.name, c.detail) for c in report.checks if not c.passed
    ]
    detail = {c.name: c.detail for c in report.checks}
    assert detail["equivariance-signed-perms"]["checks"] == 432
    assert detail["equivariance-signed-perms"]["conjugates"] == 60
    assert detail["equivariance-transvections"]["checks"] == 108
    assert detail["equivariance-transvections"]["conjugates"] == 81


def test_johnson_equivariance_computes_tau_once_per_conjugate(monkeypatch):
    """In one n = 4 suite run the two equivariance checks call tau 216 and
    378 times, once per distinct conjugate, for 9216 and 576 pairs."""
    calls = []
    tau = johnson.tau
    monkeypatch.setattr(johnson, "tau", lambda phi: calls.append(phi) or tau(phi))
    per_check = []
    failures = johnson.equivariance_failures

    def counted(lifts, pairs):
        before = len(calls)
        out = failures(lifts, pairs)
        per_check.append(len(calls) - before)
        return out

    monkeypatch.setattr(johnson, "equivariance_failures", counted)
    report = run_suite("johnson", {"n": 4, "budget": 1, "seed": 0})
    detail = {c.name: c.detail for c in report.checks}
    assert per_check == [216, 378]
    for name, checks, conjugates in (
        ("equivariance-signed-perms", 9216, 216),
        ("equivariance-transvections", 576, 378),
    ):
        assert detail[name]["checks"] == checks
        assert detail[name]["failures"] == 0
        assert detail[name]["conjugates"] == conjugates


def test_normal_gens_suite():
    report = run_suite("normal-gens", {"k": 1, "n": 3, "budget": None})
    assert report.passed
    assert report.checks[0].detail["elements"] == 9


def test_normal_gens_exceptions(monkeypatch):
    cases = [
        # all 90 single Magnus generators have level 1, below 2
        (2, 6, finc.enumerate_normal_generators(finc.FIncIA(6), 1), 90),
        # of 50 2-fold commutators, the 48 of level 2 fail at k = 3 and the
        # 2 of level 3 pass
        (3, 9, finc.enumerate_normal_generators(finc.FIncIA(9), 2, 120), 48),
    ]
    for k, n, elements, failing in cases:
        monkeypatch.setattr(
            finc, "enumerate_normal_generators", lambda *args, elements=elements: elements
        )
        words = {finc.format_token(w): w for w in elements}
        levels = {t: magnus.johnson_level(w, k + 2) for t, w in words.items()}
        below = sorted(t for t, level in levels.items() if level is not None and level < k)
        assert len(below) == failing, k
        report = run_suite("normal-gens", {"k": k, "n": n, "budget": None})
        detail = report.checks[0].detail
        assert not report.passed
        assert detail["elements"] == len(elements)
        assert [e["element"] for e in detail["exceptions"]] == below
        for e in detail["exceptions"]:
            assert e["level"] == levels[e["element"]]
            completion = e["completion"]
            assert len(completion) == len(set(completion)) == 3 * k
            assert all(1 <= i <= n for i in completion)
            assert words[e["element"]].ia_support() <= set(completion)


def test_kmm_raag_graph_file(tmp_path):
    path = tmp_path / "cycle.graph"
    path.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_suite("kmm-raag", {"graph": str(path)})
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert report.passed
    detail = report.checks[0].detail
    assert detail["characters"] == 255
    # living-subgraph criterion on the 4-cycle: adjacent pairs, triples and
    # all four vertices are connected and dominating, each live vertex takes
    # one of 3 nonzero values: 4 * 3**2 + 4 * 3**3 + 3**4 = 225.  Opposite
    # pairs and single vertices fail.
    assert detail["certificates"] == 225
    assert detail["oracle_true_kmm_fail"] == 0
    assert detail["violations"] == []


def test_kmm_raag_small_vertex_sweep():
    report = run_suite("kmm-raag", {"graph": None, "max_n": 3})
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["f2-edgeless"].detail["certificates"] == 0


def test_kmm_raag_cost_guard(tmp_path, capsys, monkeypatch):
    forced = run_suite("kmm-raag", {"graph": None, "max_n": 1, "force": True})
    assert forced.parameters == {"graph": None, "max_n": 1}

    class Started(Exception):
        pass

    def sweep(graph, chars):
        raise Started

    monkeypatch.setattr(bns, "soundness_sweep", sweep)
    # 4**11 and sum(2**(v(v-1)/2) * 4**v, v <= 5) characters are admitted,
    # 4**12 and the same sum to v = 6 are not; the sum and the power are
    # capped at 64 vertices, so a huge --max-n or vertex count is refused
    # without computing either in full
    cases = [
        (["kmm-raag", "--max-n", "5"], True),
        (["kmm-raag", "--max-n", "6"], False),
        (["kmm-raag", "--max-n", str(10**9)], False),
    ]
    for n in (11, 12):
        path = tmp_path / f"path{n}.graph"
        path.write_text(f"{n}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n)))
        cases.append((["kmm-raag", "--graph", str(path)], n == 11))
    huge = tmp_path / "edgeless.graph"
    huge.write_text(f"{10**8}\n")
    cases.append((["kmm-raag", "--graph", str(huge)], False))
    for argv, admitted in cases:
        if admitted:
            with pytest.raises(Started):
                main(argv)
        else:
            assert main(argv) == 2
            assert "--force" in capsys.readouterr().err
            with pytest.raises(Started):
                main(argv + ["--force"])


def test_refusal_far_above_bound_is_short(capsys, monkeypatch):
    class Started(Exception):
        pass

    def work(*args):
        raise Started

    monkeypatch.setattr(finc, "magnus_generators", work)
    monkeypatch.setattr(bns, "grid_sweep", work)
    # a 116-digit pair count and a 646-digit character count are printed as
    # over 10 x bound; 8308825 matrices, within 10 x 10**6, in full
    cases = [
        (["johnson", "--n", "300"], "estimates over 10000000 lift/generator pairs"),
        (["kmm-raag", "--max-n", "200"], "estimates over 100000000 characters"),
        (["johnson", "--n", "4", "--budget", "5"], "estimates 8308825 tilt matrices"),
    ]
    for argv, shown in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err and "--force" in err, err
        assert len(err) < 120, err


def test_normal_gens_k_below_one_refused(capsys, monkeypatch):
    class Started(Exception):
        pass

    def enumerate_gens(*args, **kwargs):
        raise Started

    monkeypatch.setattr(finc, "enumerate_normal_generators", enumerate_gens)
    for k in (0, -1):
        assert main(["normal-gens", "--k", str(k)]) == 2, k
        assert f"error: normal-gens needs k >= 1, got {k}" in capsys.readouterr().err
    with pytest.raises(Started):
        main(["normal-gens", "--k", "1"])


def test_normal_gens_has_no_cutoff(tmp_path, capsys):
    for option, value in (("--cutoff", "4"), ("--jobs", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["normal-gens", "--k", "1", option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
    path = tmp_path / "report.json"
    assert main(["normal-gens", "--k", "1", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["parameters"] == {"budget": None, "k": 1, "n": 0}
    assert "cutoff" not in report["checks"][0]["detail"]["summary"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", {})


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["depth", "--word", "x1.x2.X1.X2", "--cutoff", "4"]) == 0
    out = capsys.readouterr().out
    assert "depth 2" in out
    # the kneser law check fails at its known degenerate point
    assert main(["kneser", "--max-n", "3", "--max-m", "1"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-suite"])
    assert exc.value.code == 2
    assert main(["kmm-raag", "--graph", str(tmp_path / "missing.graph")]) == 2
    for argv in (
        ["normal-gens", "--k", "1", "--budget", "0"],
        ["normal-gens", "--k", "1", "--budget", "-1"],
        ["johnson", "--n", "1"],
        ["johnson", "--n", "2", "--budget", "-1"],
    ):
        assert main(argv) == 2, argv
        assert "error: " in capsys.readouterr().err
    monkeypatch.setenv("LCSFORGE_SEED", "abc")
    assert main(["johnson", "--n", "2", "--budget", "1"]) == 2
    assert "error: LCSFORGE_SEED must be an integer" in capsys.readouterr().err


def test_unwritable_json_report_is_a_usage_error(tmp_path, capsys):
    """The suite runs and prints its report; the write that fails exits 2,
    not 1, which would claim a failed check."""
    path = tmp_path / "missing" / "r.json"
    assert main(["depth", "--word", "x1.x2", "--cutoff", "3", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert "status: pass" in captured.out
    assert captured.err.startswith("error: ")
    assert not path.exists()


def test_ranges_without_sizes_rejected(capsys, tmp_path):
    for argv in (
        ["kneser", "--max-m", "0"],
        ["kneser", "--max-n", "0", "--max-m", "2"],
        ["kneser", "--max-n", "3", "--max-m", "4"],
        ["kmm-raag", "--max-n", "0"],
        ["kmm-raag", "--max-n", "-1"],
    ):
        assert main(argv) == 2, argv
        assert "error: " in capsys.readouterr().err
    for count in ("0", "-1"):
        graph = tmp_path / f"g{count}.txt"
        graph.write_text(f"{count}\n")
        assert main(["kmm-raag", "--graph", str(graph)]) == 2, count
        err = capsys.readouterr().err
        assert "error: " in err and "vertex count" in err, err


def test_malformed_graph_file_names_the_line(capsys, tmp_path):
    graph = tmp_path / "bad.graph"
    graph.write_text("3\n1 2\n1 2 3\n")
    assert main(["kmm-raag", "--graph", str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: expected an edge `u v`, got '1 2 3'\n"
    assert not captured.out


def test_ia_axioms_trivial_rank(tmp_path):
    out = tmp_path / "n1.json"
    assert main(["ia-axioms", "--n", "1", "--json", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["coverage-degree"]["detail"]["expected"] == 0
    assert checks["coverage-degree"]["detail"]["degree"] == 0


def test_json_report_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["ia-axioms", "--n", "3", "--json", str(out1)]) == 0
    assert main(["ia-axioms", "--n", "3", "--json", str(out2)]) == 0
    a = strip_times(json.loads(out1.read_text()))
    b = strip_times(json.loads(out2.read_text()))
    assert a == b
    assert a["schema"] == 1
    assert a["status"] == "pass"
    assert [c["name"] for c in a["checks"]] == sorted(
        c["name"] for c in a["checks"]
    )


def test_depth_cost_guard(capsys, monkeypatch, tmp_path):
    path = tmp_path / "depth.json"
    assert main(["depth", "--word", "x1.x2.X1.X2", "--cutoff", "4", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["parameters"] == {"word": "x1.x2.X1.X2", "cutoff": 4}
    forced = run_suite("depth", {"word": "x1.x2.X1.X2", "cutoff": 4, "force": True})
    assert forced.parameters == {"word": "x1.x2.X1.X2", "cutoff": 4}

    class Started(Exception):
        pass

    def depth(w, cutoff):
        raise Started

    monkeypatch.setattr(magnus, "lcs_depth", depth)
    ten = ".".join(f"x{i}" for i in range(1, 11))
    sixty = ".".join(["x1", "x2", "X3"] * 20)
    thirty_seven = ".".join((["x1", "x2", "X3"] * 13)[:37])
    # sum of n^i over i <= cutoff for support size n: 3 letters to degree 12
    # is 797161 monomials and to 13 is 2391484; 10 letters to degree 5 is
    # 111111 and to 6 is 1111111; one letter to degree c is c + 1.  Letters
    # times monomials: 60 letters on 3 generators to degree 11 is 60 * 265720
    # = 15943200, above 10**7, and 37 letters is 9831640
    cases = [
        ("x1.x2.X3", 12, True),
        ("x1.x2.X3", 13, False),
        (ten, 5, True),
        (ten, 6, False),
        ("X1", 10**6 - 1, True),
        ("X1", 10**6, False),
        ("e", 10**9, True),
        (thirty_seven, 11, True),
        (sixty, 11, False),
    ]
    for text, cutoff, admitted in cases:
        argv = ["depth", "--word", text, "--cutoff", str(cutoff)]
        if admitted:
            with pytest.raises(Started):
                main(argv)
        else:
            assert main(argv) == 2
            assert "--force" in capsys.readouterr().err
            with pytest.raises(Started):
                main(argv + ["--force"])
    assert main(["depth", "--word", "x1", "--cutoff", "1"]) == 2
    assert "cutoff >= 2" in capsys.readouterr().err


def test_johnson_cost_guard(capsys, monkeypatch):
    forced = run_suite("johnson", {"n": 2, "budget": 1, "seed": 0, "force": True})
    assert forced.parameters == {"n": 2, "budget": 1, "seed": 0}

    class Started(Exception):
        pass

    def generators(family):
        raise Started

    monkeypatch.setattr(finc, "magnus_generators", generators)
    # lift/generator pairs (2^n n! + 2n(n-1)) * n^2(n-1)/2: 9792 at n = 4,
    # 194000 at n = 5, 4152600 at n = 6; tilt matrices sum of (2n(n-1))^d
    # over d <= budget: 346201 at n = 4, budget 4 and 8308825 at budget 5;
    # 271453 and 3257437 at n = 3, budgets 5 and 6
    cases = [
        (4, 4, True),
        (5, 3, True),
        (3, 5, True),
        (3, 6, False),
        (2, 8, True),
        (6, 0, False),
        (4, 5, False),
        (5, 4, False),
        (10**6, 0, False),
        (2, 10**9, False),
    ]
    for n, budget, admitted in cases:
        argv = ["johnson", "--n", str(n), "--budget", str(budget)]
        if admitted:
            with pytest.raises(Started):
                main(argv)
        else:
            assert main(argv) == 2
            assert "--force" in capsys.readouterr().err
            with pytest.raises(Started):
                main(argv + ["--force"])


def test_kneser_and_ia_axioms_cost_guards(capsys, monkeypatch):
    forced = run_suite("kneser", {"max_n": 3, "max_m": 1, "force": True})
    assert forced.parameters == {"max_n": 3, "max_m": 1}
    forced = run_suite("ia-axioms", {"n": 2, "force": True})
    assert forced.parameters == {"n": 2}

    class Started(Exception):
        pass

    def work(*args):
        raise Started

    monkeypatch.setattr(graphs, "disjointness_connected", work)
    monkeypatch.setattr(finc, "check_functoriality", work)
    # neighbour visits, the sum of C(n, m) C(n - m, m): 112320 at the
    # defaults, 7447020 at (16, 6), 20029400 at (17, 6), 51662558 at
    # (18, 6); m = 1 alone passes 10 x bound near n = 670.  Subset
    # assignments plus generator pairs, 3^n + (n^2(n-1)/2)^2: 8829 at n = 6,
    # 543172 at n = 11, 1158705 at n = 12
    cases = [
        (["kneser"], True),
        (["kneser", "--max-n", "16", "--max-m", "6"], True),
        (["kneser", "--max-n", "17", "--max-m", "6"], False),
        (["kneser", "--max-n", "18", "--max-m", "6"], False),
        (["kneser", "--max-n", str(10**9), "--max-m", "1"], False),
        (["ia-axioms"], True),
        (["ia-axioms", "--n", "11"], True),
        (["ia-axioms", "--n", "12"], False),
        (["ia-axioms", "--n", str(10**6)], False),
    ]
    for argv, admitted in cases:
        if admitted:
            with pytest.raises(Started):
                main(argv)
        else:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "--force" in err, err
            with pytest.raises(Started):
                main(argv + ["--force"])
    assert main(["kneser", "--max-n", str(10**9), "--max-m", "1"]) == 2
    assert "estimates over 100000000 neighbour visits" in capsys.readouterr().err
