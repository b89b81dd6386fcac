from collections import deque
from itertools import combinations

import pytest

from lcsforge.autom import comm_move, conj, ia_word
from lcsforge.finc import FIncIA, magnus_generators
from lcsforge.graphs import (
    connectivity,
    disjointness_connected,
    disjointness_graph,
    disjointness_path,
    expected_disjointness_connectivity,
    is_connected,
    two_step_witness,
    ugraph,
    validate_path,
)


def test_petersen():
    g = disjointness_graph(5, 2)
    assert len(g.vertices) == 10
    assert len(g.edges) == 15
    adj = g.adjacency()
    assert [len(adj[v]) for v in g.vertices] == [3] * 10
    assert is_connected(g)


def test_perfect_matching_case():
    g = disjointness_graph(4, 2)
    assert len(g.vertices) == 6
    assert len(g.edges) == 3
    assert not is_connected(g)
    comps = connectivity(g).components
    assert len(comps) == 3


def test_disjointness_graph_matches_pairwise_set_route():
    # the route the bitmask construction replaced, kept as the reference
    for m in range(1, 6):
        for n in range(m, 13):
            verts = list(combinations(range(1, n + 1), m))
            pairs = [(u, v) for u, v in combinations(verts, 2) if not set(u) & set(v)]
            assert disjointness_graph(n, m) == ugraph(verts, pairs), (n, m)


def test_single_vertex():
    g = disjointness_graph(3, 3)
    assert len(g.vertices) == 1
    assert is_connected(g)


def test_trivial_graphs():
    assert is_connected(ugraph(["a"], []))
    assert not is_connected(ugraph(["a", "b"], []))


def test_ugraph_validation():
    with pytest.raises(ValueError):
        ugraph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        ugraph(["a"], [("a", "b")])


def test_connectivity_truth_table():
    """Ground truth over the full desk range.  The quotable law
    (connected iff n >= 2m+1 or one vertex) holds everywhere except the
    degenerate point (n, m) = (2, 1), where the two 1-subsets are disjoint
    and therefore joined by an edge."""
    for m in range(1, 6):
        for n in range(m, 13):
            g = disjointness_graph(n, m)
            truth = is_connected(g)
            law = expected_disjointness_connectivity(n, m)
            if (n, m) == (2, 1):
                assert truth and not law
            else:
                assert truth == law, (n, m)


def test_bfs_over_complements_matches_edge_list_graph():
    for n in range(1, 13):
        for m in range(1, n + 1):
            want = is_connected(disjointness_graph(n, m))
            assert disjointness_connected(n, m) == want, (n, m)
    for n, m in [(0, 1), (3, 0), (3, 4)]:
        with pytest.raises(ValueError):
            disjointness_connected(n, m)


def test_components_exactly_when_small():
    for m in range(1, 6):
        for n in range(m, 13):
            g = disjointness_graph(n, m)
            if len(g.vertices) > 1 and n <= 2 * m and (n, m) != (2, 1):
                assert not is_connected(g), (n, m)


def test_path_trivial_cases():
    assert disjointness_path(5, 2, (1, 2), (1, 2)) == ((1, 2),)
    assert disjointness_path(5, 2, (1, 2), (3, 4)) == ((1, 2), (3, 4))


def test_path_example_valid():
    g = disjointness_graph(5, 2)
    p = disjointness_path(5, 2, (1, 2), (1, 3))
    assert p[0] == (1, 2) and p[-1] == (1, 3)
    assert validate_path(g, p)


def test_paths_validate_across_range():
    for n, m in [(5, 2), (7, 3), (9, 4)]:
        g = disjointness_graph(n, m)
        verts = list(g.vertices)
        for a, b in combinations(verts[:8], 2):
            p = disjointness_path(n, m, a, b)
            assert validate_path(g, p), (n, m, a, b)
            assert len(p) - 1 <= 4


def _reference_path(g, a, b):
    """BFS over the built graph's sorted adjacency lists, stopping at b: the
    route the BFS over complements replaced, kept as the reference."""
    prev = {a: a}
    queue = deque([a])
    adj = g.adjacency()
    while queue:
        v = queue.popleft()
        if v == b:
            path = [v]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    return None


def test_fallback_paths_match_adjacency_bfs():
    """Every ordered pair of m-subsets that no direct construction joins
    (distinct, intersecting, fewer than m common avoiders), at m <= 3 and
    n <= 8: the same shortest path, or the same refusal."""
    fallbacks = refused = 0
    for m in range(1, 4):
        for n in range(m, 9):
            g = disjointness_graph(n, m)
            for a in g.vertices:
                for b in g.vertices:
                    if a == b or not set(a) & set(b) or n - len(set(a) | set(b)) >= m:
                        continue
                    fallbacks += 1
                    want = _reference_path(g, a, b)
                    if want is None:
                        refused += 1
                        with pytest.raises(ValueError):
                            disjointness_path(n, m, a, b)
                    else:
                        assert disjointness_path(n, m, a, b) == want, (n, m, a, b)
                        assert validate_path(g, want)
    assert fallbacks > refused > 0


def test_path_error_when_disconnected():
    with pytest.raises(ValueError):
        disjointness_path(4, 2, (1, 2), (1, 3))


def test_path_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        disjointness_path(5, 2, (1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        disjointness_path(5, 2, (1, 6), (1, 2))
    # a repeated index makes a tuple of length m that is not an m-subset
    for n, m, a, b in [
        (5, 2, (1, 1), (1, 2)),
        (5, 2, (1, 2), (3, 3)),
        (7, 3, (1, 2, 2), (4, 5, 6)),
    ]:
        with pytest.raises(ValueError, match="endpoints are not m-subsets"):
            disjointness_path(n, m, a, b)


def test_two_step_general_mode():
    n, m, d = 8, 2, 3  # n = 2m + d + 1
    mover = ia_word(n, [comm_move(1, 2, 3)])
    wit = two_step_witness(n, m, d, (1, 2), mover)
    assert wit.ok
    assert set(wit.middle).isdisjoint({1, 2, 3})
    assert len(wit.middle) == m


def test_two_step_exact_counting_bound():
    n, m, d = 7, 2, 3  # n = 2m + d
    mover = ia_word(n, [comm_move(3, 4, 5)])
    wit = two_step_witness(n, m, d, (1, 2), mover)
    assert wit.ok


def test_two_step_strengthened_disjoint():
    n, m, d = 6, 2, 3  # n = 2m + d - 1
    mover = ia_word(n, [comm_move(3, 4, 5)])
    wit = two_step_witness(n, m, d, (1, 2), mover, strengthened=True)
    assert wit.ok
    assert set(wit.middle).isdisjoint({1, 2})


def test_two_step_strengthened_overlapping():
    n, m, d = 6, 2, 3
    mover = ia_word(n, [comm_move(2, 3, 4)])  # support meets the basepoint
    wit = two_step_witness(n, m, d, (1, 2), mover, strengthened=True)
    assert wit.ok
    assert set(wit.middle).isdisjoint({1, 2, 3, 4})


def test_two_step_mode_errors():
    mover = ia_word(6, [conj(1, 2)])
    with pytest.raises(ValueError):
        two_step_witness(6, 2, 3, (1, 2), mover)  # general mode needs n >= 7
    with pytest.raises(ValueError):
        two_step_witness(6, 2, 3, (2, 3), mover, strengthened=True)


def test_two_step_exhaustive_small_ranks():
    """Every witness validates under genuine composition checks, over all
    Magnus generators as movers: strengthened mode at n = 2m+2, general mode
    at n = 2m+3, for m <= 2."""
    for m in (1, 2):
        base = tuple(range(1, m + 1))
        n = 2 * m + 2
        for mover in magnus_generators(FIncIA(n)):
            wit = two_step_witness(n, m, 3, base, mover, strengthened=True)
            assert wit.ok, (n, m, mover)
        n = 2 * m + 3
        for mover in magnus_generators(FIncIA(n)):
            wit = two_step_witness(n, m, 3, base, mover)
            assert wit.ok, (n, m, mover)
