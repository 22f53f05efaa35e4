import io
import pickle
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from indpoly.graphs import (
    FAMILIES,
    CapacityError,
    FamilySpec,
    Graph,
    GraphError,
    GraphParseError,
    _min_maximal_independent,
    alpha,
    build_family,
    components,
    delete_closed_neighborhood,
    delete_vertex,
    emit_graph6,
    induced_subgraph,
    is_claw_free,
    is_well_covered,
    parse_edge_list,
    parse_graph6,
    prufer_decode,
    tree_canonical_code,
)


def test_graph_and_family_spec_are_values():
    g = Graph.from_edges(3, [(0, 1)])
    same = Graph(3, (2, 1, 0))
    assert g == same and hash(g) == hash(same)
    assert g != Graph.from_edges(3, [(1, 2)])
    assert repr(g) == "Graph(n=3, adj=(2, 1, 0))"
    assert pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(AttributeError):
        g.n = 4

    spec = FamilySpec("path", (4,))
    same = FamilySpec("path", ["4"])  # params are coerced to a tuple of ints
    assert spec == same and hash(spec) == hash(same) and same.params == (4,)
    assert spec != FamilySpec("path", (5,)) and spec != FamilySpec("cycle", (4,))
    assert repr(spec) == "FamilySpec(kind='path', params=(4,))"
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(AttributeError):
        spec.kind = "cycle"
    with pytest.raises(GraphError):
        FamilySpec("bogus")
    with pytest.raises(GraphError):
        FamilySpec("path", (-1,))


def check_invariants(g: Graph):
    assert len(g.adj) == g.n
    for v in range(g.n):
        assert not (g.adj[v] >> v) & 1, "loop"
        assert g.adj[v] < (1 << g.n), "edge out of range"
        for w in range(g.n):
            assert g.has_edge(v, w) == g.has_edge(w, v), "asymmetric"
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_parse_edge_list_examples():
    k2 = parse_edge_list("2 1\n0 1")
    assert k2.n == 2 and k2.edge_count() == 1
    c4 = parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0")
    assert c4.n == 4 and all(c4.degree(v) == 2 for v in range(4))
    k1 = parse_edge_list("1 0")
    assert k1.n == 1 and k1.edge_count() == 0


def test_parse_edge_list_comments_and_duplicates():
    g = parse_edge_list("# header comment\n3 2\n0 1\n\n# mid comment\n0 1\n")
    assert g.edge_count() == 1  # duplicate edge is idempotent
    assert g.n == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nonsense", "line 1"),
        ("2", "line 1"),
        ("2 1\n0 5", "line 2"),
        ("2 1\n0 0", "loop"),
        ("65 0", "exceeds"),
        ("2 1\n0 1\n1 0\n", "line 3"),
        ("3 2\n0 1", "expected 2 edges"),
        ("2 1\na b", "line 2"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    # a well-formed header over the cap is a capacity error, not a parse error
    error = CapacityError if fragment == "exceeds" else GraphParseError
    with pytest.raises(error, match=fragment):
        parse_edge_list(text)


def test_parse_edge_list_streams_lines():
    def lines():
        yield from ("2 1", "0 1", "0 1")
        raise AssertionError("line 4 pulled")

    with pytest.raises(GraphParseError, match="line 3: more than 1 edge lines"):
        parse_edge_list(lines())


def test_parse_edge_list_refuses_over_cap_at_the_header():
    def lines():
        yield from ("# 65 vertices", "65 1")
        raise AssertionError("line after the header pulled")

    with pytest.raises(CapacityError, match="line 2: .*exceeds the cap of 64"):
        parse_edge_list(lines())


def test_parse_edge_list_memory_is_bounded_by_n(tmp_path):
    # the header's m is unbounded and duplicate lines are allowed, so a
    # parser holding the edges would grow with the file; rows do not
    path = tmp_path / "long.txt"
    path.write_text("2 200000\n" + "0 1\n" * 200_000)
    tracemalloc.start()
    try:
        with open(path) as handle:
            g = parse_edge_list(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == Graph.from_edges(2, [(0, 1)])
    assert peak < 1_000_000


def test_parse_edge_list_string_is_read_lazily():
    # a string is split into lines one at a time, not all at once
    text = "2 100000\r\n" + "0 1\r\n" * 100_000
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == Graph.from_edges(2, [(0, 1)])
    assert peak < 1_000_000


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
def test_parse_edge_list_string_line_endings(sep):
    lines = ["# path", "3 2", "", "0 1", "1 2"]
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert parse_edge_list(sep.join(lines)) == path
    assert parse_edge_list(sep.join(lines) + sep) == path
    lines[-1] = "1 7"
    with pytest.raises(GraphParseError, match="line 5: vertex index out of range"):
        parse_edge_list(sep.join(lines))
    # mixed separators: "\r\r" leaves a blank line 3
    with pytest.raises(GraphParseError, match="line 4: more than 1 edge lines"):
        parse_edge_list("2 1\r\n0 1\r\r0 1\n")


def _parse_outcome(source):
    try:
        return parse_edge_list(source)
    except GraphError as exc:
        return type(exc), str(exc)


@given(st.lists(st.sampled_from(["0", "1", " ", "#", "\n", "\r", "\r\n"]), max_size=40))
@settings(deadline=None, max_examples=300)
def test_parse_edge_list_string_splits_lines_as_text_mode(pieces):
    # a string gives the same graph, or the same error at the same line, as
    # its text read through Python's own text-mode line splitting
    text = "".join(pieces)
    assert _parse_outcome(text) == _parse_outcome(io.StringIO(text, newline=None))


def test_edge_list_roundtrip_random():
    rng = random.Random(11)
    for _ in range(1000):
        g = helpers.random_graph(rng, rng.randint(0, 20), rng.random())
        text = f"{g.n} {g.edge_count()}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_list(text) == g


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_parse_graph6_examples():
    # hand-decoded per the 6-bit column-major layout
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count() == 6
    empty = parse_graph6("?")
    assert empty.n == 0
    p3 = parse_graph6("Bg")
    assert p3.n == 3 and p3.edges() == [(0, 1), (1, 2)]


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<A_").n == 2


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("", "empty"),
        ("A_garbage", "trailing"),
        ("C", "too short"),
        ("A" + chr(30), "out of range"),
        ("~~~AAAA", "too large"),
        # one character past the 340 of a 64-vertex graph (long size form)
        ("~?@?" + "?" * 337, "trailing"),
    ],
)
def test_parse_graph6_errors(line, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_graph6(line)


def test_graph6_size_cap():
    with pytest.raises(CapacityError, match="exceeds the cap of 64"):
        parse_graph6("~?@}")  # long-form size field encoding 126 vertices


@pytest.mark.parametrize(
    "size, error, fragment",
    [
        ("~?@?", GraphParseError, "trailing"),  # 64 vertices
        ("~?@@", CapacityError, "exceeds the cap of 64"),  # 65 vertices
    ],
)
def test_graph6_long_string_refused_before_its_body_is_read(size, error, fragment):
    # the size field fixes the exact length, so a long string costs nothing
    line = size + "?" * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(error, match=fragment):
            parse_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_graph6_roundtrip_random():
    rng = random.Random(22)
    for _ in range(1000):
        g = helpers.random_graph(rng, rng.randint(0, 24), rng.random())
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_roundtrip_long_form():
    rng = random.Random(33)
    for n in (63, 64):
        g = helpers.random_graph(rng, n, 0.2)
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_family_pendant_ladder_bases():
    g0 = build_family(FamilySpec("pendant_ladder_g", (0,)))
    assert g0.n == 1 and g0.edge_count() == 0
    g1 = build_family(FamilySpec("pendant_ladder_g", (1,)))
    p3 = build_family(FamilySpec("path", (3,)))
    assert tree_canonical_code(g1) == tree_canonical_code(p3)  # G_1 = K_{1,2}


def test_family_ladder():
    h3 = build_family(FamilySpec("ladder_h", (3,)))
    assert h3.n == 6 and h3.edge_count() == 7
    assert build_family(FamilySpec("ladder_h", (0,))).n == 0
    h1 = build_family(FamilySpec("ladder_h", (1,)))
    assert h1.n == 2 and h1.edge_count() == 1  # H_1 = K_2


def test_family_multipartite():
    k23 = build_family(FamilySpec("complete_multipartite", (2, 3)))
    assert k23.n == 5 and k23.edge_count() == 6
    with pytest.raises(GraphError):
        build_family(FamilySpec("complete_multipartite", ()))


def test_family_misc():
    assert build_family(FamilySpec("star", (3,))).n == 4
    assert build_family(FamilySpec("complete", (4,))).edge_count() == 6
    assert build_family(FamilySpec("empty", (5,))).edge_count() == 0
    with pytest.raises(GraphError):
        build_family(FamilySpec("cycle", (2,)))
    with pytest.raises(GraphError):
        FamilySpec("no_such_family", ())


def test_family_reference_trees():
    t = build_family(FamilySpec("tree_t"))
    assert t.n == 5 and t.edge_count() == 4
    assert sorted(t.degree(v) for v in range(5)) == [1, 1, 1, 2, 3]
    t1 = build_family(FamilySpec("tree_t1"))
    assert t1.n == 6 and t1.edge_count() == 5
    assert sorted(t1.degree(v) for v in range(6)) == [1, 1, 1, 2, 2, 3]
    # both contain an induced claw, which is their whole point
    assert not is_claw_free(t) and not is_claw_free(t1)


# ---------------------------------------------------------------------------
# deletion and components
# ---------------------------------------------------------------------------


def test_delete_vertex_examples():
    p3 = build_family(FamilySpec("path", (3,)))
    g = delete_vertex(p3, 1)
    assert g.n == 2 and g.edge_count() == 0
    k4 = build_family(FamilySpec("complete", (4,)))
    assert delete_closed_neighborhood(k4, 2).n == 0
    with pytest.raises(GraphError):
        delete_vertex(p3, 3)


def test_delete_two_ways_agree():
    rng = random.Random(5)
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(2, 12), rng.random())
        u, v = rng.sample(range(g.n), 2)
        lo, hi = min(u, v), max(u, v)
        via_deletes = delete_vertex(delete_vertex(g, hi), lo)
        via_mask = induced_subgraph(g, g.full_mask & ~(1 << u) & ~(1 << v))
        assert via_deletes == via_mask


def test_components():
    k4 = build_family(FamilySpec("complete", (4,)))
    from indpoly.products import disjoint_union

    three_k4 = disjoint_union(disjoint_union(k4, k4), k4)
    comps = components(three_k4)
    assert len(comps) == 3 and all(c.bit_count() == 4 for c in comps)
    assert len(components(build_family(FamilySpec("cycle", (5,))))) == 1
    assert components(build_family(FamilySpec("empty", (3,)))) == [1, 2, 4]


@given(st.integers(0, 10 ** 9), st.integers(2, 10), st.integers(0, 100))
@settings(deadline=None, max_examples=150)
def test_op_outputs_keep_invariants(seed, n, pct):
    rng = random.Random(seed)
    g = helpers.random_graph(rng, n, pct / 100)
    check_invariants(g)
    check_invariants(delete_vertex(g, rng.randrange(n)))
    check_invariants(delete_closed_neighborhood(g, rng.randrange(n)))
    check_invariants(induced_subgraph(g, rng.randrange(1 << n)))


# ---------------------------------------------------------------------------
# alpha / well-covered / claw-free
# ---------------------------------------------------------------------------


def _alpha_brute(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def test_alpha_examples():
    assert alpha(build_family(FamilySpec("star", (3,)))) == 3
    assert alpha(build_family(FamilySpec("complete", (4,)))) == 1
    for n in range(0, 7):
        g = build_family(FamilySpec("pendant_ladder_g", (n,)))
        assert alpha(g) == n + 1


def test_alpha_matches_subset_enumeration():
    rng = random.Random(99)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 10), rng.random())
        assert alpha(g) == _alpha_brute(g)


def _maximal_set_sizes(g: Graph) -> set[int]:
    sizes = set()
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if g.adj[v] & mask:
                ok = False
                break
        if not ok:
            continue
        # maximal iff no vertex outside is addable
        addable = False
        for v in range(g.n):
            if not (mask >> v) & 1 and not (g.adj[v] & mask):
                addable = True
                break
        if not addable:
            sizes.add(mask.bit_count())
    return sizes


def test_is_well_covered_examples():
    assert is_well_covered(build_family(FamilySpec("cycle", (4,))))
    assert not is_well_covered(build_family(FamilySpec("path", (3,))))


def test_is_well_covered_matches_maximal_enumeration():
    rng = random.Random(123)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 9), rng.random())
        sizes = _maximal_set_sizes(g)
        assert is_well_covered(g) == (len(sizes) == 1)
        assert _min_maximal_independent(g) == min(sizes)
    empty = Graph.from_edges(0, [])
    assert alpha(empty) == 0 and _min_maximal_independent(empty) == 0


def test_pendant_doubling_is_well_covered():
    from indpoly.products import rooted_product

    rng = random.Random(314)
    k2 = build_family(FamilySpec("path", (2,)))
    for _ in range(25):
        g = helpers.random_graph(rng, rng.randint(1, 10), rng.random())
        assert is_well_covered(rooted_product(g, k2, 0))


def test_is_claw_free():
    assert not is_claw_free(build_family(FamilySpec("star", (3,))))
    assert is_claw_free(build_family(FamilySpec("cycle", (5,))))
    for k in range(1, 9):
        assert is_claw_free(build_family(FamilySpec("path", (k,))))


def _has_claw_brute(g: Graph) -> bool:
    from itertools import combinations

    for quad in combinations(range(g.n), 4):
        sub = induced_subgraph(g, sum(1 << v for v in quad))
        if sorted(sub.degree(v) for v in range(4)) == [1, 1, 1, 3]:
            return True
    return False


def test_is_claw_free_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(4, 9), rng.random())
        assert is_claw_free(g) == (not _has_claw_brute(g))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_tree_code_isomorphism_invariance():
    p4 = build_family(FamilySpec("path", (4,)))
    relabeled = parse_edge_list("4 3\n2 0\n0 3\n3 1")  # still a path
    assert tree_canonical_code(p4) == tree_canonical_code(relabeled)
    star = build_family(FamilySpec("star", (3,)))
    assert tree_canonical_code(star) != tree_canonical_code(p4)


def test_tree_code_survives_relabelling_up_to_64_vertices():
    # seeded random Pruefer trees past the exhaustive sizes, unicentral and
    # bicentral: the code survives relabelling and has 2 bytes per vertex
    from indpoly.graphs import _tree_centers

    rng = random.Random(2064)
    center_counts = set()
    for n in range(20, 65):
        tree = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        center_counts.add(len(_tree_centers(tree.adj)))
        code = tree_canonical_code(tree)
        assert len(code) == 2 * n
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            copy = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in tree.edges()])
            assert tree_canonical_code(copy) == code
    assert center_counts == {1, 2}


def test_tree_code_rejects_non_trees():
    with pytest.raises(GraphError):
        tree_canonical_code(build_family(FamilySpec("cycle", (4,))))
    with pytest.raises(GraphError):
        tree_canonical_code(build_family(FamilySpec("empty", (2,))))


def eccentricity_centers(g):
    """Vertices of least eccentricity, by a breadth-first search from each."""
    ecc = []
    for source in range(g.n):
        dist = {source: 0}
        todo = [source]
        for v in todo:
            for w in range(g.n):
                if g.has_edge(v, w) and w not in dist:
                    dist[w] = dist[v] + 1
                    todo.append(w)
        ecc.append(max(dist.values()))
    return [v for v in range(g.n) if ecc[v] == min(ecc)]


def test_tree_centers_are_least_eccentric():
    from indpoly.graphs import _tree_centers
    from indpoly.verify import distinct_trees

    rng = random.Random(515)
    for n in range(1, 11):
        for _, tree in distinct_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            copy = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in tree.edges()])
            for g in (tree, copy):
                assert _tree_centers(g.adj) == eccentricity_centers(g)


def test_labeled_trees_on_five_vertices_give_three_codes():
    codes = {
        tree_canonical_code(prufer_decode(seq, 5))
        for seq in product(range(5), repeat=3)
    }
    assert len(codes) == 3


def test_tree_code_counts_match_pairwise_isomorphism():
    for n in range(2, 7):
        codes = {
            tree_canonical_code(prufer_decode(seq, n))
            for seq in product(range(n), repeat=n - 2)
        }
        assert len(codes) == helpers.count_trees_by_pairwise_iso(n)
        assert len(codes) == helpers.KNOWN_TREE_COUNTS[n]


def test_prufer_decode_examples():
    k2 = prufer_decode([], 2)
    assert k2.edges() == [(0, 1)]
    star = prufer_decode([0, 0], 4)
    assert star.degree(0) == 3
    path = prufer_decode([1, 2], 4)
    assert path.edges() == [(0, 1), (1, 2), (2, 3)]


def test_prufer_decode_errors():
    with pytest.raises(GraphError):
        prufer_decode([0], 2)
    with pytest.raises(GraphError):
        prufer_decode([4], 3)
    with pytest.raises(GraphError):
        prufer_decode([], 1)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        Graph.from_edges(65, [])


# each kind at the cap, and (kind, params) one step past it
_FAMILIES_AT_CAP = (
    (("path", (64,)), ("path", (65,))),
    (("cycle", (64,)), ("cycle", (65,))),
    (("complete", (64,)), ("complete", (65,))),
    (("empty", (64,)), ("empty", (65,))),
    (("star", (63,)), ("star", (64,))),
    (("complete_multipartite", (1,) * 64), ("complete_multipartite", (1,) * 65)),
    (("complete_multipartite", (32, 32)), ("complete_multipartite", (32, 33))),
    (("ladder_h", (32,)), ("ladder_h", (33,))),
    (("pendant_ladder_g", (31,)), ("pendant_ladder_g", (32,))),
)


def test_family_cap_checked_before_edges(monkeypatch):
    # every kind is covered; the two fixed trees have no parameter to raise
    at_cap = {kind for (kind, _), _ in _FAMILIES_AT_CAP}
    assert at_cap | {"tree_t", "tree_t1"} == set(FAMILIES)
    for (kind, params), _ in _FAMILIES_AT_CAP:
        g = build_family(FamilySpec(kind, params))
        assert g.n == (63 if kind == "pendant_ladder_g" else 64), kind

    def refuse(cls, n, edges):
        raise AssertionError(f"edge list built for {n} vertices")

    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
    for _, (kind, params) in _FAMILIES_AT_CAP:
        with pytest.raises(CapacityError):
            build_family(FamilySpec(kind, params))
