import pytest
from hypothesis import given, strategies as st

from conftest import check_invariants, is_connected_union_find
from rho_bounds import (
    DegreeSequence,
    Graph,
    GraphParseError,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    is_connected,
    parse_edge_list,
    parse_graph6,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << nbits) - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pairs[k] for k in range(nbits) if mask >> k & 1]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 parsing and encoding
# ---------------------------------------------------------------------------

class TestParseGraph6:
    def test_k4(self):
        # header 'C' = 63+4; all six upper-triangle bits set -> 111111 ->
        # 63+63 = 126 = '~'
        g = parse_graph6("C~")
        assert g == gen_named("complete", 4)

    def test_p4(self):
        # 'h' = 104 -> 41 = 101001: bits (0,1),(1,2),(2,3) -> path 0-1-2-3
        g = parse_graph6("Ch")
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("C~\n") == parse_graph6("C~  ")

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    def test_extended_header_round_trip(self):
        g = gen_named("star", 100)
        text = encode_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    @pytest.mark.parametrize(
        "text",
        ["", "C", "C~~", ":Fa@x^", "&C~", chr(62) + "~", "C\x1f", "~~??????C~"],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphParseError):
            parse_graph6(text)

    def test_error_names_offset(self):
        with pytest.raises(GraphParseError, match="offset"):
            parse_graph6("C")

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph6("?")


class TestEncodeGraph6:
    def test_known_strings(self):
        assert encode_graph6(gen_named("complete", 4)) == "C~"
        assert encode_graph6(gen_named("path", 4)) == "Ch"
        assert encode_graph6(Graph.from_edges(1, [])) == "@"

    def test_round_trip_enumeration(self):
        for n in range(1, 6):
            for g in enumerate_connected(n):
                assert parse_graph6(encode_graph6(g)) == g

    @given(graphs())
    def test_round_trip_random(self, g):
        assert parse_graph6(encode_graph6(g)) == g


class TestParseEdgeList:
    def test_k2(self):
        g = parse_edge_list("2\n0 1")
        assert g.n == 2 and g.m == 1

    def test_p4(self):
        g = parse_edge_list("4\n0 1\n1 2\n2 3")
        assert g == gen_named("path", 4)

    def test_duplicate_edges_idempotent(self):
        g = parse_edge_list("3\n0 1\n0 1\n1 2")
        assert g == gen_named("path", 3)
        assert g.m == 2

    @pytest.mark.parametrize(
        "text",
        ["", "x", "0", "3\n0 3", "3\n1 1", "3\na b", "3\n0 1 2", "3\n-1 0"],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphParseError):
            parse_edge_list(text)


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------

class TestDegreeSequence:
    def test_p6(self):
        seq = degree_sequence(gen_named("path", 6))
        assert seq.degrees == (2, 2, 2, 2, 1, 1)
        assert seq.m == 5

    def test_k4(self):
        seq = degree_sequence(gen_named("complete", 4))
        assert seq.degrees == (3, 3, 3, 3)
        assert seq.m == 6

    def test_mixed_realization(self):
        # a connected realization of (4,3,3,2,1,1)
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3)]
        )
        assert is_connected(g)
        seq = degree_sequence(g)
        assert seq.degrees == (4, 3, 3, 2, 1, 1)
        assert seq.m == 7

    def test_prefix_sums(self):
        seq = DegreeSequence.from_degrees([1, 3, 2, 2])
        assert seq.degrees == (3, 2, 2, 1)
        assert seq.prefix == (0, 3, 5, 7, 8)

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequence.from_degrees([3, 2])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequence.from_degrees([2, -2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequence.from_degrees([])

    @given(graphs())
    def test_sum_is_twice_edge_count(self, g):
        seq = degree_sequence(g)
        assert sum(seq.degrees) == 2 * g.m == 2 * seq.m


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(gen_named("path", 4))

    def test_edgeless_pair(self):
        assert not is_connected(Graph.from_edges(2, []))

    def test_triangle_plus_isolated(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3
        assert not is_connected(g)

    def test_connected_min_degree(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                assert degree_sequence(g).degrees[-1] >= 1

    @given(graphs())
    def test_union_find_agrees_with_search(self, g):
        assert is_connected(g) == is_connected_union_find(g)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TestGenNamed:
    def test_star(self):
        assert degree_sequence(gen_named("star", 4)).degrees == (3, 1, 1, 1)

    def test_complete(self):
        assert gen_named("complete", 5).m == 10

    def test_path_degrees(self):
        assert degree_sequence(gen_named("path", 6)).degrees == (2, 2, 2, 2, 1, 1)

    def test_cycle(self):
        g = gen_named("cycle", 3)
        assert g == gen_named("complete", 3)

    def test_singletons(self):
        for family in ("complete", "star", "path"):
            assert gen_named(family, 1).n == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            gen_named("cycle", 2)
        with pytest.raises(ValueError):
            gen_named("path", 0)
        with pytest.raises(ValueError):
            gen_named("wheel", 4)


class TestGenJoinDominating:
    def test_star_case(self):
        assert gen_join_dominating(4, 2, 0) == gen_named("star", 4)

    def test_k4_minus_edge(self):
        g = gen_join_dominating(4, 3, 0)
        assert degree_sequence(g).degrees == (3, 3, 2, 2)
        assert g.m == 5

    def test_wheel_like(self):
        g = gen_join_dominating(6, 2, 2)
        assert degree_sequence(g).degrees == (5, 3, 3, 3, 3, 3)

    def test_degenerates_to_complete(self):
        assert gen_join_dominating(5, 5, 0) == gen_named("complete", 5)

    def test_degree_pattern_all_valid_params(self):
        for n in range(2, 9):
            for t in range(2, n + 1):
                h = n - t + 1
                for r in range(0, h):
                    if r * h % 2:
                        continue
                    g = gen_join_dominating(n, t, r)
                    assert is_connected(g)
                    d = degree_sequence(g).degrees
                    assert d == tuple([n - 1] * (t - 1) + [r + t - 1] * h)

    def test_parity_violation(self):
        # r=1 over 3 circulant vertices has odd degree sum
        with pytest.raises(ValueError, match="regular"):
            gen_join_dominating(4, 2, 1)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            gen_join_dominating(4, 1, 0)
        with pytest.raises(ValueError):
            gen_join_dominating(4, 5, 0)
        with pytest.raises(ValueError):
            gen_join_dominating(4, 2, 3)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class TestEnumerateConnected:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_independent_connectivity_count(self, n):
        # second pass re-decides connectivity with union-find on all subsets
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        expected = 0
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            if is_connected_union_find(Graph.from_edges(n, edges)):
                expected += 1
        assert sum(1 for _ in enumerate_connected(n)) == expected

    def test_deterministic_order_n3(self):
        stream = [encode_graph6(g) for g in enumerate_connected(3)]
        # masks 3, 5, 6, 7 in increasing order
        assert stream == ["Bo", "Bg", "BW", "Bw"]

    def test_stream_yields_unique_connected(self):
        seen = set()
        for g in enumerate_connected(4):
            assert is_connected(g)
            check_invariants(g)
            key = encode_graph6(g)
            assert key not in seen
            seen.add(key)

    def test_mask_range_partition(self):
        full = [encode_graph6(g) for g in enumerate_connected(4)]
        lo = [encode_graph6(g) for g in enumerate_connected(4, mask_range=(0, 32))]
        hi = [encode_graph6(g) for g in enumerate_connected(4, mask_range=(32, 64))]
        assert lo + hi == full

    def test_large_needs_override(self):
        with pytest.raises(ValueError, match="allow_large"):
            next(enumerate_connected(8))
        stream = enumerate_connected(8, allow_large=True, mask_range=(0, 4096))
        assert all(g.n == 8 for g in stream)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            next(enumerate_connected(0))
        with pytest.raises(ValueError):
            next(enumerate_connected(9, allow_large=True))


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

class TestGraphType:
    def test_from_edges_validates(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])

    def test_accessors(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2 and g.degree(0) == 1
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_immutable(self):
        g = gen_named("path", 3)
        with pytest.raises(AttributeError):
            g.n = 5

    @given(graphs())
    def test_invariants_hold(self, g):
        check_invariants(g)
