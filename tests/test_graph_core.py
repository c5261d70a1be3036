import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import (
    check_invariants,
    encode_graph6_bitloop,
    enumerate_connected_reference,
    is_connected_union_find,
    parse_graph6_bitloop,
    random_graph,
    without_vertex_0,
)
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
from rho_bounds import graph_core


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

    def test_past_the_limit_refused_before_allocating(self):
        # the field alone would take about 4 GB at n = 258,048
        g = Graph(258048, ((),) * 258048)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n <= 258047, got 258048$"):
                encode_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _parse_outcome(parse, text):
    """The parsed graph, or the error's message and offset."""
    try:
        return parse(text)
    except GraphParseError as exc:
        return str(exc), exc.offset


def _fuzzed_records(rng, count):
    """Random strings over the graph6 alphabet and its near misses, and
    one-byte replacements, truncations and extensions of valid records, some
    behind a ``>>graph6<<`` prefix."""
    alphabet = [chr(b) for b in range(63, 127)] + [":", "&", ">", "\x1f", "\xe9", " ", "\t", "\n"]
    sizes = [*range(1, 16)] * 4 + [62, 63, 64]  # both header forms
    valid = [encode_graph6(random_graph(rng, rng.choice(sizes), rng.random()))
             for _ in range(200)]
    for _ in range(count):
        shape = rng.randrange(5)
        if shape == 0:
            record = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        elif shape == 1:
            record = "~" + "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
        else:
            record = rng.choice(valid)
            at = rng.randrange(len(record))
            if shape == 2:
                record = record[:at] + rng.choice(alphabet) + record[at + 1:]
            elif shape == 3:
                record = record[:at]
            else:
                record += "".join(rng.choices(alphabet, k=rng.randint(1, 3)))
        yield ">>graph6<<" + record if rng.random() < 0.2 else record


class TestGraph6AgainstBitLoops:
    """The base64 codec against the per-bit loops it replaced (conftest)."""

    def test_encode_every_connected_graph_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                assert encode_graph6(g) == encode_graph6_bitloop(g)

    def test_encode_random_graphs_up_to_130(self):
        rng = random.Random(130)
        for n in range(1, 131):
            for p in (0.1, 0.7):
                g = random_graph(rng, n, p)
                assert encode_graph6(g) == encode_graph6_bitloop(g), (n, p)

    @pytest.mark.parametrize("n, header", [(62, "}"), (63, "~??~"), (64, "~?@?")])
    def test_header_switch(self, n, header):
        text = encode_graph6(gen_named("cycle", n))
        assert text.startswith(header) and len(text) == len(header) + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph6(text) == gen_named("cycle", n)

    def test_parse_fuzzed_records(self):
        rng = random.Random(20000)
        records = list(_fuzzed_records(rng, 20000))
        outcomes = [_parse_outcome(parse_graph6, r) for r in records]
        assert outcomes == [_parse_outcome(parse_graph6_bitloop, r) for r in records]
        # graphs and each of the ten refusals are reached
        errors = {" ".join(o[0].split()[:3]) for o in outcomes if not isinstance(o, Graph)}
        assert len(errors) == 10 and sum(isinstance(o, Graph) for o in outcomes) > 2000

    def test_decode_matches_parse_on_checked_records(self):
        # the campaign's workers decode what the parent's check returns: the
        # record without its prefix or trailing whitespace
        rng = random.Random(20001)
        checked = []
        for record in _fuzzed_records(rng, 5000):
            try:
                checked.append((record, graph_core.check_graph6(record)))
            except GraphParseError:
                continue
        assert len(checked) > 500
        for record, stripped in checked:
            assert stripped == record.rstrip("\r\n \t").removeprefix(">>graph6<<")
            assert graph_core.decode_graph6(stripped) == parse_graph6_bitloop(record)

    def test_nonzero_padding_ignored(self):
        rng = random.Random(3)
        for n in range(2, 40):
            pad = -(n * (n - 1) // 2) % 6
            if not pad:
                continue
            g = random_graph(rng, n, 0.5)
            text = encode_graph6(g)
            padded = text[:-1] + chr(63 + (ord(text[-1]) - 63 | (1 << pad) - 1))
            assert padded != text
            assert parse_graph6(padded) == parse_graph6_bitloop(padded) == g

    def test_long_path_round_trip(self):
        g = gen_named("path", 8000)
        assert parse_graph6(encode_graph6(g)) == g

    def test_long_path_memory_near_the_record(self):
        # the 8,000-vertex path's record is 5.3 MB; a bit string of the
        # whole triangle would be 32 MB
        record = encode_graph6(gen_named("path", 8000))
        tracemalloc.start()
        try:
            g = parse_graph6(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 7999
        assert peak < len(record)

    def test_field_across_decode_pieces(self):
        # n = 1000 has 83,250 body characters, more than one decode piece
        rng = random.Random(1000)
        g = random_graph(rng, 1000, 0.02)
        text = encode_graph6(g)
        assert len(text) - 4 > graph_core._PIECE
        assert parse_graph6(text) == parse_graph6_bitloop(text) == g


class TestParseEdgeList:
    def test_k2(self):
        g = parse_edge_list("2\n0 1")
        assert g.n == 2 and g.m == 1

    def test_p4(self):
        g = parse_edge_list("4\n0 1\n1 2\n2 3")
        assert g == gen_named("path", 4)

    def test_blank_lines_skipped(self):
        assert parse_edge_list("4\n0 1\n\n1 2\n  \t\n2 3\n\n") == gen_named("path", 4)

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

    def test_vertex_limit_is_the_graph6_limit(self):
        assert parse_edge_list("258047\n0 1").n == 258047
        with pytest.raises(GraphParseError, match=r"258048 exceeds .* \(at offset 1\)"):
            parse_edge_list("258048\n0 1")

    def test_huge_vertex_count_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphParseError):
                parse_edge_list("1000000000\n0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        # n=8 has no override: it gets the plain range error
        with pytest.raises(ValueError, match=r"1 <= n <= 7, got 8$"):
            next(enumerate_connected(8))

    def test_mask_range_outside_the_space(self):
        # n = 3 has 2^3 = 8 masks
        with pytest.raises(ValueError, match=r"mask_range \(0, 9\) outside \[0, 8\]"):
            next(enumerate_connected(3, mask_range=(0, 9)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            next(enumerate_connected(0))
        with pytest.raises(ValueError, match="got 9"):
            next(enumerate_connected(9))


def _flattened_blocks(n, mask_range=None):
    """``enumerate_blocks``'s members as (record, graph), block after block,
    each graph built by its block's ``member_graph``, once each block is
    checked: no block empty, every S a set of vertex 0's neighbours in
    mask order, and every member without vertex 0's edges equal to H."""
    stream = []
    for h, members, member_graph in graph_core.enumerate_blocks(n, mask_range):
        assert members and h.n == n
        sets = [s for _, s in members]
        assert sets == sorted(set(sets)) and all(0 <= s < 1 << n - 1 for s in sets)
        for record, s in members:
            g = member_graph(s)
            assert g.neighbors[0] == tuple(v for v in range(1, n) if s >> v - 1 & 1)
            assert without_vertex_0(g) == h
            stream.append((record, g))
    return stream


class TestEnumerateRecords:
    """``enumerate_records`` and ``enumerate_blocks``'s members against the
    bit-loop reference, graph for graph, and each record against
    ``encode_graph6``."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_whole_space_matches_reference(self, n):
        stream = list(graph_core.enumerate_records(n))
        reference = enumerate_connected_reference(n)
        assert [g for _, g in stream] == reference
        assert list(enumerate_connected(n)) == reference
        assert [record for record, _ in stream] == [encode_graph6(g) for g in reference]
        assert _flattened_blocks(n) == stream

    @pytest.mark.parametrize("n, mask_range", [
        (5, (37, 1000)),      # both ends inside a block of 2^(n-1) masks
        (5, (16, 1008)),      # both ends on block boundaries
        (6, (100, 30000)),
        (7, (1000, 5000)),
        (5, (37, 38)),        # one mask, whose graph is connected
        (5, (0, 1)),          # one mask, the empty graph
        (7, (2097151, 2097152)),  # the last mask, K7
        (5, (37, 37)),        # empty ranges
        (5, (0, 0)),
        (7, (2097152, 2097152)),
        (1, (0, 1)),
        (1, (0, 0)),
        (1, (1, 1)),
        (2, (0, 1)),
        (2, (1, 2)),
        (2, (0, 2)),
    ])
    def test_mask_ranges_match_reference(self, n, mask_range):
        stream = list(graph_core.enumerate_records(n, mask_range))
        reference = enumerate_connected_reference(n, mask_range)
        assert [g for _, g in stream] == reference
        assert [record for record, _ in stream] == [encode_graph6(g) for g in reference]
        assert _flattened_blocks(n, mask_range) == stream

    def test_records_of_seeded_n7_masks(self):
        rng = random.Random(7)
        masks = [rng.randrange(graph_core.enumeration_space(7)) for _ in range(20000)]
        stream = [item for mask in masks
                  for item in graph_core.enumerate_records(7, (mask, mask + 1))]
        reference = [g for mask in masks
                     for g in enumerate_connected_reference(7, (mask, mask + 1))]
        assert len(stream) > 17000
        assert [g for _, g in stream] == reference
        assert [record for record, _ in stream] == [encode_graph6(g) for g in reference]

    def test_same_errors_as_enumerate_connected(self):
        with pytest.raises(ValueError, match=r"1 <= n <= 7, got 8$"):
            next(graph_core.enumerate_records(8))
        with pytest.raises(ValueError, match=r"1 <= n <= 7, got 0$"):
            next(graph_core.enumerate_records(0))
        with pytest.raises(ValueError, match=r"mask_range \(0, 9\) outside \[0, 8\]"):
            next(graph_core.enumerate_records(3, (0, 9)))
        with pytest.raises(ValueError, match=r"mask_range \(5, 4\) outside \[0, 8\]"):
            next(graph_core.enumerate_records(3, (5, 4)))
        with pytest.raises(ValueError, match=r"mask_range \(5, 4\) outside \[0, 8\]"):
            next(enumerate_connected(3, mask_range=(5, 4)))


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
        assert g.neighbors == ((1,), (0, 2), (1,))
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_immutable(self):
        g = gen_named("path", 3)
        with pytest.raises(AttributeError):
            g.n = 5

    @given(graphs())
    def test_invariants_hold(self, g):
        check_invariants(g)
