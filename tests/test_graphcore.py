import math

import pytest

from dgscert.graphcore import (
    Graph,
    Graph6Error,
    Xorshift64Star,
    derive_seed,
    emit_adjacency,
    emit_graph6,
    parse_adjacency,
    parse_graph6,
    random_graph,
)
from conftest import permuted


def edge_count(g: Graph) -> int:
    return sum(g.degrees()) // 2


class TestGraph6:
    def test_single_vertex(self, k1):
        assert emit_graph6(k1) == "@"
        assert parse_graph6("@") == k1

    def test_single_edge(self, k2):
        assert emit_graph6(k2) == "A_"
        assert parse_graph6("A_") == k2

    def test_empty_two_vertices(self):
        e2 = Graph(2, (0, 0))
        assert emit_graph6(e2) == "A?"
        assert parse_graph6("A?") == e2

    def test_roundtrip_exhaustive_small(self):
        # every labeled graph on up to 5 vertices
        for n in range(1, 6):
            nbits = n * (n - 1) // 2
            for code in range(1 << nbits):
                g = _graph_from_code(n, code)
                assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("n", [6, 7, 8, 20, 40])
    def test_roundtrip_sampled(self, n):
        for i in range(20):
            g = random_graph(n, derive_seed(5150, n, i))
            assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("n", [63, 64])
    def test_roundtrip_long_form(self, n):
        g = random_graph(n, 7)
        enc = emit_graph6(g)
        assert enc.startswith("~")
        assert parse_graph6(enc) == g

    def test_bad_character_names_offset(self):
        with pytest.raises(Graph6Error, match="byte 1"):
            parse_graph6("A\x1f")

    def test_header_is_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6(">>graph6<<A_")

    def test_short_record(self):
        with pytest.raises(Graph6Error, match="expected"):
            parse_graph6("D")  # n=5 needs 2 edge bytes

    def test_long_record(self):
        with pytest.raises(Graph6Error, match="expected"):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        # K_2 uses one bit; the other five must be zero
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A" + chr(63 + 0b010000))

    def test_vertex_count_zero_rejected(self):
        with pytest.raises(Graph6Error, match="range"):
            parse_graph6("?")

    def test_vertex_count_above_cap_rejected(self):
        with pytest.raises(Graph6Error, match="range"):
            parse_graph6("~?A?" + "?" * 100)  # n = 65

    def test_empty_input(self):
        with pytest.raises(Graph6Error):
            parse_graph6("   ")


class TestAdjacencyText:
    def test_roundtrip(self, small_corpus):
        for g in small_corpus:
            assert parse_adjacency(emit_adjacency(g)) == g

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            parse_adjacency("0 1\n0 0")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            parse_adjacency("1 0\n0 0")

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            parse_adjacency("0 2\n2 0")


class TestComplement:
    def test_k2(self, k2):
        assert k2.complement() == Graph(2, (0, 0))

    def test_k1(self, k1):
        assert k1.complement() == k1

    def test_involution(self, small_corpus):
        for g in small_corpus:
            assert g.complement().complement() == g

    def test_degree_identity(self):
        from dgscert.fixtures import dgs16_graph

        g = dgs16_graph()
        co = g.complement()
        for v in range(g.n):
            assert co.degree(v) == g.n - 1 - g.degree(v)


class TestRandomGraph:
    def test_deterministic(self):
        assert random_graph(5, 99) == random_graph(5, 99)

    def test_frozen_sample(self):
        # cross-platform regression anchor for the documented recurrence
        assert random_graph(5, 12345).rows == (22, 17, 25, 4, 7)

    def test_single_vertex(self):
        assert random_graph(1, 3) == Graph(1, (0,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            random_graph(0, 1)
        with pytest.raises(ValueError):
            random_graph(65, 1)

    def test_mean_edge_count_within_3_sigma(self):
        total = sum(edge_count(random_graph(10, derive_seed(99, 10, i))) for i in range(10000))
        mean = total / 10000
        sigma = math.sqrt(45 * 0.25 / 10000)
        assert abs(mean - 22.5) <= 3 * sigma


class TestPrng:
    def test_known_stream(self):
        gen = Xorshift64Star(1)
        assert [gen.next_u64() for _ in range(3)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
        ]

    def test_zero_seed_usable(self):
        gen = Xorshift64Star(0)
        assert gen.next_u64() == 973819730272012410

    def test_derive_seed_depends_on_every_part(self):
        base = derive_seed(7, 10, 3)
        assert base == derive_seed(7, 10, 3)
        assert base != derive_seed(7, 10, 4)
        assert base != derive_seed(7, 11, 3)
        assert base != derive_seed(8, 10, 3)


class TestGraphValidation:
    def test_asymmetric_bitrows_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))

    def test_permuted_preserves_structure(self, p3):
        g = permuted(p3, [2, 1, 0])
        assert sorted(g.degrees()) == sorted(p3.degrees())
        assert edge_count(g) == edge_count(p3)


def _graph_from_code(n: int, code: int) -> Graph:
    edges = []
    b = 0
    for j in range(1, n):
        for i in range(j):
            if code >> b & 1:
                edges.append((i, j))
            b += 1
    return Graph.from_edges(n, edges)
