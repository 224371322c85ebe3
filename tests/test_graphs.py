import itertools

import numpy as np
import pytest

from pgmkit.errors import NotADagError, OrderingError
from pgmkit.graphs import (
    DirectedGraph,
    UndirectedGraph,
    d_separated,
    d_separated_by_paths,
    induced_width,
    is_dag,
    markov_blanket,
    max_cliques,
    max_weight_spanning_tree,
    mec_equivalent,
    mec_signature,
    moralize,
    topological_sort,
    triangulate,
    v_structures,
)


def random_dag(rng, n, p=0.4):
    names = [f"v{i}" for i in range(n)]
    perm = list(rng.permutation(names))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((perm[i], perm[j]))
    return DirectedGraph(names, edges)


def random_undirected(rng, n, p=0.4):
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return UndirectedGraph(names, edges)


def all_cycles_have_chords(g):
    """Exhaustive chordality check: every simple cycle of length > 3 has a chord."""
    nodes = g.nodes
    for size in range(4, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            for perm in itertools.permutations(subset[1:]):
                cycle = (subset[0],) + perm
                if all(
                    g.has_edge(cycle[i], cycle[(i + 1) % size]) for i in range(size)
                ):
                    has_chord = any(
                        g.has_edge(cycle[i], cycle[j])
                        for i in range(size)
                        for j in range(i + 2, size)
                        if (i, j) != (0, size - 1)
                    )
                    if not has_chord:
                        return False
    return True


class TestTopologicalSort:
    def test_branching_example(self):
        g = DirectedGraph("UVWX", [("U", "V"), ("U", "W"), ("W", "X")])
        assert topological_sort(g) == ("U", "V", "W", "X")

    def test_edgeless(self):
        g = DirectedGraph(["c", "a", "b"])
        assert topological_sort(g) == ("a", "b", "c")

    def test_random_dags_respect_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = random_dag(rng, 8)
            order = topological_sort(g)
            pos = {n: i for i, n in enumerate(order)}
            assert all(pos[u] < pos[v] for u, v in g.edges)

    def test_cycle_reported(self):
        g = DirectedGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(NotADagError) as exc:
            topological_sort(g)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}


class TestMoralize:
    def test_shared_children_get_married(self):
        g = DirectedGraph(
            "ABCDEFG",
            [("A", "D"), ("B", "D"), ("C", "D"), ("D", "G"), ("E", "G"), ("E", "F")],
        )
        m = moralize(g)
        for u, v in [("A", "B"), ("A", "C"), ("B", "C"), ("D", "E")]:
            assert m.has_edge(u, v)
        assert len(m.edges) == 6 + 4

    def test_chain_unchanged(self):
        g = DirectedGraph("abc", [("a", "b"), ("b", "c")])
        assert moralize(g).edges == (("a", "b"), ("b", "c"))

    def test_parent_sets_become_cliques(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_dag(rng, 7)
            m = moralize(g)
            for child in g.nodes:
                assert m.is_clique(g.parents(child))
            for u, v in g.edges:
                assert m.has_edge(u, v)


class TestTriangulate:
    def five_cycle(self):
        return UndirectedGraph(
            "ABCDE", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "E"), ("D", "E")]
        )

    def test_five_cycle_with_d_first(self):
        g = self.five_cycle()
        chordal, _ = triangulate(g, ["D", "A", "B", "C", "E"])
        assert chordal.has_edge("A", "D") or chordal.has_edge("B", "E")
        assert all_cycles_have_chords(chordal)

    def test_five_cycle_known_chords(self):
        # eliminating B then the rest adds chords A-D then D-C (with this ordering)
        g = self.five_cycle()
        chordal, _ = triangulate(g, ["B", "A", "C", "D", "E"])
        assert chordal.has_edge("A", "D")
        assert chordal.has_edge("C", "D") or chordal.has_edge("A", "E")
        assert all_cycles_have_chords(chordal)

    def test_chords_da_dc_suffice(self):
        # adding exactly {D-A, D-C} to the 5-cycle yields a chordal graph
        g = self.five_cycle()
        manual = UndirectedGraph(g.nodes, list(g.edges) + [("D", "A"), ("D", "C")])
        assert all_cycles_have_chords(manual)

    def test_triangle_unchanged(self):
        g = UndirectedGraph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        chordal, cliques = triangulate(g, ["a", "b", "c"])
        assert chordal.edges == g.edges
        assert frozenset("abc") in cliques

    def test_random_graphs_chordal(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = random_undirected(rng, 6)
            chordal, _ = triangulate(g, list(g.nodes))
            assert set(g.edges) <= set(chordal.edges)
            assert all_cycles_have_chords(chordal)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_undirected(rng, 6)
            order = list(g.nodes)
            chordal, _ = triangulate(g, order)
            again, _ = triangulate(chordal, order)
            assert again.edges == chordal.edges

    def test_bad_ordering(self):
        with pytest.raises(OrderingError):
            triangulate(UndirectedGraph("ab", [("a", "b")]), ["a"])


def brute_max_cliques(g):
    out = []
    nodes = g.nodes
    for size in range(len(nodes), 0, -1):
        for subset in itertools.combinations(nodes, size):
            if g.is_clique(subset) and not any(set(subset) < set(k) for k in out):
                out.append(frozenset(subset))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def scan_max_cliques(elim_cliques):
    """Keep each elimination clique, largest first, that no kept clique
    strictly contains, comparing it with every kept clique."""
    out = []
    for c in sorted(set(elim_cliques), key=lambda s: (-len(s), tuple(sorted(s)))):
        if not any(c < kept for kept in out):
            out.append(c)
    return sorted(out, key=lambda s: tuple(sorted(s)))


class TestMaxCliques:
    def test_textbook_graph(self):
        g = UndirectedGraph(
            "ABCDEF",
            [
                ("A", "B"), ("A", "C"), ("A", "F"), ("B", "C"),
                ("C", "D"), ("C", "E"), ("D", "E"), ("E", "F"),
            ],
        )
        assert set(brute_max_cliques(g)) == {
            frozenset("ABC"),
            frozenset("CDE"),
            frozenset("AF"),
            frozenset("EF"),
        }
        # the chordalized graph's maximal cliques cover the originals
        chordal, elim = triangulate(g, list(g.nodes))
        got = max_cliques(chordal, elim)
        for original in brute_max_cliques(g):
            assert any(original <= c for c in got)

    def test_complete_graph(self):
        g = UndirectedGraph(
            "abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)]
        )
        chordal, elim = triangulate(g, list(g.nodes))
        assert max_cliques(chordal, elim) == [frozenset("abcd")]

    def test_matches_bruteforce_on_random_chordal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_undirected(rng, 7)
            chordal, elim = triangulate(g, list(g.nodes))
            got = max_cliques(chordal, elim)
            assert got == brute_max_cliques(chordal)
            assert len(got) <= len(chordal.nodes)

    def test_matches_networkx_on_random_chordal(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            g = random_undirected(rng, n, p=float(rng.uniform(0.0, min(0.5, 4.0 / n))))
            order = [g.nodes[k] for k in rng.permutation(len(g.nodes))]
            chordal, elim = triangulate(g, order)
            graph = nx.Graph(list(chordal.edges))
            graph.add_nodes_from(chordal.nodes)
            got = max_cliques(chordal, elim)
            assert set(got) == set(nx.chordal_graph_cliques(graph))
            assert got == scan_max_cliques(elim)


class TestDSeparation:
    def earthquake(self):
        return DirectedGraph(
            ["ALARM", "BURGLARY", "EARTHQUAKE"],
            [("BURGLARY", "ALARM"), ("EARTHQUAKE", "ALARM")],
        )

    def test_earthquake_marginal_independence(self):
        g = self.earthquake()
        assert d_separated(g, {"BURGLARY"}, {"EARTHQUAKE"}, set())
        assert not d_separated(g, {"BURGLARY"}, {"EARTHQUAKE"}, {"ALARM"})

    def test_fork(self):
        g = DirectedGraph("XYZ", [("Z", "X"), ("Z", "Y")])
        assert d_separated(g, {"X"}, {"Y"}, {"Z"})
        assert not d_separated(g, {"X"}, {"Y"}, set())

    def test_chain(self):
        g = DirectedGraph("XYZ", [("X", "Z"), ("Z", "Y")])
        assert d_separated(g, {"X"}, {"Y"}, {"Z"})
        assert not d_separated(g, {"X"}, {"Y"}, set())

    def test_collider_descendant_activates(self):
        g = DirectedGraph("XYZW", [("X", "Z"), ("Y", "Z"), ("Z", "W")])
        assert d_separated(g, {"X"}, {"Y"}, set())
        assert not d_separated(g, {"X"}, {"Y"}, {"W"})

    def test_confounder_collider_mediator_graph(self):
        g = DirectedGraph(
            "XYABCDEFGHIJ",
            [
                ("X", "G"), ("G", "H"), ("H", "Y"),
                ("X", "A"), ("Y", "A"),
                ("I", "X"), ("I", "B"), ("J", "Y"), ("J", "B"),
                ("C", "X"), ("C", "Y"),
                ("E", "X"), ("F", "Y"), ("D", "E"), ("D", "F"),
            ],
        )
        assert not d_separated(g, {"X"}, {"Y"}, set())
        assert d_separated(g, {"X"}, {"Y"}, {"C", "D", "G"})
        assert d_separated_by_paths(g, {"X"}, {"Y"}, {"C", "D", "G"})

    def test_reachability_matches_path_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_dag(rng, 6, p=0.35)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            x, y = nodes[0], nodes[1]
            for z_size in range(0, 3):
                z = set(nodes[2 : 2 + z_size])
                fast = d_separated(g, {x}, {y}, z)
                slow = d_separated_by_paths(g, {x}, {y}, z)
                assert fast == slow

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(2, 10)), p=float(rng.uniform(0.1, 0.6)))
            reference = nx.DiGraph(list(g.edges))
            reference.add_nodes_from(g.nodes)
            nodes = [str(n) for n in rng.permutation(g.nodes)]
            for _ in range(5):
                x, y = nodes[0], nodes[1]
                z = set(nodes[2:2 + int(rng.integers(0, len(nodes) - 1))])
                assert d_separated(g, {x}, {y}, z) == nx.is_d_separator(reference, {x}, {y}, z)
                rng.shuffle(nodes)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_dag(rng, 6)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            x, y, z = {nodes[0]}, {nodes[1]}, set(nodes[2:4])
            assert d_separated(g, x, y, z) == d_separated(g, y, x, z)

    def test_overlap_rejected(self):
        g = self.earthquake()
        with pytest.raises(ValueError):
            d_separated(g, {"ALARM"}, {"ALARM"}, set())


class TestMarkovBlanket:
    def graph_edges(self):
        return [("A", "C"), ("C", "E"), ("C", "F"), ("B", "D"), ("D", "F"), ("D", "G")]

    def test_directed_blanket(self):
        g = DirectedGraph("ABCDEFG", self.graph_edges())
        assert markov_blanket(g, "C") == {"A", "E", "F", "D"}

    def test_undirected_blanket(self):
        g = UndirectedGraph("ABCDEFG", self.graph_edges())
        assert markov_blanket(g, "C") == {"A", "E", "F"}

    def test_isolated_node(self):
        g = DirectedGraph("ab")
        assert markov_blanket(g, "a") == set()


def spanning_trees_bruteforce(g, weights):
    n = len(g.nodes)
    best = -np.inf
    for subset in itertools.combinations(g.edges, n - 1):
        t = UndirectedGraph(g.nodes, subset)
        if t.is_tree():
            w = sum(weights.get(e, weights.get((e[1], e[0]), 0.0)) for e in subset)
            best = max(best, w)
    return best


class TestSpanningTree:
    def test_mutual_information_weights_example(self):
        g = UndirectedGraph(
            "ABCD",
            [(u, v) for u, v in itertools.combinations("ABCD", 2)],
        )
        weights = {
            ("A", "B"): 0.07, ("A", "C"): 0.32, ("B", "C"): 0.32,
            ("B", "D"): 0.32, ("C", "D"): 0.02, ("A", "D"): 0.17,
        }
        result = max_weight_spanning_tree(g, weights)
        assert set(result.tree.edges) == {("A", "C"), ("B", "C"), ("B", "D")}
        assert result.connected

    def test_tree_input_returned(self):
        g = UndirectedGraph("abc", [("a", "b"), ("b", "c")])
        result = max_weight_spanning_tree(g, {("a", "b"): 1.0, ("b", "c"): 2.0})
        assert result.tree.edges == g.edges

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        trials = 0
        while trials < 15:
            g = random_undirected(rng, 6, p=0.6)
            if len(g.connected_components()) != 1:
                continue
            trials += 1
            weights = {e: float(rng.random()) for e in g.edges}
            result = max_weight_spanning_tree(g, weights)
            assert result.connected
            assert len(result.tree.edges) == len(g.nodes) - 1
            assert result.weight == pytest.approx(spanning_trees_bruteforce(g, weights))

    def test_disconnected_flagged(self):
        g = UndirectedGraph("abcd", [("a", "b"), ("c", "d")])
        result = max_weight_spanning_tree(g, {("a", "b"): 1.0, ("c", "d"): 1.0})
        assert not result.connected
        assert len(result.tree.edges) == 2


class TestMec:
    def test_single_edge_reversal_equivalent(self):
        g1 = DirectedGraph("XY", [("X", "Y")])
        g2 = DirectedGraph("XY", [("Y", "X")])
        assert mec_equivalent(g1, g2)

    def test_fork_chain_collider(self):
        fork = DirectedGraph("XYZ", [("Z", "X"), ("Z", "Y")])
        chain = DirectedGraph("XYZ", [("X", "Z"), ("Z", "Y")])
        collider = DirectedGraph("XYZ", [("X", "Z"), ("Y", "Z")])
        assert mec_equivalent(fork, chain)
        assert not mec_equivalent(fork, collider)
        assert not mec_equivalent(chain, collider)

    def test_identity(self):
        rng = np.random.default_rng(8)
        g = random_dag(rng, 6)
        assert mec_equivalent(g, g)

    def test_v_structure_endpoints_nonadjacent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_dag(rng, 6)
            for a, c, b in v_structures(g):
                assert g.has_edge(a, c) and g.has_edge(b, c)
                assert not g.adjacent(a, b)


class TestImapProperty:
    def test_d_separation_implies_independence(self):
        # any d-separation statement must hold in every distribution that
        # factorizes over the graph (checked by full enumeration)
        import itertools as it

        from pgmkit.factors import Factor, Variable
        from pgmkit.models import enumerate_inference, random_cpds
        from pgmkit import factors as fa

        rng = np.random.default_rng(77)
        for _ in range(12):
            n = 5
            names = [f"v{i}" for i in range(n)]
            g = random_dag(rng, n, p=0.45)
            variables = [Variable(nm, ("0", "1")) for nm in g.nodes]
            bn = random_cpds(variables, g, rng)
            joint = enumerate_inference(bn, query=list(g.nodes))
            checked = 0
            for x, y in it.combinations(g.nodes, 2):
                others = [nm for nm in g.nodes if nm not in (x, y)]
                for size in range(0, 3):
                    for z in it.combinations(others, size):
                        if not d_separated(g, {x}, {y}, set(z)):
                            continue
                        checked += 1
                        for z_assign in fa.assignments(
                            [bn.variables[nm] for nm in z]
                        ):
                            sliced = fa.reduce_factor(joint, z_assign)
                            total = float(np.sum(sliced.table))
                            if total <= 0:
                                continue
                            pxy = fa.eliminate(
                                sliced, [nm for nm in sliced.names if nm not in (x, y)]
                            )
                            pxy = fa.align_to(pxy, sorted((x, y)))
                            pxy = Factor(pxy.scope, pxy.table / total)
                            px = fa.eliminate(pxy, [y])
                            py = fa.eliminate(pxy, [x])
                            outer = fa.product(px, py)
                            outer = fa.align_to(outer, pxy.names)
                            assert np.allclose(
                                pxy.table, outer.table, atol=1e-9
                            )


class TestInducedWidth:
    def test_chain_width_one(self):
        g = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert induced_width(g, ["a", "b", "c", "d"]) == 1

    def test_complete_graph(self):
        g = UndirectedGraph(
            "abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)]
        )
        assert induced_width(g, ["a", "b", "c", "d"]) == 3


class TestDot:
    def test_directed_dot(self):
        g = DirectedGraph(
            ["ALARM", "BURGLARY", "EARTHQUAKE"],
            [("BURGLARY", "ALARM"), ("EARTHQUAKE", "ALARM")],
        )
        dot = g.to_dot()
        assert dot.count("->") == 2
        assert dot == g.to_dot()  # deterministic

    def test_empty_graph_dot(self):
        assert UndirectedGraph([]).to_dot() == "graph G {\n}\n"
