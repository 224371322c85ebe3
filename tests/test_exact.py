import dataclasses
import math

import numpy as np
import pytest

from conftest import random_bn, random_mrf, random_tree_mrf
from pgmkit import exact, factors as fa
from pgmkit.errors import NotATreeError, OrderingError, TooLargeError, ZeroEvidenceError
from pgmkit.exact import (
    MAX_PRODUCT,
    _greedy_order,
    build_junction_tree,
    choose_ordering,
    family_preservation_holds,
    interaction_graph,
    jt_calibrate,
    jt_clique_log_partitions,
    jt_query,
    max_product_decode,
    running_intersection_holds,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph, UndirectedGraph, induced_width, max_weight_spanning_tree
from pgmkit.models import (
    BayesianNetwork,
    MarkovRandomField,
    enumerate_inference,
    random_cpds,
    to_factor_graph,
)
from pgmkit.zoo import asia_dag, student_network


def no_tables(factors):
    raise AssertionError("a table was built")


def chain_bn(n, rng):
    variables = [Variable(f"x{i}", ("0", "1")) for i in range(n)]
    dag = DirectedGraph(
        [v.name for v in variables],
        [(f"x{i}", f"x{i+1}") for i in range(n - 1)],
    )
    return random_cpds(variables, dag, rng)


class TestChooseOrdering:
    def test_chain_query_last(self, rng):
        bn = chain_bn(6, rng)
        ordering = choose_ordering(bn, "min_neighbors", query=["x5"])
        assert ordering.order == ("x0", "x1", "x2", "x3", "x4")
        assert ordering.induced_width == 1

    def test_single_variable_model(self, rng):
        bn = chain_bn(1, rng)
        ordering = choose_ordering(bn, "min_fill", query=["x0"])
        assert ordering.order == ()

    def test_min_fill_usually_beats_random(self, rng):
        wins = 0
        trials = 100
        for _ in range(trials):
            mrf = random_mrf(rng, n=7, max_states=2, n_factors=12)
            graph = interaction_graph(mrf)
            chosen = choose_ordering(mrf, "min_fill")
            random_order = list(rng.permutation(graph.nodes))
            if chosen.induced_width <= induced_width(graph, random_order):
                wins += 1
        assert wins >= 95

    def test_all_heuristics_run(self, rng):
        mrf = random_mrf(rng, n=5)
        for h in ("min_neighbors", "min_weight", "min_fill"):
            ordering = choose_ordering(mrf, h)
            assert sorted(ordering.order) == sorted(mrf.variables)


class TestVariableElimination:
    def test_student_letter(self):
        result = variable_elimination(student_network(), ["LETTER"])
        assert np.allclose(result.normalized().values, [0.497664, 0.502336], atol=1e-9)
        assert result.log_normalizer == pytest.approx(0.0, abs=1e-12)

    def test_student_letter_with_evidence(self):
        result = variable_elimination(
            student_network(), ["LETTER"], {"INVESTMENT": "i1", "DIFFICULTY": "d0"}
        )
        post = result.normalized()
        expected_l1 = 0.9 * 0.9 + 0.08 * 0.6 + 0.02 * 0.01
        assert post({"LETTER": "l1"}) == pytest.approx(expected_l1, abs=1e-9)
        # evidence on root variables: log p(e) = log(0.3 * 0.6)
        assert result.log_normalizer == pytest.approx(math.log(0.3 * 0.6), abs=1e-9)

    def test_full_joint_query(self, rng):
        bn = random_bn(rng, n=4, max_states=3)
        result = variable_elimination(bn, sorted(bn.variables))
        oracle = enumerate_inference(bn, sorted(bn.variables))
        assert np.allclose(result.normalized().table, oracle.table, atol=1e-12)

    def test_matches_oracle_with_evidence(self, rng):
        for _ in range(25):
            model = (
                random_bn(rng, n=int(rng.integers(2, 7)), max_states=3)
                if rng.random() < 0.5
                else random_mrf(rng, n=int(rng.integers(2, 7)), max_states=3)
            )
            names = sorted(model.variables)
            ev = {}
            if len(names) > 2 and rng.random() < 0.6:
                v = model.variable(names[-1])
                ev[v.name] = v.states[int(rng.integers(v.cardinality))]
            for target in names:
                if target in ev:
                    continue
                got = variable_elimination(model, [target], ev).normalized()
                want = enumerate_inference(model, [target], ev)
                assert np.allclose(got.values, want.values, atol=1e-9)

    def test_log_normalizer_recovers_evidence_probability(self, rng):
        for _ in range(10):
            bn = random_bn(rng, n=5, max_states=2)
            names = sorted(bn.variables)
            ev_var = bn.variable(names[0])
            ev = {ev_var.name: ev_var.states[0]}
            result = variable_elimination(bn, [names[1]], ev)
            p_e = enumerate_inference(bn, mode="partition", evidence=ev)
            assert result.log_normalizer == pytest.approx(math.log(p_e), abs=1e-9)

    def test_ordering_independence(self, rng):
        bn = random_bn(rng, n=6, max_states=3)
        names = sorted(bn.variables)
        target = names[0]
        reference = variable_elimination(bn, [target]).normalized()
        rest = [n for n in names if n != target]
        for h in ("min_neighbors", "min_weight", "min_fill"):
            got = variable_elimination(bn, [target], heuristic=h).normalized()
            assert np.allclose(got.table, reference.table, atol=1e-12)
        for _ in range(10):
            order = list(rng.permutation(rest))
            got = variable_elimination(bn, [target], ordering=order).normalized()
            assert np.allclose(got.table, reference.table, atol=1e-12)

    def test_complexity_witness(self, rng):
        for _ in range(10):
            mrf = random_mrf(rng, n=6, max_states=2, n_factors=10)
            ordering = choose_ordering(mrf, "min_fill")
            result = variable_elimination(mrf, [], ordering=ordering.order)
            assert result.max_intermediate_scope == ordering.induced_width + 1

    def test_bad_ordering_rejected(self, rng):
        bn = chain_bn(3, rng)
        with pytest.raises(OrderingError):
            variable_elimination(bn, ["x0"], ordering=["x1"])

    @pytest.mark.parametrize("engine", [
        lambda bn, ev: variable_elimination(bn, ["a"], ev),
        tree_bp,
        lambda bn, ev: jt_calibrate(build_junction_tree(bn), ev),
    ], ids=["variable_elimination", "tree_bp", "jt_calibrate"])
    def test_zero_evidence_raises(self, engine):
        a = Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1"))
        dag = DirectedGraph(["a", "b"], [("a", "b")])
        bn = BayesianNetwork(
            [a, b],
            dag,
            {
                "a": Factor([a], [1.0, 0.0]),
                "b": Factor([b, a], [[1.0, 0.5], [0.0, 0.5]]),
            },
        )
        with pytest.raises(ZeroEvidenceError):
            engine(bn, {"b": "1"})

    def test_max_product_value(self, rng):
        for _ in range(10):
            mrf = random_mrf(rng, n=5, max_states=3)
            result = variable_elimination(mrf, [], semiring=MAX_PRODUCT)
            best = enumerate_inference(mrf, mode="map")[1]
            assert float(result.factor.table) == pytest.approx(math.exp(best), rel=1e-12)

    def test_table_cap_is_checked_before_allocating(self, monkeypatch):
        # min_fill eliminates DIFFICULTY first, over {DIFFICULTY, INVESTMENT,
        # GRADE}: 2 * 2 * 3 entries
        bn = student_network()
        want = variable_elimination(bn, ["LETTER"])
        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        with monkeypatch.context() as m:
            m.setattr(fa, "product_all", no_tables)
            with pytest.raises(TooLargeError, match="needs a table of 12 entries when it "
                               "eliminates 'DIFFICULTY', over the cap of 11"):
                variable_elimination(bn, ["LETTER"])
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        got = variable_elimination(bn, ["LETTER"])
        assert np.array_equal(got.factor.table, want.factor.table)
        assert got.max_intermediate_scope == 3


class TestTreeBp:
    def test_chain_marginals_match_ve(self, rng):
        bn = chain_bn(5, rng)
        result = tree_bp(bn)
        for name in bn.variables:
            want = variable_elimination(bn, [name]).normalized()
            assert np.allclose(result.marginal(name).values, want.values, atol=1e-12)

    def test_message_count(self, rng):
        bn = chain_bn(4, rng)
        result = tree_bp(bn)
        fg = to_factor_graph(bn)
        assert result.messages.sends == 2 * len(fg.edges)

    def test_single_uniform_edge(self):
        x, y = Variable("x", ("0", "1")), Variable("y", ("0", "1"))
        mrf = MarkovRandomField([x, y], [Factor([x, y], np.ones((2, 2)))])
        result = tree_bp(mrf)
        assert np.allclose(result.marginal("x").values, [0.5, 0.5])
        assert np.allclose(result.marginal("y").values, [0.5, 0.5])

    def test_crf_shaped_factor_tree(self, rng):
        # labels chained pairwise with per-label unary observations
        ys = [Variable(f"y{i}", ("a", "b", "c")) for i in range(3)]
        factors = [Factor([y], rng.random(3) + 0.1) for y in ys]
        factors += [
            Factor([ys[i], ys[i + 1]], rng.random((3, 3)) + 0.1) for i in range(2)
        ]
        mrf = MarkovRandomField(ys, factors)
        result = tree_bp(mrf)
        for y in ys:
            want = enumerate_inference(mrf, [y.name])
            assert np.allclose(result.marginal(y.name).values, want.values, atol=1e-9)

    def test_random_trees_match_enumeration(self, rng):
        for _ in range(15):
            mrf = random_tree_mrf(rng, n=int(rng.integers(2, 8)))
            result = tree_bp(mrf)
            z = enumerate_inference(mrf, mode="partition")
            assert result.log_partition == pytest.approx(math.log(z), abs=1e-9)
            for name in mrf.variables:
                want = enumerate_inference(mrf, [name])
                assert np.allclose(result.marginal(name).values, want.values, atol=1e-9)

    def test_evidence_splits_tree(self, rng):
        mrf = random_tree_mrf(rng, n=5)
        names = sorted(mrf.variables)
        mid = names[2]
        ev = {mid: mrf.variable(mid).states[0]}
        result = tree_bp(mrf, ev)
        for name in names:
            if name == mid:
                continue
            want = enumerate_inference(mrf, [name], ev)
            assert np.allclose(result.marginal(name).values, want.values, atol=1e-9)

    def test_loopy_input_rejected(self, rng):
        from pgmkit.zoo import voting_mrf

        with pytest.raises(NotATreeError):
            tree_bp(voting_mrf())

    def test_factor_beliefs_are_pairwise_marginals(self, rng):
        mrf = random_tree_mrf(rng, n=4)
        result = tree_bp(mrf)
        fg = to_factor_graph(mrf)
        for i, f in enumerate(fg.factors):
            if len(f.scope) == 2:
                want = enumerate_inference(mrf, list(f.names))
                got = fa.align_to(result.factor_beliefs[i], sorted(f.names))
                assert np.allclose(got.table, want.table, atol=1e-9)


class TestMaxProductDecode:
    def test_student_map(self):
        assignment, logp = max_product_decode(student_network())
        assert assignment == {
            "DIFFICULTY": "d1",
            "INVESTMENT": "i0",
            "GRADE": "g3",
            "SAT": "s0",
            "LETTER": "l0",
        }
        assert math.exp(logp) == pytest.approx(0.184338)

    def test_deterministic_chain(self):
        xs = [Variable(f"x{i}", ("0", "1")) for i in range(4)]
        factors = [Factor([xs[0]], [0.0, 1.0])]
        factors += [
            Factor([xs[i], xs[i + 1]], np.eye(2)) for i in range(3)
        ]
        mrf = MarkovRandomField(xs, factors)
        assignment, _ = max_product_decode(mrf)
        assert all(assignment[f"x{i}"] == "1" for i in range(4))

    def test_ties_break_lexicographically(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], [[0.0, 1.0], [1.0, 0.0]])])
        assignment, _ = max_product_decode(mrf)
        assert assignment == {"a": "0", "b": "1"}

    def test_random_trees_match_enumeration(self, rng):
        for _ in range(100):
            mrf = random_tree_mrf(rng, n=int(rng.integers(2, 9)), max_states=3)
            got, logp = max_product_decode(mrf)
            want, want_logp = enumerate_inference(mrf, mode="map")
            assert got == want
            assert logp == pytest.approx(want_logp, abs=1e-9)

    def test_with_evidence(self, rng):
        for _ in range(20):
            bn = random_bn(rng, n=5, max_states=3)
            names = sorted(bn.variables)
            v = bn.variable(names[0])
            ev = {v.name: v.states[0]}
            got, _ = max_product_decode(bn, ev)
            want, _ = enumerate_inference(bn, mode="map", evidence=ev)
            assert got == want

    def test_table_cap_is_checked_before_allocating(self, monkeypatch):
        # in reverse name order the largest table comes when INVESTMENT
        # goes, over {INVESTMENT, DIFFICULTY, GRADE}: 2 * 2 * 3 entries
        bn = student_network()
        want, _ = max_product_decode(bn)
        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        with pytest.raises(TooLargeError, match="12 entries .* 'INVESTMENT'"):
            max_product_decode(bn)
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        assert max_product_decode(bn)[0] == want
        # evidence on GRADE removes it from the simulated elimination
        monkeypatch.setattr(exact, "TABLE_CAP", 4)
        got, _ = max_product_decode(bn, {"GRADE": "g1"})
        want, _ = enumerate_inference(bn, mode="map", evidence={"GRADE": "g1"})
        assert got == want


class TestJunctionTree:
    def test_asia_structure(self, rng):
        bn = random_cpds(
            [Variable(n, ("no", "yes")) for n in asia_dag().nodes], asia_dag(), rng
        )
        jt = build_junction_tree(bn)
        assert family_preservation_holds(jt)
        assert running_intersection_holds(jt)
        assert len(jt.cliques) <= len(bn.variables)

    def test_tree_model_cliques_are_edges(self, rng):
        bn = chain_bn(5, rng)
        jt = build_junction_tree(bn)
        pair_cliques = [c for c in jt.cliques if len(c) == 2]
        assert len(pair_cliques) == 4
        for (a, b) in jt.tree_edges:
            assert len(jt.sepsets[(a, b)]) == 1

    def test_random_models_pass_property_checkers(self, rng):
        for _ in range(20):
            model = (
                random_bn(rng, n=int(rng.integers(2, 9)), max_states=3)
                if rng.random() < 0.5
                else random_mrf(rng, n=int(rng.integers(2, 9)), max_states=3)
            )
            jt = build_junction_tree(model)
            assert family_preservation_holds(jt)
            assert running_intersection_holds(jt)

    def test_student_marginal_via_jt(self):
        jt = jt_calibrate(build_junction_tree(student_network()))
        marg = jt_query(jt, "LETTER")
        assert np.allclose(marg.values, [0.497664, 0.502336], atol=1e-9)

    def test_calibration_consistency(self, rng):
        for _ in range(10):
            model = random_mrf(rng, n=6, max_states=3)
            jt = jt_calibrate(build_junction_tree(model))
            logz = jt_clique_log_partitions(jt)
            assert np.allclose(logz, jt.log_partition, rtol=1e-9)
            # neighboring cliques agree on their sepset marginals
            for (a, b) in jt.tree_edges:
                sep = sorted(jt.sepsets[(a, b)])
                if not sep:
                    continue
                ma = fa.eliminate(jt.beliefs[a], [n for n in jt.beliefs[a].names if n not in sep])
                mb = fa.eliminate(jt.beliefs[b], [n for n in jt.beliefs[b].names if n not in sep])
                ma, _ = fa.normalize(ma)
                mb, _ = fa.normalize(fa.align_to(mb, ma.names))
                assert np.allclose(ma.table, mb.table, atol=1e-9)

    def test_partition_matches_enumeration(self, rng):
        for _ in range(10):
            model = random_mrf(rng, n=5, max_states=3)
            jt = jt_calibrate(build_junction_tree(model))
            z = enumerate_inference(model, mode="partition")
            assert jt.log_partition == pytest.approx(math.log(z), rel=1e-9)

    def test_evidence_fixing_everything(self, rng):
        bn = random_bn(rng, n=4, max_states=2)
        assignment, logp = enumerate_inference(bn, mode="map")
        jt = jt_calibrate(build_junction_tree(bn), assignment)
        assert jt.log_partition == pytest.approx(logp, abs=1e-9)

    def test_queries_reuse_calibration(self, rng):
        bn = random_bn(rng, n=5, max_states=2)
        jt = jt_calibrate(build_junction_tree(bn))
        sends_before = len(jt.messages)
        for name in bn.variables:
            jt_query(jt, name)
        assert len(jt.messages) == sends_before

    def test_message_count_is_two_per_edge(self, rng):
        model = random_mrf(rng, n=6)
        jt = jt_calibrate(build_junction_tree(model))
        assert len(jt.messages) == 2 * len(jt.tree_edges)

    def test_clique_cap_is_checked_before_building_potentials(self, monkeypatch):
        # the largest clique is {DIFFICULTY, GRADE, INVESTMENT}: 2 * 3 * 2 entries
        bn = student_network()
        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        with monkeypatch.context() as m:
            m.setattr(fa, "product_all", no_tables)
            with pytest.raises(TooLargeError, match=r"12 entries for the clique "
                               r"\['DIFFICULTY', 'GRADE', 'INVESTMENT'\], over the cap of 11"):
                build_junction_tree(bn)
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        jt = jt_calibrate(build_junction_tree(bn))
        want = variable_elimination(bn, ["LETTER"]).normalized()
        assert np.allclose(jt_query(jt, "LETTER").table, want.table, atol=1e-12)

    def test_dot_export(self, rng):
        jt = build_junction_tree(student_network())
        dot = jt.to_dot()
        assert "ellipse" in dot and "box" in dot
        assert dot == jt.to_dot()


class TestDisconnectedModels:
    def two_islands(self, rng):
        a, b, c, d = (Variable(n, ("0", "1")) for n in "abcd")
        return MarkovRandomField(
            [a, b, c, d],
            [
                Factor([a, b], rng.random((2, 2)) + 0.1),
                Factor([c, d], rng.random((2, 2)) + 0.1),
            ],
        )

    def test_junction_tree_spans_components(self, rng):
        mrf = self.two_islands(rng)
        jt = jt_calibrate(build_junction_tree(mrf))
        # zero-weight clique edges keep the tree connected across islands
        assert len(jt.tree_edges) == len(jt.cliques) - 1
        z = enumerate_inference(mrf, mode="partition")
        assert jt.log_partition == pytest.approx(math.log(z), rel=1e-9)
        for name in mrf.variables:
            want = enumerate_inference(mrf, [name])
            assert np.allclose(jt_query(jt, name).values, want.values, atol=1e-9)

    def test_tree_bp_handles_forest(self, rng):
        mrf = self.two_islands(rng)
        result = tree_bp(mrf)
        z = enumerate_inference(mrf, mode="partition")
        assert result.log_partition == pytest.approx(math.log(z), abs=1e-9)
        for name in mrf.variables:
            want = enumerate_inference(mrf, [name])
            assert np.allclose(result.marginal(name).values, want.values, atol=1e-9)

    def test_ve_with_factorless_variable(self, rng):
        a = Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1", "2"))
        mrf = MarkovRandomField([a, b], [Factor([a], [0.2, 0.8])])
        got = variable_elimination(mrf, ["b"]).normalized()
        assert np.allclose(got.values, [1 / 3] * 3)


class TestEngineAgreement:
    def test_three_engines_vs_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            model = (
                random_bn(rng, n=n, max_states=3)
                if rng.random() < 0.5
                else random_mrf(rng, n=n, max_states=3)
            )
            names = sorted(model.variables)
            ev = {}
            if n > 2 and rng.random() < 0.5:
                v = model.variable(names[-1])
                ev[v.name] = v.states[0]
            jt = jt_calibrate(build_junction_tree(model), ev)
            fg_tree = to_factor_graph(model).is_tree()
            bp = tree_bp(model, ev) if fg_tree else None
            for target in names:
                if target in ev:
                    continue
                want = enumerate_inference(model, [target], ev)
                ve = variable_elimination(model, [target], ev).normalized()
                assert np.allclose(ve.values, want.values, atol=1e-9)
                assert np.allclose(jt_query(jt, target).values, want.values, atol=1e-9)
                if bp is not None:
                    assert np.allclose(
                        bp.marginal(target).values, want.values, atol=1e-9
                    )


# ---------------------------------------------------------------------------
# The indexed fast paths against the direct scans they replace
# ---------------------------------------------------------------------------


def reference_greedy_order(adj, cards, targets, heuristic):
    """Greedy elimination that re-costs every remaining node at every step."""
    adj = {n: set(nbrs) for n, nbrs in adj.items()}
    remaining = sorted(n for n in adj if n not in targets)
    order, width = [], 0

    def cost(n):
        nbrs = sorted(adj[n])
        if heuristic == "min_neighbors":
            return len(nbrs)
        if heuristic == "min_weight":
            return math.prod([cards[n]] + [cards[m] for m in nbrs])
        return sum(
            1
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
            if nbrs[j] not in adj[nbrs[i]]
        )

    while remaining:
        best = min(remaining, key=lambda n: (cost(n), n))
        order.append(best)
        remaining.remove(best)
        nbrs = sorted(adj[best])
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u] |= set(nbrs) - {u}
            adj[u].discard(best)
        del adj[best]
    return order, width


def reference_tree_edges(cliques):
    """Kruskal on the complete clique graph, zero-weight pairs included."""
    labels = [f"c{i}" for i in range(len(cliques))]
    pairs = [(labels[i], labels[j]) for i in range(len(cliques)) for j in range(i + 1, len(cliques))]
    weights = {(labels[i], labels[j]): len(cliques[i] & cliques[j])
               for i in range(len(cliques)) for j in range(i + 1, len(cliques))}
    tree = max_weight_spanning_tree(UndirectedGraph(labels, pairs), weights).tree
    index = {lab: k for k, lab in enumerate(labels)}
    return sorted((index[u], index[v]) for u, v in tree.edges)


def reference_running_intersection(jt):
    """Every clique on the path between two cliques holds their intersection."""
    adj = {i: jt.neighbors(i) for i in range(len(jt.cliques))}

    def path(i, j):
        prev, stack = {i: None}, [i]
        while stack:
            u = stack.pop()
            if u == j:
                out = [j]
                while prev[out[-1]] is not None:
                    out.append(prev[out[-1]])
                return out
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    stack.append(w)
        return None

    for i in range(len(jt.cliques)):
        for j in range(i + 1, len(jt.cliques)):
            inter = jt.cliques[i] & jt.cliques[j]
            if inter:
                p = path(i, j)
                if p is None or any(not inter <= jt.cliques[k] for k in p):
                    return False
    return True


def random_graph_model(rng):
    """A random MRF over up to 14 variables, often disconnected."""
    n = int(rng.integers(1, 15))
    return random_mrf(rng, n=n, max_states=4, n_factors=n + int(rng.integers(0, 2 * n)),
                      max_scope=int(rng.integers(2, 4)))


class TestFastPathsMatchReferences:
    def test_greedy_order_matches_min_scan(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 16))
            names = [f"n{k}" for k in range(n)]       # n10 sorts before n2
            p = float(rng.uniform(0.0, 0.6))
            adj = {a: set() for a in names}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        adj[names[i]].add(names[j])
                        adj[names[j]].add(names[i])
            cards = {a: int(rng.integers(2, 5)) for a in names}
            targets = {a for a in names if rng.random() < 0.15}
            for heuristic in ("min_neighbors", "min_weight", "min_fill"):
                got = _greedy_order(adj, cards, targets, heuristic)
                assert got == reference_greedy_order(adj, cards, targets, heuristic)

    def test_orderings_and_clique_trees_match_references(self, rng):
        disconnected = 0
        for _ in range(60):
            model = random_graph_model(rng)
            graph = interaction_graph(model)
            adj = {n: set(graph.neighbors(n)) for n in graph.nodes}
            cards = {n: model.variable(n).cardinality for n in adj}
            disconnected += len(graph.connected_components()) > 1
            for heuristic in ("min_neighbors", "min_weight", "min_fill"):
                ordering = choose_ordering(model, heuristic)
                want = reference_greedy_order(adj, cards, set(), heuristic)
                assert (list(ordering.order), ordering.induced_width) == want
                jt = build_junction_tree(model, heuristic)
                assert jt.tree_edges == reference_tree_edges(jt.cliques)
                assert running_intersection_holds(jt) and reference_running_intersection(jt)
        assert disconnected >= 10

    def test_running_intersection_agrees_on_broken_trees(self, rng):
        broken = 0
        for _ in range(60):
            jt = build_junction_tree(random_graph_model(rng))
            n = len(jt.cliques)
            if n < 3:
                continue
            # a random spanning tree over the same cliques
            order = [int(k) for k in rng.permutation(n)]
            edges = [(order[k], order[int(rng.integers(0, k))]) for k in range(1, n)]
            rewired = dataclasses.replace(jt, tree_edges=edges)
            got = running_intersection_holds(rewired)
            assert got == reference_running_intersection(rewired)
            broken += not got
            # dropping an edge splits the tree
            split = dataclasses.replace(jt, tree_edges=jt.tree_edges[1:])
            assert running_intersection_holds(split) == reference_running_intersection(split)
        assert broken >= 10

    def test_long_chain_sends_two_messages_per_edge(self, rng):
        bn = chain_bn(600, rng)
        result = tree_bp(bn)
        edges = len(to_factor_graph(bn).edges)
        assert result.messages.sends == 2 * edges == 2 * 1199
        want = variable_elimination(bn, ["x599"]).normalized()
        assert np.allclose(result.marginal("x599").values, want.values, atol=1e-12)
