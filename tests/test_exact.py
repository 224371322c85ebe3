import collections
import dataclasses
import heapq
import math

import numpy as np
import pytest

from conftest import hmm_chain, random_bn, random_mrf, random_tree_mrf
from pgmkit import exact, factors as fa
from pgmkit.errors import (
    IncompatibleVariableError,
    NotATreeError,
    OrderingError,
    TooLargeError,
    ZeroEvidenceError,
)
from pgmkit.exact import (
    MAX_PRODUCT,
    _greedy_order,
    build_junction_tree,
    choose_ordering,
    family_preservation_holds,
    interaction_graph,
    jt_calibrate,
    jt_clique_log_partitions,
    jt_marginal,
    jt_query,
    max_product_decode,
    running_intersection_holds,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import MIN_SUM, OR_AND, Factor, Variable
from pgmkit.graphs import DirectedGraph, UndirectedGraph, induced_width, max_weight_spanning_tree
from pgmkit.models import (
    BayesianNetwork,
    ChainCRF,
    MarkovRandomField,
    enumerate_inference,
    random_cpds,
    relevant_network,
    to_factor_graph,
)
from pgmkit.variational import loopy_bp
from pgmkit.zoo import asia_dag, student_network


def no_tables(*args, **kwargs):
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
            value = math.log(float(result.factor.table)) + result.log_normalizer
            assert value == pytest.approx(best, rel=0, abs=1e-12)

    def test_table_cap_is_checked_before_allocating(self, monkeypatch):
        # min_fill eliminates DIFFICULTY first, over {DIFFICULTY, INVESTMENT,
        # GRADE}: 2 * 2 * 3 entries
        bn = student_network()
        want = variable_elimination(bn, ["LETTER"])
        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        with monkeypatch.context() as m:
            m.setattr(fa, "_product_into", no_tables)
            with pytest.raises(TooLargeError, match="needs a table of 12 entries when it "
                               "eliminates 'DIFFICULTY', over the cap of 11"):
                variable_elimination(bn, ["LETTER"])
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        got = variable_elimination(bn, ["LETTER"])
        assert np.array_equal(got.factor.table, want.factor.table)
        assert got.max_intermediate_scope == 3

    def test_only_sum_and_max_product_are_eliminated(self):
        # the elimination multiplies tables: on f(a) = [2, 3] and
        # g(a, b) = [[1, 5], [4, 0.5]] it would answer [2, 1.5] under
        # min-sum (the energies give [3, 3.5]) and [10, 12] under or-and
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        g = Factor([a, b], [[1.0, 5.0], [4.0, 0.5]])
        mrf = MarkovRandomField([a, b], [Factor([a], [2.0, 3.0]), g])
        for semiring in (MIN_SUM, OR_AND):
            # refused before the (bad) evidence is even looked at
            with pytest.raises(ValueError, match="sum_product or max_product, not "):
                variable_elimination(mrf, ["a"], {"c": "0"}, semiring=semiring)
        # a single elimination still takes all four semirings
        assert fa.eliminate(g, ["b"], MIN_SUM).values.tolist() == [1.0, 0.5]
        assert fa.eliminate(g, ["b"], OR_AND).values.tolist() == [5.0, 4.0]


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

    @pytest.mark.parametrize("steps", [500, 3000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0])
    def test_long_chains_match_a_log_space_viterbi(self, steps, scale):
        # the max of the joint is past float range on all but one chain:
        # about e**-3136 for 500 steps at 1e-3, e**1828 for 3000 steps at 1
        rng = np.random.default_rng(0)
        xs = [Variable(f"x{t:04d}", ("0", "1", "2")) for t in range(steps + 1)]
        tables = rng.gamma(1.0, size=(steps, 3, 3)) * scale
        mrf = MarkovRandomField(xs, [Factor([xs[t], xs[t + 1]], tables[t]) for t in range(steps)])
        logs = np.log(tables)
        best = np.zeros(3)      # the best log score of x_0..x_t, per state of x_t
        back = []
        for t in range(steps):
            scores = best[:, None] + logs[t]
            back.append(np.argmax(scores, axis=0))
            best = scores.max(axis=0)
        path = [int(np.argmax(best))]
        for pointers in reversed(back):
            path.append(int(pointers[path[-1]]))
        path.reverse()
        assignment, logp = max_product_decode(mrf)
        assert [int(assignment[x.name]) for x in xs] == path
        assert logp == pytest.approx(float(best.max()), rel=1e-12)
        # VE's max value reads through its log normalizer, past float range too
        top = variable_elimination(mrf, [], semiring=MAX_PRODUCT)
        value = math.log(float(top.factor.table)) + top.log_normalizer
        assert value == pytest.approx(float(best.max()), rel=1e-12)


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

    def test_single_marginal_matches_calibration(self, rng):
        for _ in range(10):
            model = random_mrf(rng, n=7, max_states=3)
            names = sorted(model.variables)
            evidence = {names[0]: model.variable(names[0]).states[-1]}
            jt = build_junction_tree(model)
            calibrated = jt_calibrate(build_junction_tree(model), evidence)
            for name in names:
                got = jt_marginal(jt, name, evidence)
                want = jt_query(calibrated, name)
                assert got.names == want.names
                np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)
            assert not jt.calibrated and jt.beliefs is None  # the tree is left as it was

    def test_single_marginal_under_zero_evidence(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], [[1.0, 0.0], [2.0, 3.0]])])
        jt = build_junction_tree(mrf)
        np.testing.assert_allclose(jt_marginal(jt, "a", {"b": "1"}).table, [0.0, 1.0])
        with pytest.raises(ZeroEvidenceError):
            jt_marginal(jt, "b", {"a": "0", "b": "1"})

    def test_single_marginal_sends_one_message_per_edge(self, rng, monkeypatch):
        sends = []
        send = exact._MessageGraph.send
        monkeypatch.setattr(exact._MessageGraph, "send",
                            lambda self, *args: sends.append(args) or send(self, *args))
        for model in (student_network(), random_mrf(rng, n=9, max_states=2)):
            jt = build_junction_tree(model)
            assert len(jt.cliques) >= 3
            for name in sorted(model.variables):
                sends.clear()
                jt_marginal(jt, name)
                assert len(sends) == len(jt.cliques)  # one per tree edge, then the belief
            sends.clear()
            jt_calibrate(jt)
            assert len(sends) == 3 * len(jt.cliques) - 2

    def test_clique_cap_is_checked_before_building_potentials(self, monkeypatch):
        # the largest clique is {DIFFICULTY, GRADE, INVESTMENT}: 2 * 3 * 2 entries
        bn = student_network()
        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        with monkeypatch.context() as m:
            m.setattr(fa, "_product_into", no_tables)
            with pytest.raises(TooLargeError, match=r"12 entries for the clique "
                               r"\['DIFFICULTY', 'GRADE', 'INVESTMENT'\], over the cap of 11"):
                build_junction_tree(bn)
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        jt = jt_calibrate(build_junction_tree(bn))
        want = variable_elimination(bn, ["LETTER"]).normalized()
        assert np.allclose(jt_query(jt, "LETTER").table, want.table, atol=1e-12)

    def test_build_builds_no_table(self, rng, monkeypatch):
        crf = ChainCRF(["a", "b", "c"], 2, lambda x, t: np.eye(2)[x[t]],
                       node_weights=rng.normal(size=(3, 2)), trans_weights=rng.normal(size=(3, 3)))
        for model in (student_network(), random_mrf(rng, n=8), crf.to_mrf([0, 1, 1, 0])):
            with monkeypatch.context() as m:
                m.setattr(Factor, "__init__", no_tables)
                jt = build_junction_tree(model)
            assert family_preservation_holds(jt) and len(jt.potentials) == len(jt.cliques)

    def test_tables_under_evidence_fit_the_reduced_cliques(self, rng, monkeypatch):
        model = random_mrf(rng, n=9, max_states=3, n_factors=18)
        jt = build_junction_tree(model)

        def entries(clique, evidence):
            return math.prod(model.variable(n).cardinality for n in clique if n not in evidence)

        widest = max(entries(c, {}) for c in jt.cliques)
        evidence = {}
        for c in jt.cliques:
            if entries(c, {}) == widest:
                name = min(c)
                evidence[name] = model.variable(name).states[-1]
        cap = max(entries(c, evidence) for c in jt.cliques)
        assert cap < widest  # the evidence shrinks every widest clique

        sizes = []
        init, send = Factor.__init__, exact._MessageGraph.send

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sizes.append(self.table.size)

        def recording_send(self, *args):
            out = send(self, *args)
            sizes.append(out.size)
            return out

        with monkeypatch.context() as m:
            m.setattr(Factor, "__init__", recording_init)
            m.setattr(exact._MessageGraph, "send", recording_send)
            jt_calibrate(jt, evidence)
            for name in sorted(set(model.variables) - set(evidence)):
                jt_marginal(jt, name, evidence)
        assert sizes and max(sizes) == cap

    def test_calibration_writes_into_no_base_table_or_message(self, monkeypatch):
        gen = np.random.default_rng(1)
        names = [f"W{k:02d}" for k in range(40)]
        dag = DirectedGraph(names, [(p, names[k]) for k in range(1, 40)
                                    for p in gen.choice(names[:k], size=min(k, 3), replace=False)])
        wide = random_cpds([Variable(n, ("s0", "s1", "s2")) for n in names], dag, gen)
        send = exact._MessageGraph.send
        for model, evidence in [(student_network(), {"GRADE": "g2"}),
                                (wide, {"W07": "s0", "W23": "s1", "W36": "s2"})]:
            graph, _ = exact._clique_graph(build_junction_tree(model), evidence)
            bases = {node: table.copy() for node, table in graph.base.items()}
            first_seen = {}

            def checked_send(self, messages, node, target=None):
                for edge, message in messages.items():
                    kept = first_seen.setdefault(edge, message.copy())
                    assert message.tobytes() == kept.tobytes(), edge
                return send(self, messages, node, target)

            with monkeypatch.context() as m:
                m.setattr(exact._MessageGraph, "send", checked_send)
                cal = exact._calibrate(graph)
            assert len(first_seen) > len(graph.nodes)
            for node, table in graph.base.items():
                assert table.tobytes() == bases[node].tobytes(), node
            for edge, kept in first_seen.items():
                assert cal.messages[edge].tobytes() == kept.tobytes(), edge

    def test_clique_with_an_empty_reduced_scope_calibrates(self):
        # the clique {a, b} joins the other two and has no variable left
        # under the evidence, so its tables are 0-d
        a, b, c, d = (Variable(n, ("0", "1")) for n in "abcd")
        mrf = MarkovRandomField([a, b, c, d], [Factor([a, b], [[1.0, 2.0], [3.0, 4.0]]),
                                               Factor([b, c], [[5.0, 1.0], [2.0, 7.0]]),
                                               Factor([b, d], [[1.0, 3.0], [2.0, 2.0]])])
        evidence = {"a": "1", "b": "0"}
        jt = build_junction_tree(mrf)
        hub = jt.cliques.index(frozenset("ab"))
        assert len(jt.neighbors(hub)) == 2
        calibrated = jt_calibrate(build_junction_tree(mrf), evidence)
        assert calibrated.beliefs[hub].table.shape == ()
        for name in "cd":
            want = enumerate_inference(mrf, [name], evidence).table
            np.testing.assert_allclose(jt_query(calibrated, name).table, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(jt_marginal(jt, name, evidence).table, want,
                                       rtol=0, atol=1e-12)
        assert calibrated.log_partition == pytest.approx(math.log(3.0 * 6.0 * 4.0))

    def test_build_makes_the_interaction_graph_once(self, monkeypatch):
        graphs = []
        make = exact.interaction_graph
        monkeypatch.setattr(exact, "interaction_graph", lambda model: graphs.append(model)
                            or make(model))
        jt = build_junction_tree(student_network())
        assert graphs == [jt.model]

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


class TestLogDomain:
    def test_engines_agree_past_the_exp_range(self):
        # node scores of 800 and 790 overflow a plain exp(score)
        crf = ChainCRF(["a", "b"], 2, lambda x, t: np.eye(2)[x[t]],
                       node_weights=[[800.0, 0.0], [0.0, 790.0]])
        mrf = crf.to_mrf([0, 1])
        cases = [({}, 1590.0, {"y0": "a", "y1": "b"}), ({"y0": "b"}, 790.0, {"y0": "b", "y1": "b"})]
        for evidence, log_z, best in cases:
            bp = tree_bp(mrf, evidence)
            jt = jt_calibrate(build_junction_tree(mrf), evidence)
            assert bp.log_partition == log_z
            assert variable_elimination(mrf, [], evidence).log_normalizer == log_z
            assert jt.log_partition == log_z
            assert jt_clique_log_partitions(jt) == [log_z] * len(jt.cliques)
            for name in sorted(set(mrf.variables) - set(evidence)):
                want = bp.marginal(name)
                for got in (variable_elimination(mrf, [name], evidence).normalized(),
                            jt_query(jt, name),
                            jt_marginal(build_junction_tree(mrf), name, evidence)):
                    assert got.names == want.names
                    np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)
            assert max_product_decode(mrf, evidence) == (best, log_z)


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


class TestRelevantNetwork:
    """``relevant_network`` drops barren nodes only where their CPDs sum out to 1."""

    @staticmethod
    def network_with_leaf(rng, leaf_cpd):
        """A -> B, A -> C -> D and A -> E over binary variables, random CPDs
        but D's, which ``leaf_cpd`` builds from D and C."""
        v = {n: Variable(n, ("0", "1")) for n in "ABCDE"}
        dag = DirectedGraph(v, [("A", "B"), ("A", "C"), ("C", "D"), ("A", "E")])
        bn = random_cpds(list(v.values()), dag, rng)
        bn.cpds["D"] = leaf_cpd(v["D"], v["C"])
        return bn

    @pytest.mark.parametrize("leaf_cpd", [
        lambda d, c: Factor([d, c], 2 * np.array([[0.3, 0.6], [0.7, 0.4]])),
        lambda d, c: Factor([d, c], np.log([[0.3, 0.6], [0.7, 0.4]]), domain=fa.LOG),
    ], ids=["rows_sum_to_2", "log_domain"])
    def test_a_barren_leaf_that_may_not_sum_out_stays(self, rng, leaf_cpd):
        bn = self.network_with_leaf(rng, leaf_cpd)
        evidence = {"C": "1"}
        sub = relevant_network(bn, ["B"], evidence)
        assert sorted(sub.variables) == ["A", "B", "C", "D"]
        assert all(sub.cpds[n] is bn.cpds[n] for n in sub.variables)
        log_z = enumerate_inference(bn, mode="log_partition", evidence=evidence)
        jt = jt_calibrate(build_junction_tree(sub), evidence)
        bp = tree_bp(sub, evidence)
        for name in "AB":
            want = enumerate_inference(bn, [name], evidence)
            for got in (variable_elimination(sub, [name], evidence).normalized(),
                        jt_query(jt, name),
                        jt_marginal(build_junction_tree(sub), name, evidence),
                        bp.marginal(name)):
                np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)
        for got in (variable_elimination(sub, ["B"], evidence).log_normalizer,
                    jt.log_partition, bp.log_partition):
            assert got == pytest.approx(log_z, rel=0, abs=1e-12)

    def test_a_field_and_a_network_with_nothing_to_drop_come_back_as_they_are(self, rng):
        mrf = random_mrf(rng)
        assert relevant_network(mrf, ["v0"], {}) is mrf
        bn = self.network_with_leaf(rng, lambda d, c: Factor([d, c], [[0.5, 0.5], [0.5, 0.5]]))
        assert relevant_network(bn, ["D"], {"B": "0", "E": "1"}) is bn

    def test_a_long_observed_chain_is_walked_once(self, monkeypatch):
        bn, evidence = hmm_chain(np.random.default_rng(3), 3000)
        calls = collections.Counter()
        parents = bn.dag.parents
        monkeypatch.setattr(bn.dag, "parents", lambda v: calls.update([v]) or parents(v))
        monkeypatch.setattr(bn.dag, "ancestors", lambda v: pytest.fail("a walk per node"))
        assert relevant_network(bn, ["H1500"], evidence) is bn
        assert len(calls) == len(bn.variables)
        assert max(calls.values()) == 1


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


def set_based_greedy_order(adj, cards, targets, heuristic):
    """The lazy-heap greedy elimination on adjacency sets, as it stood
    before the bitset version."""
    adj = {n: set(nbrs) for n, nbrs in adj.items()}

    def cost(n):
        nbrs = adj[n]
        if heuristic == "min_neighbors":
            return len(nbrs)
        if heuristic == "min_weight":
            out = cards[n]
            for m in nbrs:
                out *= cards[m]
            return out
        nbrs = list(nbrs)
        return sum(
            1
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
            if nbrs[j] not in adj[nbrs[i]]
        )

    current = {n: cost(n) for n in adj if n not in targets}
    heap = [(c, n) for n, c in current.items()]
    heapq.heapify(heap)
    order, width = [], 0
    while heap:
        c, best = heapq.heappop(heap)
        if current.get(best) != c:
            continue
        del current[best]
        order.append(best)
        nbrs = adj.pop(best)
        for m in nbrs:
            adj[m].discard(best)
            adj[m].update(nbrs)
            adj[m].discard(m)
        width = max(width, len(nbrs))
        touched = set(nbrs)
        if heuristic == "min_fill":
            for m in nbrs:
                touched |= adj[m]
        for m in touched:
            if m in current:
                c = cost(m)
                if c != current[m]:
                    current[m] = c
                    heapq.heappush(heap, (c, m))
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

    def test_greedy_order_matches_the_set_based_version(self, rng):
        sizes = [1, 2, 63, 64, 65, 150, *(int(k) for k in rng.integers(1, 151, size=94))]
        for n in sizes:
            names = [f"n{k}" for k in rng.permutation(n)]
            adj = {a: set() for a in names}
            linked = names[: int(rng.integers(0, n + 1))]   # the rest stay isolated
            p = float(rng.uniform(0.0, min(1.0, 6.0 / max(len(linked), 1))))
            for i in range(len(linked)):
                for j in range(i + 1, len(linked)):
                    if rng.random() < p:
                        adj[linked[i]].add(linked[j])
                        adj[linked[j]].add(linked[i])
            cards = {a: int(rng.integers(1, 4)) for a in names}
            targets = {a for a in names if rng.random() < 0.1}
            for heuristic in ("min_neighbors", "min_weight", "min_fill"):
                got = _greedy_order(adj, cards, targets, heuristic)
                assert got == set_based_greedy_order(adj, cards, targets, heuristic), (n, heuristic)

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


def test_message_passing_builds_no_factor_per_message(monkeypatch):
    # a count, the same on any machine: tree BP builds a Factor per reduced
    # factor and per returned belief, the junction tree's single marginal
    # the reduced factors and a constant, and neither one per message
    built = []
    init = Factor.__init__
    monkeypatch.setattr(Factor, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    counts = {}
    for steps in (150, 600):
        bn, evidence = hmm_chain(np.random.default_rng(3), steps)
        jt = build_junction_tree(bn)
        reduced = steps  # every emission table is reduced to a new Factor; nothing else is
        built.clear()
        result = tree_bp(bn, evidence)
        assert len(built) == reduced + len(result.marginals) + len(result.factor_beliefs)
        bp = len(built)
        built.clear()
        jt_marginal(jt, f"H{steps // 2:03d}", evidence)
        assert len(built) - reduced <= 3
        jt_count = len(built)
        # nor does elimination build one per step: VE builds its answer,
        # the decoder nothing past the reduced factors
        built.clear()
        variable_elimination(bn, [f"H{steps // 2:03d}"], evidence)
        assert len(built) - reduced <= 1
        ve = len(built)
        built.clear()
        max_product_decode(bn, evidence)
        assert len(built) - reduced <= 1
        counts[steps] = (bp, jt_count, ve, len(built))
    for small, large in zip(counts[150], counts[600]):
        assert large <= 4.1 * small


@pytest.mark.parametrize("engine", [
    lambda m: variable_elimination(m, ["b"]),
    max_product_decode,
    tree_bp,
    lambda m: jt_marginal(build_junction_tree(m), "b"),
    lambda m: jt_calibrate(build_junction_tree(m)),
    loopy_bp,
], ids=["ve", "maxprod", "bp", "jt_marginal", "jt_calibrate", "loopy"])
def test_factors_that_disagree_on_a_variable_are_refused(engine):
    # two factors give `a` different states: every engine that multiplies
    # tables refuses the model, rather than pairing states by position
    a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
    other_a = Variable("a", ("x", "y"))
    mrf = MarkovRandomField([a, b], [Factor([a], [2.0, 3.0]),
                                     Factor([other_a, b], [[1.0, 5.0], [4.0, 0.5]])])
    with pytest.raises(IncompatibleVariableError, match="variable 'a' has states"):
        engine(mrf)
