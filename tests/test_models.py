import math

import numpy as np
import pytest

from conftest import random_bn, random_mrf, random_tree_mrf
from pgmkit import factors as fa
from pgmkit.errors import EvidenceError, TooLargeError
from pgmkit.exact import (
    build_junction_tree,
    jt_calibrate,
    jt_query,
    max_product_decode,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph, moralize
from pgmkit.models import (
    BayesianNetwork,
    MarkovRandomField,
    bn_to_mrf,
    enumerate_inference,
    log_joint,
    to_factor_graph,
    validate,
)
from pgmkit.mapinf import dual_decomposition
from pgmkit.sampling import (
    SingleSiteUniformKernel,
    gibbs_transition_matrix,
    mh_transition_matrix,
)
from pgmkit.variational import loopy_bp, mean_field
from pgmkit.zoo import student_network, voting_mrf


class TestValidate:
    def test_student_network_valid(self):
        assert validate(student_network()) == []

    def test_bad_row_normalization(self):
        a = Variable("a", ("0", "1"))
        dag = DirectedGraph(["a"])
        bn = BayesianNetwork([a], dag, {"a": Factor([a], [0.5, 0.6])})
        problems = validate(bn)
        assert len(problems) == 1
        assert "sum to 1" in problems[0].rule

    def test_cyclic_dag_reported(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        dag = DirectedGraph(["a", "b"], [("a", "b"), ("b", "a")])
        bn = BayesianNetwork(
            [a, b],
            dag,
            {
                "a": Factor([a, b], [[0.5, 0.5], [0.5, 0.5]]),
                "b": Factor([b, a], [[0.5, 0.5], [0.5, 0.5]]),
            },
        )
        assert any("cyclic" in p.rule for p in validate(bn))

    def test_mrf_negative_entry_impossible_via_factor(self):
        # Factor construction itself blocks negatives; validate still guards states
        v = Variable("v", ("0", "1"))
        other = Variable("v", ("x", "y"))
        mrf = MarkovRandomField([v], [Factor([other], [1.0, 2.0])])
        assert any("state mismatch" in p.rule for p in validate(mrf))


class TestBnToMrf:
    def test_v_structure_moral_skeleton(self):
        x, y, z = (Variable(n, ("0", "1")) for n in "xyz")
        dag = DirectedGraph("xyz", [("x", "z"), ("y", "z")])
        cpds = {
            "x": Factor([x], [0.4, 0.6]),
            "y": Factor([y], [0.7, 0.3]),
            "z": Factor(
                [z, x, y],
                np.array([[[0.9, 0.5], [0.3, 0.1]], [[0.1, 0.5], [0.7, 0.9]]]),
            ),
        }
        bn = BayesianNetwork([x, y, z], dag, cpds)
        mrf = bn_to_mrf(bn)
        assert set(mrf.skeleton().edges) == set(moralize(dag).edges)
        assert any(set(f.names) == {"x", "y", "z"} for f in mrf.factors)
        assert enumerate_inference(mrf, mode="partition") == pytest.approx(1.0)

    def test_single_node(self):
        a = Variable("a", ("0", "1"))
        bn = BayesianNetwork([a], DirectedGraph(["a"]), {"a": Factor([a], [0.2, 0.8])})
        mrf = bn_to_mrf(bn)
        assert len(mrf.factors) == 1
        assert mrf.factors[0].names == ("a",)

    def test_partition_is_one_on_random_networks(self, rng):
        for _ in range(10):
            bn = random_bn(rng, n=int(rng.integers(2, 7)), max_states=3)
            z = enumerate_inference(bn_to_mrf(bn), mode="partition")
            assert z == pytest.approx(1.0, abs=1e-9)

    def test_joint_preserved(self, rng):
        bn = random_bn(rng, n=5, max_states=3)
        mrf = bn_to_mrf(bn)
        joint_bn = enumerate_inference(bn, query=sorted(bn.variables))
        joint_mrf = enumerate_inference(mrf, query=sorted(mrf.variables))
        assert np.allclose(joint_bn.table, joint_mrf.table, atol=1e-12)


class TestFactorGraph:
    def test_chain_is_tree(self):
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        mrf = MarkovRandomField(
            [a, b, c],
            [
                Factor([a, b], np.ones((2, 2))),
                Factor([b, c], np.ones((2, 2))),
            ],
        )
        fg = to_factor_graph(mrf)
        assert fg.is_tree()
        assert fg.neighbors_of_factor(0) == ("a", "b")

    def test_single_factor_star(self):
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        mrf = MarkovRandomField([a, b, c], [Factor([a, b, c], np.ones((2, 2, 2)))])
        fg = to_factor_graph(mrf)
        assert fg.is_tree()
        assert fg.neighbors_of_variable("b") == (0,)

    def test_empty_factor_list(self):
        a = Variable("a", ("0", "1"))
        fg = to_factor_graph(MarkovRandomField([a], []))
        assert fg.edges == ()

    def test_loop_not_tree(self):
        fg = to_factor_graph(voting_mrf())
        assert not fg.is_tree()

    def test_bipartite_no_odd_cycles(self):
        # walk parity check on a couple of small graphs
        for model in (voting_mrf(), student_network()):
            fg = to_factor_graph(model)
            color = {}
            for start in [("v", fg.variables[0].name)]:
                stack = [(start, 0)]
                while stack:
                    (kind, key), parity = stack.pop()
                    if (kind, key) in color:
                        assert color[(kind, key)] == parity
                        continue
                    color[(kind, key)] = parity
                    if kind == "v":
                        nbrs = [("f", i) for i in fg.neighbors_of_variable(key)]
                    else:
                        nbrs = [("v", n) for n in fg.neighbors_of_factor(key)]
                    stack.extend((n, 1 - parity) for n in nbrs)


class TestLogJoint:
    def test_student_map_assignment_value(self):
        bn = student_network()
        assignment = {
            "DIFFICULTY": "d1",
            "INVESTMENT": "i0",
            "GRADE": "g3",
            "SAT": "s0",
            "LETTER": "l0",
        }
        expected = 0.4 * 0.7 * 0.7 * 0.95 * 0.99
        assert expected == pytest.approx(0.184338)
        assert log_joint(bn, assignment) == pytest.approx(math.log(expected))

    def test_zero_entry_gives_minus_inf(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField(
            [a, b], [Factor([a, b], [[1.0, 0.0], [0.0, 1.0]])]
        )
        assert log_joint(mrf, {"a": "0", "b": "1"}) == -math.inf

    def test_voting_all_ones(self):
        assert log_joint(voting_mrf(), {n: "1" for n in "ABCD"}) == pytest.approx(
            math.log(1e4)
        )

    def test_missing_variable(self):
        with pytest.raises(EvidenceError):
            log_joint(voting_mrf(), {"A": "1"})


class TestEnumerate:
    def test_student_letter_marginal(self):
        marg = enumerate_inference(student_network(), query=["LETTER"])
        assert np.allclose(marg.values, [0.497664, 0.502336], atol=1e-9)

    def test_partition_of_bn_is_one(self, rng):
        for _ in range(5):
            bn = random_bn(rng, n=int(rng.integers(2, 6)))
            assert enumerate_inference(bn, mode="partition") == pytest.approx(1.0, abs=1e-9)

    def test_student_map(self):
        assignment, logp = enumerate_inference(student_network(), mode="map")
        assert assignment == {
            "DIFFICULTY": "d1",
            "INVESTMENT": "i0",
            "GRADE": "g3",
            "SAT": "s0",
            "LETTER": "l0",
        }
        assert math.exp(logp) == pytest.approx(0.184338)

    def test_conditional_matches_bayes_rule(self, rng):
        bn = random_bn(rng, n=4, max_states=3)
        names = sorted(bn.variables)
        ev_var = names[0]
        ev_state = bn.variables[ev_var].states[0]
        target = names[1]
        cond = enumerate_inference(bn, [target], {ev_var: ev_state})
        joint = enumerate_inference(bn, [target, ev_var])
        sliced = fa.reduce_factor(joint, {ev_var: ev_state})
        expected = sliced.values / np.sum(sliced.values)
        assert np.allclose(cond.values, expected, atol=1e-12)

    def test_map_tie_break_lexicographic(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField(
            [a, b], [Factor([a, b], [[0.0, 1.0], [1.0, 0.0]])]
        )
        assignment, _ = enumerate_inference(mrf, mode="map")
        assert assignment == {"a": "0", "b": "1"}

    def test_cap_enforced(self, rng):
        bn = random_bn(rng, n=6, max_states=2)
        with pytest.raises(TooLargeError):
            enumerate_inference(bn, mode="partition", cap=8)

    def test_exponentiated_log_joint_sums_to_one(self, rng):
        bn = random_bn(rng, n=5, max_states=2)
        total = 0.0
        for x in fa.assignments(sorted(bn.variables.values(), key=lambda v: v.name)):
            total += math.exp(log_joint(bn, x))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestLogDomainTwins:
    """A model whose factors hold log values answers as its linear twin
    does: engines that multiply tables exponentiate them, engines that take
    logs read them as logs."""

    EVIDENCE = {"v0": "s1"}

    @staticmethod
    def twins(rng):
        linear = random_tree_mrf(rng, n=4, max_states=3)
        logged = MarkovRandomField(
            list(linear.variables.values()),
            [Factor(f.scope, np.log(f.table), domain="log") for f in linear.factors],
        )
        return linear, logged

    @staticmethod
    def answer(engine, model, ev):
        if engine == "enum":
            return enumerate_inference(model, ["v1"], ev).values
        if engine == "ve":
            result = variable_elimination(model, ["v1"], ev)
            return np.append(result.normalized().values, result.log_normalizer)
        if engine == "bp":
            result = tree_bp(model, ev)
            return np.append(result.marginal("v1").values, result.log_partition)
        if engine == "jtree":
            jt = jt_calibrate(build_junction_tree(model), ev)
            return np.append(jt_query(jt, "v1").values, jt.log_partition)
        if engine == "loopy":
            # tol=0 runs every iteration on both twins
            return loopy_bp(model, ev, max_iters=20, tol=0.0).marginals["v1"].values
        if engine == "meanfield":
            # a negative tol runs every sweep on both twins
            q, trace = mean_field(model, ev, max_sweeps=10, tol=-1.0)
            return np.append(q.prob("v1"), trace.values)
        if engine == "gibbs":
            return gibbs_transition_matrix(model, ev)[0]
        if engine == "mh":
            free = [v for n, v in sorted(model.variables.items()) if n not in ev]
            return mh_transition_matrix(model, SingleSiteUniformKernel(free), ev)[0]
        raise AssertionError(engine)

    @pytest.mark.parametrize(
        "engine", ["enum", "ve", "bp", "jtree", "loopy", "meanfield", "gibbs", "mh"]
    )
    def test_query_engines(self, rng, engine):
        linear, logged = self.twins(rng)
        for ev in ({}, self.EVIDENCE):
            expected = self.answer(engine, linear, ev)
            got = self.answer(engine, logged, ev)
            assert got.shape == expected.shape
            assert np.allclose(got, expected, rtol=0, atol=1e-12), (engine, ev)

    def test_map_engines(self, rng):
        linear, logged = self.twins(rng)
        assignment, score = max_product_decode(linear)
        assert max_product_decode(logged) == (assignment, pytest.approx(score, abs=1e-12))
        expected = dual_decomposition(linear, max_iters=30)
        got = dual_decomposition(logged, max_iters=30)
        assert got.assignment == expected.assignment
        assert got.objective == pytest.approx(expected.objective, abs=1e-12)
        assert np.allclose(got.bounds, expected.bounds, rtol=0, atol=1e-12)
        assert got.best_bound >= got.objective - 1e-12
