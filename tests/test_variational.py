import math
import warnings

import numpy as np
import pytest

from conftest import random_mrf, random_tree_mrf
from pgmkit.errors import DegenerateUpdateError, ZeroEvidenceError
from pgmkit import exact, variational
from pgmkit.exact import tree_bp
from pgmkit.factors import Factor, Variable, align_to
from pgmkit.models import MarkovRandomField, enumerate_inference
from pgmkit.variational import (
    ElboTrace,
    FactoredDistribution,
    elbo,
    kl_divergence,
    loopy_bp,
    mean_field,
)
from pgmkit.zoo import voting_mrf


class TestKl:
    def test_identical_distributions(self, rng):
        a = Variable("a", ("0", "1", "2"))
        p = Factor([a], rng.dirichlet(np.ones(3)))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_vs_uniform(self):
        a = Variable("a", ("0", "1"))
        q = Factor([a], [1.0, 0.0])
        p = Factor([a], [0.5, 0.5])
        assert kl_divergence(q, p) == pytest.approx(math.log(2))

    def test_zero_forcing_direction(self):
        a = Variable("a", ("0", "1"))
        q = Factor([a], [0.5, 0.5])
        p = Factor([a], [1.0, 0.0])
        assert kl_divergence(q, p) == math.inf
        assert kl_divergence(p, q) < math.inf

    def test_nonnegative_on_random_pairs(self, rng):
        a = Variable("a", ("0", "1", "2", "3"))
        for _ in range(50):
            q = Factor([a], rng.dirichlet(np.ones(4)))
            p = Factor([a], rng.dirichlet(np.ones(4)))
            assert kl_divergence(q, p) >= -1e-12

    def test_asymmetry_witness(self):
        # bimodal p fitted by a unimodal bell-shaped family: the two
        # divergence directions prefer different optima (mode seeking vs
        # mass covering)
        a = Variable("a", tuple(str(i) for i in range(5)))
        p = Factor([a], np.array([0.45, 0.02, 0.06, 0.02, 0.45]))
        grid = np.arange(5)

        def family(center):
            t = np.exp(-((grid - center) ** 2) / 2.0)
            return Factor([a], t / t.sum())

        exclusive = min(range(5), key=lambda c: kl_divergence(family(c), p))
        inclusive = min(range(5), key=lambda c: kl_divergence(p, family(c)))
        assert exclusive in (0, 4)      # grabs one mode
        assert inclusive == 2           # spreads over both
        assert exclusive != inclusive


class TestElbo:
    def test_single_variable_exact(self):
        a = Variable("a", ("0", "1", "2"))
        mrf = MarkovRandomField([a], [Factor([a], [2.0, 3.0, 5.0])])
        q = FactoredDistribution({"a": np.array([0.2, 0.3, 0.5])})
        assert elbo(mrf, q) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_uniform_model_uniform_q(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], np.ones((2, 2)))])
        q = FactoredDistribution.uniform([a, b])
        assert elbo(mrf, q) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_lower_bound_on_random_pairs(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            mrf = random_mrf(rng, n=n, max_states=2, n_factors=n + 2)
            variables = list(mrf.variables.values())
            q = FactoredDistribution.random(variables, rng)
            log_z = math.log(enumerate_inference(mrf, mode="partition"))
            assert elbo(mrf, q) <= log_z + 1e-9

    def test_gap_is_kl(self, rng):
        mrf = random_mrf(rng, n=4, max_states=2, n_factors=6)
        variables = list(mrf.variables.values())
        q = FactoredDistribution.random(variables, rng)
        joint = enumerate_inference(mrf, query=sorted(mrf.variables))
        q_joint = q.joint_factor(variables)
        log_z = math.log(enumerate_inference(mrf, mode="partition"))
        gap = log_z - elbo(mrf, q)
        assert gap == pytest.approx(kl_divergence(q_joint, joint), abs=1e-9)


class TestMeanField:
    def test_a_negative_sweep_count_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the model was conditioned")

        monkeypatch.setattr(variational, "reduce_to_evidence", refuse)
        with pytest.raises(ValueError, match="max_sweeps must not be negative"):
            mean_field(voting_mrf(), max_sweeps=-1)

    def test_no_sweep_keeps_the_start(self):
        q, trace = mean_field(voting_mrf(), max_sweeps=0)
        assert trace.sweeps == 0 and len(trace.values) == 1
        assert all(np.array_equal(q.prob(n), [0.5, 0.5]) for n in "ABCD")

    def test_independent_variables_recovered_in_one_sweep(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField(
            [a, b], [Factor([a], [1.0, 3.0]), Factor([b], [2.0, 2.0])]
        )
        q, trace = mean_field(mrf, max_sweeps=5)
        assert np.allclose(q.prob("a"), [0.25, 0.75], atol=1e-12)
        assert np.allclose(q.prob("b"), [0.5, 0.5], atol=1e-12)
        log_z = math.log(enumerate_inference(mrf, mode="partition"))
        assert trace.values[-1] == pytest.approx(log_z, abs=1e-9)

    def test_chain_gap_equals_kl(self, rng):
        mrf = random_tree_mrf(rng, n=3, max_states=2)
        q, trace = mean_field(mrf, max_sweeps=200, tol=1e-12)
        log_z = math.log(enumerate_inference(mrf, mode="partition"))
        final = trace.values[-1]
        assert final <= log_z + 1e-9
        joint = enumerate_inference(mrf, query=sorted(mrf.variables))
        q_joint = q.joint_factor(list(mrf.variables.values()))
        assert log_z - final == pytest.approx(kl_divergence(q_joint, joint), abs=1e-9)
        assert trace.final_gap == pytest.approx(log_z - final, abs=1e-12)

    def test_monotone_on_frustrated_square(self):
        vs = [Variable(n, ("0", "1")) for n in "abcd"]
        anti = np.array([[0.2, 1.0], [1.0, 0.2]])
        pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        by = {v.name: v for v in vs}
        mrf = MarkovRandomField(
            vs, [Factor([by[u], by[v]], anti) for u, v in pairs]
        )
        _, trace = mean_field(mrf, init="random", rng=np.random.default_rng(5),
                              max_sweeps=50, tol=0.0)
        diffs = np.diff(trace.update_values)
        assert np.all(diffs >= -1e-10)

    def test_monotone_per_update_random_models(self, rng):
        for _ in range(10):
            mrf = random_mrf(rng, n=5, max_states=3, n_factors=8)
            _, trace = mean_field(mrf, max_sweeps=30)
            diffs = np.diff(trace.update_values)
            assert np.all(diffs >= -1e-10)

    def test_trace_matches_full_elbo(self, rng):
        for _ in range(5):
            mrf = random_mrf(rng, n=5, max_states=3, n_factors=8)
            q, trace = mean_field(mrf, max_sweeps=4, tol=-math.inf)
            # each sweep value is a full evaluation at that sweep's q
            for k, value in enumerate(trace.values):
                q_k, _ = mean_field(mrf, max_sweeps=k, tol=-math.inf)
                assert value == elbo(mrf, q_k)
            # each update value is within 1e-9 of a full evaluation at the q
            # of an independent coordinate ascent on the enumerated joint
            names = sorted(mrf.variables)
            log_p = np.log(align_to(enumerate_inference(mrf, query=names), names).table)
            ref = FactoredDistribution.uniform([mrf.variable(n) for n in names])
            expected = []
            for _ in range(4):
                for j, name in enumerate(names):
                    weight = np.ones(log_p.shape)
                    for ax, other in enumerate(names):
                        if other != name:
                            shape = [1] * len(names)
                            shape[ax] = -1
                            weight = weight * ref.prob(other).reshape(shape)
                    axes = tuple(ax for ax in range(len(names)) if ax != j)
                    log_q = np.sum(weight * log_p, axis=axes)
                    table = np.exp(log_q - log_q.max())
                    ref.tables[name] = table / table.sum()
                    expected.append(elbo(mrf, ref))
            assert len(trace.update_values) == len(expected)
            assert np.allclose(trace.update_values, expected, rtol=0, atol=1e-9)
            assert np.all(np.diff(trace.update_values) >= -1e-10)
            for name in names:
                assert np.allclose(q.prob(name), ref.prob(name), rtol=0, atol=1e-9)

    def test_degenerate_update_raises(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        xor = Factor([a, b], [[0.0, 1.0], [1.0, 0.0]])
        mrf = MarkovRandomField([a, b], [xor])
        # a uniform q over the XOR support sends every expected log to -inf
        with pytest.raises(DegenerateUpdateError):
            mean_field(mrf, max_sweeps=3)

    def test_zero_entries_raise_no_warning(self):
        # the first update sets q(a=0) to 0, where log f(0, 1) is -inf
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], [[1.0, 0.0], [2.0, 3.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q, trace = mean_field(mrf, max_sweeps=5)
            value = elbo(mrf, q)
        assert np.array_equal(q.prob("a"), [0.0, 1.0])
        assert value == trace.values[-1]
        assert value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_evidence_handled(self, rng):
        mrf = random_tree_mrf(rng, n=4, max_states=2)
        name = sorted(mrf.variables)[0]
        ev = {name: mrf.variable(name).states[0]}
        q, trace = mean_field(mrf, evidence=ev, max_sweeps=100)
        assert name not in q.tables
        log_pe = math.log(enumerate_inference(mrf, mode="partition", evidence=ev))
        assert trace.values[-1] <= log_pe + 1e-9


class TestLoopyBp:
    def test_a_negative_iteration_count_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the model was conditioned")

        monkeypatch.setattr(variational, "reduce_to_evidence", refuse)
        with pytest.raises(ValueError, match="max_iters must not be negative"):
            loopy_bp(voting_mrf(), max_iters=-1)

    def test_no_iteration_answers_from_the_uniform_start(self):
        result = loopy_bp(voting_mrf(), max_iters=0)
        assert result.iterations == 0 and not result.converged
        assert all(np.array_equal(m.values, [0.5, 0.5]) for m in result.marginals.values())

    def test_tree_exact(self, rng):
        for _ in range(10):
            mrf = random_tree_mrf(rng, n=int(rng.integers(2, 7)), max_states=3)
            exact = tree_bp(mrf)
            result = loopy_bp(mrf, damping=1.0, max_iters=100, tol=1e-13)
            assert result.converged
            for name in mrf.variables:
                assert np.allclose(
                    result.marginals[name].values,
                    exact.marginal(name).values,
                    atol=1e-9,
                )

    def test_tree_converges_within_diameter(self, rng):
        # a 6-node chain's factor graph has diameter ~ 11 edges
        mrf = random_tree_mrf(rng, n=6, max_states=2)
        result = loopy_bp(mrf, damping=1.0, max_iters=30, tol=1e-13)
        assert result.converged
        assert result.iterations <= 2 * (2 * 6 - 1)

    def test_single_cycle_close_to_enumeration(self, rng):
        hits = 0
        for trial in range(20):
            gen = np.random.default_rng(300 + trial)
            vs = [Variable(n, ("0", "1")) for n in "abcd"]
            by = {v.name: v for v in vs}
            pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
            factors = [
                Factor([by[u], by[v]], gen.random((2, 2)) + 0.3) for u, v in pairs
            ]
            mrf = MarkovRandomField(vs, factors)
            result = loopy_bp(mrf, damping=0.5, max_iters=500, tol=1e-10)
            ok = result.converged
            for name in mrf.variables:
                exact = enumerate_inference(mrf, [name])
                ok = ok and np.allclose(
                    result.marginals[name].values, exact.values, atol=0.05
                )
            hits += ok
        assert hits == 20

    def test_uniform_potentials_uniform_beliefs(self):
        mrf = MarkovRandomField(
            [Variable("a", ("0", "1")), Variable("b", ("0", "1"))],
            [Factor(
                [Variable("a", ("0", "1")), Variable("b", ("0", "1"))],
                np.ones((2, 2)),
            )],
        )
        result = loopy_bp(mrf, max_iters=1, damping=1.0)
        assert np.allclose(result.marginals["a"].values, [0.5, 0.5])

    def test_nonconvergence_reported_not_raised(self):
        # asymmetric frustrated cycle with a tiny iteration budget
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        anti = np.array([[0.01, 1.0], [1.0, 0.01]])
        by = {v.name: v for v in vs}
        mrf = MarkovRandomField(
            vs,
            [Factor([by["a"], by["b"]], anti),
             Factor([by["b"], by["c"]], anti),
             Factor([by["a"], by["c"]], anti),
             Factor([by["a"]], [2.0, 1.0])],
        )
        result = loopy_bp(mrf, max_iters=3, damping=1.0, tol=1e-12)
        assert not result.converged
        assert result.final_residual > 1e-12

    def test_voting_mrf_runs(self):
        result = loopy_bp(voting_mrf(), max_iters=300, tol=1e-10)
        assert result.converged
        exact = enumerate_inference(voting_mrf(), ["A"])
        assert np.allclose(result.marginals["A"].values, exact.values, atol=0.05)

    def test_sequential_schedule(self, rng):
        mrf = random_tree_mrf(rng, n=4)
        r1 = loopy_bp(mrf, schedule="sequential", damping=1.0, max_iters=100, tol=1e-13)
        exact = tree_bp(mrf)
        for name in mrf.variables:
            assert np.allclose(
                r1.marginals[name].values, exact.marginal(name).values, atol=1e-9
            )

    def test_all_zero_message_falls_back_to_uniform(self):
        # b=1 zeroes f(a, b): the conditioning step refuses it for every
        # engine, loopy BP included
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        g = Factor([a, c], [[1.0, 2.0], [3.0, 4.0]])
        mrf = MarkovRandomField([a, b, c], [Factor([a, b], [[1.0, 0.0], [0.0, 0.0]]), g])
        for engine in (loopy_bp, tree_bp):
            with pytest.raises(ZeroEvidenceError):
                engine(mrf, {"b": "1"})
        # with no evidence the all-zero f(a) sends a uniform message, and
        # loopy BP answers from g alone
        twin = MarkovRandomField([a, c], [Factor([a], [0.0, 0.0]), g])
        result = loopy_bp(twin, damping=1.0, max_iters=5)
        assert result.converged
        assert np.allclose(result.marginals["a"].values, [0.3, 0.7], rtol=0, atol=1e-15)
        assert np.allclose(result.marginals["c"].values, [0.4, 0.6], rtol=0, atol=1e-15)


def test_loopy_bp_builds_no_message_graph(monkeypatch, rng):
    # both schedules run on stacked arrays: a return to per-edge sends
    # shows up here as a count, the same on any machine
    counts = {"send": 0, "factor_graph": 0}
    send, factor_graph = exact._MessageGraph.send, exact._factor_graph

    def counted_send(self, *args):
        counts["send"] += 1
        return send(self, *args)

    def counted_factor_graph(*args):
        counts["factor_graph"] += 1
        return factor_graph(*args)

    monkeypatch.setattr(exact._MessageGraph, "send", counted_send)
    monkeypatch.setattr(exact, "_factor_graph", counted_factor_graph)
    mrf = random_mrf(rng, n=6, max_states=3, n_factors=9, max_scope=3)
    for schedule in ("synchronous", "sequential"):
        loopy_bp(mrf, {"v0": mrf.variable("v0").states[0]}, max_iters=5, schedule=schedule)
        loopy_bp(mrf, max_iters=5, schedule=schedule)
    assert counts == {"send": 0, "factor_graph": 0}
