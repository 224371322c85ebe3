import math

import numpy as np
import pytest

from conftest import random_mrf, random_tree_mrf
from pgmkit import exact, sampling
from pgmkit.errors import (
    InfiniteWeightError,
    InvalidKernelError,
    TooLargeError,
    TrappedStateError,
    ZeroEvidenceError,
)
from pgmkit.exact import build_junction_tree, jt_calibrate, max_product_decode
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph
from pgmkit.models import (
    BayesianNetwork,
    MarkovRandomField,
    enumerate_inference,
    log_joint,
)
from pgmkit.sampling import (
    FactoredProposal,
    GibbsSiteKernel,
    SingleSiteUniformKernel,
    UniformProposal,
    batch_log_unnormalized,
    chain_analysis,
    forward_sample,
    gibbs,
    gibbs_transition_matrix,
    importance_estimate,
    jt_forward_sample,
    make_rng,
    metropolis_hastings,
    mh_transition_matrix,
    rejection_estimate,
)
from pgmkit.zoo import (
    periodic_chain,
    reducible_chain,
    student_network,
    three_state_chain,
)


def coin_bn(p_heads=0.6):
    c = Variable("coin", ("tails", "heads"))
    return BayesianNetwork(
        [c], DirectedGraph(["coin"]), {"coin": Factor([c], [1 - p_heads, p_heads])}
    )


class TestForwardSampling:
    def test_coin_frequency(self):
        batch = forward_sample(coin_bn(0.6), 100_000, make_rng(7))
        assert batch.frequency("coin", "heads") == pytest.approx(0.6, abs=0.005)

    def test_deterministic_cpds(self):
        a = Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1"))
        bn = BayesianNetwork(
            [a, b],
            DirectedGraph(["a", "b"], [("a", "b")]),
            {
                "a": Factor([a], [0.0, 1.0]),
                "b": Factor([b, a], [[1.0, 0.0], [0.0, 1.0]]),
            },
        )
        batch = forward_sample(bn, 500, make_rng(0))
        assert np.all(batch.column("a") == 1)
        assert np.all(batch.column("b") == 1)

    def test_student_letter_frequency(self):
        batch = forward_sample(student_network(), 200_000, make_rng(11))
        assert batch.frequency("LETTER", "l1") == pytest.approx(0.502336, abs=0.004)

    def test_seed_reproducibility(self):
        b1 = forward_sample(student_network(), 50, make_rng(123))
        b2 = forward_sample(student_network(), 50, make_rng(123))
        assert np.array_equal(b1.states, b2.states)
        assert b1.to_csv() == b2.to_csv()


class TestJtForwardSampling:
    def test_marginals_match_calibration(self, rng):
        mrf = random_tree_mrf(rng, n=5, max_states=3)
        jt = jt_calibrate(build_junction_tree(mrf))
        batch = jt_forward_sample(jt, 100_000, make_rng(3))
        for name in mrf.variables:
            exact = enumerate_inference(mrf, [name])
            var = mrf.variable(name)
            for k, state in enumerate(var.states):
                assert batch.frequency(name, state) == pytest.approx(
                    exact.values[k], abs=0.01
                )

    def test_single_clique(self, rng):
        a = Variable("a", ("0", "1", "2"))
        mrf = MarkovRandomField([a], [Factor([a], [0.2, 0.3, 0.5])])
        jt = jt_calibrate(build_junction_tree(mrf))
        batch = jt_forward_sample(jt, 50_000, make_rng(5))
        assert batch.frequency("a", "2") == pytest.approx(0.5, abs=0.01)

    def test_evidence_respected(self, rng):
        mrf = random_tree_mrf(rng, n=4, max_states=2)
        name = sorted(mrf.variables)[1]
        state = mrf.variable(name).states[1]
        jt = jt_calibrate(build_junction_tree(mrf), {name: state})
        batch = jt_forward_sample(jt, 2000, make_rng(6))
        assert batch.frequency(name, state) == 1.0

    def test_uncalibrated_rejected(self, rng):
        mrf = random_tree_mrf(rng, n=3)
        jt = build_junction_tree(mrf)
        with pytest.raises(RuntimeError):
            jt_forward_sample(jt, 10, make_rng(0))


class TestRejection:
    def test_coin(self):
        result = rejection_estimate(coin_bn(0.6), {"coin": "heads"}, 100_000, make_rng(2))
        assert result.estimate == pytest.approx(0.6, abs=0.006)

    def test_impossible_evidence(self):
        with pytest.warns(UserWarning):
            result = rejection_estimate(
                coin_bn(1.0), {"coin": "tails"}, 2000, make_rng(2)
            )
        assert result.estimate == 0.0
        assert result.zero_acceptance

    def test_student_sat(self):
        result = rejection_estimate(
            student_network(), {"SAT": "s1"}, 100_000, make_rng(4)
        )
        assert result.estimate == pytest.approx(0.7 * 0.05 + 0.3 * 0.8, abs=0.005)

    def test_unbiasedness(self):
        # mean of repeated estimates concentrates on the true probability
        bn = student_network()
        truth = enumerate_inference(bn, mode="partition", evidence={"SAT": "s1"})
        reps = 200
        estimates = [
            rejection_estimate(bn, {"SAT": "s1"}, 2000, make_rng(1000 + r)).estimate
            for r in range(reps)
        ]
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates, ddof=1) / math.sqrt(reps))
        assert abs(mean - truth) <= 4 * sem


class TestImportance:
    def test_uniform_proposal_single_hidden(self):
        # p(e) = 0.3 via one binary hidden variable
        h = Variable("h", ("0", "1"))
        e = Variable("e", ("0", "1"))
        bn = BayesianNetwork(
            [h, e],
            DirectedGraph(["e", "h"], [("h", "e")]),
            {
                "h": Factor([h], [0.5, 0.5]),
                "e": Factor([e, h], [[0.8, 0.6], [0.2, 0.4]]),
            },
        )
        truth = enumerate_inference(bn, mode="partition", evidence={"e": "1"})
        assert truth == pytest.approx(0.3)
        result = importance_estimate(
            bn, {"e": "1"}, UniformProposal([h]), 100_000, make_rng(8)
        )
        assert result.estimate == pytest.approx(0.3, abs=0.01)

    def test_posterior_proposal_zero_variance(self):
        h = Variable("h", ("0", "1"))
        e = Variable("e", ("0", "1"))
        bn = BayesianNetwork(
            [h, e],
            DirectedGraph(["e", "h"], [("h", "e")]),
            {
                "h": Factor([h], [0.5, 0.5]),
                "e": Factor([e, h], [[0.8, 0.6], [0.2, 0.4]]),
            },
        )
        post = enumerate_inference(bn, ["h"], {"e": "1"})
        proposal = FactoredProposal([h], {"h": post.values})
        result = importance_estimate(bn, {"e": "1"}, proposal, 200, make_rng(9))
        assert np.allclose(result.weights, result.weights[0], rtol=1e-9)
        assert result.estimate == pytest.approx(0.3, abs=1e-9)

    def test_normalized_student_posterior(self):
        bn = student_network()
        hidden = [v for n, v in sorted(bn.variables.items()) if n != "SAT"]
        result = importance_estimate(
            bn,
            {"SAT": "s1"},
            UniformProposal(hidden),
            200_000,
            make_rng(10),
            target={"LETTER": "l1"},
            normalized=True,
        )
        truth = enumerate_inference(bn, ["LETTER"], {"SAT": "s1"})
        assert result.estimate == pytest.approx(
            truth({"LETTER": "l1"}), abs=0.01
        )

    def test_single_sample_bias_witness(self):
        bn = student_network()
        hidden = [v for n, v in sorted(bn.variables.items()) if n != "SAT"]
        result = importance_estimate(
            bn, {"SAT": "s1"}, UniformProposal(hidden), 1, make_rng(3),
            target={"LETTER": "l1"}, normalized=True,
        )
        assert result.estimate in (0.0, 1.0)

    def test_zero_support_proposal_rejected(self):
        h = Variable("h", ("0", "1"))
        e = Variable("e", ("0", "1"))
        bn = BayesianNetwork(
            [h, e],
            DirectedGraph(["e", "h"], [("h", "e")]),
            {
                "h": Factor([h], [0.5, 0.5]),
                "e": Factor([e, h], [[0.8, 0.6], [0.2, 0.4]]),
            },
        )
        proposal = FactoredProposal([h], {"h": np.array([1.0, 0.0])})
        with pytest.raises(InfiniteWeightError):
            importance_estimate(bn, {"e": "1"}, proposal, 5000, make_rng(1))


class TestGibbs:
    def test_chain_marginals(self, rng):
        mrf = random_tree_mrf(rng, n=5, max_states=2)
        jt = jt_calibrate(build_junction_tree(mrf))
        batch = gibbs(mrf, None, 100_000, 1000, make_rng(12))
        from pgmkit.exact import jt_query

        for name in sorted(mrf.variables):
            exact = jt_query(jt, name)
            var = mrf.variable(name)
            for k, state in enumerate(var.states):
                assert batch.frequency(name, state) == pytest.approx(
                    exact.values[k], abs=0.02
                )

    def test_independent_variables_match_forward(self):
        a = Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1"))
        bn = BayesianNetwork(
            [a, b],
            DirectedGraph(["a", "b"]),
            {"a": Factor([a], [0.3, 0.7]), "b": Factor([b], [0.9, 0.1])},
        )
        batch = gibbs(bn, None, 50_000, 100, make_rng(13))
        assert batch.frequency("a", "1") == pytest.approx(0.7, abs=0.02)
        assert batch.frequency("b", "1") == pytest.approx(0.1, abs=0.02)

    def test_two_mode_slow_mixing_flagged(self):
        # nearly-deterministic agreement potentials trap the chain in one mode
        eps = 1e-6
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        table = np.array([[1.0, eps], [eps, 1.0]])
        mrf = MarkovRandomField([a, b], [Factor([a, b], table)])
        batch = gibbs(mrf, None, 2000, 0, make_rng(14))
        # true marginal of each mode is 0.5; occupancy imbalance reveals slow mixing
        mode_share = float(
            np.mean((batch.column("a") == batch.column("b")) & (batch.column("a") == 0))
        )
        assert abs(mode_share - 0.5) > 0.3

    def test_trapped_state_raises(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        table = np.array([[0.0, 1.0], [1.0, 0.0]])  # XOR support
        una = Factor([a], [1.0, 0.0])
        unb = Factor([b], [1.0, 0.0])  # forces (0,0), inconsistent with XOR
        mrf = MarkovRandomField([a, b], [Factor([a, b], table), una, unb])
        with pytest.raises(TrappedStateError):
            gibbs(mrf, None, 100, 0, make_rng(15))

    def test_evidence_clamped(self, rng):
        mrf = random_tree_mrf(rng, n=4, max_states=2)
        name = sorted(mrf.variables)[0]
        state = mrf.variable(name).states[1]
        batch = gibbs(mrf, {name: state}, 2000, 50, make_rng(16))
        assert batch.frequency(name, state) == 1.0

    def test_seed_determinism(self, rng):
        mrf = random_tree_mrf(rng, n=4)
        b1 = gibbs(mrf, None, 300, 10, make_rng(99))
        b2 = gibbs(mrf, None, 300, 10, make_rng(99))
        assert np.array_equal(b1.states, b2.states)

    def test_random_scan(self, rng):
        mrf = random_tree_mrf(rng, n=3, max_states=2)
        batch = gibbs(mrf, None, 30_000, 200, make_rng(77), scan="random")
        name = sorted(mrf.variables)[0]
        exact = enumerate_inference(mrf, [name])
        assert batch.frequency(name, mrf.variable(name).states[0]) == pytest.approx(
            exact.values[0], abs=0.02
        )
        with pytest.raises(ValueError):
            gibbs(mrf, None, 10, 0, make_rng(0), scan="zigzag")

    def test_factor_fallback_matches_table_path(self, rng, monkeypatch):
        mrf = random_mrf(rng, n=5, max_states=3, n_factors=8)
        tables = sampling._ConditionalSampler(mrf, {})
        assert not any(isinstance(rows, sampling._RowsAt) for rows, _ in tables.tables)
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", 1)
        slices = sampling._ConditionalSampler(mrf, {})
        assert all(isinstance(rows, sampling._RowsAt) for rows, _ in slices.tables)
        cards = [mrf.variable(n).cardinality for n in tables.free]
        for _ in range(20):
            state = np.array([rng.integers(c) for c in cards], dtype=np.int64)
            for name in tables.free:
                assert np.array_equal(
                    slices.conditional(name, state), tables.conditional(name, state))
        batch = gibbs(mrf, None, 5000, 100, make_rng(31))
        for name in sorted(mrf.variables):
            exact = enumerate_inference(mrf, [name]).values
            for k, state in enumerate(mrf.variable(name).states):
                assert batch.frequency(name, state) == pytest.approx(exact[k], abs=0.04)

    def test_sweeps_past_the_cap_build_no_factor(self, rng, monkeypatch):
        mrf = random_mrf(rng, n=5, max_states=3, n_factors=8)
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", 1)
        built = []
        init = Factor.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Factor, "__init__", counted)
        per_call = []
        for n in (1, 11):
            built.clear()
            gibbs(mrf, {"v0": "s1"}, n, 0, make_rng(3))
            per_call.append(len(built))
        assert per_call[0] == per_call[1]

    def test_log_unary_past_the_exp_range(self):
        # exp(800) overflows; the conditional is the logistic of the difference
        a = Variable("a", ("0", "1"))
        mrf = MarkovRandomField([a], [Factor([a], [800.0, 801.0], domain="log")])
        batch = gibbs(mrf, None, 4000, 100, make_rng(5))
        assert batch.frequency("a", "1") == pytest.approx(1 / (1 + math.exp(-1)), abs=0.03)

    @pytest.mark.parametrize("cap", [sampling.CONDITIONAL_CACHE_CAP, 1])
    def test_log_table_wider_than_the_exp_range(self, cap, monkeypatch):
        # shifting the whole table by 1000 underflows the rows with b = 1;
        # each conditional is its own log row, shifted by that row's peak
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", cap)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], [[1000.0, 0.0], [0.0, 0.0]], domain="log")])
        sampler = sampling._ConditionalSampler(mrf, {})
        assert isinstance(sampler.tables[0][0], sampling._RowsAt) == (cap == 1)
        for name, other in (("a", 1), ("b", 0)):
            for state in ([0, 0], [1, 1]):
                state[other] = 1
                assert sampler.conditional(name, np.array(state)).tolist() == [1.0, 1.0]
        assert sampler.conditional("a", np.array([0, 0])).tolist() == [1.0, 0.0]
        for seed in range(6):
            batch = gibbs(mrf, None, 10, 0, make_rng(seed))
            assert batch.states[-1].tolist() == [0, 0]


def _past_exp_range_pair(lift):
    """Two binary variables with log tables lifted by ``lift``."""
    a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
    return MarkovRandomField([a, b], [
        Factor([a], np.array([0.0, 1.0]) + lift, domain="log"),
        Factor([b, a], np.array([[0.5, -0.3], [0.0, 1.5]]) + lift, domain="log"),
    ])


class TestGibbsKernel:
    def test_stationary_past_the_exp_range_is_the_shifted_oracle(self):
        T, labels = gibbs_transition_matrix(_past_exp_range_pair(800.0))
        oracle = enumerate_inference(_past_exp_range_pair(0.0), ["a", "b"])
        want = np.array([oracle(label) for label in labels])
        assert np.allclose(chain_analysis(T).stationary, want, rtol=0, atol=1e-10)

    def test_sweep_kernel_stationary(self, rng):
        for _ in range(5):
            mrf = random_tree_mrf(rng, n=3, max_states=2)
            T, labels = gibbs_transition_matrix(mrf)
            from pgmkit.models import log_joint

            joint = np.array([math.exp(log_joint(mrf, lab)) for lab in labels])
            joint = joint / joint.sum()
            assert np.max(np.abs(T @ joint - joint)) <= 1e-10

    def test_kernel_columns_stochastic(self, rng):
        mrf = random_tree_mrf(rng, n=3, max_states=3)
        T, _ = gibbs_transition_matrix(mrf)
        assert np.allclose(T.sum(axis=0), 1.0, atol=1e-12)


class TestSamplerArguments:
    @pytest.mark.parametrize("method", ["gibbs", "mh"])
    def test_negative_burn_in_is_refused(self, method):
        bn = student_network()
        kernel = SingleSiteUniformKernel(list(bn.variables.values()))
        with pytest.raises(ValueError, match="burn_in must not be negative"):
            if method == "gibbs":
                gibbs(bn, None, 10, -5, make_rng(0))
            else:
                metropolis_hastings(bn, kernel, 10, -5, make_rng(0))

    def test_an_empty_batch_has_no_frequency(self):
        batch = gibbs(student_network(), None, 0, 5, make_rng(0))
        assert len(batch) == 0
        with pytest.raises(ValueError, match="an empty batch has no frequencies"):
            batch.frequency("LETTER", "l1")


class TestMetropolisHastings:
    def three_var_mrf(self, rng):
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        factors = [Factor([v], rng.random(2) + 0.2) for v in vs]
        factors.append(Factor([vs[0], vs[1]], rng.random((2, 2)) + 0.2))
        factors.append(Factor([vs[1], vs[2]], rng.random((2, 2)) + 0.2))
        return MarkovRandomField(vs, factors)

    def test_single_flip_marginals(self, rng):
        mrf = self.three_var_mrf(rng)
        kernel = SingleSiteUniformKernel(list(mrf.variables.values()))
        batch = metropolis_hastings(mrf, kernel, 200_000, 2000, make_rng(17))
        for name in sorted(mrf.variables):
            exact = enumerate_inference(mrf, [name])
            assert batch.frequency(name, "1") == pytest.approx(
                exact.values[1], abs=0.02
            )

    def test_gibbs_site_kernel_always_accepts(self, rng):
        mrf = self.three_var_mrf(rng)
        kernel = GibbsSiteKernel(mrf)
        batch = metropolis_hastings(mrf, kernel, 3000, 0, make_rng(18))
        assert batch.metadata["acceptance_rate"] == pytest.approx(1.0)

    def test_target_as_proposal_always_accepts(self, rng):
        # an independence proposal equal to the target makes the ratio cancel
        mrf = self.three_var_mrf(rng)
        joint = enumerate_inference(mrf, query=sorted(mrf.variables))

        class ExactIndependenceKernel:
            def __init__(self, model, table):
                self.variables = tuple(
                    model.variables[n] for n in sorted(model.variables)
                )
                self.table = table.table
                self.shape = self.table.shape
                self.flat = self.table.reshape(-1)
                self.cum = np.cumsum(self.flat)

            def propose(self, state, rng):
                u = rng.random() * self.cum[-1]
                idx = int(np.searchsorted(self.cum, u))
                return np.array(np.unravel_index(idx, self.shape), dtype=np.int64)

            def log_density(self, from_state, to_state):
                return float(np.log(self.table[tuple(to_state)]))

        kernel = ExactIndependenceKernel(mrf, joint)
        batch = metropolis_hastings(mrf, kernel, 2000, 0, make_rng(28))
        assert batch.metadata["acceptance_rate"] == pytest.approx(1.0)

    def test_a_kernel_over_other_variables_is_refused(self, rng):
        mrf = self.three_var_mrf(rng)
        kernel = SingleSiteUniformKernel([mrf.variables["a"], mrf.variables["b"]])
        with pytest.raises(InvalidKernelError, match="kernel covers"):
            metropolis_hastings(mrf, kernel, 10, 0, make_rng(30))
        # under evidence the kernel must cover the free variables alone
        with pytest.raises(InvalidKernelError, match="kernel covers"):
            metropolis_hastings(mrf, SingleSiteUniformKernel(list(mrf.variables.values())),
                                10, 0, make_rng(30), {"c": "0"})

    def test_a_proposal_that_cannot_return_is_refused(self, rng):
        # every state has mass; the kernel flips a but claims it only ever
        # moves to a = 1, so no move to a = 1 can be undone
        mrf = self.three_var_mrf(rng)

        class OneWayKernel:
            variables = tuple(mrf.variables[n] for n in sorted(mrf.variables))

            def propose(self, state, rng):
                new = state.copy()
                new[0] = 1 - new[0]
                return new

            def log_density(self, from_state, to_state):
                return 0.0 if to_state[0] == 1 else -math.inf

        with pytest.raises(InvalidKernelError, match="cannot return"):
            metropolis_hastings(mrf, OneWayKernel(), 10, 0, make_rng(31))

    def test_detailed_balance_of_explicit_kernel(self, rng):
        for _ in range(5):
            mrf = self.three_var_mrf(rng)
            kernel = SingleSiteUniformKernel(list(mrf.variables.values()))
            T, labels = mh_transition_matrix(mrf, kernel)
            from pgmkit.models import log_joint

            pi = np.array([math.exp(log_joint(mrf, lab)) for lab in labels])
            pi = pi / pi.sum()
            assert np.max(np.abs(T @ pi - pi)) <= 1e-10
            for i in range(len(pi)):
                for j in range(len(pi)):
                    assert pi[j] * T[i, j] == pytest.approx(pi[i] * T[j, i], abs=1e-10)

    @staticmethod
    def pairwise_mh_matrix(model, kernel, evidence):
        """The kernel matrix with both densities scored inside the pair loop."""
        from pgmkit.models import check_evidence, reduce_to_evidence

        evidence = check_evidence(model, evidence)
        mrf, _ = reduce_to_evidence(model, evidence)
        free = list(mrf.variables)
        _, vecs, _ = sampling._free_states(model, evidence, free)
        size = len(vecs)
        log_p = batch_log_unnormalized(mrf.factors, free, vecs)
        T = np.zeros((size, size))
        for x in range(size):
            for y in range(size):
                if x == y:
                    continue
                log_q_fwd = kernel.log_density(vecs[x], vecs[y])
                if log_q_fwd == -math.inf:
                    continue
                log_q_rev = kernel.log_density(vecs[y], vecs[x])
                log_alpha = min(
                    0.0, log_p[y] + log_q_rev - log_p[x] - log_q_fwd
                ) if log_p[x] > -np.inf else 0.0
                T[y, x] = math.exp(log_q_fwd) * math.exp(log_alpha)
            T[x, x] = max(0.0, 1.0 - T[:, x].sum() + T[x, x])
        return T

    def test_explicit_kernel_scores_each_ordered_pair_once(self, rng):
        vs = [Variable(n, ("0", "1", "2")) for n in "abc"]
        factors = [Factor([v], rng.random(3) + 0.2) for v in vs]
        factors.append(Factor([vs[0], vs[1]], rng.random((3, 3)) + 0.2))
        factors.append(Factor([vs[1], vs[2]], rng.random((3, 3)) + 0.2))
        mrf = MarkovRandomField(vs, factors)
        for evidence in ({}, {"b": "2"}):
            free = [v for n, v in sorted(mrf.variables.items()) if n not in evidence]
            for kernel in (SingleSiteUniformKernel(free), GibbsSiteKernel(mrf, evidence)):
                expected = self.pairwise_mh_matrix(mrf, kernel, evidence)
                calls = []
                score = kernel.log_density
                kernel.log_density = lambda a, b: calls.append(1) or score(a, b)
                T, labels = mh_transition_matrix(mrf, kernel, evidence)
                assert np.array_equal(T, expected)
                assert len(calls) == len(labels) * (len(labels) - 1)

    def test_log_domain_factors_give_the_same_kernel(self, rng):
        mrf = self.three_var_mrf(rng)
        logged = MarkovRandomField(
            list(mrf.variables.values()),
            [Factor(f.scope, np.log(f.table), domain="log") for f in mrf.factors],
        )
        kernel = SingleSiteUniformKernel(list(mrf.variables.values()))
        T, _ = mh_transition_matrix(mrf, kernel)
        T_log, _ = mh_transition_matrix(logged, kernel)
        assert np.allclose(T_log, T, rtol=0, atol=1e-12)

    def test_determinism(self, rng):
        mrf = self.three_var_mrf(rng)
        kernel = SingleSiteUniformKernel(list(mrf.variables.values()))
        b1 = metropolis_hastings(mrf, kernel, 500, 20, make_rng(19))
        b2 = metropolis_hastings(mrf, kernel, 500, 20, make_rng(19))
        assert np.array_equal(b1.states, b2.states)

    @pytest.mark.parametrize("cap", [sampling.CONDITIONAL_CACHE_CAP, 1])
    def test_steps_score_no_batch_of_states(self, rng, cap, monkeypatch):
        # a chain whose first state has mass scores every step on one
        # CompiledModel, under the cache cap and past it
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", cap)
        calls = []

        def counted(*args):
            calls.append(args)
            return batch_log_unnormalized(*args)

        monkeypatch.setattr(sampling, "batch_log_unnormalized", counted)
        mrf = self.three_var_mrf(rng)
        for evidence in ({}, {"b": "1"}):
            free = [v for n, v in sorted(mrf.variables.items()) if n not in evidence]
            for kernel in (SingleSiteUniformKernel(free), GibbsSiteKernel(mrf, evidence)):
                batch = metropolis_hastings(mrf, kernel, 200, 10, make_rng(3), evidence)
                assert len(batch) == 200
        assert len(calls) == 0

    # a, b with table [[1, 0], [2, 3]]: a uniform first draw of (0, 1) has
    # zero mass, and a Gibbs proposal cannot return to it
    HOLE = [[1.0, 0.0], [2.0, 3.0]]
    # rows of the chains whose first draw has mass, as recorded before the
    # zero-mass start was handled
    HOLE_CHAINS = {
        0: "00 00 00 00 10 11 11 11 11 11 11 11 11 10 10 10 10 10 10 11",
        1: "10 10 11 10 11 11 11 10 10 10 11 11 11 10 10 00 00 00 00 00",
        2: "11 11 11 10 11 10 00 00 00 00 00 00 00 00 10 10 10 11 11 11",
        3: "11 11 11 11 10 00 00 00 00 10 10 11 11 11 11 11 11 11 10 10",
        4: "11 11 11 11 11 11 11 11 10 11 11 11 11 10 10 11 11 11 11 11",
        5: "00 00 00 00 00 00 10 00 00 10 10 11 11 11 11 11 11 11 11 11",
        7: "10 10 11 11 10 00 10 10 10 11 11 11 11 11 11 11 11 11 11 11",
        8: "11 11 11 11 11 11 11 11 11 11 11 11 11 10 11 11 11 11 11 11",
        9: "00 00 00 00 00 00 00 00 00 00 00 00 00 10 10 11 10 10 10 10",
        10: "10 10 10 10 11 10 10 10 00 00 00 10 00 00 10 00 00 00 10 11",
        12: "10 10 10 10 11 11 11 11 11 11 10 11 11 11 11 11 11 11 11 11",
        13: "10 00 00 00 10 10 10 10 11 11 10 10 00 10 10 10 11 10 11 11",
        14: "00 00 00 10 10 11 11 11 11 11 11 11 11 11 11 10 11 11 11 11",
        15: "10 10 10 10 10 11 11 11 11 10 10 00 00 00 00 10 10 00 00 10",
        16: "11 11 11 11 11 10 11 11 10 10 10 10 11 10 10 10 10 11 11 11",
        17: "10 10 11 11 10 10 10 11 10 10 10 00 00 10 10 00 00 00 00 00",
        18: "11 11 11 11 11 10 10 10 00 10 10 11 11 11 11 11 11 10 10 10",
    }

    def hole_mrf(self, table):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        return MarkovRandomField([a, b], [Factor([a, b], table)])

    @pytest.mark.parametrize("cap", [sampling.CONDITIONAL_CACHE_CAP, 1])
    def test_zero_mass_first_draw(self, cap, monkeypatch):
        # under the cap the chain starts from the MAP state; past it, the
        # drawn state is kept and the first move leaves it
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", cap)
        mrf = self.hole_mrf(self.HOLE)
        for seed in range(20):
            batch = metropolis_hastings(mrf, GibbsSiteKernel(mrf), 20, 2, make_rng(seed))
            rows = " ".join(f"{a}{b}" for a, b in batch.states)
            assert "01" not in rows.split()
            if seed in self.HOLE_CHAINS:
                assert rows == self.HOLE_CHAINS[seed]

    def test_zero_mass_first_draw_past_cap_needs_no_decode(self, monkeypatch):
        # 17 binary variables (2^17 joint states, over the cache cap) on a
        # chain whose first factor is the hole table; with the elimination
        # budget cut, no exact decode of the model can run
        vs = [Variable(f"x{i:02d}", ("0", "1")) for i in range(17)]
        factors = [Factor(vs[:2], self.HOLE)] + [
            Factor([u, v], [[2.0, 1.0], [1.0, 2.0]]) for u, v in zip(vs[1:], vs[2:])
        ]
        mrf = MarkovRandomField(vs, factors)
        monkeypatch.setattr(exact, "TABLE_CAP", 2)
        with pytest.raises(TooLargeError):
            max_product_decode(mrf)
        zero_starts = 0
        for seed in range(20):
            draw = make_rng(seed)
            if [int(draw.integers(2)) for _ in vs][:2] != [0, 1]:
                continue
            zero_starts += 1
            for kernel in (GibbsSiteKernel(mrf), SingleSiteUniformKernel(vs)):
                batch = metropolis_hastings(mrf, kernel, 30, 30, make_rng(seed))
                assert batch.states.shape == (30, 17)
                for row in batch.states:
                    assignment = {v.name: v.states[s] for v, s in zip(vs, row)}
                    assert log_joint(mrf, assignment) > -math.inf
        assert zero_starts > 0

    def test_no_supported_state_raises(self):
        mrf = self.hole_mrf(np.zeros((2, 2)))
        kernel = SingleSiteUniformKernel(list(mrf.variables.values()))
        with pytest.raises(ZeroEvidenceError):
            metropolis_hastings(mrf, kernel, 10, 0, make_rng(0))


class TestChainAnalysis:
    def test_three_state_stationary(self):
        result = chain_analysis(three_state_chain())
        assert np.allclose(result.stationary, [0.4, 0.4, 0.2], atol=1e-9)
        assert result.irreducible
        assert result.aperiodic

    def test_periodic_flagged(self):
        result = chain_analysis(periodic_chain())
        assert not result.aperiodic
        assert result.irreducible
        # from a non-uniform start the iterates alternate forever
        oscillating = chain_analysis(periodic_chain(), p0=np.array([1.0, 0.0]))
        assert not oscillating.converged

    def test_reducible_flagged(self):
        result = chain_analysis(reducible_chain())
        assert not result.irreducible

    def test_detailed_balance_residual_zero_for_reversible(self):
        T = np.array([[0.9, 0.2], [0.1, 0.8]])
        result = chain_analysis(T)
        pi = result.stationary
        assert result.detailed_balance_residual == pytest.approx(
            abs(pi[0] * T[1, 0] - pi[1] * T[0, 1]), abs=1e-12
        )
        assert result.detailed_balance_residual < 1e-12

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            chain_analysis(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_class_structure_matches_walk_counting(self, rng):
        # reference: A^k[i, j] says whether a k-step walk leads from i to j;
        # a state on a cycle has the gcd of its closed-walk lengths as period
        for _ in range(300):
            d = int(rng.integers(1, 7))
            T = rng.random((d, d)) * (rng.random((d, d)) < 0.3)
            perm = rng.permutation(d)
            T[perm, np.arange(d)] += rng.random() < 0.5  # often a cycle cover
            T[0, T.sum(axis=0) == 0] = 1.0
            T /= T.sum(axis=0)
            adj = (T.T > 0).astype(np.int64)
            walks, reach, period = np.eye(d, dtype=np.int64), np.eye(d, dtype=bool), [0] * d
            for k in range(1, d * d + d + 1):
                walks = np.minimum(walks @ adj, 1)
                reach |= walks.astype(bool)
                for i in np.flatnonzero(np.diag(walks)):
                    period[i] = math.gcd(period[i], k)
            result = chain_analysis(T, max_iters=50)
            assert result.irreducible == bool(reach.all())
            assert result.aperiodic == all(p <= 1 for p in period)
