import importlib.util
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtrc

from conftest import make_variables, random_bn, random_dag
from pgmkit import learning
from pgmkit.errors import InsufficientDataError, ScopeError
from pgmkit.exact import build_junction_tree, tree_bp
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph, is_dag, mec_equivalent, mec_signature
from pgmkit.learning import (
    CountTable,
    Cpdag,
    Dataset,
    DirichletParams,
    chow_liu,
    ci_test,
    counts,
    cpdag_of_dag,
    crf_log_likelihood,
    dirichlet_posterior,
    em_gmm,
    empirical_mutual_information,
    fit_chain_crf,
    fit_mrf,
    fit_pseudo_likelihood,
    hill_climb,
    mle_bn,
    pc,
    pseudo_likelihood,
    score,
    _apply_move,
    _family_score,
    _legal_moves,
    _makes_cycle,
)
from pgmkit.models import BayesianNetwork, ChainCRF, MarkovRandomField, enumerate_inference
from pgmkit.sampling import forward_sample, make_rng
from pgmkit.zoo import student_network, y_structure_dag


def coin_dataset(heads, tails):
    c = Variable("coin", ("tails", "heads"))
    rows = [[1]] * heads + [[0]] * tails
    return Dataset((c,), np.array(rows)), c


class TestCounts:
    def test_coin(self):
        data, _ = coin_dataset(6, 4)
        table = counts(data, ["coin"])
        assert table.counts[1] == 6
        assert table.counts[0] == 4

    def test_full_rows(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        data = Dataset((a, b), np.array([[0, 0], [1, 1], [0, 1]]))
        table = counts(data, ["a", "b"])
        assert table.counts[0, 0] == 1
        assert table.counts[1, 1] == 1
        assert table.counts[0, 1] == 1
        assert table.total == 3

    def test_totals(self, rng):
        variables = make_variables(3, 3, rng)
        rows = np.column_stack(
            [rng.integers(v.cardinality, size=40) for v in variables]
        )
        data = Dataset(tuple(variables), rows)
        assert counts(data, [variables[0].name]).total == 40

    def test_rows_are_a_read_only_copy(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1", "2"))
        source = np.array([[0, 2], [1, 1], [1, 2]])
        data = Dataset((a, b), source)
        assert data.rows is not source
        with pytest.raises(ValueError):
            data.rows[0, 0] = 1

    def test_columns_follow_the_variables_as_given(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1", "2"))
        data = Dataset((b, a), np.array([[2, 0], [2, 1], [0, 1]]))
        assert data.names == ("a", "b")
        np.testing.assert_array_equal(data.column("b"), [2, 2, 0])
        np.testing.assert_array_equal(counts(data, ["a", "b"]).counts,
                                      [[0, 0, 1], [1, 0, 1]])

    def test_unknown_variable(self):
        data, _ = coin_dataset(1, 1)
        with pytest.raises(ScopeError):
            counts(data, ["coin", "die"])

    def test_tables_past_the_cache_cap_are_counted_but_not_kept(self, monkeypatch):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1", "2"))
        data = Dataset((a, b), np.array([[0, 2], [1, 1], [1, 2]]))
        monkeypatch.setattr(learning, "COUNT_CACHE_ENTRIES", 4)
        assert counts(data, ["a"]).total == 3      # 2 entries: kept
        assert counts(data, ["a", "b"]).total == 3  # 6 more: past the cap
        np.testing.assert_array_equal(counts(data, ["b", "a"]).counts,
                                      [[0, 0], [0, 1], [1, 1]])
        assert list(data._tables) == [(0,)]


SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def small_datasets(draw, min_card=1, max_vars=4, max_rows=30):
    """A Dataset of up to ``max_vars`` variables, its source rows (by sorted
    name) and a copy of those rows kept as drawn."""
    cards = draw(st.lists(st.integers(min_card, 4), min_size=1, max_size=max_vars))
    variables = [Variable(f"v{k}", tuple(f"s{i}" for i in range(c)))
                 for k, c in enumerate(cards)]
    n = draw(st.integers(0, max_rows))
    cells = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(cards),
                                   max_size=len(cards)), min_size=n, max_size=n))
    rows = np.array([[cell % c for cell, c in zip(row, cards)] for row in cells],
                    dtype=np.int64).reshape(n, len(cards))
    return Dataset(tuple(variables), rows), rows, rows.copy()


def add_at_counts(rows, cards, idx):
    """Reference joint counts over columns idx, one np.add.at per row set."""
    table = np.zeros([cards[k] for k in idx])
    np.add.at(table, tuple(rows[:, k] for k in idx), 1.0)
    return table


class TestCountProperties:
    @SETTINGS
    @given(st.data())
    def test_every_order_matches_add_at(self, data):
        dataset, rows, _ = data.draw(small_datasets())
        cards = [v.cardinality for v in dataset.variables]
        scope = data.draw(st.lists(st.sampled_from(range(len(cards))), min_size=1,
                                   unique=True))
        for order in itertools.permutations(scope):
            table = counts(dataset, [dataset.names[k] for k in order])
            assert [v.name for v in table.scope] == [dataset.names[k] for k in order]
            assert table.counts.dtype == float
            np.testing.assert_array_equal(table.counts, add_at_counts(rows, cards, order))

    @SETTINGS
    @given(st.data())
    def test_writing_into_a_returned_table_changes_no_later_answer(self, data):
        dataset, rows, _ = data.draw(small_datasets())
        cards = [v.cardinality for v in dataset.variables]
        scope = data.draw(st.lists(st.sampled_from(range(len(cards))), min_size=1,
                                   unique=True))
        names = [dataset.names[k] for k in scope]
        for order in (names, names[::-1], names):
            table = counts(dataset, order)
            table.counts += 7.0
            table.counts[...] = -1.0
        np.testing.assert_array_equal(counts(dataset, names).counts,
                                      add_at_counts(rows, cards, scope))

    @SETTINGS
    @given(st.data())
    def test_writing_into_the_source_rows_changes_nothing(self, data):
        dataset, rows, kept = data.draw(small_datasets())
        cards = [v.cardinality for v in dataset.variables]
        before = counts(dataset, list(dataset.names)).counts
        rows[...] = 0
        assert np.array_equal(dataset.rows, kept)
        np.testing.assert_array_equal(counts(dataset, list(dataset.names)).counts, before)
        last = len(cards) - 1
        np.testing.assert_array_equal(counts(dataset, [dataset.names[last]]).counts,
                                      add_at_counts(kept, cards, [last]))


def stratum_loop_g_test(rows, cards, x, y, z):
    """The G-test as one loop step per stratum of z: the reference the
    all-strata form must match bit for bit."""
    cz = math.prod(cards[k] for k in z)
    table = add_at_counts(rows, cards, [*z, x, y]).reshape(cz, cards[x], cards[y])
    g_stat = 0.0
    for stratum in table:
        total = stratum.sum()
        if total == 0:
            continue
        row_sums = stratum.sum(axis=1, keepdims=True)
        col_sums = stratum.sum(axis=0, keepdims=True)
        expected = row_sums * col_sums / total
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(stratum > 0, stratum * np.log(stratum / expected), 0.0)
        g_stat += 2.0 * float(np.sum(terms))
    dof = (cards[x] - 1) * (cards[y] - 1) * cz
    return g_stat, float(chdtrc(dof, g_stat)), dof


class TestCiTestProperties:
    @SETTINGS
    @given(st.data())
    def test_all_strata_at_once_match_the_stratum_loop_bit_for_bit(self, data):
        dataset, rows, _ = data.draw(small_datasets(min_card=2, max_vars=5, max_rows=60))
        cards = [v.cardinality for v in dataset.variables]
        if len(cards) < 2:
            return
        order = data.draw(st.permutations(range(len(cards))))
        x, y = order[:2]
        z = sorted(data.draw(st.sets(st.sampled_from(order[2:]))) if order[2:] else ())
        result = ci_test(dataset, dataset.names[x], dataset.names[y],
                         [dataset.names[k] for k in z])
        g_stat, p_value, dof = stratum_loop_g_test(rows, cards, x, y, z)
        assert (result.statistic, result.p_value, result.dof) == (g_stat, p_value, dof)

    def test_empty_strata_and_empty_conditioning_set(self):
        gen = make_rng(90)
        variables = [Variable(f"v{k}", tuple(f"s{i}" for i in range(c)))
                     for k, c in enumerate([3, 3, 4, 3])]
        rows = gen.integers(0, 3, size=(400, 4))
        rows[:, 2] = np.where(rows[:, 2] == 2, 3, rows[:, 2])  # v2 never takes s2
        data = Dataset(tuple(variables), rows)
        cards = [3, 3, 4, 3]
        for z in ([], [2], [2, 3]):
            result = ci_test(data, "v0", "v1", [f"v{k}" for k in z])
            g_stat, p_value, dof = stratum_loop_g_test(rows, cards, 0, 1, z)
            assert (result.statistic, result.p_value, result.dof) == (g_stat, p_value, dof)


class TestCountComplexity:
    def test_one_table_per_distinct_scope_set(self, monkeypatch):
        """pc and hill_climb ask for the same scope sets many times over, in
        many orders; each set is counted once per dataset."""
        bn = random_bn(np.random.default_rng(12), n=12, max_states=3, p=0.25)
        data = Dataset.from_batch(forward_sample(bn, 3000, make_rng(12)))
        requested, tables = [], []
        original_counts, original_bincount = learning.counts, np.bincount

        def recording_counts(dataset, scope):
            requested.append(frozenset(scope))
            return original_counts(dataset, scope)

        def recording_bincount(*args, **kwargs):
            tables.append(args)
            return original_bincount(*args, **kwargs)

        monkeypatch.setattr(learning, "counts", recording_counts)
        monkeypatch.setattr(np, "bincount", recording_bincount)
        pc(data)
        hill_climb(data)
        assert len(requested) > 2 * len(set(requested))
        assert len(tables) == len(set(requested))


class TestMle:
    def test_coin_mle(self):
        data, c = coin_dataset(60, 40)
        bn = mle_bn(DirectedGraph(["coin"]), data)
        assert bn.cpds["coin"]({"coin": "heads"}) == pytest.approx(0.6)

    def test_small_coin(self):
        data, _ = coin_dataset(6, 4)
        bn = mle_bn(DirectedGraph(["coin"]), data)
        assert bn.cpds["coin"]({"coin": "heads"}) == pytest.approx(0.6)

    def test_student_recovery(self):
        bn = student_network()
        batch = forward_sample(bn, 100_000, make_rng(21))
        data = Dataset.from_batch(batch)
        learned = mle_bn(bn.dag, data)
        for name, cpd in bn.cpds.items():
            assert np.allclose(learned.cpds[name].table, cpd.table, atol=0.01)

    def test_pseudocount_smoothing(self):
        data, c = coin_dataset(3, 0)
        bn = mle_bn(DirectedGraph(["coin"]), data, pseudocount=1.0)
        assert bn.cpds["coin"]({"coin": "tails"}) == pytest.approx(1 / 5)

    def test_unseen_parent_rows_warn(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        data = Dataset((a, b), np.array([[0, 0], [0, 1]]))
        with pytest.warns(UserWarning):
            bn = mle_bn(DirectedGraph(["a", "b"], [("a", "b")]), data)
        assert np.allclose(
            bn.cpds["b"].table[:, 1], [0.5, 0.5]
        )

    def test_mle_maximizes_loglik(self, rng):
        bn = random_bn(rng, n=3, max_states=2, p=0.6)
        data = Dataset.from_batch(forward_sample(bn, 500, make_rng(31)))
        fitted = mle_bn(bn.dag, data)
        base = score(bn.dag, data, "loglik")

        def loglik_of(network):
            total = 0.0
            for row in data.rows:
                assignment = {
                    v.name: v.states[s] for v, s in zip(data.variables, row)
                }
                from pgmkit.models import log_joint

                total += log_joint(network, assignment)
            return total

        assert loglik_of(fitted) == pytest.approx(base, abs=1e-8)
        # perturbing any CPT row never increases the dataset log-likelihood
        for name in fitted.cpds:
            cpd = fitted.cpds[name]
            table = cpd.table.copy()
            flat = table.reshape(table.shape[0], -1)
            for col in range(flat.shape[1]):
                for bump in (+1e-3, -1e-3):
                    perturbed = flat.copy()
                    if np.any(perturbed[:, col] + bump < 0):
                        continue
                    perturbed[0, col] += bump
                    perturbed[:, col] /= perturbed[:, col].sum()
                    trial = {k: v for k, v in fitted.cpds.items()}
                    trial[name] = Factor(cpd.scope, perturbed.reshape(table.shape))
                    candidate = BayesianNetwork(
                        list(fitted.variables.values()), fitted.dag, trial
                    )
                    assert loglik_of(candidate) <= base + 1e-9


class TestDirichlet:
    def test_beta_update(self):
        posterior = dirichlet_posterior(DirichletParams((1.0, 1.0)), np.array([6, 4]))
        assert posterior.alpha == (7.0, 5.0)
        assert posterior.mean[0] == pytest.approx(7 / 12)

    def test_categorical_update(self):
        posterior = dirichlet_posterior(
            DirichletParams((1.0, 1.0, 1.0)), np.array([2, 0, 1])
        )
        assert posterior.alpha == (3.0, 1.0, 2.0)

    def test_zero_counts_identity(self):
        prior = DirichletParams((2.0, 3.0))
        assert dirichlet_posterior(prior, np.array([0, 0])).alpha == prior.alpha

    def test_mean_approaches_mle(self, rng):
        # |posterior mean - empirical frequency| <= sum(alpha) / (N + sum(alpha))
        for _ in range(20):
            alpha = tuple(float(a) for a in rng.random(3) * 3 + 0.1)
            observed = rng.integers(0, 50, size=3).astype(float)
            n = observed.sum()
            if n == 0:
                continue
            posterior = dirichlet_posterior(DirichletParams(alpha), observed)
            emp = observed / n
            bound = sum(alpha) / (n + sum(alpha))
            assert np.max(np.abs(posterior.mean - emp)) <= bound + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_posterior(DirichletParams((1.0, 1.0)), np.array([1, 2, 3]))


class TestScores:
    def test_empty_graph_uniform_data_entropy(self):
        rng = make_rng(40)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        rows = rng.integers(0, 2, size=(1000, 2))
        data = Dataset((a, b), rows)
        got = score(DirectedGraph(["a", "b"]), data, "loglik")
        # equals -N times the sum of empirical marginal entropies
        expected = 0.0
        for k in range(2):
            p = np.bincount(rows[:, k], minlength=2) / 1000
            expected += 1000 * float(np.sum(p[p > 0] * np.log(p[p > 0])))
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(got - (-1000 * 2 * math.log(2))) < 15.0

    def test_single_bernoulli(self):
        data, _ = coin_dataset(6, 4)
        got = score(DirectedGraph(["coin"]), data, "loglik")
        assert got == pytest.approx(6 * math.log(0.6) + 4 * math.log(0.4))

    def test_edges_never_hurt_loglik_and_bic_prefers_sparse(self):
        rng = make_rng(41)
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        chain = DirectedGraph("abc", [("a", "b"), ("b", "c")])
        cpds = {
            "a": Factor([a], [0.3, 0.7]),
            "b": Factor([b, a], [[0.8, 0.2], [0.2, 0.8]]),
            "c": Factor([c, b], [[0.9, 0.3], [0.1, 0.7]]),
        }
        bn = BayesianNetwork([a, b, c], chain, cpds)
        data = Dataset.from_batch(forward_sample(bn, 5000, rng))
        complete = DirectedGraph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert score(complete, data, "loglik") >= score(chain, data, "loglik") - 1e-9
        assert score(chain, data, "bic") > score(complete, data, "bic")

    def test_empty_dataset_rejected(self):
        a = Variable("a", ("0", "1"))
        with pytest.raises(InsufficientDataError):
            score(DirectedGraph(["a"]), Dataset((a,), np.zeros((0, 1), dtype=int)), "bic")

    def test_bic_consistency_exhaustive(self):
        # data from a known 4-node DAG: its BIC tops an exhaustive scan of
        # all 543 DAGs (ties with its own MEC members allowed)
        candidates = all_dags("abcd")
        assert len(candidates) == 543
        target_hits = 0
        seeds = 20
        for seed in range(seeds):
            gen = make_rng(500 + seed)
            a, b, c, d = (Variable(n, ("0", "1")) for n in "abcd")
            g_star = DirectedGraph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
            cpds = {
                "a": Factor([a], [0.35, 0.65]),
                "b": Factor([b, a], [[0.85, 0.25], [0.15, 0.75]]),
                "c": Factor([c, b], [[0.7, 0.2], [0.3, 0.8]]),
                "d": Factor([d, b], [[0.9, 0.4], [0.1, 0.6]]),
            }
            bn = BayesianNetwork([a, b, c, d], g_star, cpds)
            data = Dataset.from_batch(forward_sample(bn, 50_000, gen))
            cache = {}
            star = score(g_star, data, "bic", _cache=cache)
            if all(
                star >= score(g, data, "bic", _cache=cache) - 1e-9
                for g in candidates
            ):
                target_hits += 1
        assert target_hits >= 18

    def test_bd_cache_keeps_prior_counts_apart(self):
        data, _ = coin_dataset(6, 4)
        g = DirectedGraph(["coin"])
        cache = {}
        strong = score(g, data, "bd", bd_prior_count=2.0, _cache=cache)
        default = score(g, data, "bd", _cache=cache)
        assert strong == score(g, data, "bd", bd_prior_count=2.0)
        assert default == score(g, data, "bd")
        assert default != strong


def all_dags(names):
    names = list(names)
    pairs = list(itertools.combinations(names, 2))
    out = []
    for directions in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), d in zip(pairs, directions):
            if d == 1:
                edges.append((u, v))
            elif d == 2:
                edges.append((v, u))
        g = DirectedGraph(names, edges)
        from pgmkit.graphs import is_dag

        if is_dag(g):
            out.append(g)
    return out


class TestChowLiu:
    def figure_dataset(self):
        """A dataset whose pairwise MIs rank like the worked example.

        Couplings: strong A-C, B-C, B-D; weak elsewhere.
        """
        gen = make_rng(42)
        a, b, c, d = (Variable(n, ("0", "1")) for n in "ABCD")
        dag = DirectedGraph("ABCD", [("A", "C"), ("C", "B"), ("B", "D")])
        strong = np.array([[0.9, 0.1], [0.1, 0.9]])
        cpds = {
            "A": Factor([a], [0.5, 0.5]),
            "C": Factor([c, a], strong),
            "B": Factor([b, c], strong),
            "D": Factor([d, b], strong),
        }
        bn = BayesianNetwork([a, b, c, d], dag, cpds)
        return Dataset.from_batch(forward_sample(bn, 30_000, gen))

    def test_recovers_figure_tree(self):
        data = self.figure_dataset()
        learned = chow_liu(data, root="A")
        assert set(learned.dag.edges) == {("A", "C"), ("C", "B"), ("B", "D")}

    def test_root_changes_directions_not_skeleton(self):
        data = self.figure_dataset()
        from_a = chow_liu(data, root="A")
        from_b = chow_liu(data, root="B")
        assert set(from_a.dag.skeleton().edges) == set(from_b.dag.skeleton().edges)
        assert ("B", "C") in from_b.dag.edges

    def test_independent_coins_near_zero_mi(self):
        gen = make_rng(43)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        rows = gen.integers(0, 2, size=(20_000, 2))
        data = Dataset((a, b), rows)
        assert empirical_mutual_information(data, "a", "b") < 1e-3
        learned = chow_liu(data)
        assert len(learned.dag.edges) == 1  # single forced edge

    def test_tree_recovery_rate(self):
        hits = 0
        seeds = 20
        for seed in range(seeds):
            gen = make_rng(600 + seed)
            names = [f"v{i}" for i in range(5)]
            variables = [Variable(n, ("0", "1")) for n in names]
            # random tree structure over 5 nodes
            edges = []
            for i in range(1, 5):
                parent = int(gen.integers(0, i))
                edges.append((names[parent], names[i]))
            dag = DirectedGraph(names, edges)
            strong = np.array([[0.88, 0.16], [0.12, 0.84]])
            cpds = {}
            for v in variables:
                parents = dag.parents(v.name)
                if parents:
                    cpds[v.name] = Factor(
                        [v, variables[names.index(parents[0])]], strong
                    )
                else:
                    cpds[v.name] = Factor([v], [0.5, 0.5])
            bn = BayesianNetwork(variables, dag, cpds)
            data = Dataset.from_batch(forward_sample(bn, 20_000, gen))
            learned = chow_liu(data, root=names[0])
            if set(learned.dag.skeleton().edges) == set(dag.skeleton().edges):
                hits += 1
        assert hits >= 19

    def test_optimal_total_mi(self, rng):
        bn = random_bn(rng, n=4, max_states=2, p=0.7)
        data = Dataset.from_batch(forward_sample(bn, 3000, make_rng(44)))
        learned = chow_liu(data)
        skeleton = learned.dag.skeleton()
        mi = {
            (u, v): empirical_mutual_information(data, u, v)
            for u, v in itertools.combinations(data.names, 2)
        }
        got = sum(mi[e] for e in skeleton.edges)
        best = -1.0
        names = list(data.names)
        for tree_edges in itertools.combinations(mi, len(names) - 1):
            from pgmkit.graphs import UndirectedGraph

            t = UndirectedGraph(names, tree_edges)
            if t.is_tree():
                best = max(best, sum(mi[e] for e in tree_edges))
        assert got == pytest.approx(best, abs=1e-12)


class TestHillClimb:
    def test_strong_edge_recovered(self):
        gen = make_rng(45)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        dag = DirectedGraph(["a", "b"], [("a", "b")])
        cpds = {
            "a": Factor([a], [0.4, 0.6]),
            "b": Factor([b, a], [[0.9, 0.15], [0.1, 0.85]]),
        }
        bn = BayesianNetwork([a, b], dag, cpds)
        data = Dataset.from_batch(forward_sample(bn, 10_000, gen))
        result = hill_climb(data, "bic")
        assert mec_equivalent(result.graph, dag)

    def test_independent_variables_empty_graph(self):
        gen = make_rng(46)
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        rows = gen.integers(0, 2, size=(10_000, 3))
        data = Dataset((a, b, c), rows)
        result = hill_climb(data, "bic")
        assert result.graph.edges == ()

    def test_score_at_least_empty(self, rng):
        bn = random_bn(rng, n=4, max_states=2, p=0.5)
        data = Dataset.from_batch(forward_sample(bn, 2000, make_rng(47)))
        result = hill_climb(data, "bic", restarts=2, rng=make_rng(48))
        empty = score(DirectedGraph(list(data.names)), data, "bic")
        assert result.score >= empty - 1e-9

    def test_max_indegree_respected(self, rng):
        bn = random_bn(rng, n=5, max_states=2, p=0.7)
        data = Dataset.from_batch(forward_sample(bn, 4000, make_rng(49)))
        result = hill_climb(data, "bic", max_indegree=1)
        assert all(len(result.graph.parents(v)) <= 1 for v in result.graph.nodes)


def graph_per_move_hill_climb(dataset, kind, restarts=1, max_indegree=None, rng=None):
    """hill_climb as a graph-per-move search: every legal move builds its
    graph, a topological sort rejects cycles, and the touched families are
    scored from the candidate graph's parents."""
    names = list(dataset.names)
    cache = {}
    best_graph, best_score, total_moves = None, -math.inf, 0
    for restart in range(max(1, restarts)):
        if restart == 0:
            g = DirectedGraph(names)
        else:
            if rng is None:
                rng = np.random.default_rng(restart)
            perm = list(rng.permutation(names))
            edges = [(perm[i], perm[j]) for i in range(len(names))
                     for j in range(i + 1, len(names)) if rng.random() < 0.3]
            g = DirectedGraph(names, edges)
            if max_indegree is not None:
                for v in g.nodes:
                    ps = list(g.parents(v))
                    while len(ps) > max_indegree:
                        g = g.without_edge(ps.pop(), v)
        current = score(g, dataset, kind, _cache=cache)
        for _ in range(1000):
            best_move, best_gain = None, 1e-12
            for move in _legal_moves(g, max_indegree):
                candidate = _apply_move(g, move)
                if not is_dag(candidate):
                    continue
                _, u, v = move
                touched = {v} if move[0] in ("add", "delete") else {u, v}
                gain = 0.0
                for node in touched:
                    gain += _family_score(dataset, kind, node, candidate.parents(node), 1.0, cache)
                    gain -= _family_score(dataset, kind, node, g.parents(node), 1.0, cache)
                if gain > best_gain or (
                    best_move is not None and gain == best_gain and move < best_move
                ):
                    best_move, best_gain = move, gain
            if best_move is None:
                break
            g = _apply_move(g, best_move)
            current += best_gain
            total_moves += 1
        if current > best_score:
            best_graph, best_score = g, current
    return best_graph, best_score, total_moves


class TestHillClimbMoves:
    def test_cycle_check_matches_a_topological_sort(self, rng):
        for _ in range(60):
            names = [f"n{i}" for i in range(int(rng.integers(2, 9)))]
            g = random_dag(rng, names, p=float(rng.uniform(0.1, 0.7)))
            reach = {n: g.descendants(n) for n in g.nodes}
            for max_indegree in (None, 1, 2):
                for move in _legal_moves(g, max_indegree):
                    want = not is_dag(_apply_move(g, move))
                    assert _makes_cycle(g, move, reach) == want, move

    @pytest.mark.parametrize("kind", ["bic", "aic", "loglik", "bd"])
    def test_matches_a_graph_per_move_search(self, rng, kind):
        for trial in range(6):
            bn = random_bn(rng, n=int(rng.integers(2, 7)), max_states=3, p=0.5)
            data = Dataset.from_batch(forward_sample(bn, int(rng.integers(30, 400)),
                                                     make_rng(trial)))
            for restarts, max_indegree in ((1, None), (3, None), (2, 1)):
                result = hill_climb(data, kind, restarts=restarts,
                                    max_indegree=max_indegree, rng=make_rng(trial + 100))
                graph, value, moves = graph_per_move_hill_climb(
                    data, kind, restarts=restarts, max_indegree=max_indegree,
                    rng=make_rng(trial + 100))
                assert result.graph.edges == graph.edges
                assert result.score.hex() == value.hex()
                assert result.moves == moves


class TestCiTest:
    def test_oracle_earthquake(self):
        g = DirectedGraph(
            ["ALARM", "BURGLARY", "EARTHQUAKE"],
            [("BURGLARY", "ALARM"), ("EARTHQUAKE", "ALARM")],
        )
        assert ci_test(g, "BURGLARY", "EARTHQUAKE").independent
        assert not ci_test(g, "BURGLARY", "EARTHQUAKE", ["ALARM"]).independent

    def test_size_on_independent_coins(self):
        hits = 0
        runs = 100
        for seed in range(runs):
            gen = make_rng(700 + seed)
            a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
            rows = gen.integers(0, 2, size=(10_000, 2))
            data = Dataset((a, b), rows)
            if ci_test(data, "a", "b", alpha=0.05).independent:
                hits += 1
        assert hits >= 93

    def test_perfect_correlation(self):
        gen = make_rng(50)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        col = gen.integers(0, 2, size=5000)
        data = Dataset((a, b), np.column_stack([col, col]))
        result = ci_test(data, "a", "b")
        assert not result.independent
        assert result.p_value < 1e-6

    def test_conditional_independence_detected(self):
        gen = make_rng(51)
        bn = student_network()
        data = Dataset.from_batch(forward_sample(bn, 20_000, gen))
        # SAT and GRADE are independent given INVESTMENT
        result = ci_test(data, "SAT", "GRADE", ["INVESTMENT"], alpha=0.01)
        assert result.independent


def reference_meek_closure(cpdag):
    """Meek's rules as they stood before the one-predicate rewrite: each
    orientation restarts the sweep over the sorted undirected edges."""

    def orient(a, b):
        cpdag.undirected.discard(frozenset((a, b)))
        cpdag.directed.add((a, b))

    changed = True
    while changed:
        changed = False
        for e in sorted(cpdag.undirected, key=sorted):
            a, b = sorted(e)
            for x, y in ((a, b), (b, a)):
                # R1: z -> x, x - y, z and y nonadjacent  =>  x -> y
                if any(
                    (z, x) in cpdag.directed and not cpdag.adjacent(z, y)
                    for z in cpdag.nodes
                    if z not in (x, y)
                ):
                    orient(x, y)
                    changed = True
                    break
                # R2: x -> z -> y and x - y  =>  x -> y
                if any(
                    (x, z) in cpdag.directed and (z, y) in cpdag.directed
                    for z in cpdag.nodes
                    if z not in (x, y)
                ):
                    orient(x, y)
                    changed = True
                    break
                # R3: x - z1, x - z2, z1 -> y, z2 -> y, z1/z2 nonadjacent  =>  x -> y
                spokes = [
                    z
                    for z in cpdag.nodes
                    if z not in (x, y)
                    and frozenset((x, z)) in cpdag.undirected
                    and (z, y) in cpdag.directed
                ]
                if any(
                    not cpdag.adjacent(z1, z2)
                    for i, z1 in enumerate(spokes)
                    for z2 in spokes[i + 1:]
                ):
                    orient(x, y)
                    changed = True
                    break
                # R4: x - z, z -> w, w -> y, z/y nonadjacent, x/w adjacent  =>  x -> y
                if any(
                    frozenset((x, z)) in cpdag.undirected
                    and (z, w) in cpdag.directed
                    and (w, y) in cpdag.directed
                    and not cpdag.adjacent(z, y)
                    and cpdag.adjacent(x, w)
                    for z in cpdag.nodes
                    for w in cpdag.nodes
                    if len({x, y, z, w}) == 4
                ):
                    orient(x, y)
                    changed = True
                    break
            if changed:
                break


class RecordingSet(set):
    """A set that records the order of its additions."""

    def __init__(self, items=()):
        super().__init__(items)
        self.added = []

    def add(self, item):
        self.added.append(item)
        super().add(item)


def random_pattern(rng):
    """A partially directed pattern over 3-8 nodes; its directed edges point
    either way, so some patterns hold a directed cycle and no DAG extends
    them."""
    names = [f"n{k}" for k in range(int(rng.integers(3, 9)))]
    undirected, directed = set(), set()
    p, q = rng.uniform(0.2, 0.9), rng.uniform(0.0, 0.6)
    for a, b in itertools.combinations(names, 2):
        if rng.random() < p:
            if rng.random() < q:
                directed.add((a, b) if rng.random() < 0.5 else (b, a))
            else:
                undirected.add(frozenset((a, b)))
    return Cpdag(tuple(names), undirected, directed)


class TestMeekOrder:
    def closures(self, pattern):
        """The orientations of the reference and of _meek_closure, in order,
        and the two closed patterns."""
        out = []
        for closure in (reference_meek_closure, learning._meek_closure):
            cpdag = Cpdag(pattern.nodes, set(pattern.undirected),
                          RecordingSet(pattern.directed))
            closure(cpdag)
            out.append((cpdag.directed.added, cpdag.directed, cpdag.undirected))
        return out

    def test_closure_matches_the_restarting_reference(self, rng):
        cyclic = oriented = 0
        for _ in range(600):
            pattern = random_pattern(rng)
            want, got = self.closures(pattern)
            assert got == want, pattern
            oriented += bool(want[0])
            # Meek's rules are sound on a pattern some DAG extends, so a
            # directed cycle after closure marks one that no DAG extends
            cyclic += not is_dag(DirectedGraph(pattern.nodes, sorted(want[1])))
        assert cyclic >= 50 and oriented >= 300

    def test_orientation_order_on_a_pattern_no_dag_extends(self):
        # the undirected 4-cycle n0 - n2 - n3 - n4 - n0 has no chord, so every
        # acyclic orientation of it adds a v-structure. R1 orients n4 -> n0
        # first; restarting from the first edge, the chain of R2 and R1 steps
        # closes the cycle n4 -> n0 -> n2 -> n3 -> n4, where a sweep that
        # carried on past n4 -> n0 would orient n4 -> n3 next.
        pattern = Cpdag(
            ("n0", "n1", "n2", "n3", "n4"),
            {frozenset(e) for e in (("n0", "n2"), ("n0", "n4"), ("n2", "n3"), ("n3", "n4"))},
            {("n1", "n4")},
        )
        want, got = self.closures(pattern)
        assert got == want
        order, directed, undirected = got
        assert order == [("n4", "n0"), ("n0", "n2"), ("n2", "n3"), ("n3", "n4")]
        assert directed == {("n1", "n4"), *order} and undirected == set()


class TestPc:
    def test_y_structure_oracle(self):
        cpdag = pc(y_structure_dag())
        assert cpdag.directed == {("A", "C"), ("B", "C"), ("C", "D")}
        assert cpdag.undirected == set()

    def test_fork_stays_undirected(self):
        fork = DirectedGraph("XYZ", [("Z", "X"), ("Z", "Y")])
        cpdag = pc(fork)
        assert cpdag.directed == set()
        assert cpdag.undirected == {frozenset("XZ"), frozenset("YZ")}

    def test_oracle_recovers_mec_on_random_dags(self, rng):
        for _ in range(50):
            g = random_dag(rng, [f"v{i}" for i in range(int(rng.integers(3, 7)))], p=0.4)
            cpdag = pc(g)
            got = cpdag.to_mec_signature()
            want = mec_signature(g)
            assert got.skeleton == want.skeleton
            assert got.v_structures == want.v_structures
            reference = cpdag_of_dag(g)
            assert cpdag.directed == reference.directed
            assert cpdag.undirected == reference.undirected

    def test_meek_rule4_with_preoriented_edges(self):
        # configuration with d -> c -> b forces a -> b once a - d is known
        cpdag = Cpdag(
            ("a", "b", "c", "d"),
            {frozenset(("a", "b")), frozenset(("a", "d")), frozenset(("a", "c"))},
            {("d", "c"), ("c", "b")},
        )
        from pgmkit.learning import _meek_closure

        _meek_closure(cpdag)
        assert ("a", "b") in cpdag.directed

    def test_data_mode_y_structure(self):
        gen = make_rng(152)
        from pgmkit.models import random_cpds

        variables = [Variable(n, ("0", "1")) for n in "ABCD"]
        strong = np.array([[0.9, 0.2], [0.1, 0.8]])
        z = np.zeros((2, 2, 2))
        z[1] = [[0.05, 0.6], [0.6, 0.95]]
        z[0] = 1.0 - z[1]
        by = {v.name: v for v in variables}
        bn = BayesianNetwork(
            variables,
            y_structure_dag(),
            {
                "A": Factor([by["A"]], [0.5, 0.5]),
                "B": Factor([by["B"]], [0.5, 0.5]),
                "C": Factor([by["C"], by["A"], by["B"]], z),
                "D": Factor([by["D"], by["C"]], strong),
            },
        )
        data = Dataset.from_batch(forward_sample(bn, 50_000, gen))
        cpdag = pc(data, alpha=0.01)
        assert cpdag.directed == {("A", "C"), ("B", "C"), ("C", "D")}


class TestStructureParameters:
    """Meaningless search parameters are refused before any test or move."""

    @staticmethod
    def forbid(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(learning, name, refuse)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, math.nan])
    def test_alpha_outside_the_unit_interval_is_refused(self, alpha, monkeypatch):
        data = Dataset.from_batch(forward_sample(student_network(), 200, make_rng(1)))
        for source, x, y in ((data, "GRADE", "SAT"), (y_structure_dag(), "A", "B")):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                ci_test(source, x, y, alpha=alpha)
        self.forbid(monkeypatch, "ci_test")
        for source in (data, y_structure_dag()):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                pc(source, alpha=alpha)

    def test_negative_max_cond_size_is_refused(self, monkeypatch):
        self.forbid(monkeypatch, "ci_test")
        with pytest.raises(ValueError, match="max_cond_size must not be negative"):
            pc(y_structure_dag(), max_cond_size=-1)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_fewer_than_one_restart_is_refused(self, restarts, monkeypatch):
        data = Dataset.from_batch(forward_sample(student_network(), 200, make_rng(1)))
        self.forbid(monkeypatch, "_family_score")
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            hill_climb(data, restarts=restarts)

    def test_negative_max_indegree_is_refused(self, monkeypatch):
        data = Dataset.from_batch(forward_sample(student_network(), 200, make_rng(1)))
        self.forbid(monkeypatch, "_family_score")
        with pytest.raises(ValueError, match="max_indegree must not be negative"):
            hill_climb(data, max_indegree=-1)


class TestFitMrf:
    def test_single_variable_matches_frequencies(self):
        gen = make_rng(53)
        a = Variable("a", ("0", "1", "2"))
        rows = gen.choice(3, p=[0.5, 0.3, 0.2], size=(4000, 1))
        data = Dataset((a,), rows)
        structure = MarkovRandomField([a], [Factor([a], np.ones(3))])
        result = fit_mrf(structure, data, iters=400, l2=0.0)
        fitted = enumerate_inference(result.mrf, ["a"])
        emp = np.bincount(rows[:, 0], minlength=3) / 4000
        assert np.allclose(fitted.values, emp, atol=1e-6)

    def test_moment_matching_on_sampled_data(self):
        gen = make_rng(54)
        vs = [Variable(n, ("0", "1")) for n in "abcd"]
        by = {v.name: v for v in vs}
        pairs = [("a", "b"), ("b", "c"), ("c", "d")]
        true_factors = [
            Factor([by[u], by[v]], gen.random((2, 2)) + 0.3) for u, v in pairs
        ]
        true = MarkovRandomField(vs, true_factors)
        from pgmkit.sampling import gibbs

        batch = gibbs(true, None, 4000, 200, make_rng(55))
        data = Dataset.from_batch(batch)
        structure = MarkovRandomField(
            vs, [Factor([by[u], by[v]], np.ones((2, 2))) for u, v in pairs]
        )
        result = fit_mrf(structure, data, iters=600, l2=0.0, tol=1e-7)
        assert result.moment_mismatch < 1e-4

    def test_gradient_at_zero_is_empirical_minus_uniform(self):
        gen = make_rng(56)
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        rows = gen.integers(0, 2, size=(512, 2))
        data = Dataset((a, b), rows)
        structure = MarkovRandomField([a, b], [Factor([a, b], np.ones((2, 2)))])
        from pgmkit.learning import _empirical_factor_moments, _model_factor_moments

        empirical = _empirical_factor_moments(structure, data)[0]
        model, _ = _model_factor_moments(build_junction_tree(structure))
        assert np.allclose(model[0], 0.25)
        # one step from zero moves along (empirical - uniform)
        result = fit_mrf(structure, data, learning_rate=1.0, iters=1, l2=0.0)
        assert np.allclose(result.theta[0], empirical - 0.25, atol=1e-12)


    def test_builds_the_junction_tree_once(self, monkeypatch):
        gen = make_rng(58)
        a, b, c = (Variable(n, ("0", "1")) for n in "abc")
        data = Dataset((a, b, c), gen.integers(0, 2, size=(256, 3)))
        structure = MarkovRandomField(
            [a, b, c], [Factor([a, b], np.ones((2, 2))), Factor([b, c], np.ones((2, 2)))]
        )
        built = []
        build = learning.build_junction_tree
        monkeypatch.setattr(learning, "build_junction_tree",
                            lambda model: built.append(model) or build(model))
        result = fit_mrf(structure, data, iters=5, tol=0.0)
        assert result.iterations == 5
        assert built == [structure]


class TestPseudoLikelihood:
    def test_single_variable_equals_loglik(self):
        gen = make_rng(57)
        a = Variable("a", ("0", "1"))
        rows = gen.integers(0, 2, size=(200, 1))
        data = Dataset((a,), rows)
        table = np.array([0.3, 0.7])
        mrf = MarkovRandomField([a], [Factor([a], table)])
        value, _ = pseudo_likelihood(mrf, data)
        p1 = float(np.mean(rows))
        expected = p1 * math.log(0.7) + (1 - p1) * math.log(0.3)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_log_domain_twin_gives_the_same_value_and_gradients(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        data = Dataset((a, b), np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))
        linear = MarkovRandomField([a, b], [
            Factor([a], [0.4, 1.5]), Factor([b, a], [[2.0, 0.5], [1.0, 3.0]])])
        twin = MarkovRandomField([a, b], [
            Factor(f.scope, np.log(f.table), domain="log") for f in linear.factors])
        value, grads = pseudo_likelihood(linear, data)
        twin_value, twin_grads = pseudo_likelihood(twin, data)
        assert math.isfinite(value)
        assert twin_value == value
        for g, twin_g in zip(grads, twin_grads):
            assert np.array_equal(twin_g, g)

    def test_row_leaving_a_variable_no_mass_is_minus_infinity(self):
        # at row (1, 1) neither a given b = 1 nor b given a = 1 has a state
        # of positive mass: the value is -inf, with no warning, and that
        # row's conditionals count as zero in the gradient
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a, b], [[1.0, 0.0], [0.0, 0.0]])])
        data = Dataset((a, b), np.array([[0, 0], [1, 1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grads = pseudo_likelihood(mrf, data)
        assert value == -math.inf
        assert np.array_equal(grads[0], [[0.0, 0.0], [0.0, 1.0]])

    def test_gradient_matches_finite_differences(self):
        gen = make_rng(58)
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        by = {v.name: v for v in vs}
        rows = gen.integers(0, 2, size=(60, 3))
        data = Dataset(tuple(vs), rows)
        mrf = MarkovRandomField(
            vs,
            [
                Factor([by["a"], by["b"]], np.ones((2, 2))),
                Factor([by["b"], by["c"]], np.ones((2, 2))),
                Factor([by["a"]], np.ones(2)),
            ],
        )
        theta = [gen.normal(scale=0.4, size=f.table.shape) for f in mrf.factors]
        _, grads = pseudo_likelihood(mrf, data, theta)
        eps = 1e-6
        for fi in range(len(theta)):
            flat = theta[fi].reshape(-1)
            for cell in range(flat.size):
                up = [t.copy() for t in theta]
                down = [t.copy() for t in theta]
                up[fi].reshape(-1)[cell] += eps
                down[fi].reshape(-1)[cell] -= eps
                v_up, _ = pseudo_likelihood(mrf, data, up)
                v_down, _ = pseudo_likelihood(mrf, data, down)
                numeric = (v_up - v_down) / (2 * eps)
                analytic = grads[fi].reshape(-1)[cell]
                assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(numeric))

    def test_pl_and_ml_conditionals_agree(self):
        gen = make_rng(59)
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        by = {v.name: v for v in vs}
        pairs = [("a", "b"), ("b", "c")]
        true = MarkovRandomField(
            vs, [Factor([by[u], by[v]], gen.random((2, 2)) + 0.3) for u, v in pairs]
        )
        from pgmkit.sampling import gibbs

        data = Dataset.from_batch(gibbs(true, None, 5000, 200, make_rng(60)))
        structure = MarkovRandomField(
            vs, [Factor([by[u], by[v]], np.ones((2, 2))) for u, v in pairs]
        )
        ml = fit_mrf(structure, data, iters=500, l2=1e-5)
        pl = fit_pseudo_likelihood(structure, data, iters=800, l2=1e-5)
        # compare single-site conditionals p(x_i | rest) on every configuration
        from pgmkit.sampling import _ConditionalSampler

        ml_cond = _ConditionalSampler(ml.mrf, {})
        pl_cond = _ConditionalSampler(pl.mrf, {})
        for name in sorted(true.variables):
            for config in itertools.product((0, 1), repeat=3):
                vec = np.array(config, dtype=np.int64)
                a = ml_cond.conditional(name, vec)
                b = pl_cond.conditional(name, vec)
                assert np.allclose(a / a.sum(), b / b.sum(), atol=0.02)


def make_toy_crf(n_labels=3, n_feats=4):
    def obs_features(x, t):
        return np.asarray(x[t], dtype=float)

    return ChainCRF([f"L{i}" for i in range(n_labels)], n_feats, obs_features)


def load_bench_references():
    """bench/references.py, loaded from its file: an independent numpy
    forward-backward that pgmkit itself never imports."""
    path = Path(__file__).resolve().parents[1] / "bench" / "references.py"
    spec = importlib.util.spec_from_file_location("bench_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def references():
    return load_bench_references()


def reference_crf(references, crf, data, l2):
    cases = [(crf.features(x), np.array([crf.labels.index(lab) for lab in y]))
             for x, y in data]
    return references.crf_loglik_grad(crf.node_weights, crf.trans_weights, cases, l2)


def tree_bp_crf(crf, data):
    """Log-likelihood and gradient from sum-product on each chain MRF."""
    k = crf.n_labels
    grad_node, grad_trans, total = np.zeros(crf.node_weights.shape), np.zeros((k, k)), 0.0
    for x, y in data:
        labels = [crf.labels.index(lab) for lab in y]
        feats, scores = crf.features(x), crf.node_scores(x)
        result = tree_bp(crf.to_mrf(x))
        names = [v.name for v in crf.label_variables(len(x))]
        total += sum(scores[t, lab] for t, lab in enumerate(labels))
        total += sum(crf.trans_weights[a, b] for a, b in zip(labels, labels[1:]))
        total -= result.log_partition
        for t, lab in enumerate(labels):
            grad_node[lab] += feats[t]
            grad_node -= np.outer(result.marginal(names[t]).values, feats[t])
        for t in range(1, len(x)):
            pair = next(b for b in result.factor_beliefs if b.names == (names[t - 1], names[t]))
            grad_trans[labels[t - 1], labels[t]] += 1.0
            grad_trans -= pair.table
    return total, np.concatenate([grad_node.ravel(), grad_trans.ravel()])


def random_crf_data(gen, crf, lengths):
    nf = crf.n_obs_features
    return [([gen.normal(size=nf) for _ in range(t)],
             [crf.labels[i] for i in gen.integers(0, crf.n_labels, size=t)]) for t in lengths]


class TestChainCrf:
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_matches_the_forward_backward_reference(self, references, l2):
        gen = make_rng(70)
        for _ in range(25):
            crf = make_toy_crf(int(gen.integers(1, 5)), int(gen.integers(1, 4)))
            crf = crf.with_theta(gen.normal(scale=1.5, size=crf.theta.size))
            lengths = gen.integers(1, 7, size=int(gen.integers(1, 4)))
            data = random_crf_data(gen, crf, [1, *lengths])
            value, grad = crf_log_likelihood(crf, data, l2)
            want, want_grad = reference_crf(references, crf, data, l2)
            assert value == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)

    def test_scores_beyond_the_exp_range_stay_finite(self, references):
        # node scores of 800 and 790 overflow a plain exp(score)
        crf = ChainCRF(["a", "b"], 2, lambda x, t: np.eye(2)[x[t]],
                       node_weights=[[800.0, 0.0], [0.0, 790.0]],
                       trans_weights=[[0.5, -1.0], [2.0, 0.0]])
        data = [([0], ["b"]), ([0, 1, 1, 0], ["a", "b", "a", "a"]), ([1, 1], ["b", "b"])]
        for l2 in (0.0, 1e-3):
            value, grad = crf_log_likelihood(crf, data, l2)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            want, want_grad = reference_crf(references, crf, data, l2)
            assert value == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)

    def test_matches_tree_bp_on_the_chain_mrf(self):
        gen = make_rng(71)
        for _ in range(10):
            crf = make_toy_crf(int(gen.integers(2, 5)), 3)
            crf = crf.with_theta(gen.normal(scale=0.7, size=crf.theta.size))
            data = random_crf_data(gen, crf, gen.integers(1, 8, size=3))
            value, grad = crf_log_likelihood(crf, data)
            want, want_grad = tree_bp_crf(crf, data)
            assert value == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-12)

    def test_chain_mrf_beyond_the_exp_range_has_a_finite_log_partition(self):
        # exp(800) overflows, so linear-domain chain factors gave log Z = nan
        crf = ChainCRF(["a", "b"], 2, lambda x, t: np.eye(2)[x[t]],
                       node_weights=[[800.0, 0.0], [0.0, 790.0]])
        x = [0, 1]
        log_z = tree_bp(crf.to_mrf(x)).log_partition
        # crf_log_likelihood is score(y) - log Z; score(a, b) = 800 + 790 + 0
        value, _ = crf_log_likelihood(crf, [(x, ["a", "b"])])
        assert np.isfinite(log_z)
        assert log_z == pytest.approx(1590.0 - value, rel=1e-12)

    def test_zero_weights_uniform_gradient(self):
        gen = make_rng(61)
        crf = make_toy_crf()
        x = [gen.normal(size=4) for _ in range(3)]
        y = ["L0", "L2", "L1"]
        value, grad = crf_log_likelihood(crf, [(x, y)])
        assert value == pytest.approx(3 * math.log(1 / 3), abs=1e-9)
        k, nf = 3, 4
        grad_node = grad[: k * nf].reshape(k, nf)
        feats = np.stack([np.asarray(f) for f in x])
        expected0 = feats[0] - feats.sum(axis=0) / 3
        # row L0 collects phi(x,0) fully and one third of every position
        manual = np.zeros((k, nf))
        for t, lab in enumerate([0, 2, 1]):
            manual[lab] += feats[t]
            manual -= feats[t] / 3
        assert np.allclose(grad_node, manual, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        gen = make_rng(62)
        crf = make_toy_crf()
        x = [gen.normal(size=4) for _ in range(4)]
        y = ["L1", "L0", "L2", "L2"]
        theta = gen.normal(scale=0.3, size=crf.theta.size)
        crf = crf.with_theta(theta)
        value, grad = crf_log_likelihood(crf, [(x, y)])
        eps = 1e-6
        for cell in range(theta.size):
            up = theta.copy()
            down = theta.copy()
            up[cell] += eps
            down[cell] -= eps
            v_up, _ = crf_log_likelihood(crf.with_theta(up), [(x, y)])
            v_down, _ = crf_log_likelihood(crf.with_theta(down), [(x, y)])
            numeric = (v_up - v_down) / (2 * eps)
            assert abs(numeric - grad[cell]) <= 1e-5 * max(1.0, abs(numeric))

    def test_training_loss_decreases(self):
        gen = make_rng(63)
        crf = make_toy_crf(n_labels=5, n_feats=5)
        data = []
        for _ in range(12):
            length = int(gen.integers(3, 6))
            labels = gen.integers(0, 5, size=length)
            x = [
                np.eye(5)[labels[t]] + gen.normal(scale=0.4, size=5)
                for t in range(length)
            ]
            data.append((x, [f"L{k}" for k in labels]))
        result = fit_chain_crf(crf, data, l2=1e-3, steps=50, learning_rate=0.05)
        first_50 = result.loglik_trace[:50]
        assert all(b > a for a, b in zip(first_50, first_50[1:]))


class TestEmGmm:
    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iterations_is_refused(self, max_iters):
        data = make_rng(2).normal(size=(20, 1))
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            em_gmm(data, 2, max_iters=max_iters)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_fewer_than_one_restart_is_refused(self, restarts, monkeypatch):
        def refuse(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(learning, "_em_once", refuse)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            em_gmm(make_rng(2).normal(size=(20, 1)), 2, restarts=restarts)

    def test_k1_closed_form(self):
        gen = make_rng(64)
        data = gen.normal(size=(300, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        result = em_gmm(data, k=1, rng=make_rng(65), restarts=1, max_iters=5)
        assert np.allclose(result.params.means[0], data.mean(axis=0), atol=1e-9)
        centered = data - data.mean(axis=0)
        expected_cov = centered.T @ centered / len(data)
        assert np.allclose(result.params.covariances[0], expected_cov, atol=1e-6)

    def test_two_well_separated_components(self):
        gen = make_rng(66)
        left = gen.normal(loc=-5.0, size=(1000, 1))
        right = gen.normal(loc=+5.0, size=(1000, 1))
        data = np.vstack([left, right])
        result = em_gmm(data, k=2, rng=make_rng(67), restarts=3)
        means = sorted(result.params.means[:, 0])
        assert means[0] == pytest.approx(-5.0, abs=0.1)
        assert means[1] == pytest.approx(+5.0, abs=0.1)
        assert np.allclose(sorted(result.params.weights), [0.5, 0.5], atol=0.05)

    def test_loglik_monotone_many_datasets(self):
        violations = 0
        for seed in range(50):
            gen = make_rng(800 + seed)
            centers = gen.normal(scale=3.0, size=(2, 2))
            data = np.vstack(
                [gen.normal(loc=centers[j], scale=1.0, size=(60, 2)) for j in range(2)]
            )
            result = em_gmm(data, k=2, rng=make_rng(900 + seed), restarts=1,
                            max_iters=60)
            diffs = np.diff(result.loglik_trace)
            violations += int(np.any(diffs < -1e-8))
        assert violations == 0

    def test_responsibilities_sum_to_one(self):
        gen = make_rng(68)
        data = gen.normal(size=(200, 3))
        result = em_gmm(data, k=3, rng=make_rng(69), restarts=1)
        assert np.allclose(result.responsibilities.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            em_gmm(np.zeros((2, 1)), k=5)
