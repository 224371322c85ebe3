"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line at its stated tolerance.
"""

import contextlib
import io as stdio
import itertools
import math

import numpy as np
import pytest

from conftest import make_variables, random_bn, random_dag, random_mrf, random_tree_mrf
from pgmkit.errors import NotATreeError
from pgmkit.exact import (
    build_junction_tree,
    family_preservation_holds,
    jt_calibrate,
    jt_clique_log_partitions,
    jt_query,
    max_product_decode,
    running_intersection_holds,
    tree_bp,
    variable_elimination,
)
from pgmkit import factors as fa
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph, mec_signature
from pgmkit.learning import (
    Dataset,
    DirichletParams,
    chow_liu,
    crf_log_likelihood,
    dirichlet_posterior,
    em_gmm,
    fit_mrf,
    mle_bn,
    pc,
    pseudo_likelihood,
)
from pgmkit.mapinf import (
    FlowNetwork,
    PairwiseEnergyModel,
    dual_decomposition,
    graphcut_map,
    min_cut,
)
from pgmkit.models import (
    BayesianNetwork,
    ChainCRF,
    MarkovRandomField,
    enumerate_inference,
    log_joint,
)
from pgmkit.sampling import (
    SingleSiteUniformKernel,
    forward_sample,
    gibbs,
    gibbs_transition_matrix,
    jt_forward_sample,
    make_rng,
    mh_transition_matrix,
    chain_analysis,
)
from pgmkit.variational import FactoredDistribution, elbo, loopy_bp, mean_field
from pgmkit.zoo import (
    chow_liu_example,
    periodic_chain,
    reducible_chain,
    student_network,
    three_state_chain,
)
from pgmkit.graphs import max_weight_spanning_tree


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def random_model(rng, quantized=False):
    n = int(rng.integers(2, 9))
    max_states = 4
    if rng.random() < 0.5:
        model = random_bn(rng, n=n, max_states=max_states)
        if quantized:
            # coarse tables so exact ties actually occur
            cpds = {}
            for name, cpd in model.cpds.items():
                table = np.round(cpd.table * 4) / 4 + 0.25
                table = table / table.sum(axis=0, keepdims=True)
                cpds[name] = Factor(cpd.scope, table)
            model = BayesianNetwork(list(model.variables.values()), model.dag, cpds)
        return model
    model = random_mrf(rng, n=n, max_states=max_states)
    if quantized:
        factors = [
            Factor(f.scope, np.round(f.table * 4) / 4 + 0.25) for f in model.factors
        ]
        model = MarkovRandomField(list(model.variables.values()), factors)
    return model


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence of exact engines"):
        rng = np.random.default_rng(101)
        for trial in range(200):
            model = random_model(rng, quantized=(trial % 4 == 0))
            names = sorted(model.variables)
            evidence = {}
            if len(names) > 2 and rng.random() < 0.5:
                v = model.variable(names[-1])
                evidence = {v.name: v.states[int(rng.integers(v.cardinality))]}
            jt = jt_calibrate(build_junction_tree(model), evidence)
            try:
                bp = tree_bp(model, evidence)   # a forest too
            except NotATreeError:
                bp = None
            for target in names:
                if target in evidence:
                    continue
                want = enumerate_inference(model, [target], evidence)
                ve = variable_elimination(model, [target], evidence).normalized()
                assert np.allclose(ve.values, want.values, atol=1e-9)
                assert np.allclose(jt_query(jt, target).values, want.values, atol=1e-9)
                if bp is not None:
                    assert np.allclose(
                        bp.marginal(target).values, want.values, atol=1e-9
                    )
            map_got, logp_got = max_product_decode(model, evidence)
            map_want, logp_want = enumerate_inference(
                model, mode="map", evidence=evidence
            )
            assert map_got == map_want
            if math.isfinite(logp_want):
                assert logp_got == pytest.approx(logp_want, abs=1e-9)


def test_criterion_2_student_network():
    with criterion(2, "student network reproduction"):
        bn = student_network()
        target = np.array([0.497664, 0.502336])

        got = enumerate_inference(bn, ["LETTER"]).values
        assert np.allclose(got, target, atol=1e-9)
        assert np.allclose(
            variable_elimination(bn, ["LETTER"]).normalized().values, target, atol=1e-9
        )
        assert np.allclose(tree_bp(bn).marginal("LETTER").values, target, atol=1e-9)
        jt = jt_calibrate(build_junction_tree(bn))
        assert np.allclose(jt_query(jt, "LETTER").values, target, atol=1e-9)
        loopy = loopy_bp(bn, damping=1.0, max_iters=100, tol=1e-13)
        assert loopy.converged
        assert np.allclose(loopy.marginals["LETTER"].values, target, atol=1e-9)

        expected_map = {
            "DIFFICULTY": "d1",
            "INVESTMENT": "i0",
            "GRADE": "g3",
            "SAT": "s0",
            "LETTER": "l0",
        }
        for engine in (
            lambda: enumerate_inference(bn, mode="map"),
            lambda: max_product_decode(bn),
        ):
            assignment, logp = engine()
            assert assignment == expected_map
            assert math.exp(logp) == pytest.approx(0.184338, abs=1e-9)

        batch = gibbs(bn, None, 200_000, 1000, make_rng(2024))
        assert batch.frequency("LETTER", "l1") == pytest.approx(0.502336, abs=0.01)


def test_criterion_3_junction_tree_properties():
    with criterion(3, "junction tree structure and calibration"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            model = (
                random_bn(rng, n=n, max_states=3)
                if rng.random() < 0.5
                else random_mrf(rng, n=n, max_states=3)
            )
            jt = build_junction_tree(model)
            assert family_preservation_holds(jt)
            assert running_intersection_holds(jt)
            jt = jt_calibrate(jt)
            logz = np.array(jt_clique_log_partitions(jt))
            assert np.allclose(logz, jt.log_partition, rtol=1e-9, atol=1e-9)
            for (a, b) in jt.tree_edges:
                sep = sorted(jt.sepsets[(a, b)])
                if not sep:
                    continue
                ma = fa.eliminate(
                    jt.beliefs[a], [x for x in jt.beliefs[a].names if x not in sep]
                )
                mb = fa.eliminate(
                    jt.beliefs[b], [x for x in jt.beliefs[b].names if x not in sep]
                )
                ma, _ = fa.normalize(ma)
                mb, _ = fa.normalize(fa.align_to(mb, ma.names))
                assert np.allclose(ma.table, mb.table, atol=1e-9)


def _grid_energy_model(rng, rows=4, cols=4):
    # dyadic-rational energies keep every sum exact in float arithmetic
    names = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    unary = {
        v: (int(rng.integers(-512, 512)) / 64.0, int(rng.integers(-512, 512)) / 64.0)
        for v in names
    }
    lam = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lam[(f"g{r}{c}", f"g{r}{c+1}")] = int(rng.integers(0, 128)) / 64.0
            if r + 1 < rows:
                lam[(f"g{r}{c}", f"g{r+1}{c}")] = int(rng.integers(0, 128)) / 64.0
    return PairwiseEnergyModel(tuple(names), unary, lam)


def _enumerate_grid_minimum(m: PairwiseEnergyModel) -> float:
    names = list(m.variables)
    n = len(names)
    codes = np.arange(1 << n, dtype=np.int64)
    bits = {v: (codes >> i) & 1 for i, v in enumerate(names)}
    total = np.zeros(1 << n)
    for v in names:
        e = np.array(m.unary[v])
        total += e[bits[v]]
    for (u, v), cost in m.lam.items():
        total += cost * (bits[u] != bits[v])
    return float(total.min())


def test_criterion_4_graphcut_exactness():
    with criterion(4, "graph cut exactness on grids"):
        rng = np.random.default_rng(104)
        for _ in range(20):
            model = _grid_energy_model(rng)
            labels, energy = graphcut_map(model)
            assert energy == _enumerate_grid_minimum(model)
            assert model.energy(labels) == energy

        # the worked min-cut instance: partition cost 7
        weights = {
            ("A", "B"): 7, ("A", "C"): 4, ("B", "D"): 2, ("B", "E"): 1,
            ("C", "D"): 1, ("C", "F"): 5, ("D", "E"): 5, ("D", "F"): 2,
            ("E", "G"): 4, ("F", "G"): 1,
        }
        net = FlowNetwork("s", "t")
        for (u, v), w in weights.items():
            net.add_arc(u, v, w)
            net.add_arc(v, u, w)
        net.add_arc("s", "A", 100.0)
        net.add_arc("s", "F", 100.0)
        net.add_arc("D", "t", 100.0)
        cut = min_cut(net)
        assert cut.cost == pytest.approx(7.0)
        assert cut.source_side - {"s"} == {"A", "B", "C", "F"}
        assert cut.sink_side - {"t"} == {"D", "E", "G"}


def test_criterion_5_dual_bound_dominance():
    with criterion(5, "dual decomposition bounds and tree agreement"):
        rng = np.random.default_rng(105)
        for trial in range(50):
            n = int(rng.integers(2, 7))
            if trial % 2 == 0:
                mrf = random_tree_mrf(rng, n=n, max_states=2)
            else:
                mrf = random_mrf(rng, n=n, max_states=2,
                                 n_factors=n + 3, max_scope=2)
            state = dual_decomposition(mrf, max_iters=400)
            _, map_value = enumerate_inference(mrf, mode="map")
            for bound in state.bounds:
                assert bound >= map_value - 1e-9
        for seed in range(10):
            gen = np.random.default_rng(1050 + seed)
            tree = random_tree_mrf(gen, n=5, max_states=2)
            state = dual_decomposition(tree, max_iters=3000)
            _, map_value = enumerate_inference(tree, mode="map")
            assert state.agreement
            assert abs(state.objective - map_value) <= 1e-9
            assert state.bound - map_value <= 1e-9


def test_criterion_6_sampler_kernels_and_chains():
    with criterion(6, "sampler kernel stationarity and chain diagnostics"):
        rng = np.random.default_rng(106)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            model = (
                random_bn(rng, n=n, max_states=2)
                if rng.random() < 0.5
                else random_mrf(rng, n=n, max_states=2, n_factors=n + 2, max_scope=2)
            )
            T, labels = gibbs_transition_matrix(model)
            joint = np.array([math.exp(log_joint(model, lab)) for lab in labels])
            joint = joint / joint.sum()
            assert np.max(np.abs(T @ joint - joint)) <= 1e-10

            kernel = SingleSiteUniformKernel(list(model.variables.values()))
            T_mh, labels_mh = mh_transition_matrix(model, kernel)
            joint_mh = np.array(
                [math.exp(log_joint(model, lab)) for lab in labels_mh]
            )
            joint_mh = joint_mh / joint_mh.sum()
            assert np.max(np.abs(T_mh @ joint_mh - joint_mh)) <= 1e-10

        diag = chain_analysis(three_state_chain())
        assert np.allclose(diag.stationary, [0.4, 0.4, 0.2], atol=1e-9)
        assert not chain_analysis(reducible_chain()).irreducible
        assert not chain_analysis(periodic_chain()).aperiodic


def test_criterion_7_variational_bounds():
    with criterion(7, "variational bounds and tree exactness"):
        rng = np.random.default_rng(107)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            mrf = random_mrf(rng, n=n, max_states=2, n_factors=n + 2)
            q = FactoredDistribution.random(list(mrf.variables.values()), rng)
            log_z = math.log(enumerate_inference(mrf, mode="partition"))
            assert elbo(mrf, q) <= log_z + 1e-9
        violations = 0
        for _ in range(10):
            mrf = random_mrf(rng, n=5, max_states=2, n_factors=8)
            _, trace = mean_field(mrf, max_sweeps=40)
            violations += int(np.any(np.diff(trace.update_values) < -1e-10))
        assert violations == 0
        for _ in range(20):
            tree = random_tree_mrf(rng, n=int(rng.integers(2, 7)), max_states=3)
            exact = tree_bp(tree)
            approx = loopy_bp(tree, damping=1.0, max_iters=200, tol=1e-13)
            assert approx.converged
            for name in tree.variables:
                assert np.allclose(
                    approx.marginals[name].values,
                    exact.marginal(name).values,
                    atol=1e-9,
                )


def test_criterion_8_learning():
    with criterion(8, "learning pipeline"):
        # coin MLE is exactly 0.6
        coin = Variable("coin", ("tails", "heads"))
        data = Dataset((coin,), np.array([[1]] * 60 + [[0]] * 40))
        bn = mle_bn(DirectedGraph(["coin"]), data)
        assert bn.cpds["coin"]({"coin": "heads"}) == 0.6

        # conjugate update is exactly Beta(7, 5) with mean 7/12
        posterior = dirichlet_posterior(DirichletParams((1.0, 1.0)), np.array([6, 4]))
        assert posterior.alpha == (7.0, 5.0)
        assert posterior.mean[0] == 7.0 / 12.0

        # the worked spanning-tree example reproduces from its MI weights
        graph, weights = chow_liu_example()
        tree = max_weight_spanning_tree(graph, weights).tree
        assert set(tree.edges) == {("A", "C"), ("B", "C"), ("B", "D")}

        # generating trees recovered from samples in >= 19/20 seeds
        hits = 0
        for seed in range(20):
            gen = make_rng(8000 + seed)
            names = [f"v{i}" for i in range(5)]
            variables = [Variable(n, ("0", "1")) for n in names]
            edges = [(names[int(gen.integers(0, i))], names[i]) for i in range(1, 5)]
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
            gen_bn = BayesianNetwork(variables, dag, cpds)
            sample = Dataset.from_batch(forward_sample(gen_bn, 20_000, gen))
            learned = chow_liu(sample, root=names[0])
            hits += set(learned.dag.skeleton().edges) == set(dag.skeleton().edges)
        assert hits >= 19

        # PC with the d-separation oracle: y-structure exactly, MEC on 50 DAGs
        from pgmkit.zoo import y_structure_dag

        cpdag = pc(y_structure_dag())
        assert cpdag.directed == {("A", "C"), ("B", "C"), ("C", "D")}
        assert not cpdag.undirected
        rng = np.random.default_rng(108)
        for _ in range(50):
            g = random_dag(rng, [f"v{i}" for i in range(int(rng.integers(3, 7)))], p=0.4)
            got = pc(g).to_mec_signature()
            want = mec_signature(g)
            assert got.skeleton == want.skeleton
            assert got.v_structures == want.v_structures

        # CRF and pseudo-likelihood gradients match central differences
        gen = make_rng(109)

        def obs(x, t):
            return np.asarray(x[t], dtype=float)

        crf = ChainCRF(["L0", "L1", "L2"], 4, obs)
        x = [gen.normal(size=4) for _ in range(4)]
        y = ["L1", "L0", "L2", "L2"]
        theta = gen.normal(scale=0.3, size=crf.theta.size)
        crf = crf.with_theta(theta)
        _, grad = crf_log_likelihood(crf, [(x, y)])
        eps = 1e-6
        for cell in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[cell] += eps
            down[cell] -= eps
            v_up, _ = crf_log_likelihood(crf.with_theta(up), [(x, y)])
            v_down, _ = crf_log_likelihood(crf.with_theta(down), [(x, y)])
            numeric = (v_up - v_down) / (2 * eps)
            assert abs(numeric - grad[cell]) <= 1e-5 * max(1.0, abs(numeric))

        vs = [Variable(n, ("0", "1")) for n in "abc"]
        by = {v.name: v for v in vs}
        rows = gen.integers(0, 2, size=(50, 3))
        pl_data = Dataset(tuple(vs), rows)
        pl_mrf = MarkovRandomField(
            vs,
            [Factor([by["a"], by["b"]], np.ones((2, 2))),
             Factor([by["b"], by["c"]], np.ones((2, 2)))],
        )
        theta_pl = [gen.normal(scale=0.4, size=f.table.shape) for f in pl_mrf.factors]
        _, grads = pseudo_likelihood(pl_mrf, pl_data, theta_pl)
        for fi in range(len(theta_pl)):
            flat = theta_pl[fi].reshape(-1)
            for cell in range(flat.size):
                up = [t.copy() for t in theta_pl]
                down = [t.copy() for t in theta_pl]
                up[fi].reshape(-1)[cell] += eps
                down[fi].reshape(-1)[cell] -= eps
                v_up, _ = pseudo_likelihood(pl_mrf, pl_data, up)
                v_down, _ = pseudo_likelihood(pl_mrf, pl_data, down)
                numeric = (v_up - v_down) / (2 * eps)
                analytic = grads[fi].reshape(-1)[cell]
                assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))

        # moment matching at convergence
        fit_gen = make_rng(110)
        pairs = [("a", "b"), ("b", "c")]
        true = MarkovRandomField(
            vs, [Factor([by[u], by[v]], fit_gen.random((2, 2)) + 0.3) for u, v in pairs]
        )
        jt = jt_calibrate(build_junction_tree(true))
        sample = Dataset.from_batch(jt_forward_sample(jt, 4000, fit_gen))
        structure = MarkovRandomField(
            vs, [Factor([by[u], by[v]], np.ones((2, 2))) for u, v in pairs]
        )
        fitted = fit_mrf(structure, sample, iters=600, l2=0.0, tol=1e-7)
        assert fitted.moment_mismatch < 1e-4

        # EM: monotone traces across 50 datasets, means of +-5 recovered
        violations = 0
        for seed in range(50):
            g2 = make_rng(8100 + seed)
            centers = g2.normal(scale=3.0, size=(2, 2))
            pts = np.vstack(
                [g2.normal(loc=centers[j], scale=1.0, size=(60, 2)) for j in range(2)]
            )
            result = em_gmm(pts, k=2, rng=make_rng(8200 + seed), restarts=1,
                            max_iters=60)
            violations += int(np.any(np.diff(result.loglik_trace) < -1e-8))
        assert violations == 0
        g3 = make_rng(111)
        pts = np.vstack(
            [g3.normal(loc=-5.0, size=(1000, 1)), g3.normal(loc=5.0, size=(1000, 1))]
        )
        result = em_gmm(pts, k=2, rng=make_rng(112), restarts=3)
        means = sorted(result.params.means[:, 0])
        assert abs(means[0] + 5.0) < 0.1
        assert abs(means[1] - 5.0) < 0.1
        assert np.allclose(sorted(result.params.weights), [0.5, 0.5], atol=0.05)


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "seeded reproducibility and canonical serialization"):
        from pgmkit.cli import main
        from pgmkit.io import parse_model, serialize_model

        bn = student_network()
        model_path = tmp_path / "student.json"
        model_path.write_text(serialize_model(bn))

        # byte-stable serialization round trip
        text = model_path.read_text()
        assert serialize_model(parse_model(text)) == text

        def run(argv):
            buffer = stdio.StringIO()
            code = main(argv, out=buffer)
            assert code == 0
            return buffer.getvalue()

        for argv in (
            ["sample", "--model", str(model_path), "--n", "200", "--seed", "9",
             "--method", "gibbs"],
            ["sample", "--model", str(model_path), "--n", "200", "--seed", "9",
             "--method", "forward"],
            ["query", "--model", str(model_path), "--target", "LETTER",
             "--engine", "gibbs", "--n", "2000", "--seed", "3"],
            ["map", "--model", str(model_path), "--engine", "anneal", "--seed", "4"],
        ):
            assert run(argv) == run(argv)
