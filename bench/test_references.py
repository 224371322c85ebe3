"""Tests of the benchmark's references and checks.

    python3 -m pytest bench/test_references.py -q

Each reference must match pgmkit's enumeration oracle on an instance small
enough for it, and each check must pass pgmkit's real answers and reject
a deliberately wrong one.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import references as ref  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402
from pgmkit.io import parse_model  # noqa: E402
from pgmkit.models import enumerate_inference  # noqa: E402


def oracle(spec):
    return parse_model(spec.document())


def labels(assignment):
    return {n: specs.state(k) for n, k in assignment.items()}


# ---------------------------------------------------------------------------
# References against the oracle
# ---------------------------------------------------------------------------


def test_chain_forward_backward_and_viterbi_match_the_oracle():
    rng = np.random.default_rng(0)
    T, K, M = 10, 2, 2
    prior = rng.dirichlet(np.ones(K))
    trans = rng.dirichlet(np.ones(K), size=(T - 1, K))
    emit = rng.dirichlet(np.ones(M), size=(T, K))
    hidden = [f"H{t}" for t in range(T)]
    observed = [f"O{t}" for t in range(T)]
    factors = [((hidden[0],), prior)]
    factors += [((hidden[t], hidden[t - 1]), trans[t - 1].T) for t in range(1, T)]
    factors += [((observed[t], hidden[t]), emit[t].T) for t in range(T)]
    model = oracle(specs.Spec("bayesian_network", {n: 2 for n in hidden + observed}, factors))
    obs = rng.integers(M, size=T)
    evidence = labels(dict(zip(observed, obs)))

    post, log_evidence = ref.chain_posteriors(prior, trans, emit, obs)
    for t in (0, 4, T - 1):
        want = enumerate_inference(model, [hidden[t]], evidence).values
        np.testing.assert_allclose(post[t], want, atol=1e-12)
    z = enumerate_inference(model, evidence=evidence, mode="partition")
    assert log_evidence == pytest.approx(math.log(z), abs=1e-10)

    path, logp = ref.chain_viterbi(prior, trans, emit, obs)
    best, best_logp = enumerate_inference(model, evidence=evidence, mode="map")
    assert [specs.state(k) for k in path] == [best[h] for h in hidden]
    assert logp == pytest.approx(best_logp, abs=1e-10)
    assert ref.chain_log_joint(prior, trans, emit, path, obs) == pytest.approx(best_logp, abs=1e-10)


def small_grid(rng, R=3, C=3):
    unary = rng.normal(0, 0.8, size=(R, C, 2))
    horiz = rng.normal(0, 0.8, size=(R, C - 1, 2, 2))
    vert = rng.normal(0, 0.8, size=(R - 1, C, 2, 2))
    names = [[f"G{r}{c}" for c in range(C)] for r in range(R)]
    factors = [((names[r][c],), np.exp(unary[r, c])) for r in range(R) for c in range(C)]
    factors += [((names[r][c], names[r][c + 1]), np.exp(horiz[r, c]))
                for r in range(R) for c in range(C - 1)]
    factors += [((names[r][c], names[r + 1][c]), np.exp(vert[r, c]))
                for r in range(R - 1) for c in range(C)]
    cards = {n: 2 for row in names for n in row}
    return unary, horiz, vert, names, oracle(specs.Spec("markov_random_field", cards, factors))


def test_grid_transfer_matrix_matches_the_oracle():
    unary, horiz, vert, names, model = small_grid(np.random.default_rng(1))
    evidence = {(0, 1): 1, (2, 2): 0}
    exact = ref.grid_exact(unary, horiz, vert, evidence)
    ev = {names[r][c]: specs.state(s) for (r, c), s in evidence.items()}
    for r, c in [(0, 0), (1, 1), (2, 0), (1, 2)]:
        want = enumerate_inference(model, [names[r][c]], ev).values
        np.testing.assert_allclose(exact["marginals"][r, c], want, atol=1e-12)
    z = enumerate_inference(model, evidence=ev, mode="partition")
    assert exact["log_z"] == pytest.approx(math.log(z), abs=1e-10)

    free = ref.grid_exact(unary, horiz, vert)
    best, best_logp = enumerate_inference(model, mode="map")
    assert free["map_value"] == pytest.approx(best_logp, abs=1e-10)
    x = free["map_assignment"]
    assert {names[r][c]: specs.state(x[r, c]) for r in range(3) for c in range(3)} == best
    assert ref.grid_log_joint(unary, horiz, vert, x) == pytest.approx(best_logp, abs=1e-10)


def test_einsum_contraction_matches_the_oracle():
    rng = np.random.default_rng(2)
    names = [f"W{k}" for k in range(10)]
    parents = {names[k]: list(rng.choice(names[:k], size=min(k, 3), replace=False))
               for k in range(1, 10)}
    spec = specs.bayes_net(rng, {n: 3 for n in names}, parents)
    model = oracle(spec)
    evidence = {"W2": 1, "W7": 0, "W9": 2}
    for target in ("W0", "W5", "W8"):
        want = enumerate_inference(model, [target], labels(evidence)).values
        np.testing.assert_allclose(ref.bn_marginal(spec.factors, evidence, target), want, atol=1e-12)


def sample_network(rng, n_rows=400):
    names = [f"L{k}" for k in range(5)]
    parents = {"L1": ["L0"], "L2": ["L0", "L1"], "L4": ["L3"]}
    spec = specs.bayes_net(rng, {n: 3 for n in names}, parents, alpha=0.5)
    cols = specs.forward_sample(spec, n_rows, rng)
    return spec, names, np.stack([cols[n] for n in names], axis=1)


def test_count_scores_match_the_oracle_on_the_mle_network():
    rng = np.random.default_rng(3)
    spec, names, rows = sample_network(rng)
    cards = [3] * 5
    parents = {1: [0], 2: [0, 1], 4: [3]}
    factors = []
    for v in range(5):
        ps = parents.get(v, [])
        factors.append(((names[v], *[names[p] for p in ps]), ref.mle_cpt(rows, v, ps, cards)))
    fitted = oracle(specs.Spec("bayesian_network", dict(spec.cards), factors))
    joint = enumerate_inference(fitted, names).table
    assert ref.loglik(rows, parents, cards) == pytest.approx(
        float(np.sum(np.log(joint[tuple(rows.T)]))), rel=1e-12)
    dims = sum(2 * 3 ** len(parents.get(v, [])) for v in range(5))
    assert ref.bic(rows, parents, cards) == pytest.approx(
        ref.loglik(rows, parents, cards) - math.log(len(rows)) / 2 * dims, rel=1e-12)

    pair = enumerate_inference(fitted, ["L0", "L1"]).table
    outer = pair.sum(axis=1, keepdims=True) * pair.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pair > 0, pair * np.log(pair / outer), 0.0)
    assert ref.mutual_information(rows, 0, 1, cards) == pytest.approx(float(terms.sum()), rel=1e-10)


def test_g_test_and_spanning_tree_match_independent_libraries():
    stats = pytest.importorskip("scipy.stats")
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(4)
    _, _, rows = sample_network(rng)
    cards = [3] * 5
    table = ref.contingency(rows, [0, 1], cards)
    _, p, _, _ = stats.chi2_contingency(table, correction=False, lambda_="log-likelihood")
    assert ref.g_test_pvalue(rows, 0, 1, cards) == pytest.approx(p, rel=1e-9)

    weights = rng.random((6, 6))
    weights = weights + weights.T
    graph = nx.Graph()
    graph.add_weighted_edges_from((a, b, weights[a, b]) for a in range(6) for b in range(a + 1, 6))
    tree = nx.maximum_spanning_tree(graph)
    assert ref.max_spanning_tree_weight(weights) == pytest.approx(tree.size(weight="weight"))


def test_mrf_brute_force_matches_the_oracle():
    rng = np.random.default_rng(5)
    cards = [2, 3, 2, 2]
    scopes = [(0, 1), (1, 2), (2, 3), (3, 0), (1,)]
    factors = [(s, np.exp(rng.normal(size=[cards[k] for k in s]))) for s in scopes]
    names = [f"M{k}" for k in range(4)]
    spec = specs.Spec("markov_random_field", {names[k]: cards[k] for k in range(4)},
                      [(tuple(names[k] for k in s), t) for s, t in factors])
    model = oracle(spec)
    log_z, marginals = ref.mrf_brute_force(factors, cards)
    assert log_z == pytest.approx(math.log(enumerate_inference(model, mode="partition")), abs=1e-10)
    for (scope, _), marg in zip(factors, marginals):
        want = enumerate_inference(model, [names[k] for k in scope]).table  # axes in name order
        np.testing.assert_allclose(np.transpose(marg, np.argsort(scope)), want, atol=1e-12)
    data = specs.exact_sample(spec, 50, rng)
    joint = enumerate_inference(model, names).table
    assert ref.mrf_avg_loglik(factors, cards, data) == pytest.approx(
        float(np.mean(np.log(joint[tuple(data.T)]))), abs=1e-10)


def test_crf_forward_backward_matches_the_oracle_and_finite_differences():
    from pgmkit.models import ChainCRF

    rng = np.random.default_rng(6)
    K, F = 3, 4
    node_w, trans_w = rng.normal(size=(K, F)), rng.normal(size=(K, K))
    x, y = [0, 2, 3, 1, 2], np.array([1, 0, 2, 2, 1])
    feats = np.eye(F)[x]
    crf = ChainCRF(("a", "b", "c"), F, lambda xs, t: np.eye(F)[xs[t]], node_w, trans_w)
    log_z = math.log(enumerate_inference(crf.to_mrf(x), mode="partition"))
    score = (feats @ node_w.T)[np.arange(5), y].sum() + trans_w[y[:-1], y[1:]].sum()
    value, grad = ref.crf_loglik_grad(node_w, trans_w, [(feats, y)], l2=0.0)
    assert value == pytest.approx(score - log_z, abs=1e-10)

    theta = np.concatenate([node_w.ravel(), trans_w.ravel()])
    for k in (0, 7, K * F + 4):
        step = np.zeros_like(theta)
        step[k] = 1e-6
        hi = ref.crf_loglik_grad(*split(theta + step, K, F), [(feats, y)], 0.0)[0]
        lo = ref.crf_loglik_grad(*split(theta - step, K, F), [(feats, y)], 0.0)[0]
        assert grad[k] == pytest.approx((hi - lo) / 2e-6, abs=1e-6)


def split(theta, K, F):
    return theta[:K * F].reshape(K, F), theta[K * F:].reshape(K, K)


# ---------------------------------------------------------------------------
# Checks: pgmkit's real answers pass, wrong answers are rejected
# ---------------------------------------------------------------------------


def run_and_check(workload, i=1):
    request = workload.request(i)
    outputs = {}
    for call in request.calls:
        try:
            outputs[call.name] = call.run()
        except workloads.CallFailed:
            continue
        assert workload.check_call(request, call, outputs[call.name]) is None, call.name
    return request, outputs


def rejects(workload, request, name, out):
    call = next(c for c in request.calls if c.name == name)
    return workload.check_call(request, call, out) is not None


def replace_line(text, key, value):
    return "\n".join(f"{key}={value}" if line.startswith(f"{key}=") else line
                     for line in text.splitlines())


def test_chain_checks(tmp_path):
    w = workloads.ChainExact(1, tmp_path)
    request, out = run_and_check(w)
    assert rejects(w, request, "query-ve", "p[s0]=0.2 p[s1]=0.3 p[s2]=0.5\n")
    assignment, _ = workloads.printed_map(out["map-maxprod"])
    state = (assignment["H050"] + 1) % 3
    flipped = replace_line(out["map-maxprod"], "map[H050]", specs.state(state))
    assert rejects(w, request, "map-maxprod", flipped)
    assert rejects(w, request, "map-maxprod", replace_line(out["map-maxprod"], "logp", "-1"))


def test_wide_checks(tmp_path):
    w = workloads.WideExact(1, tmp_path)
    request, out = run_and_check(w)
    p = workloads.printed_marginal(out["query-jtree-W20"], 3)
    wrong = " ".join(f"p[s{k}]={v:.6g}" for k, v in enumerate(p[::-1]))
    assert rejects(w, request, "query-jtree-W20", wrong)
    assert rejects(w, request, "query-ve-W33", out["query-ve-W20"])


def test_grid_checks(tmp_path):
    w = workloads.GridApprox(1, tmp_path)
    request, out = run_and_check(w)
    exact = ref.grid_exact(w.unary, w.horiz, w.vert, request.context["evidence"])
    p = exact["marginals"][w.TARGET]
    off = f"p[s0]={p[0] - 0.2:.6g} p[s1]={p[1] + 0.2:.6g}"
    assert rejects(w, request, "query-loopy", off)
    assert rejects(w, request, "query-gibbs", off)
    assert not rejects(w, request, "query-meanfield", f"elbo={exact['log_z'] - 1:.6g}\n")
    assert rejects(w, request, "query-meanfield", f"elbo={exact['log_z'] + 1:.6g}\n")
    dual = out["map-dualdecomp"]
    assert rejects(w, request, "map-dualdecomp", replace_line(dual, "bound", f"{w.map_reference - 1:.6g}"))
    local = out["map-localsearch"]
    assert rejects(w, request, "map-localsearch", replace_line(local, "logp", f"{w.map_reference + 1:.6g}"))
    # an assignment better than the exact MAP cannot exist: fake one by lowering the reference
    w.map_reference -= 100
    assert rejects(w, request, "map-anneal", out["map-anneal"])


def test_learn_checks(tmp_path):
    w = workloads.Learn(1, tmp_path)
    request, out = run_and_check(w)
    edges = [line for line in out["hillclimb"].splitlines() if line.startswith("edge=")]
    assert rejects(w, request, "hillclimb", out["hillclimb"].replace(edges[0] + "\n", ""))

    rows = request.context["rows"]
    weakest = min(((a, b) for a in range(12) for b in range(a + 1, 12)),
                  key=lambda e: -ref.g_test_pvalue(rows, *e, w.cards))
    assert rejects(w, request, "pc", out["pc"] + f"edge={w.names[weakest[0]]}-{w.names[weakest[1]]}\n")

    star = "".join(f"edge={w.names[0]}->{w.names[k]}\n" for k in range(1, 12))
    assert rejects(w, request, "chowliu", star + "score=0\n")
    text = out["learn-params"]
    start, end = text.index("{"), text.rindex("}") + 1
    document = json.loads(text[start:end])
    document["factors"][0]["table"][0] += 0.01
    assert rejects(w, request, "learn-params", json.dumps(document) + text[end:])
    assert rejects(w, request, "score", "score=-1\n")

    mrf = out["fit_mrf"]
    assert rejects(w, request, "fit_mrf", dataclasses.replace(mrf, loglik_trace=mrf.loglik_trace[:-1] + [0.0]))
    crf = out["fit_chain_crf"]
    bumped = crf.crf.with_theta(crf.crf.theta + 1e-3)
    assert rejects(w, request, "fit_chain_crf", dataclasses.replace(crf, crf=bumped))
