"""Reference computations made apart from pgmkit, in plain numpy.

Each function answers one benchmark question by a method unrelated to the
engine under test: forward-backward and Viterbi on a hidden chain, a
row-by-row transfer matrix on a grid, a ``numpy.einsum`` contraction for a
Bayesian network, counts for data scores, brute force for small MRFs, and
forward-backward for a linear-chain CRF. ``test_references.py`` checks each
one against pgmkit's enumeration oracle on instances small enough for it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


# ---------------------------------------------------------------------------
# Hidden chain: prior (K,), trans (T-1, K, K) with trans[t-1][i, j] =
# P(h_t = j | h_{t-1} = i), emit (T, K, M) with emit[t][j, o] = P(o_t = o | h_t = j)
# ---------------------------------------------------------------------------


def chain_posteriors(prior, trans, emit, obs) -> tuple[np.ndarray, float]:
    """Scaled forward-backward: p(h_t | o_1..T) for every t, and log p(o)."""
    T, K = len(obs), len(prior)
    like = emit[np.arange(T), :, obs]                     # (T, K)
    alpha = np.empty((T, K))
    scale = np.empty(T)
    a = prior * like[0]
    scale[0] = a.sum()
    alpha[0] = a / scale[0]
    for t in range(1, T):
        a = (alpha[t - 1] @ trans[t - 1]) * like[t]
        scale[t] = a.sum()
        alpha[t] = a / scale[t]
    beta = np.ones((T, K))
    for t in range(T - 2, -1, -1):
        beta[t] = trans[t] @ (like[t + 1] * beta[t + 1]) / scale[t + 1]
    post = alpha * beta
    return post / post.sum(axis=1, keepdims=True), float(np.sum(np.log(scale)))


def chain_viterbi(prior, trans, emit, obs) -> tuple[np.ndarray, float]:
    """Most probable hidden path given the observations, and its log joint."""
    T = len(obs)
    log_like = np.log(emit[np.arange(T), :, obs])
    log_trans = np.log(trans)
    delta = np.log(prior) + log_like[0]
    back = np.zeros((T, len(prior)), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_trans[t - 1]
        back[t] = np.argmax(scores, axis=0)
        delta = np.max(scores, axis=0) + log_like[t]
    path = np.zeros(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, float(np.max(delta))


def chain_log_joint(prior, trans, emit, hidden, obs) -> float:
    T = len(obs)
    total = math.log(prior[hidden[0]])
    total += float(np.sum(np.log(trans[np.arange(T - 1), hidden[:-1], hidden[1:]])))
    total += float(np.sum(np.log(emit[np.arange(T), hidden, obs])))
    return total


# ---------------------------------------------------------------------------
# Binary grid MRF in log space: unary (R, C, 2), horiz (R, C-1, 2, 2) between
# (r, c) and (r, c+1), vert (R-1, C, 2, 2) between (r, c) and (r+1, c)
# ---------------------------------------------------------------------------


def _row_states(C: int) -> np.ndarray:
    """bits[x, c]: the state of column c in row configuration x."""
    x = np.arange(2 ** C)
    return (x[:, None] >> (C - 1 - np.arange(C))[None, :]) & 1


def grid_exact(unary, horiz, vert, evidence=None) -> dict:
    """Exact marginals, log Z and MAP of a binary grid by transfer matrices.

    Each row is one variable with 2^C states; the chain of rows is solved
    by forward-backward (log Z, marginals) and by max-product (MAP). The
    evidence ``{(r, c): state}`` masks the row states that disagree.
    """
    R, C = unary.shape[:2]
    bits = _row_states(C)
    cols = np.arange(C)
    row_score = np.empty((R, 2 ** C))
    for r in range(R):
        s = unary[r, cols, bits].sum(axis=1)
        s += horiz[r, cols[:-1], bits[:, :-1], bits[:, 1:]].sum(axis=1)
        row_score[r] = s
    for (r, c), value in (evidence or {}).items():
        row_score[r, bits[:, c] != value] = -np.inf
    pair = np.stack([
        vert[r, cols, bits[:, None, :], bits[None, :, :]].sum(axis=2) for r in range(R - 1)
    ])                                                    # (R-1, S, S)
    alpha = np.empty_like(row_score)
    alpha[0] = row_score[0]
    best = row_score[0].copy()
    back = np.zeros((R, 2 ** C), dtype=np.int64)
    for r in range(1, R):
        alpha[r] = _logsumexp(alpha[r - 1][:, None] + pair[r - 1], axis=0) + row_score[r]
        scores = best[:, None] + pair[r - 1]
        back[r] = np.argmax(scores, axis=0)
        best = np.max(scores, axis=0) + row_score[r]
    beta = np.zeros_like(row_score)
    for r in range(R - 2, -1, -1):
        beta[r] = _logsumexp(pair[r] + (row_score[r + 1] + beta[r + 1])[None, :], axis=1)
    log_z = float(_logsumexp(alpha[-1]))
    marginals = np.empty((R, C, 2))
    for r in range(R):
        p_row = np.exp(alpha[r] + beta[r] - log_z)
        marginals[r, :, 1] = p_row @ bits
        marginals[r, :, 0] = p_row.sum() - marginals[r, :, 1]
    rows = np.zeros(R, dtype=np.int64)
    rows[-1] = int(np.argmax(best))
    for r in range(R - 1, 0, -1):
        rows[r - 1] = back[r, rows[r]]
    return {
        "marginals": marginals,
        "log_z": log_z,
        "map_value": float(np.max(best)),
        "map_assignment": bits[rows],
    }


def grid_log_joint(unary, horiz, vert, x) -> float:
    """Log of the unnormalized grid joint at a full (R, C) assignment."""
    R, C = x.shape
    r, c = np.indices((R, C))
    total = unary[r, c, x].sum()
    total += horiz[r[:, :-1], c[:, :-1], x[:, :-1], x[:, 1:]].sum()
    total += vert[r[:-1], c[:-1], x[:-1], x[1:]].sum()
    return float(total)


# ---------------------------------------------------------------------------
# Bayesian network contraction
# ---------------------------------------------------------------------------


def bn_marginal(factors, evidence: dict[str, int], target: str) -> np.ndarray:
    """p(target | evidence) by ``numpy.einsum`` contractions of the reduced CPTs.

    ``factors`` is a list of ``(scope, table)`` pairs; ``evidence`` maps
    names to state indices. Variables are summed out one at a time, each by
    one einsum over the tables that mention it, in the order that keeps
    the next intermediate table smallest (numpy's own path search picks
    far larger intermediates on a 40-table network).
    """
    ops: list[tuple[np.ndarray, list[str]]] = []
    for scope, table in factors:
        reduced = table[tuple(evidence.get(n, slice(None)) for n in scope)]
        ops.append((np.asarray(reduced), [n for n in scope if n not in evidence]))
    card = {n: t.shape[k] for t, names in ops for k, n in enumerate(names)}
    labels = {n: k for k, n in enumerate(sorted(card))}

    def contract(group, keep):
        args = []
        for table, names in group:
            args += [table, [labels[n] for n in names]]
        return np.einsum(*args, [labels[n] for n in keep])

    remaining = set(labels) - {target}
    while remaining:
        def cost(v):
            union = {n for _, names in ops if v in names for n in names}
            return math.prod(card[n] for n in union), v
        var = min(remaining, key=cost)
        group = [op for op in ops if var in op[1]]
        keep = sorted({n for _, names in group for n in names} - {var})
        ops = [op for op in ops if var not in op[1]] + [(contract(group, keep), keep)]
        remaining.discard(var)
    out = contract(ops, [target])
    return out / out.sum()


# ---------------------------------------------------------------------------
# Counts-based scores on complete data: rows (N, V) of state indices,
# cards (V,), variables referred to by column index
# ---------------------------------------------------------------------------


def contingency(rows, cols, cards) -> np.ndarray:
    """Joint counts over the given columns, one axis per column."""
    dims = [int(cards[c]) for c in cols]
    if not cols:
        return np.array(float(len(rows)))
    flat = np.ravel_multi_index(rows[:, list(cols)].T, dims)
    return np.bincount(flat, minlength=int(np.prod(dims))).reshape(dims).astype(float)


def family_loglik(rows, child, parents, cards) -> float:
    table = contingency(rows, list(parents) + [child], cards).reshape(-1, cards[child])
    totals = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0, table * np.log(table / totals), 0.0)
    return float(terms.sum())


def family_bic(rows, child, parents, cards) -> float:
    dim = (cards[child] - 1) * int(np.prod([cards[p] for p in parents]))
    return family_loglik(rows, child, parents, cards) - math.log(len(rows)) / 2 * dim


def bic(rows, parents: dict[int, list[int]], cards) -> float:
    return sum(family_bic(rows, v, parents.get(v, []), cards) for v in range(len(cards)))


def loglik(rows, parents: dict[int, list[int]], cards) -> float:
    return sum(family_loglik(rows, v, parents.get(v, []), cards) for v in range(len(cards)))


def mle_cpt(rows, child, parents, cards) -> np.ndarray:
    """Maximum-likelihood CPT of shape (child, *parents); unseen rows uniform."""
    table = contingency(rows, list(parents) + [child], cards)
    table = table.reshape(-1, cards[child])
    totals = table.sum(axis=1, keepdims=True)
    table = np.where(totals > 0, table / np.where(totals > 0, totals, 1), 1.0 / cards[child])
    shape = [cards[p] for p in parents] + [cards[child]]
    return np.moveaxis(table.reshape(shape), -1, 0)


def mutual_information(rows, i, j, cards) -> float:
    joint = contingency(rows, [i, j], cards) / len(rows)
    outer = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(np.where(joint > 0, joint * np.log(joint / outer), 0.0)))


def max_spanning_tree_weight(weights: np.ndarray) -> float:
    """Prim's algorithm on a dense symmetric weight matrix."""
    n = len(weights)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    total = 0.0
    for _ in range(n - 1):
        k = int(np.argmax(np.where(in_tree, -np.inf, best)))
        total += best[k]
        in_tree[k] = True
        best = np.maximum(best, weights[k])
    return float(total)


def g_test_pvalue(rows, i, j, cards) -> float:
    """p-value of the marginal G-test of independence of columns i and j."""
    table = contingency(rows, [i, j], cards)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * float(np.sum(np.where(table > 0, table * np.log(table / expected), 0.0)))
    dof = (cards[i] - 1) * (cards[j] - 1)
    return float(gammaincc(dof / 2.0, g / 2.0))


def is_acyclic(parents: dict[int, set[int]], n: int) -> bool:
    indegree = [len(parents.get(v, ())) for v in range(n)]
    children = {v: [c for c in range(n) if v in parents.get(c, ())] for v in range(n)}
    ready = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    return seen == n


def best_single_move_gain(rows, edges, cards) -> tuple[float, tuple | None]:
    """The largest BIC gain of any legal add, delete or reverse move."""
    n = len(cards)
    parents = {v: set() for v in range(n)}
    for u, v in edges:
        parents[v].add(u)
    cache: dict = {}

    def fam(v, ps):
        key = (v, tuple(sorted(ps)))
        if key not in cache:
            cache[key] = family_bic(rows, v, list(key[1]), cards)
        return cache[key]

    best, best_move = -math.inf, None
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if u in parents[v]:
                moves = [("delete", {v: parents[v] - {u}})]
                moves.append(("reverse", {v: parents[v] - {u}, u: parents[u] | {v}}))
            elif v not in parents[u]:
                moves = [("add", {v: parents[v] | {u}})]
            else:
                continue
            for kind, change in moves:
                trial = {k: set(s) for k, s in parents.items()}
                trial.update(change)
                if kind != "delete" and not is_acyclic(trial, n):
                    continue
                gain = sum(fam(k, s) - fam(k, parents[k]) for k, s in change.items())
                if gain > best:
                    best, best_move = gain, (kind, u, v)
    return best, best_move


# ---------------------------------------------------------------------------
# Small MRFs by brute force: factors as (scope of variable indices, table)
# ---------------------------------------------------------------------------


def mrf_brute_force(factors, cards) -> tuple[float, list[np.ndarray]]:
    """log Z and each factor's exact marginal, by enumerating the joint."""
    n = len(cards)
    log_joint = np.zeros(cards)
    for scope, table in factors:
        shape = [1] * n
        for k in scope:
            shape[k] = cards[k]
        order = np.argsort(scope)
        log_joint = log_joint + np.log(np.transpose(table, order)).reshape(shape)
    log_z = float(_logsumexp(log_joint.ravel()))
    p = np.exp(log_joint - log_z)
    marginals = []
    for scope, _ in factors:
        drop = tuple(k for k in range(n) if k not in scope)
        m = p.sum(axis=drop)
        marginals.append(np.transpose(m, np.argsort(np.argsort(scope))))
    return log_z, marginals


def mrf_avg_loglik(factors, cards, data) -> float:
    """Average log-likelihood of complete rows under a small MRF."""
    log_z, _ = mrf_brute_force(factors, cards)
    total = np.zeros(len(data))
    for scope, table in factors:
        total += np.log(table[tuple(data[:, k] for k in scope)])
    return float(total.mean() - log_z)


# ---------------------------------------------------------------------------
# Linear-chain CRF: node weights (K, F), transition weights (K, K); each
# example is (features (T, F), labels (T,))
# ---------------------------------------------------------------------------


def crf_loglik_grad(node_w, trans_w, data, l2) -> tuple[float, np.ndarray]:
    """Regularized conditional log-likelihood and its gradient by forward-backward."""
    g_node = np.zeros_like(node_w)
    g_trans = np.zeros_like(trans_w)
    total = 0.0
    for feats, y in data:
        T = len(y)
        scores = feats @ node_w.T                          # (T, K)
        alpha = np.empty_like(scores)
        alpha[0] = scores[0]
        for t in range(1, T):
            alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans_w, axis=0) + scores[t]
        beta = np.zeros_like(scores)
        for t in range(T - 2, -1, -1):
            beta[t] = _logsumexp(trans_w + (scores[t + 1] + beta[t + 1])[None, :], axis=1)
        log_z = float(_logsumexp(alpha[-1]))
        total += scores[np.arange(T), y].sum() + trans_w[y[:-1], y[1:]].sum() - log_z
        node_marg = np.exp(alpha + beta - log_z)           # (T, K)
        g_node += np.eye(len(node_w))[y].T @ feats - node_marg.T @ feats
        for t in range(1, T):
            pair = alpha[t - 1][:, None] + trans_w + (scores[t] + beta[t])[None, :]
            g_trans -= np.exp(pair - log_z)
            g_trans[y[t - 1], y[t]] += 1.0
    theta = np.concatenate([node_w.ravel(), trans_w.ravel()])
    total -= l2 * float(theta @ theta)
    grad = np.concatenate([g_node.ravel(), g_trans.ravel()]) - 2 * l2 * theta
    return float(total), grad


def crf_fit(K, F, data, l2, steps, learning_rate) -> tuple[list[float], np.ndarray]:
    """Plain gradient ascent from zero weights; returns the trace and final weights."""
    theta = np.zeros(K * F + K * K)
    trace = []
    for _ in range(steps):
        value, grad = crf_loglik_grad(theta[:K * F].reshape(K, F),
                                      theta[K * F:].reshape(K, K), data, l2)
        trace.append(value)
        theta = theta + learning_rate * grad
    return trace, theta
