"""Shared helpers: random model generators used across the suite."""

import numpy as np
import pytest

from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph
from pgmkit.models import BayesianNetwork, MarkovRandomField, random_cpds


def make_variables(n, max_states, rng, prefix="v"):
    cards = rng.integers(2, max_states + 1, size=n)
    return [
        Variable(f"{prefix}{i}", tuple(f"s{k}" for k in range(cards[i])))
        for i in range(n)
    ]


def random_dag(rng, names, p=0.4):
    names = list(names)
    perm = list(rng.permutation(names))
    edges = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < p:
                edges.append((perm[i], perm[j]))
    return DirectedGraph(names, edges)


def random_bn(rng, n=5, max_states=3, p=0.4):
    variables = make_variables(n, max_states, rng)
    dag = random_dag(rng, [v.name for v in variables], p)
    return random_cpds(variables, dag, rng)


def random_mrf(rng, n=5, max_states=3, n_factors=None, max_scope=3, positive=True):
    variables = make_variables(n, max_states, rng)
    if n_factors is None:
        n_factors = n + 1
    factors = []
    for v in variables:  # unary anchors keep every variable in some factor
        vals = rng.random(v.cardinality) + (0.05 if positive else 0.0)
        factors.append(Factor([v], vals))
    for _ in range(max(0, n_factors - n)):
        size = int(rng.integers(2, max_scope + 1))
        idx = rng.choice(n, size=min(size, n), replace=False)
        scope = sorted((variables[i] for i in idx), key=lambda v: v.name)
        shape = tuple(v.cardinality for v in scope)
        vals = rng.random(shape) + (0.05 if positive else 0.0)
        factors.append(Factor(scope, vals))
    return MarkovRandomField(variables, factors)


def hmm_chain(rng, steps, hidden=3, emitted=4):
    """An HMM-shaped Bayesian network with Dirichlet-random tables: hidden
    states H000, H001, ... in a chain, each with one emitted child O000,
    O001, ...; and one uniform draw of every emission, as evidence."""
    hs = [Variable(f"H{t:03d}", tuple(f"s{k}" for k in range(hidden))) for t in range(steps)]
    obs = [Variable(f"O{t:03d}", tuple(f"s{k}" for k in range(emitted))) for t in range(steps)]
    edges = [(hs[t - 1].name, hs[t].name) for t in range(1, steps)]
    edges += [(h.name, o.name) for h, o in zip(hs, obs)]
    bn = random_cpds(hs + obs, DirectedGraph([v.name for v in hs + obs], edges), rng)
    return bn, {o.name: o.states[int(rng.integers(emitted))] for o in obs}


def wide_network():
    """A random ternary network of 40 variables with up to 3 parents each,
    whose junction tree has two cliques that are home to no factor, and
    three evidence variables that leave those cliques 3^11 entries each."""
    gen = np.random.default_rng(1)
    names = [f"W{k:02d}" for k in range(40)]
    dag = DirectedGraph(names, [(p, names[k]) for k in range(1, 40)
                                for p in gen.choice(names[:k], size=min(k, 3), replace=False)])
    wide = random_cpds([Variable(n, ("s0", "s1", "s2")) for n in names], dag, gen)
    return wide, {"W07": "s0", "W23": "s1", "W36": "s2"}


def random_tree_mrf(rng, n=5, max_states=3):
    """Pairwise MRF whose skeleton is a uniformly drawn labelled tree."""
    variables = make_variables(n, max_states, rng)
    factors = [
        Factor([v], rng.random(v.cardinality) + 0.05) for v in variables
    ]
    order = rng.permutation(n)
    for pos in range(1, n):
        child = variables[order[pos]]
        parent = variables[order[rng.integers(0, pos)]]
        scope = sorted([parent, child], key=lambda v: v.name)
        shape = tuple(v.cardinality for v in scope)
        factors.append(Factor(scope, rng.random(shape) + 0.05))
    return MarkovRandomField(variables, factors)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
