"""Conditioning on evidence: one step for every engine, checked past the
oracle's reach.

Evidence entered as a partial assignment must act as one indicator factor
per observed variable: on random models of 60 to 200 variables, the
marginals and log partition of VE, the junction tree (collect pass and
full calibration) and tree BP (on forests) under evidence equal, to
1e-12, those of the same model with no evidence and the indicators
multiplied in. A guard keeps ``reduce_factor`` inside the conditioning
step and the two reductions that stand apart from it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import pgmkit
from pgmkit.exact import (
    build_junction_tree,
    jt_calibrate,
    jt_marginal,
    jt_query,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph
from pgmkit.models import MarkovRandomField, random_cpds

WINDOW = 3   # a variable's factors reach at most this many variables back


def model_variables(rng, n):
    return [Variable(f"x{i:03d}", tuple(f"s{k}" for k in range(int(rng.integers(2, 4)))))
            for i in range(n)]


def random_network(rng, n, forest):
    """A Bayesian network whose parents lie within ``WINDOW`` variables
    back (at most one, so its factor graph is a forest, when ``forest``)."""
    variables = model_variables(rng, n)
    edges = []
    for i in range(1, n):
        window = range(max(0, i - WINDOW), i)
        k = int(rng.integers(0, 2 if forest else 3))
        edges += [(variables[j].name, variables[i].name)
                  for j in rng.choice(window, size=min(k, len(window)), replace=False)]
    return random_cpds(variables, DirectedGraph([v.name for v in variables], edges), rng)


def random_field(rng, n, forest):
    """A positive MRF with unary factors and factors over up to three
    variables within ``WINDOW`` of each other (pairwise, along a forest,
    when ``forest``)."""
    variables = model_variables(rng, n)
    scopes = [[v] for v in variables if rng.random() < 0.5]
    for i in range(1, n):
        window = range(max(0, i - WINDOW), i)
        if forest:
            if rng.random() < 0.9:
                scopes.append([variables[int(rng.choice(window))], variables[i]])
            continue
        for _ in range(int(rng.integers(1, 3))):
            k = min(int(rng.integers(1, 3)), len(window))
            scopes.append([variables[j] for j in rng.choice(window, size=k, replace=False)]
                          + [variables[i]])
    factors = [Factor(scope, rng.random([v.cardinality for v in scope]) + 0.05)
               for scope in scopes]
    return MarkovRandomField(variables, factors)


def with_indicators(model, evidence):
    """The model as a field with no evidence and one indicator factor per
    observed variable."""
    indicators = []
    for name, state in evidence.items():
        var = model.variable(name)
        indicators.append(Factor([var], np.eye(var.cardinality)[var.index_of(state)]))
    return MarkovRandomField(list(model.variables.values()), model.factors + indicators)


def same_marginal(engine, name, got, want):
    assert got.names == want.names, f"{engine}: evidence as indicators moves {name}'s scope"
    gap = float(np.max(np.abs(got.table - want.table)))
    assert gap <= 1e-12, f"{engine}: evidence as indicators moves p({name}) by {gap:.3g}"


def same_log_partition(engine, got, want):
    gap = abs(got - want)
    assert gap <= 1e-12 * max(1.0, abs(want)), (
        f"{engine}: evidence as indicators moves log Z from {want!r} to {got!r}")


@pytest.mark.parametrize("kind", ["network", "field"])
@pytest.mark.parametrize("forest", [False, True], ids=["treewidth", "forest"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evidence_acts_as_indicator_factors(kind, forest, seed):
    rng = np.random.default_rng([seed, forest, kind == "field"])
    n = int(rng.integers(60, 201))
    model = (random_network if kind == "network" else random_field)(rng, n, forest)
    names = sorted(model.variables)
    observed = rng.choice(names, size=8, replace=False)
    evidence = {name: str(rng.choice(model.variable(name).states)) for name in observed}
    lifted = with_indicators(model, evidence)
    free = [name for name in names if name not in evidence]
    queried = [str(name) for name in rng.choice(free, size=4, replace=False)]

    for name in queried:
        same_marginal("variable_elimination", name,
                      variable_elimination(model, [name], evidence).normalized(),
                      variable_elimination(lifted, [name]).normalized())
        same_marginal("jt_marginal", name,
                      jt_marginal(build_junction_tree(model), name, evidence),
                      jt_marginal(build_junction_tree(lifted), name))
    same_log_partition("variable_elimination",
                       variable_elimination(model, [], evidence).log_normalizer,
                       variable_elimination(lifted, []).log_normalizer)

    got = jt_calibrate(build_junction_tree(model), evidence)
    want = jt_calibrate(build_junction_tree(lifted))
    for name in free:
        same_marginal("jt_calibrate", name, jt_query(got, name), jt_query(want, name))
    same_log_partition("jt_calibrate", got.log_partition, want.log_partition)

    if forest:
        got, want = tree_bp(model, evidence), tree_bp(lifted)
        for name in free:
            same_marginal("tree_bp", name, got.marginal(name), want.marginal(name))
        same_log_partition("tree_bp", got.log_partition, want.log_partition)


# The conditioning step, the oracle's joint, and the junction tree, whose
# every model factor has a home clique
REDUCERS = {"models.reduce_to_evidence", "models.enumerate_inference", "exact._clique_graph"}


class _References(ast.NodeVisitor):
    """Where a module names ``reduce_factor``: its enclosing definitions."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        self.note(node.id)

    def visit_Attribute(self, node):
        self.note(node.attr)
        self.generic_visit(node)

    def note(self, name):
        if name == "reduce_factor":
            self.found.append(".".join([self.module, *self.scope]))


def test_only_the_conditioning_step_reduces_factors():
    found = []
    for path in sorted(Path(pgmkit.__file__).parent.glob("*.py")):
        visitor = _References(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert set(found) <= REDUCERS, (
        f"reduce_factor is used outside the conditioning step: {sorted(set(found) - REDUCERS)}; "
        "start from models.reduce_to_evidence")
    assert "models.reduce_to_evidence" in found
