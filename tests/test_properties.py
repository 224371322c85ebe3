"""Property tests: variable elimination, the junction tree and max-product
decoding against the enumeration oracle on random small models.

Tables are built from exactly representable values (MRF entries in
{0, 1, 2}, Bayesian-network CPT columns of dyadic probabilities), so
every product is exact: ties and zeros are common, and a tie in the
model is a tie in floating point, which the decode must break the way
the oracle does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgmkit.errors import ZeroEvidenceError
from pgmkit.exact import (
    MAX_PRODUCT,
    build_junction_tree,
    jt_calibrate,
    jt_marginal,
    jt_query,
    max_product_decode,
    variable_elimination,
)
from pgmkit.factors import Factor, Variable
from pgmkit.graphs import DirectedGraph
from pgmkit.models import BayesianNetwork, MarkovRandomField, enumerate_inference

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# CPT columns whose products are exact in floating point
DYADIC_COLUMNS = {
    2: [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.75), (0.75, 0.25)],
    3: [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
        (0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.5, 0.25, 0.25)],
}


def _variables(draw, n):
    # names are shuffled against the construction order, so a parent or a
    # cycle neighbour is not always the next name
    labels = draw(st.permutations(range(n)))
    return [
        Variable(f"v{labels[i]}", tuple(f"s{k}" for k in range(draw(st.integers(2, 3)))))
        for i in range(n)
    ]


@st.composite
def bayesian_networks(draw):
    n = draw(st.integers(2, 5))
    variables = _variables(draw, n)
    edges, cpds = [], {}
    for i, child in enumerate(variables):
        parents = draw(st.lists(st.sampled_from(variables[:i]), max_size=2, unique=True)) if i else []
        edges += [(p.name, child.name) for p in parents]
        rows = math.prod(p.cardinality for p in parents)
        columns = draw(st.lists(st.sampled_from(DYADIC_COLUMNS[child.cardinality]),
                                min_size=rows, max_size=rows))
        table = np.array(columns).T.reshape([child.cardinality] + [p.cardinality for p in parents])
        cpds[child.name] = Factor([child, *parents], table)
    return BayesianNetwork(variables, DirectedGraph([v.name for v in variables], edges), cpds)


@st.composite
def loopy_mrfs(draw):
    """A cycle through every variable, plus up to three factors over one
    to three variables, each scope in a drawn order."""
    n = draw(st.integers(3, 5))
    variables = _variables(draw, n)
    scopes = [[i, (i + 1) % n] for i in range(n)]
    scopes += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                            max_size=3))
    factors = []
    for scope in scopes:
        scope = [variables[i] for i in scope]
        size = math.prod(v.cardinality for v in scope)
        values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=size, max_size=size))
        factors.append(Factor(scope, values))
    return MarkovRandomField(variables, factors)


@st.composite
def evidence_for(draw, model):
    """Evidence on up to all but one variable."""
    names = sorted(model.variables)
    observed = draw(st.lists(st.sampled_from(names), max_size=len(names) - 1, unique=True))
    return {
        name: draw(st.sampled_from(model.variable(name).states))
        for name in observed
    }


def check_against_oracle(model, evidence):
    free = [n for n in sorted(model.variables) if n not in evidence]
    z = enumerate_inference(model, mode="partition", evidence=evidence)
    jt = build_junction_tree(model)
    if z == 0.0:
        with pytest.raises(ZeroEvidenceError):
            variable_elimination(model, free[:1], evidence)
        with pytest.raises(ZeroEvidenceError):
            jt_marginal(jt, free[0], evidence)
        with pytest.raises(ZeroEvidenceError):
            jt_calibrate(jt, evidence)
    else:
        calibrated = jt_calibrate(jt, evidence)
        for name in free:
            want = enumerate_inference(model, [name], evidence)
            for got in (variable_elimination(model, [name], evidence).normalized(),
                        jt_marginal(jt, name, evidence),
                        jt_query(calibrated, name)):
                assert got.names == want.names
                np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)
        log_norm = variable_elimination(model, [], evidence).log_normalizer
        assert log_norm == pytest.approx(math.log(z), abs=1e-12)

    want, want_logp = enumerate_inference(model, mode="map", evidence=evidence)
    best = variable_elimination(model, [], evidence, semiring=MAX_PRODUCT)
    assert float(best.factor.table) == pytest.approx(math.exp(want_logp), rel=1e-12, abs=0)
    got, logp = max_product_decode(model, evidence)
    # the lexicographically-first argmax, ties included; under zero
    # evidence every assignment ties at -inf and the first one wins
    assert got == want
    assert logp == want_logp


@SETTINGS
@given(st.data())
def test_bayesian_networks_match_the_oracle(data):
    bn = data.draw(bayesian_networks())
    for evidence in ({}, data.draw(evidence_for(bn))):
        check_against_oracle(bn, evidence)


@SETTINGS
@given(st.data())
def test_loopy_mrfs_match_the_oracle(data):
    mrf = data.draw(loopy_mrfs())
    for evidence in ({}, data.draw(evidence_for(mrf))):
        check_against_oracle(mrf, evidence)
