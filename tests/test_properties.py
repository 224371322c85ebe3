"""Property tests: variable elimination, the junction tree, tree belief
propagation, max-product decoding, the Gibbs conditionals and the
pseudo-likelihood against the enumeration oracle on random small models;
exact queries on networks with and without barren descendants; loopy BP,
dual decomposition and annealing against their per-edge or
always-re-scoring forms and their bounds.

Tables are built from exactly representable values (MRF entries in
{0, 1, 2}, Bayesian-network CPT columns of dyadic probabilities), so
every product is exact: ties and zeros are common, and a tie in the
model is a tie in floating point, which the decode must break the way
the oracle does.

Each model also has a log-domain twin: an MRF whose factors hold the
logs of the model's tables raised by ``LOG_LIFT``, so that a product of
two of them overflows a plain exp. The sum-product engines must give the
twin the model's marginals, and its log partition plus the lifts.
"""

import contextlib
import io as stdio
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import wide_network
from pgmkit import cli, exact, sampling
from pgmkit.errors import NotATreeError, ZeroEvidenceError
from pgmkit.exact import (
    MAX_PRODUCT,
    build_junction_tree,
    jt_calibrate,
    jt_marginal,
    jt_query,
    max_product_decode,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import LOG, Factor, Variable, log_tables, reduce_factor
from pgmkit.mapinf import (
    AnnealSchedule,
    dual_decomposition,
    graphcut_map,
    ilp_objective_at,
    mrf_to_energy_model,
    simulated_annealing_map,
)
from pgmkit.graphs import DirectedGraph
from pgmkit.io import serialize_model
from pgmkit.learning import Dataset, pseudo_likelihood
from pgmkit.models import (
    BayesianNetwork,
    CompiledModel,
    MarkovRandomField,
    check_evidence,
    enumerate_inference,
    log_joint,
    reduce_to_evidence,
    relevant_network,
)
from pgmkit.sampling import batch_log_unnormalized
from pgmkit.variational import LoopyBpResult, loopy_bp

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
LOG_LIFT = 400.0   # exp(2 * LOG_LIFT) overflows float64

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


def _dyadic_cpd(draw, child, parents):
    rows = math.prod(p.cardinality for p in parents)
    columns = draw(st.lists(st.sampled_from(DYADIC_COLUMNS[child.cardinality]),
                            min_size=rows, max_size=rows))
    table = np.array(columns).T.reshape([child.cardinality] + [p.cardinality for p in parents])
    return Factor([child, *parents], table)


@st.composite
def bayesian_networks(draw):
    n = draw(st.integers(2, 5))
    variables = _variables(draw, n)
    edges, cpds = [], {}
    for i, child in enumerate(variables):
        parents = draw(st.lists(st.sampled_from(variables[:i]), max_size=2, unique=True)) if i else []
        edges += [(p.name, child.name) for p in parents]
        cpds[child.name] = _dyadic_cpd(draw, child, parents)
    return BayesianNetwork(variables, DirectedGraph([v.name for v in variables], edges), cpds)


@st.composite
def with_barren_descendants(draw, bn):
    """The network with one to three children added below it, each under
    one or two drawn parents among the network and the earlier children:
    barren to every query and evidence over the network's own variables."""
    variables = list(bn.variables.values())
    edges, cpds = list(bn.dag.edges), dict(bn.cpds)
    for k in range(draw(st.integers(1, 3))):
        child = Variable(f"b{k}", tuple(f"s{j}" for j in range(draw(st.integers(2, 3)))))
        parents = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True))
        edges += [(p.name, child.name) for p in parents]
        cpds[child.name] = _dyadic_cpd(draw, child, parents)
        variables.append(child)
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


def log_twin(model):
    """The model as an MRF of log-domain factors, each raised by LOG_LIFT;
    returns it and the log of the factor the lifts multiply Z by."""
    factors = [Factor(f.scope, f.to_log().table + LOG_LIFT, domain=LOG)
               for f in model.factors]
    return MarkovRandomField(list(model.variables.values()), factors), LOG_LIFT * len(factors)


def tree_bp_or_none(model, evidence):
    """tree_bp's answer, or None when the reduced factor graph has a cycle."""
    try:
        return tree_bp(model, evidence)
    except NotATreeError:
        return None


def check_against_oracle(model, evidence):
    free = [n for n in sorted(model.variables) if n not in evidence]
    z = enumerate_inference(model, mode="partition", evidence=evidence)
    for m, lift in ((model, 0.0), log_twin(model)):
        jt = build_junction_tree(m)
        if z == 0.0:
            with pytest.raises(ZeroEvidenceError):
                variable_elimination(m, free[:1], evidence)
            with pytest.raises(ZeroEvidenceError):
                jt_marginal(jt, free[0], evidence)
            with pytest.raises(ZeroEvidenceError):
                jt_calibrate(jt, evidence)
            with pytest.raises((ZeroEvidenceError, NotATreeError)):
                tree_bp(m, evidence)
            continue
        calibrated = jt_calibrate(jt, evidence)
        bp = tree_bp_or_none(m, evidence)
        for name in free:
            want = enumerate_inference(model, [name], evidence)
            got = [variable_elimination(m, [name], evidence).normalized(),
                   jt_marginal(jt, name, evidence),
                   jt_query(calibrated, name)]
            if bp is not None:
                got.append(bp.marginal(name))
            for g in got:
                assert g.names == want.names
                np.testing.assert_allclose(g.table, want.table, rtol=0, atol=1e-12)
        want_log_z = pytest.approx(math.log(z) + lift, rel=1e-15, abs=1e-12)
        assert variable_elimination(m, [], evidence).log_normalizer == want_log_z
        assert calibrated.log_partition == want_log_z
        if bp is not None:
            assert bp.log_partition == want_log_z

    want, want_logp = enumerate_inference(model, mode="map", evidence=evidence)
    best = variable_elimination(model, [], evidence, semiring=MAX_PRODUCT)
    top = float(best.factor.table)
    best_logp = math.log(top) + best.log_normalizer if top > 0.0 else -math.inf
    assert best_logp == pytest.approx(want_logp, rel=0, abs=1e-12)
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


def query_through_the_cli(path, model, target, evidence, engine):
    """``query`` on the model written to ``path``: exit code, stdout, stderr."""
    path.write_text(serialize_model(model))
    argv = ["query", "--model", str(path), "--target", target, "--engine", engine]
    for name, state in evidence.items():
        argv += ["--evidence", f"{name}={state}"]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(st.data())
def test_barren_descendants_change_no_exact_query(tmp_path_factory, data):
    bn = data.draw(bayesian_networks())
    full = data.draw(with_barren_descendants(bn))
    evidence = data.draw(evidence_for(bn))
    target = data.draw(st.sampled_from([n for n in sorted(bn.variables) if n not in evidence]))
    path = tmp_path_factory.mktemp("barren") / "model.json"
    for engine in ("ve", "jtree", "bp"):
        # bp answers where the network is a polytree and exits 3 on both where it is not
        assert (query_through_the_cli(path, full, target, evidence, engine)
                == query_through_the_cli(path, bn, target, evidence, engine))

    sub = relevant_network(full, [target], evidence)
    assert set(sub.variables) <= set(bn.variables)
    log_z = enumerate_inference(full, mode="log_partition", evidence=evidence)
    if log_z == -math.inf:
        with pytest.raises(ZeroEvidenceError):
            variable_elimination(sub, [target], evidence)
        return
    got = variable_elimination(sub, [target], evidence)
    want = enumerate_inference(full, [target], evidence)
    np.testing.assert_allclose(got.normalized().table, want.table, rtol=0, atol=1e-9)
    assert got.log_normalizer == pytest.approx(log_z, rel=0, abs=1e-9)


@SETTINGS
@given(st.data())
def test_loopy_mrfs_match_the_oracle(data):
    mrf = data.draw(loopy_mrfs())
    for evidence in ({}, data.draw(evidence_for(mrf))):
        check_against_oracle(mrf, evidence)


def with_float_tables(model, seed):
    """The model with its tables redrawn as random floats, zeros included,
    so that products round and their order shows in the bits."""
    rng = np.random.default_rng(seed)

    def table(f):
        return rng.random(f.table.shape) * (rng.random(f.table.shape) > 0.1)

    if isinstance(model, MarkovRandomField):
        return MarkovRandomField(list(model.variables.values()),
                                 [Factor(f.scope, table(f)) for f in model.factors])
    cpds = {}
    for name, f in model.cpds.items():
        t = table(f) + 1e-3
        cpds[name] = Factor(f.scope, t / t.sum(axis=0))
    return BayesianNetwork(list(model.variables.values()), model.dag, cpds)


def check_clique_tables(model, evidence):
    """Every clique's evidence-first table is, bit for bit, its full
    potential sliced at the evidence; a clique with no table has an
    all-ones potential."""
    jt = build_junction_tree(model)
    graph, _ = exact._clique_graph(jt, evidence)
    for i, potential in enumerate(jt.potentials):
        want = reduce_factor(potential, evidence)
        assert tuple(v.name for v in graph.scope[i]) == want.names
        if i in graph.base:
            assert np.array_equal(graph.base[i], want.table)
        else:
            assert np.all(want.table == 1.0)


@SETTINGS
@given(st.data())
def test_clique_tables_are_sliced_potentials(data):
    model = data.draw(st.one_of(bayesian_networks(), loopy_mrfs()))
    model = with_float_tables(model, data.draw(st.integers(0, 2**32 - 1)))
    for evidence in ({}, data.draw(evidence_for(model))):
        check_clique_tables(model, evidence)


def check_edges_keep_the_receiver_order(graph):
    """Every edge keeps variables of the receiver's scope, in the order the
    receiver lists them, so a message reshapes into the receiver with no
    transpose."""
    for (_, receiver), kept in graph.kept.items():
        kept = [v.name for v in kept]
        assert kept == [v.name for v in graph.scope[receiver] if v.name in kept]


@SETTINGS
@given(st.data())
def test_message_edges_keep_the_receiver_order(data):
    model = data.draw(st.one_of(bayesian_networks(), loopy_mrfs(), factor_graphs()))
    for evidence in ({}, any_evidence(data.draw, model)):
        check_edges_keep_the_receiver_order(
            exact._clique_graph(build_junction_tree(model), evidence)[0])
        try:
            graph = exact._factor_graph(model, evidence)[0]
        except ZeroEvidenceError:
            continue
        check_edges_keep_the_receiver_order(graph)


def test_clique_tables_of_the_wide_network():
    # two of its cliques are home to no factor, and so hold no table
    wide, evidence = wide_network()
    check_clique_tables(wide, evidence)


def oracle_conditional(model, name, given):
    """p(name | given) by enumeration, or None when ``given`` has no mass."""
    try:
        return enumerate_inference(model, [name], given).table
    except ZeroEvidenceError:
        return None


def check_gibbs_conditionals(model, evidence, state):
    """At the free variables' ``state``, every site's conditional, cached
    and past the cache cap, is the oracle's, for the model and its twin."""
    free = [n for n in sorted(model.variables) if n not in evidence]
    rest = {**evidence, **{n: model.variable(n).states[s] for n, s in zip(free, state)}}
    want = [oracle_conditional(model, n, {k: v for k, v in rest.items() if k != n})
            for n in free]
    for m in (model, log_twin(model)[0]):
        if reduce_to_evidence(m, evidence)[1] == -math.inf:
            # a factor the evidence fixes completely is zero
            with pytest.raises(ZeroEvidenceError, match="the evidence has probability zero"):
                sampling._ConditionalSampler(m, evidence)
            continue
        rows = []
        for cap in (sampling.CONDITIONAL_CACHE_CAP, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "CONDITIONAL_CACHE_CAP", cap)
                sampler = sampling._ConditionalSampler(m, evidence)
                rows.append([sampler.conditional(n, state) for n in free])
        for cached, past_cap, conditional in zip(*rows, want):
            assert np.array_equal(cached, past_cap)
            if conditional is not None:   # else the rest of the state has no mass
                np.testing.assert_allclose(cached / cached.sum(), conditional, rtol=0, atol=1e-12)


def check_pseudo_likelihood(model, rows):
    """The pseudo-likelihood of the model and its twin is the row mean of
    the summed log oracle conditionals at the observed states."""
    names = sorted(model.variables)
    want = 0.0
    for row in rows:
        labels = {n: model.variable(n).states[s] for n, s in zip(names, row)}
        for name, s in zip(names, row):
            given = {k: v for k, v in labels.items() if k != name}
            want += math.log(oracle_conditional(model, name, given)[s])
    want /= len(rows)
    data = Dataset(tuple(model.variable(n) for n in names), np.array(rows))
    as_field = MarkovRandomField(list(model.variables.values()), model.factors)
    for m in (as_field, log_twin(model)[0]):
        value, _ = pseudo_likelihood(m, data)
        assert value == pytest.approx(want, rel=0, abs=1e-9)


@SETTINGS
@given(st.data())
def test_gibbs_conditionals_and_pseudo_likelihood_match_the_oracle(data):
    model = data.draw(st.one_of(bayesian_networks(), loopy_mrfs()))
    if data.draw(st.booleans()):
        model = with_float_tables(model, data.draw(st.integers(0, 2**32 - 1)))
    names = sorted(model.variables)
    for evidence in ({}, data.draw(evidence_for(model))):
        state = [data.draw(st.integers(0, model.variable(n).cardinality - 1))
                 for n in names if n not in evidence]
        check_gibbs_conditionals(model, evidence, np.array(state, dtype=np.int64))
    states = itertools.product(*(range(model.variable(n).cardinality) for n in names))
    supported = [s for s in states
                 if log_joint(model, {n: model.variable(n).states[k]
                                      for n, k in zip(names, s)}) > -math.inf]
    if supported:   # a row without mass has no pseudo-likelihood
        check_pseudo_likelihood(model, data.draw(
            st.lists(st.sampled_from(supported), min_size=1, max_size=6)))


def check_one_log_convention(model):
    """At every joint state, ``log_joint``, ``CompiledModel.log_score``, the
    ``batch_log_unnormalized`` row and minus the summed ``to_energies``
    entries are one number."""
    names = sorted(model.variables)
    factors = model.factors
    energies = [f.to_energies() for f in factors]
    states = np.array(list(itertools.product(
        *(range(model.variable(n).cardinality) for n in names))), dtype=np.int64)
    rows = batch_log_unnormalized(factors, names, states)
    compiled = CompiledModel(model)
    for state, row in zip(states.tolist(), rows.tolist()):
        compiled.state = state
        energy = 0.0
        for f, e in zip(factors, energies):
            energy += e[tuple(state[names.index(n)] for n in f.names)]
        want = log_joint(model, compiled.assignment())
        assert (compiled.log_score(), row, -energy) == (want, want, want)


@SETTINGS
@given(st.data())
def test_every_log_reader_takes_one_log_convention(data):
    # ten draws of float tables per structure: a linear entry whose log
    # rounds differently under two conventions is rare
    structure = data.draw(st.one_of(bayesian_networks(), loopy_mrfs()))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for k in range(10):
        model = with_float_tables(structure, [seed, k])
        for m in (model, log_twin(model)[0]):
            check_one_log_convention(m)


# ---------------------------------------------------------------------------
# Loopy BP, dual decomposition and annealing
# ---------------------------------------------------------------------------


@st.composite
def factor_graphs(draw, max_arity=3, zeros=True):
    """Up to five variables of two to four states and up to six factors
    over one to ``max_arity`` of them, as random floats (with zeros when
    asked), some in the log domain. A variable may lie on no factor, and
    there may be no factor at all."""
    n = draw(st.integers(1, 5))
    variables = [Variable(f"v{i}", tuple(f"s{k}" for k in range(draw(st.integers(2, 4)))))
                 for i in range(n)]
    entry = st.floats(0.05, 4.0)
    if zeros:
        entry = st.one_of(st.just(0.0), entry)
    factors = []
    for scope in draw(st.lists(st.lists(st.sampled_from(variables), min_size=1,
                                        max_size=max_arity, unique=True), max_size=6)):
        size = math.prod(v.cardinality for v in scope)
        values = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        if draw(st.booleans()):
            with np.errstate(divide="ignore"):
                factors.append(Factor(scope, np.log(values) + draw(st.sampled_from([0.0, LOG_LIFT])),
                                      domain=LOG))
        else:
            factors.append(Factor(scope, values))
    return MarkovRandomField(variables, factors)


def any_evidence(draw, model):
    """Evidence on any subset of the variables, all of them included."""
    names = sorted(model.variables)
    observed = draw(st.lists(st.sampled_from(names), unique=True))
    return {n: draw(st.sampled_from(model.variable(n).states)) for n in observed}


def normalized(table):
    """A one-variable table scaled to sum to 1; uniform when all zero."""
    total = table.sum()
    return table / total if total > 0 else np.full(len(table), 1.0 / len(table))


def per_edge_loopy_bp(model, evidence, max_iters, damping, tol):
    """The synchronous schedule as one send per edge: every proposal reads
    the old messages, then all are blended."""
    evidence = check_evidence(model, evidence)
    graph, variables, _ = exact._factor_graph(model, evidence)
    messages = {edge: np.full(v.cardinality, 1.0 / v.cardinality)
                for edge, (v,) in graph.kept.items()}
    edges = ([edge for edge in messages if edge[0][0] == "f"]
             + [edge for edge in messages if edge[0][0] == "v"])
    residual, iterations = math.inf, 0
    for iterations in range(1, max_iters + 1):
        residual = 0.0
        proposed = [normalized(graph.send(messages, *edge)) for edge in edges]
        for edge, new in zip(edges, proposed):
            old = messages[edge]
            blended = (1 - damping) * old + damping * new
            residual = max(residual, float(np.max(np.abs(blended - old))))
            messages[edge] = blended
        if residual < tol:
            break
    marginals = {v.name: Factor([v], normalized(graph.send(messages, ("v", v.name))))
                 for v in variables}
    return LoopyBpResult(marginals, residual < tol, iterations, residual)


def per_edge_sequential_loopy_bp(model, evidence, max_iters, damping, tol):
    """The sequential schedule as one send per edge, each read by the sends
    after it, factor-to-variable edges first."""
    evidence = check_evidence(model, evidence)
    graph, variables, _ = exact._factor_graph(model, evidence)
    messages = {edge: np.full(v.cardinality, 1.0 / v.cardinality)
                for edge, (v,) in graph.kept.items()}
    order = (sorted(edge for edge in messages if edge[0][0] == "f")
             + sorted(edge for edge in messages if edge[0][0] == "v"))
    residual, iterations = math.inf, 0
    for iterations in range(1, max_iters + 1):
        residual = 0.0
        for edge in order:
            old = messages[edge]
            blended = (1 - damping) * old + damping * normalized(graph.send(messages, *edge))
            residual = max(residual, float(np.max(np.abs(blended - old))))
            messages[edge] = blended
        if residual < tol:
            break
    marginals = {v.name: Factor([v], normalized(graph.send(messages, ("v", v.name))))
                 for v in variables}
    return LoopyBpResult(marginals, residual < tol, iterations, residual)


PER_EDGE = {"synchronous": per_edge_loopy_bp, "sequential": per_edge_sequential_loopy_bp}


def bp_outputs(run):
    """What a loopy-BP run returns, or the refusal it raises."""
    try:
        result = run()
    except ZeroEvidenceError as exc:
        return str(exc)
    return ({n: f.values.tolist() for n, f in result.marginals.items()},
            result.converged, result.iterations, result.final_residual)


def draw_loopy_bp_case(data):
    model = data.draw(factor_graphs())
    evidence = any_evidence(data.draw, model)
    kw = dict(max_iters=data.draw(st.integers(1, 12)),
              damping=data.draw(st.sampled_from([1.0, 0.5, 0.3])),
              tol=data.draw(st.sampled_from([0.0, 1e-9, 1e-3])))
    return model, evidence, kw


@SETTINGS
@given(st.data())
def test_synchronous_loopy_bp_is_the_per_edge_schedule_bit_for_bit(data):
    model, evidence, kw = draw_loopy_bp_case(data)
    got = bp_outputs(lambda: loopy_bp(model, evidence, **kw))
    assert got == bp_outputs(lambda: per_edge_loopy_bp(model, evidence, **kw))


@SETTINGS
@given(st.data())
def test_sequential_loopy_bp_is_the_per_edge_schedule_bit_for_bit(data):
    model, evidence, kw = draw_loopy_bp_case(data)
    got = bp_outputs(lambda: loopy_bp(model, evidence, schedule="sequential", **kw))
    assert got == bp_outputs(lambda: per_edge_sequential_loopy_bp(model, evidence, **kw))


@pytest.mark.parametrize("model, evidence", [
    # no free variable
    (MarkovRandomField([Variable("a", ("0", "1"))], [Factor([Variable("a", ("0", "1"))], [1.0, 3.0])]),
     {"a": "1"}),
    # a free variable on no factor
    (MarkovRandomField([Variable("a", ("0", "1")), Variable("b", ("0", "1", "2"))],
                       [Factor([Variable("a", ("0", "1"))], [1.0, 3.0])]), {}),
    # no edge at all
    (MarkovRandomField([Variable("a", ("0", "1")), Variable("b", ("0", "1", "2"))], []), {}),
])
def test_loopy_bp_empty_cases_match_the_per_edge_schedule(model, evidence):
    for (schedule, reference), tol in itertools.product(PER_EDGE.items(), (1e-9, -math.inf)):
        got = bp_outputs(lambda: loopy_bp(model, evidence, max_iters=3, tol=tol, schedule=schedule))
        assert got == bp_outputs(lambda: reference(model, evidence, 3, 0.5, tol))


def test_loopy_bp_wide_and_narrow_messages_match_the_per_edge_schedule():
    # messages of 5, 9 and 10 states: a total over 8 or more entries sums
    # pairwise, so a narrow row must not be summed at the padded width
    rng = np.random.default_rng(4)
    a, b, c = (Variable(n, tuple(str(k) for k in range(card)))
               for n, card in (("a", 9), ("b", 5), ("c", 10)))
    factors = [Factor(scope, rng.random([v.cardinality for v in scope]))
               for scope in ([a, b], [b, c], [c, a, b], [c], [b])]
    model = MarkovRandomField([a, b, c], factors)
    for (schedule, reference), evidence in itertools.product(PER_EDGE.items(), ({}, {"a": "4"})):
        got = bp_outputs(lambda: loopy_bp(model, evidence, max_iters=6, tol=0.0, schedule=schedule))
        assert got == bp_outputs(lambda: reference(model, evidence, 6, 0.5, 0.0))


@st.composite
def forests(draw):
    """Factor graphs without a cycle: each factor joins variables of
    distinct components. Entries are positive, so tree BP never refuses."""
    model = draw(factor_graphs(zeros=False))
    component = {n: n for n in model.variables}

    def root(n):
        while component[n] != n:
            n = component[n]
        return n

    kept = []
    for f in model.factors:
        roots = [root(n) for n in f.names]
        if len(set(roots)) == len(roots):
            kept.append(f)
            for r in roots[1:]:
                component[r] = roots[0]
    return MarkovRandomField(list(model.variables.values()), kept)


@SETTINGS
@given(st.data())
def test_loopy_bp_is_exact_on_forests(data):
    model = data.draw(forests())
    evidence = any_evidence(data.draw, model)
    if len(evidence) == len(model.variables):
        return
    exact_bp = tree_bp(model, evidence)
    result = loopy_bp(model, evidence, damping=1.0, max_iters=100, tol=1e-13)
    assert result.converged
    for name, belief in result.marginals.items():
        assert np.allclose(belief.values, exact_bp.marginal(name).values, rtol=0, atol=1e-12)


@SETTINGS
@given(st.data())
def test_every_dual_bound_is_at_least_the_map_value(data):
    model = data.draw(factor_graphs(max_arity=2))
    _, map_value = enumerate_inference(model, mode="map")
    state = dual_decomposition(model, max_iters=data.draw(st.integers(1, 40)))
    slack = 1e-9 * max(1.0, abs(map_value)) if math.isfinite(map_value) else 0.0
    assert all(bound >= map_value - slack for bound in state.bounds)


def always_rescored_annealing(mrf, schedule, seed):
    """Annealing with an exact log_score after every sweep."""
    rng = np.random.default_rng(seed)
    compiled = CompiledModel(mrf)
    state = compiled.state
    cards = [v.cardinality for v in compiled.variables]
    state[:] = [int(rng.integers(card)) for card in cards]
    best, best_score = list(state), compiled.log_score()
    factors = mrf.factors
    col = {n: k for k, n in enumerate(compiled.names)}
    terms = [[(logs, [col[n] for n in f.names])
              for f, logs in zip(factors, log_tables(factors)) if name in f.names]
             for name in compiled.names]

    def local_log_score(i, value):
        """The log terms over variable i summed in model order, with i set
        to value, as Python floats (-inf - -inf is then NaN, not a warning)."""
        trial = list(state)
        trial[i] = value
        total = 0.0
        for logs, cols in terms[i]:
            total += logs[tuple(trial[c] for c in cols)].item()
        return total

    t = schedule.t_start
    while t >= schedule.t_end:
        for _ in range(schedule.sweeps_per_stage):
            for i, card in enumerate(cards):
                proposal = int(rng.integers(card))
                if proposal == state[i]:
                    continue
                delta = local_log_score(i, proposal) - local_log_score(i, state[i])
                if delta >= 0 or rng.random() < math.exp(delta / t):
                    state[i] = proposal
            score = compiled.log_score()
            if score > best_score:
                best, best_score = list(state), score
        t *= schedule.cooling
    return compiled.assignment(best), best_score


@SETTINGS
@given(st.data())
def test_annealing_picks_the_best_an_exact_score_per_sweep_picks(data):
    model = data.draw(factor_graphs())
    seed = data.draw(st.integers(0, 2**32 - 1))
    schedule = AnnealSchedule(t_start=2.0, t_end=0.05, cooling=0.7, sweeps_per_stage=2)
    assignment, logp = simulated_annealing_map(model, schedule, seed=seed)
    want_assignment, want_logp = always_rescored_annealing(model, schedule, seed)
    assert (assignment, repr(logp)) == (want_assignment, repr(want_logp))


@st.composite
def metric_binary_mrfs(draw):
    """Binary pairwise MRFs whose summed log table on each edge is metric
    with a positive coupling. Each factor is stored linear or log, each
    pairwise scope in a drawn order, and an edge may carry two factors
    that are metric only in sum."""
    n = draw(st.integers(2, 5))
    variables = [Variable(f"v{i}", ("s0", "s1")) for i in draw(st.permutations(range(n)))]
    quarter = st.integers(-8, 8).map(lambda k: k / 4)

    def stored(scope, log_table):
        if draw(st.booleans()):
            return Factor(scope, log_table, domain=LOG)
        return Factor(scope, np.exp(log_table))

    def pairwise(a, b, log_table):
        if draw(st.booleans()):
            a, b, log_table = b, a, log_table.T
        return stored([a, b], log_table)

    factors = [stored([v], np.array([draw(quarter), draw(quarter)]))
               for v in variables for _ in range(draw(st.integers(0, 2)))]
    pairs = [(a, b) for i, a in enumerate(variables) for b in variables[i + 1:]]
    for k in draw(st.lists(st.integers(0, len(pairs) - 1), unique=True)):
        agree, gap = draw(quarter), draw(st.integers(1, 8)) / 4
        total = np.array([[agree, agree - gap], [agree - gap, agree]])
        if draw(st.booleans()):
            part = np.array(draw(st.lists(quarter, min_size=4, max_size=4))).reshape(2, 2)
            factors += [pairwise(*pairs[k], total - part), pairwise(*pairs[k], part)]
        else:
            factors.append(pairwise(*pairs[k], total))
    return MarkovRandomField(variables, draw(st.permutations(factors)))


@SETTINGS
@given(st.data())
def test_graph_cuts_and_the_ilp_objective_read_one_pairwise_split(data):
    model = data.draw(metric_binary_mrfs())
    evidence = data.draw(evidence_for(model))
    mrf, log_offset = reduce_to_evidence(model, evidence)
    _, map_value = enumerate_inference(model, mode="map", evidence=evidence)
    labels, _ = graphcut_map(mrf_to_energy_model(mrf))
    cut = {n: mrf.variable(n).states[s] for n, s in labels.items()}
    assert log_joint(mrf, cut) + log_offset == pytest.approx(map_value, abs=1e-9)
    drawn = {n: data.draw(st.sampled_from(v.states)) for n, v in sorted(mrf.variables.items())}
    for assignment in (cut, drawn):
        assert ilp_objective_at(mrf, assignment) == pytest.approx(
            log_joint(mrf, assignment), abs=1e-9)
