"""Model containers (Bayesian network, MRF, factor graph, chain CRF),
validation, conversions between them, and the full-enumeration oracle that
every inference engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import EvidenceError, ScopeError, TooLargeError, ZeroEvidenceError
from .factors import Factor, Variable
from .graphs import DirectedGraph, UndirectedGraph, is_dag, moralize

ENUMERATION_CAP = 2**22  # joint-table entries
# Log scores this close to the oracle's largest (relative to 1 + its size)
# tie: states whose factor products tie exactly can differ in the last bits
# of their summed logs.
MAP_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class Violation:
    """One validation failure: which part of the model broke which rule."""

    subject: str
    rule: str

    def __str__(self):
        return f"{self.subject}: {self.rule}"


class Model:
    """Named variables and a product of factors: what every inference
    engine reads of a Bayesian network or a Markov random field."""

    factors: list[Factor]

    def __init__(self, variables: Sequence[Variable]):
        self.variables = {v.name: v for v in variables}
        if len(self.variables) != len(variables):
            raise ValueError("duplicate variable names")

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise ScopeError(f"unknown variable {name!r}") from None

    def joint_size(self) -> int:
        return math.prod(v.cardinality for v in self.variables.values())


class BayesianNetwork(Model):
    """A DAG plus one CPD factor per variable.

    Each CPD's scope is (child, parent_1, ..., parent_k) with parents in
    the declared order; rows indexed by parent configuration must sum to 1.
    Its factors are the CPDs in child-name order.
    """

    kind = "bayesian_network"

    def __init__(self, variables: Sequence[Variable], dag: DirectedGraph,
                 cpds: Mapping[str, Factor]):
        super().__init__(variables)
        self.dag = dag
        self.cpds = dict(cpds)

    @property
    def factors(self) -> list[Factor]:
        return [self.cpds[n] for n in sorted(self.cpds)]

    def validate(self) -> list[Violation]:
        out = []
        if set(self.dag.nodes) != set(self.variables):
            out.append(Violation("dag", "node set differs from declared variables"))
            return out
        if not is_dag(self.dag):
            out.append(Violation("dag", "graph is cyclic"))
        missing = set(self.variables) - set(self.cpds)
        for name in sorted(missing):
            out.append(Violation(name, "no CPD declared"))
        names = sorted(self.cpds)
        negative = np.zeros(len(names), dtype=bool)
        normalized = np.ones(len(names), dtype=bool)
        for ks, block in _stacked([self.cpds[n].table for n in names]):
            negative[ks] = block.reshape(len(ks), -1).min(axis=1) < 0
            if block.ndim > 1:   # a table over no variable fails the scope checks below
                # the tolerance of np.allclose(row_sums, 1, atol=1e-9); NaN fails
                row_sums = block.sum(axis=1).reshape(len(ks), -1)
                normalized[ks] = (np.abs(row_sums - 1.0) <= 1e-9 + 1e-5).all(axis=1)
        for k, name in enumerate(names):
            cpd = self.cpds[name]
            expected = (name,) + self.dag.parents(name) if name in self.variables else None
            if expected is not None and set(cpd.names) != set(expected):
                out.append(Violation(name, f"CPD scope {list(cpd.names)} != child+parents {list(expected)}"))
                continue
            if cpd.names[0] != name:
                out.append(Violation(name, "CPD scope must list the child variable first"))
                continue
            if negative[k]:
                out.append(Violation(name, "negative CPD entry"))
            if not normalized[k]:
                out.append(Violation(name, "rows do not sum to 1 over the child states"))
        return out

    def __repr__(self):
        return f"BayesianNetwork(variables={len(self.variables)}, edges={len(self.dag.edges)})"


class MarkovRandomField(Model):
    """Variables plus an arbitrary list of nonnegative factors.

    Unary and higher-order factors may coexist; the skeleton is the union
    of the factor scopes viewed as cliques.
    """

    kind = "markov_random_field"

    def __init__(self, variables: Sequence[Variable], factor_list: Sequence[Factor]):
        super().__init__(variables)
        self.factors = list(factor_list)

    def skeleton(self) -> UndirectedGraph:
        edges = []
        for f in self.factors:
            names = f.names
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    edges.append((names[i], names[j]))
        return UndirectedGraph(self.variables, edges)

    def validate(self) -> list[Violation]:
        out = []
        negative = np.zeros(len(self.factors), dtype=bool)
        for ks, block in _stacked([f.table for f in self.factors]):
            negative[ks] = block.reshape(len(ks), -1).min(axis=1) < 0
        for idx, f in enumerate(self.factors):
            label = f"factor[{idx}] over {list(f.names)}"
            for v in f.scope:
                declared = self.variables.get(v.name)
                if declared is None:
                    out.append(Violation(label, f"scope variable {v.name!r} not declared"))
                elif declared.states != v.states:
                    out.append(Violation(label, f"state mismatch for {v.name!r}"))
            if f.domain == fa.LINEAR and negative[idx]:
                out.append(Violation(label, "negative entry"))
        return out

    def is_pairwise(self) -> bool:
        return all(len(f.scope) <= 2 for f in self.factors)

    def __repr__(self):
        return f"MarkovRandomField(variables={len(self.variables)}, factors={len(self.factors)})"


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite view: factor nodes on one side, variable nodes on the other."""

    variables: tuple[Variable, ...]
    factors: tuple[Factor, ...]
    _factors_of: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors_of: dict[str, list[int]] = {}
        for i, f in enumerate(self.factors):
            for name in f.names:
                factors_of.setdefault(name, []).append(i)
        object.__setattr__(
            self, "_factors_of", {n: tuple(ids) for n, ids in factors_of.items()}
        )

    @property
    def edges(self) -> tuple[tuple[int, str], ...]:
        """(factor index, variable name) pairs."""
        return tuple(
            (i, name) for i, f in enumerate(self.factors) for name in f.names
        )

    def neighbors_of_factor(self, i: int) -> tuple[str, ...]:
        return self.factors[i].names

    def neighbors_of_variable(self, name: str) -> tuple[int, ...]:
        return self._factors_of.get(name, ())

    def is_tree(self) -> bool:
        """True iff the bipartite graph is connected and acyclic."""
        n_nodes = len(self.variables) + len(self.factors)
        n_edges = len(self.edges)
        if n_edges != n_nodes - 1:
            return False
        # connectivity over the bipartite structure
        if not self.variables:
            return len(self.factors) <= 1
        seen_v: set[str] = set()
        seen_f: set[int] = set()
        stack: list[tuple[str, object]] = [("v", self.variables[0].name)]
        while stack:
            kind, key = stack.pop()
            if kind == "v":
                if key in seen_v:
                    continue
                seen_v.add(key)
                stack.extend(("f", i) for i in self.neighbors_of_variable(key))
            else:
                if key in seen_f:
                    continue
                seen_f.add(key)
                stack.extend(("v", n) for n in self.neighbors_of_factor(key))
        return len(seen_v) == len(self.variables) and len(seen_f) == len(self.factors)


class ChainCRF:
    """A linear-chain conditional model over K labels.

    Node scores come from observation features: ``obs_features(x, t)``
    returns a feature vector of length F for position t of input x, and the
    node weight matrix has one row of F weights per label. Transitions are
    parameterized by a full K-by-K weight matrix (indicator features on
    label pairs). All weights live in log space.
    """

    kind = "chain_crf"

    def __init__(self, labels: Sequence[str], n_obs_features: int,
                 obs_features: Callable[[Sequence, int], np.ndarray],
                 node_weights: np.ndarray | None = None,
                 trans_weights: np.ndarray | None = None):
        self.labels = tuple(labels)
        self.n_obs_features = int(n_obs_features)
        self.obs_features = obs_features
        k = len(self.labels)
        self.node_weights = (
            np.zeros((k, self.n_obs_features)) if node_weights is None
            else np.asarray(node_weights, dtype=float)
        )
        self.trans_weights = (
            np.zeros((k, k)) if trans_weights is None
            else np.asarray(trans_weights, dtype=float)
        )
        if self.node_weights.shape != (k, self.n_obs_features):
            raise ValueError("node weight matrix must be (labels, features)")
        if self.trans_weights.shape != (k, k):
            raise ValueError("transition weight matrix must be (labels, labels)")

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.node_weights.ravel(), self.trans_weights.ravel()])

    def with_theta(self, theta: np.ndarray) -> "ChainCRF":
        k, f = self.n_labels, self.n_obs_features
        node = theta[: k * f].reshape(k, f)
        trans = theta[k * f:].reshape(k, k)
        return ChainCRF(self.labels, f, self.obs_features, node, trans)

    def features(self, x: Sequence) -> np.ndarray:
        """Observation feature vectors, shape (len(x), F)."""
        feats = np.stack([np.asarray(self.obs_features(x, t), dtype=float)
                          for t in range(len(x))])
        if not np.all(np.isfinite(feats)):
            raise ValueError("observation features must be finite")
        return feats

    def node_scores(self, x: Sequence) -> np.ndarray:
        """Log node potentials, shape (len(x), K)."""
        return self.features(x) @ self.node_weights.T

    def label_variables(self, length: int) -> list[Variable]:
        width = len(str(max(length - 1, 0)))
        return [Variable(f"y{t:0{width}d}", self.labels) for t in range(length)]

    def to_mrf(self, x: Sequence) -> MarkovRandomField:
        """The chain MRF over labels induced by a fixed input sequence.

        Its factors hold the scores themselves, in the log domain, so scores
        past exp's range stay finite.
        """
        ys = self.label_variables(len(x))
        scores = self.node_scores(x)
        factor_list = [Factor([ys[t]], scores[t], domain=fa.LOG) for t in range(len(x))]
        for t in range(1, len(x)):
            factor_list.append(Factor([ys[t - 1], ys[t]], self.trans_weights, domain=fa.LOG))
        return MarkovRandomField(ys, factor_list)


def validate(model) -> list[Violation]:
    return model.validate()


def _stacked(tables: Sequence[np.ndarray]) -> Iterable[tuple[list[int], np.ndarray]]:
    """The tables grouped by shape, in order of first appearance: for each
    shape, the positions of its tables and their stack, so that validation,
    loopy BP and dual decomposition treat each group at once."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, table in enumerate(tables):
        groups.setdefault(table.shape, []).append(k)
    for ks in groups.values():
        yield ks, np.stack([tables[k] for k in ks])


def bn_to_mrf(bn: BayesianNetwork) -> MarkovRandomField:
    """Reinterpret each CPD as a clique potential; the result has Z = 1."""
    problems = bn.validate()
    if problems:
        raise ValueError(f"invalid network: {problems[0]}")
    mrf = MarkovRandomField(list(bn.variables.values()), bn.factors)
    # the skeleton of the conversion equals the moral graph
    assert set(mrf.skeleton().edges) == set(moralize(bn.dag).edges)
    return mrf


def to_factor_graph(model: Model) -> FactorGraph:
    return FactorGraph(tuple(model.variables.values()), tuple(model.factors))


def check_evidence(model: Model, evidence: Mapping[str, str]) -> dict[str, str]:
    out = {}
    for name, state in evidence.items():
        var = model.variable(name)
        var.index_of(state)  # raises EvidenceError on bad labels
        out[name] = state
    return out


def reduce_to_evidence(model: Model, evidence: Mapping[str, str]
                       ) -> tuple[MarkovRandomField, float]:
    """The model conditioned on the (checked) evidence: the one step every
    engine that takes evidence starts from.

    Returns a field over the free variables, in name order, holding the
    reduced factors that keep a variable, in model order, and the log of
    the product of those the evidence fixes completely. The offset is -inf
    when one of those is zero, or when a factor the evidence reduces keeps
    a variable but no positive entry: either way no state has mass. Only
    the junction tree, whose every factor has a home clique, and
    importance sampling, which scores the full joint, reduce factors their
    own way.
    """
    kept, fixed = [], []
    massless = False
    for f in model.factors:
        g = fa.reduce_factor(f, evidence)
        (kept if g.scope else fixed).append(g)
        if g.scope and g is not f and not (
                g.table.max() > -math.inf if g.domain == fa.LOG else np.count_nonzero(g.table)):
            massless = True
    log_offset = -math.inf if massless else 0.0
    for table in fa.log_tables(fixed):
        log_offset += float(table)
    free = [v for n, v in sorted(model.variables.items()) if n not in evidence]
    return MarkovRandomField(free, kept), log_offset


def relevant_network(model: Model, query: Iterable[str], evidence: Iterable[str]) -> Model:
    """The Bayesian network over the query, the evidence and their
    ancestors: the sub-network every sum-product query may start from.

    Every other node is barren. Summed out from the leaves up, its CPD
    gives 1, so the sub-network has the same marginals and the same
    p(evidence) (Baker & Boult, UAI 1990). That holds only for a CPD whose
    every row sums to 1: a node outside the set whose CPD is not a linear
    table with rows summing to 1 within 1e-12 is kept, with its
    ancestors. The sub-network reuses the kept CPDs. An MRF, whose
    normalization couples every factor, and a network with nothing to
    drop come back as the model itself.
    """
    if not isinstance(model, BayesianNetwork):
        return model
    parents = model.dag.parents
    kept: set[str] = set()

    def walk(seeds: Iterable[str]) -> None:
        stack = list(seeds)
        while stack:
            n = stack.pop()
            if n not in kept:
                kept.add(n)
                stack.extend(parents(n))

    walk([*query, *evidence])
    if len(kept) < len(model.variables):
        walk([n for n in model.variables if n not in kept
              and not _rows_sum_to_one(model.cpds.get(n))])
    if len(kept) == len(model.variables):
        return model
    edges = [(u, v) for u, v in model.dag.edges if v in kept]
    return BayesianNetwork([v for n, v in model.variables.items() if n in kept],
                           DirectedGraph(kept, edges),
                           {n: f for n, f in model.cpds.items() if n in kept})


def _rows_sum_to_one(cpd: Factor | None) -> bool:
    """Whether a CPD, over its child first, is a linear table whose every
    row over the child sums to 1 within 1e-12 (NaN fails)."""
    return (cpd is not None and cpd.domain == fa.LINEAR
            and bool((np.abs(cpd.table.sum(axis=0) - 1.0) <= 1e-12).all()))


def refuse_zero_evidence(log_offset: float) -> None:
    """Raise ZeroEvidenceError when ``reduce_to_evidence``'s offset shows
    the evidence has probability zero: the refusal of every engine that
    answers with a distribution."""
    if log_offset == -math.inf:
        raise ZeroEvidenceError("the evidence has probability zero")


def log_joint(model: Model, assignment: Mapping[str, str]) -> float:
    """Log of the (unnormalized, for MRFs) joint at a full assignment.

    Bayesian networks give a normalized log-probability; MRFs give the log
    of the product of factors. Zero entries yield -inf.
    """
    missing = set(model.variables) - set(assignment)
    if missing:
        raise EvidenceError(f"assignment is missing variables {sorted(missing)}")
    factors = model.factors
    total = 0.0
    for f, table in zip(factors, fa.log_tables(factors)):
        term = table.item(tuple([v.index_of(assignment[v.name]) for v in f.scope]))
        if term == -math.inf:
            return -math.inf
        total += term
    return total


class CompiledModel:
    """A model's factors as flat Python log tables over an integer state.

    Built once per model for the engines that score one state at a time:
    annealing, local search, dual decomposition and Metropolis-Hastings.
    ``state`` holds one state index per variable, in name order. The tables
    are the factors' logs as ``factors.log_tables`` gives them, so a score
    adds the same terms in the same order as ``log_joint`` and
    ``batch_log_unnormalized``. The engines read one variable's terms from
    its row of ``sampling._site_tables``.
    """

    def __init__(self, model: Model):
        self.names = sorted(model.variables)
        self.variables = [model.variables[n] for n in self.names]
        self.state = [0] * len(self.names)
        col = {n: k for k, n in enumerate(self.names)}
        self.factors = []  # (log table, columns, strides)
        factors = model.factors
        for f, logs in zip(factors, fa.log_tables(factors)):
            table = logs.reshape(-1).tolist()
            cols = [col[n] for n in f.names]
            strides = fa.strides(f.table.shape).tolist()
            self.factors.append((table, cols, strides))

    def log_score(self) -> float:
        """``log_joint`` at the state: the terms summed in model order, and
        -inf at the first -inf term."""
        state = self.state
        total = 0.0
        for table, cols, strides in self.factors:
            idx = 0
            for c, s in zip(cols, strides):
                idx += state[c] * s
            term = table[idx]
            if term == -math.inf:
                return -math.inf
            total += term
        return total

    def assignment(self, state: Sequence[int] | None = None) -> dict[str, str]:
        """State labels of the variables at ``state`` (default: the compiled
        state)."""
        state = self.state if state is None else state
        return {n: v.states[s] for n, v, s in zip(self.names, self.variables, state)}


def _joint_factor(model: Model, cap: int = ENUMERATION_CAP) -> Factor:
    """The log joint over every variable in name order: each factor's log
    table added into zeros by ``factors._product_into``, in model order.
    That is the order in which ``log_joint`` adds its terms, so every entry
    is ``log_joint`` at its state, bit for bit, and no score leaves float
    range."""
    size = model.joint_size()
    if size > cap:
        raise TooLargeError(f"joint table of {size} entries exceeds the cap of {cap}")
    ordered = [model.variables[n] for n in sorted(model.variables)]
    factors = model.factors
    pairs = [(f.scope, table) for f, table in zip(factors, fa.log_tables(factors))]
    return Factor(ordered, fa._product_into(ordered, pairs, np.add), domain=fa.LOG, _trusted=True)


def random_cpds(variables: Sequence[Variable], dag: DirectedGraph,
                rng: np.random.Generator, concentration: float = 1.0) -> BayesianNetwork:
    """A Bayesian network over the DAG with Dirichlet-random CPT rows."""
    by_name = {v.name: v for v in variables}
    cpds = {}
    for name in dag.nodes:
        child = by_name[name]
        parents = [by_name[p] for p in dag.parents(name)]
        rows = math.prod(p.cardinality for p in parents)
        table = rng.dirichlet([concentration] * child.cardinality, size=rows).T
        shape = (child.cardinality,) + tuple(p.cardinality for p in parents)
        cpds[name] = Factor([child, *parents], table.reshape(shape))
    return BayesianNetwork(list(variables), dag, cpds)


def enumerate_inference(model: Model, query: Iterable[str] = (),
                        evidence: Mapping[str, str] | None = None,
                        mode: str = "marginal", cap: int = ENUMERATION_CAP):
    """Ground-truth answers from the full joint table, held as logs.

    mode="marginal" returns the normalized factor p(query | evidence),
    summed from the evidence-reduced joint shifted by its largest entry
    and exponentiated; evidence is refused only when every reduced entry
    is -inf. mode="log_partition" returns the log of the sum over the
    evidence-reduced joint (Z for MRFs, p(evidence) for Bayesian
    networks), -inf under zero-probability evidence, and
    mode="partition" its exp. mode="map" returns (assignment, log value)
    maximizing the evidence-reduced joint, taking the
    lexicographically-first argmax (variables in name order) on ties,
    scores within ``MAP_TIE_RTOL`` of the largest counting as tied.
    """
    evidence = check_evidence(model, evidence or {})
    query = list(query)
    for q in query:
        model.variable(q)
        if q in evidence:
            raise EvidenceError(f"query variable {q!r} is also evidence")
    if mode not in ("marginal", "partition", "log_partition", "map"):
        raise ValueError(f"unknown mode {mode!r}")
    reduced = fa.reduce_factor(_joint_factor(model, cap), evidence)
    top = float(np.max(reduced.table))
    if mode == "map":
        # the first state in C order (the lexicographic-first) that ties
        flat = np.argmax(reduced.table >= top - MAP_TIE_RTOL * (1.0 + abs(top)))
        idx = np.unravel_index(flat, reduced.table.shape)
        assignment = dict(evidence)
        assignment.update(
            {v.name: v.states[i] for v, i in zip(reduced.scope, idx)}
        )
        return assignment, float(reduced.table[idx])
    if top == -math.inf:
        if mode == "marginal":
            raise ZeroEvidenceError("the evidence has probability zero")
        return -math.inf if mode == "log_partition" else 0.0
    shifted = reduced.table - top
    np.exp(shifted, out=shifted)
    if mode == "marginal":
        keep = set(query)
        marg = fa.eliminate(Factor(reduced.scope, shifted, _trusted=True),
                            [n for n in reduced.names if n not in keep])
        return fa.normalize(marg)[0]
    log_z = top + math.log(float(np.sum(shifted)))
    return log_z if mode == "log_partition" else math.exp(log_z)
