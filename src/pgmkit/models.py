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


@dataclass(frozen=True)
class Violation:
    """One validation failure: which part of the model broke which rule."""

    subject: str
    rule: str

    def __str__(self):
        return f"{self.subject}: {self.rule}"


class BayesianNetwork:
    """A DAG plus one CPD factor per variable.

    Each CPD's scope is (child, parent_1, ..., parent_k) with parents in
    the declared order; rows indexed by parent configuration must sum to 1.
    """

    kind = "bayesian_network"

    def __init__(self, variables: Sequence[Variable], dag: DirectedGraph,
                 cpds: Mapping[str, Factor]):
        self.variables = {v.name: v for v in variables}
        if len(self.variables) != len(variables):
            raise ValueError("duplicate variable names")
        self.dag = dag
        self.cpds = dict(cpds)

    @property
    def factors(self) -> list[Factor]:
        return [self.cpds[n] for n in sorted(self.cpds)]

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise ScopeError(f"unknown variable {name!r}") from None

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
        for name in sorted(self.cpds):
            cpd = self.cpds[name]
            expected = (name,) + tuple(self.dag.parents(name)) if name in self.dag.nodes else None
            if expected is not None and set(cpd.names) != set(expected):
                out.append(Violation(name, f"CPD scope {list(cpd.names)} != child+parents {list(expected)}"))
                continue
            if cpd.names[0] != name:
                out.append(Violation(name, "CPD scope must list the child variable first"))
                continue
            if cpd.table.min() < 0:
                out.append(Violation(name, "negative CPD entry"))
            # the tolerance of np.allclose(row_sums, 1, atol=1e-9); NaN fails
            row_sums = cpd.table.sum(axis=0)
            if not (np.abs(row_sums - 1.0) <= 1e-9 + 1e-5).all():
                out.append(Violation(name, "rows do not sum to 1 over the child states"))
        return out

    def joint_size(self) -> int:
        return math.prod(v.cardinality for v in self.variables.values())

    def __repr__(self):
        return f"BayesianNetwork(variables={len(self.variables)}, edges={len(self.dag.edges)})"


class MarkovRandomField:
    """Variables plus an arbitrary list of nonnegative factors.

    Unary and higher-order factors may coexist; the skeleton is the union
    of the factor scopes viewed as cliques.
    """

    kind = "markov_random_field"

    def __init__(self, variables: Sequence[Variable], factor_list: Sequence[Factor]):
        self.variables = {v.name: v for v in variables}
        if len(self.variables) != len(variables):
            raise ValueError("duplicate variable names")
        self.factors = list(factor_list)

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise ScopeError(f"unknown variable {name!r}") from None

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
        for idx, f in enumerate(self.factors):
            label = f"factor[{idx}] over {list(f.names)}"
            for v in f.scope:
                declared = self.variables.get(v.name)
                if declared is None:
                    out.append(Violation(label, f"scope variable {v.name!r} not declared"))
                elif declared.states != v.states:
                    out.append(Violation(label, f"state mismatch for {v.name!r}"))
            if f.domain == fa.LINEAR and f.table.size and np.min(f.table) < 0:
                out.append(Violation(label, "negative entry"))
        return out

    def joint_size(self) -> int:
        return math.prod(v.cardinality for v in self.variables.values())

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

    def node_scores(self, x: Sequence) -> np.ndarray:
        """Log node potentials, shape (len(x), K)."""
        feats = np.stack([np.asarray(self.obs_features(x, t), dtype=float)
                          for t in range(len(x))])
        if not np.all(np.isfinite(feats)):
            raise ValueError("observation features must be finite")
        return feats @ self.node_weights.T

    def label_variables(self, length: int) -> list[Variable]:
        width = len(str(max(length - 1, 0)))
        return [Variable(f"y{t:0{width}d}", self.labels) for t in range(length)]

    def to_mrf(self, x: Sequence) -> MarkovRandomField:
        """The chain MRF over labels induced by a fixed input sequence."""
        ys = self.label_variables(len(x))
        scores = self.node_scores(x)
        factor_list = [Factor([ys[t]], np.exp(scores[t])) for t in range(len(x))]
        trans = np.exp(self.trans_weights)
        for t in range(1, len(x)):
            factor_list.append(Factor([ys[t - 1], ys[t]], trans))
        return MarkovRandomField(ys, factor_list)


Model = BayesianNetwork | MarkovRandomField


def validate(model) -> list[Violation]:
    return model.validate()


def bn_to_mrf(bn: BayesianNetwork) -> MarkovRandomField:
    """Reinterpret each CPD as a clique potential; the result has Z = 1."""
    problems = bn.validate()
    if problems:
        raise ValueError(f"invalid network: {problems[0]}")
    variables = list(bn.variables.values())
    factor_list = [bn.cpds[name] for name in sorted(bn.cpds)]
    mrf = MarkovRandomField(variables, factor_list)
    # the skeleton of the conversion equals the moral graph
    assert set(mrf.skeleton().edges) == set(moralize(bn.dag).edges)
    return mrf


def to_factor_graph(model: Model) -> FactorGraph:
    if isinstance(model, BayesianNetwork):
        factor_list = [model.cpds[n] for n in sorted(model.cpds)]
    else:
        factor_list = list(model.factors)
    return FactorGraph(tuple(model.variables.values()), tuple(factor_list))


def model_factors(model: Model) -> list[Factor]:
    if isinstance(model, BayesianNetwork):
        return [model.cpds[n] for n in sorted(model.cpds)]
    return list(model.factors)


def linear_factors(factors: Iterable[Factor]) -> list[Factor]:
    """The factors with log-domain tables exponentiated, for the engines
    that multiply tables; linear-domain factors pass through as they are."""
    return [f.to_linear() for f in factors]


def check_evidence(model: Model, evidence: Mapping[str, str]) -> dict[str, str]:
    out = {}
    for name, state in evidence.items():
        var = model.variable(name)
        var.index_of(state)  # raises EvidenceError on bad labels
        out[name] = state
    return out


def reduce_to_evidence(model: Model, evidence: Mapping[str, str]) -> tuple[list[Factor], float]:
    """The model's factors reduced to the (checked) evidence.

    Returns the reduced factors that keep a variable, in model order, and
    the log of the product of those the evidence fixes completely (-inf
    when one of them is zero).
    """
    kept, log_offset = [], 0.0
    for f in model_factors(model):
        g = fa.reduce_factor(f, evidence)
        if g.scope:
            kept.append(g)
            continue
        value = float(g.table)
        if g.domain == fa.LOG:
            log_offset += value
        else:
            log_offset += math.log(value) if value > 0.0 else -math.inf
    return kept, log_offset


def log_joint(model: Model, assignment: Mapping[str, str]) -> float:
    """Log of the (unnormalized, for MRFs) joint at a full assignment.

    Bayesian networks give a normalized log-probability; MRFs give the log
    of the product of factors. Zero entries yield -inf.
    """
    missing = set(model.variables) - set(assignment)
    if missing:
        raise EvidenceError(f"assignment is missing variables {sorted(missing)}")
    total = 0.0
    for f in model_factors(model):
        if f.domain == fa.LOG:
            term = f(assignment)
        else:
            value = f(assignment)
            term = math.log(value) if value > 0.0 else -math.inf
        if term == -math.inf:
            return -math.inf
        total += term
    return total


def _joint_factor(model: Model, cap: int = ENUMERATION_CAP) -> Factor:
    size = model.joint_size()
    if size > cap:
        raise TooLargeError(f"joint table of {size} entries exceeds the cap of {cap}")
    ordered = [model.variables[n] for n in sorted(model.variables)]
    joint = fa.ones_like(ordered)
    for f in linear_factors(model_factors(model)):
        joint = fa.product(joint, f)
    return fa.align_to(joint, sorted(model.variables))


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
    """Ground-truth answers by summing the full joint table.

    mode="marginal" returns the normalized factor p(query | evidence);
    mode="partition" returns the scalar sum over the evidence-reduced
    joint (Z for MRFs, p(evidence) for Bayesian networks); mode="map"
    returns (assignment, log value) maximizing the evidence-reduced joint,
    taking the lexicographically-first argmax (variables in name order) on
    ties.
    """
    evidence = check_evidence(model, evidence or {})
    query = list(query)
    for q in query:
        model.variable(q)
        if q in evidence:
            raise EvidenceError(f"query variable {q!r} is also evidence")
    joint = _joint_factor(model, cap)
    reduced = fa.reduce_factor(joint, evidence)
    if mode == "partition":
        return float(np.sum(reduced.table))
    if mode == "marginal":
        keep = set(query)
        marg = fa.eliminate(reduced, [n for n in reduced.names if n not in keep])
        if float(np.sum(marg.table)) <= 0.0:
            raise ZeroEvidenceError("the evidence has probability zero")
        marg, _ = fa.normalize(marg)
        return fa.align_to(marg, sorted(query)) if query else marg
    if mode == "map":
        flat = np.argmax(reduced.table)  # first maximum = lexicographic-first
        idx = np.unravel_index(flat, reduced.table.shape)
        assignment = dict(evidence)
        assignment.update(
            {v.name: v.states[i] for v, i in zip(reduced.scope, idx)}
        )
        return assignment, log_joint(model, assignment)
    raise ValueError(f"unknown mode {mode!r}")
