"""Exact inference: variable elimination, belief propagation on factor
trees, and the junction tree algorithm.

All engines receive evidence as a partial assignment and apply it by
reducing factors up front. Messages are normalized after every send, with
the pulled-out scale factors accumulated in log space, so partition values
are recovered exactly without underflow.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import (
    NotATreeError,
    OrderingError,
    ScopeError,
    TooLargeError,
    ZeroEvidenceError,
)
from .factors import Factor, Semiring, MAX_PRODUCT, SUM_PRODUCT
from .graphs import UndirectedGraph, max_cliques, max_weight_spanning_tree, moralize, triangulate
from .models import (
    BayesianNetwork,
    Model,
    check_evidence,
    model_factors,
    reduce_to_evidence,
)

HEURISTICS = ("min_neighbors", "min_weight", "min_fill")
# Entries in the largest table max_product_decode will build: a 1 GiB
# budget of float64. A step's peak is under three times that (the
# product, its reordered copy, the back-pointers and the max-marginal).
DECODE_CAP = 2**27


@dataclass(frozen=True)
class EliminationOrdering:
    order: tuple[str, ...]
    heuristic: str
    induced_width: int


def interaction_graph(model: Model) -> UndirectedGraph:
    """Moral graph of a Bayesian network, skeleton of an MRF."""
    if isinstance(model, BayesianNetwork):
        return moralize(model.dag)
    return model.skeleton()


def _greedy_order(adj: dict[str, set[str]], cards: Mapping[str, int],
                  targets: set[str], heuristic: str) -> tuple[list[str], int]:
    """Simulated greedy elimination; returns ordering and induced width.

    ``targets`` are never eliminated but still participate as neighbors.
    Each step eliminates the remaining node of least ``(cost, name)``. The
    costs sit in a lazy heap: an elimination re-costs only the nodes whose
    cost it can change (its neighbours, and for min_fill their neighbours
    too), and heap entries whose cost is out of date are skipped.
    """
    adj = {n: set(nbrs) for n, nbrs in adj.items()}

    def cost(n: str) -> int:
        nbrs = adj[n]
        if heuristic == "min_neighbors":
            return len(nbrs)
        if heuristic == "min_weight":
            out = cards[n]
            for m in nbrs:
                out *= cards[m]
            return out
        if heuristic == "min_fill":
            nbrs = list(nbrs)
            return sum(
                1
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
                if nbrs[j] not in adj[nbrs[i]]
            )
        raise ValueError(f"unknown heuristic {heuristic!r}")

    current = {n: cost(n) for n in adj if n not in targets}
    heap = [(c, n) for n, c in current.items()]
    heapq.heapify(heap)
    order: list[str] = []
    width = 0
    while heap:
        c, best = heapq.heappop(heap)
        if current.get(best) != c:
            continue
        del current[best]
        order.append(best)
        nbrs = _eliminate_node(adj, best)
        width = max(width, len(nbrs))
        touched = set(nbrs)
        if heuristic == "min_fill":
            for m in nbrs:
                touched |= adj[m]
        for m in touched:
            if m in current:
                c = cost(m)
                if c != current[m]:
                    current[m] = c
                    heapq.heappush(heap, (c, m))
    return order, width


def _eliminate_node(adj: dict[str, set[str]], node: str) -> set[str]:
    """Remove ``node`` from the graph, joining its neighbours pairwise;
    returns the neighbours it had."""
    nbrs = adj.pop(node)
    for m in nbrs:
        links = adj[m]
        links.discard(node)
        links.update(nbrs)
        links.discard(m)
    return nbrs


def _elimination_scopes(adj: dict[str, set[str]], order: Sequence[str]):
    """Yield (node, neighbours at its elimination) along a fixed ordering."""
    adj = {n: set(nbrs) for n, nbrs in adj.items()}
    for node in order:
        yield node, _eliminate_node(adj, node)


def choose_ordering(model: Model, heuristic: str = "min_fill",
                    query: Iterable[str] = (),
                    evidence: Iterable[str] = ()) -> EliminationOrdering:
    """Greedy elimination ordering over the interaction graph.

    Query and evidence variables are excluded from the ordering (queries
    stay, evidence is removed by factor reduction before elimination).
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"heuristic must be one of {HEURISTICS}")
    graph = interaction_graph(model)
    evidence = set(evidence)
    adj = {
        n: {m for m in graph.neighbors(n) if m not in evidence}
        for n in graph.nodes
        if n not in evidence
    }
    cards = {n: model.variable(n).cardinality for n in adj}
    targets = set(query)
    order, width = _greedy_order(adj, cards, targets, heuristic)
    return EliminationOrdering(tuple(order), heuristic, width)


@dataclass
class VeResult:
    factor: Factor          # proportional to the (evidence-reduced) answer
    log_normalizer: float   # log of the total mass pulled out while eliminating
    max_intermediate_scope: int

    def normalized(self) -> Factor:
        out, _ = fa.normalize(self.factor)
        return out


def variable_elimination(model: Model, query: Iterable[str],
                         evidence: Mapping[str, str] | None = None,
                         semiring: Semiring = SUM_PRODUCT,
                         ordering: Sequence[str] | None = None,
                         heuristic: str = "min_fill") -> VeResult:
    """Eliminate all non-query variables by combine-then-aggregate steps.

    With the sum-product semiring the returned factor is proportional to
    p(query, evidence) and ``log_normalizer`` equals log p(evidence) for a
    Bayesian network (log of the evidence-reduced partition value for an
    MRF). With max_product the factor holds unnormalized max-marginals and
    no rescaling is performed.
    """
    evidence = check_evidence(model, evidence or {})
    query = list(dict.fromkeys(query))
    for q in query:
        model.variable(q)
        if q in evidence:
            raise ValueError(f"query variable {q!r} is also evidence")
    to_eliminate = sorted(set(model.variables) - set(query) - set(evidence))
    if ordering is None:
        ordering = choose_ordering(model, heuristic, query, evidence).order
    elif sorted(ordering) != to_eliminate:
        raise OrderingError(
            f"ordering must be a permutation of {to_eliminate}"
        )

    rescale = semiring.kind == "sum_product"
    factors = [fa.reduce_factor(f, evidence) for f in model_factors(model)]
    factors = [f for f in factors if f.scope or float(f.table) != 1.0]
    log_norm = 0.0
    max_scope = max((len(f.scope) for f in factors), default=0)

    pool = _FactorPool(factors)
    for var in ordering:
        bucket = pool.take(var)
        if not bucket:
            continue
        combined = fa.product_all(bucket)
        max_scope = max(max_scope, len(combined.scope))
        tau = fa.eliminate(combined, [var], semiring)
        if rescale:
            tau, log_total = _rescaled(tau)
            log_norm += log_total
        pool.add(tau)

    factors = pool.factors()
    if factors:
        result = fa.product_all(factors)
    else:
        result = fa.ones_like([model.variable(q) for q in query])
    max_scope = max(max_scope, len(result.scope))
    if query:
        result = fa.align_to(
            fa.product(result, fa.ones_like([model.variable(q) for q in query])),
            sorted(query),
        )
    if rescale:
        result, log_total = _rescaled(result)
        log_norm += log_total
    return VeResult(result, log_norm, max_scope)


class _FactorPool:
    """Factors in the order they joined, indexed by the variables they
    mention, so an elimination step finds its bucket without a scan."""

    def __init__(self, factors: Iterable[Factor]):
        self._factors: dict[int, Factor] = {}
        self._holding: dict[str, set[int]] = {}
        self._next = 0
        for f in factors:
            self.add(f)

    def add(self, f: Factor) -> None:
        key = self._next
        self._next += 1
        self._factors[key] = f
        for name in f.names:
            self._holding.setdefault(name, set()).add(key)

    def take(self, var: str) -> list[Factor]:
        """Remove and return the factors over ``var``, in pool order."""
        bucket = []
        for key in sorted(self._holding.pop(var, ())):
            f = self._factors.pop(key)
            for name in f.names:
                if name != var:
                    self._holding[name].discard(key)
            bucket.append(f)
        return bucket

    def factors(self) -> list[Factor]:
        return list(self._factors.values())


def _rescaled(f: Factor) -> tuple[Factor, float]:
    """f scaled to sum to 1, and the log of the total pulled out."""
    total = float(np.sum(f.table))
    if total <= 0.0:
        raise ZeroEvidenceError("the evidence has probability zero")
    return Factor(f.scope, f.table / total, _trusted=True), math.log(total)


def posterior(model: Model, target: str,
              evidence: Mapping[str, str] | None = None, **kw) -> Factor:
    """Convenience wrapper: normalized p(target | evidence) via elimination."""
    return variable_elimination(model, [target], evidence, **kw).normalized()


# ---------------------------------------------------------------------------
# Two-pass calibration on trees: belief propagation on factor trees here,
# the junction tree below
# ---------------------------------------------------------------------------


@dataclass
class MessageStore:
    """Directed messages keyed by (source, target) node labels.

    Factor nodes are labelled ``("f", index)`` and variable nodes
    ``("v", name)``. Exactly two messages traverse every factor-graph edge
    after a full run.
    """

    messages: dict[tuple, Factor] = field(default_factory=dict)
    sends: int = 0


@dataclass
class TreeBpResult:
    marginals: dict[str, Factor]          # normalized single-variable beliefs
    factor_beliefs: list[Factor]          # normalized per-factor joint beliefs
    messages: MessageStore
    log_partition: float

    def marginal(self, name: str) -> Factor:
        return self.marginals[name]


@dataclass
class _Calibration:
    messages: dict           # (source, target) -> normalized message
    message_log_scale: dict  # (source, target) -> log of the mass pulled out
    beliefs: dict            # node -> normalized belief
    belief_log_scale: dict   # node -> log of the belief's unnormalized total
    root: dict               # node -> the root of its tree


def _tree_schedule(nodes: Iterable, neighbors: Mapping[object, Iterable]):
    """Depth-first order, parent and root of every node; each component is
    rooted at its first node in ``nodes`` order, and a parent precedes its
    children in the order."""
    order: list = []
    parent: dict = {}
    root: dict = {}
    for start in nodes:
        if start in parent:
            continue
        parent[start] = None
        stack = [start]
        while stack:
            node = stack.pop()
            order.append(node)
            root[node] = start
            for nb in neighbors[node]:
                if nb not in parent:
                    parent[nb] = node
                    stack.append(nb)
    return order, parent, root


def _calibrate(nodes: Sequence, neighbors: Mapping[object, Sequence],
               base: Mapping[object, Factor],
               keep: Mapping[tuple, Iterable[str]]) -> _Calibration:
    """Two-pass sum-product calibration of a forest (Shafer-Shenoy).

    Each node holds a base potential. The message from ``s`` to ``t`` is
    the base of ``s`` times every message into ``s`` except the one from
    ``t``, summed down to ``keep[(s, t)]``; a node's belief is its base
    times all its incoming messages. Messages and beliefs are normalized,
    and the log of every pulled-out total is carried along, so a belief's
    log scale is the log-partition of its tree. Messages flow from the
    leaves to the roots of :func:`_tree_schedule`, then back out. A graph
    with a cycle raises NotATreeError before any message is sent (a clique
    tree from build_junction_tree never has one).
    """
    order, parent, root = _tree_schedule(nodes, neighbors)
    n_edges = sum(len(nbrs) for nbrs in neighbors.values()) // 2
    if n_edges != len(nodes) - sum(p is None for p in parent.values()):
        raise NotATreeError(
            "the model's factor graph contains a cycle; use a junction tree"
        )

    messages: dict = {}
    scales: dict = {}

    def combine(node, skip=None, kept=None) -> tuple[Factor, float]:
        out, scale = base[node], 0.0
        for nb in neighbors[node]:
            if nb != skip:
                out = fa.product(out, messages[(nb, node)])
                scale += scales[(nb, node)]
        if kept is not None:
            out = fa.eliminate(out, [n for n in out.names if n not in kept])
        out, log_total = _rescaled(out)
        return out, scale + log_total

    def send(source, target) -> None:
        edge = (source, target)
        messages[edge], scales[edge] = combine(source, target, keep[edge])

    for node in reversed(order):      # leaves toward the roots
        if parent[node] is not None:
            send(node, parent[node])
    for node in order:                # roots back out
        for nb in neighbors[node]:
            if nb != parent[node]:
                send(node, nb)

    beliefs: dict = {}
    belief_scales: dict = {}
    for node in nodes:
        beliefs[node], belief_scales[node] = combine(node)
    return _Calibration(messages, scales, beliefs, belief_scales, root)


def tree_bp(model: Model, evidence: Mapping[str, str] | None = None) -> TreeBpResult:
    """Two-phase sum-product message passing on a tree-shaped factor graph.

    Messages are cached in the result, so any marginal (including every
    per-factor joint belief) is read off without recomputation. Evidence
    may split the tree into a forest; each component is handled in the
    same two phases and the component log-partitions add up.
    """
    evidence = check_evidence(model, evidence or {})
    reduced, scalar_log = reduce_to_evidence(model, evidence)
    if scalar_log == -math.inf:
        raise ZeroEvidenceError("the evidence has probability zero")
    variables = [v for n, v in sorted(model.variables.items()) if n not in evidence]
    nodes = [("v", v.name) for v in variables] + [("f", i) for i in range(len(reduced))]
    neighbors: dict[tuple, list[tuple]] = {node: [] for node in nodes}
    base: dict[tuple, Factor] = {("v", v.name): fa.ones_like([v]) for v in variables}
    keep: dict[tuple, tuple[str]] = {}
    for i, f in enumerate(reduced):
        base[("f", i)] = f
        for name in f.names:
            neighbors[("f", i)].append(("v", name))
            neighbors[("v", name)].append(("f", i))
            keep[(("f", i), ("v", name))] = keep[(("v", name), ("f", i))] = (name,)
    cal = _calibrate(nodes, neighbors, base, keep)

    # all beliefs of a tree agree on its log Z up to rounding; each tree
    # reports the one at its last node
    component_log_z: dict[tuple, float] = {}
    for node in nodes:
        component_log_z[cal.root[node]] = cal.belief_log_scale[node]
    log_z = scalar_log + sum(component_log_z.values())
    return TreeBpResult(
        {v.name: cal.beliefs[("v", v.name)] for v in variables},
        [cal.beliefs[("f", i)] for i in range(len(reduced))],
        MessageStore(cal.messages, len(cal.messages)),
        float(log_z),
    )


# ---------------------------------------------------------------------------
# MAP decoding by max-product elimination with back-pointers
# ---------------------------------------------------------------------------


def max_product_decode(model_or_jt, evidence: Mapping[str, str] | None = None):
    """MAP assignment and its log score.

    Runs max-product elimination in reverse name order, keeping a
    back-pointer table per eliminated variable; the traceback then fixes
    variables in name order, breaking every tie toward the lowest state
    index. The result is exactly the lexicographically-first argmax, which
    matches the enumeration oracle's tie-breaking.

    Before allocating anything, the elimination is simulated on the
    interaction graph; if its largest table would hold more than
    ``DECODE_CAP`` entries, TooLargeError is raised.
    """
    if isinstance(model_or_jt, JunctionTree):
        jt = model_or_jt
        model = jt.model
        evidence = dict(jt.evidence if evidence is None else evidence)
    else:
        model = model_or_jt
        evidence = check_evidence(model, evidence or {})

    from .models import log_joint

    names = sorted(n for n in model.variables if n not in evidence)
    graph = interaction_graph(model)
    adj = {n: {m for m in graph.neighbors(n) if m not in evidence} for n in names}
    for var, nbrs in _elimination_scopes(adj, names[::-1]):
        entries = model.variable(var).cardinality * math.prod(
            model.variable(m).cardinality for m in nbrs
        )
        if entries > DECODE_CAP:
            raise TooLargeError(
                f"max-product decoding needs a table of {entries} entries when it "
                f"eliminates {var!r}, over the cap of {DECODE_CAP}"
            )

    pool = _FactorPool(reduce_to_evidence(model, evidence)[0])
    assignment = dict(evidence)
    pointers: list[tuple[str, tuple[str, ...], np.ndarray | None]] = []
    for var in reversed(names):
        bucket = pool.take(var)
        if not bucket:
            pointers.append((var, (), None))
            continue
        combined = fa.product_all(bucket)
        # put var first so argmax along axis 0 indexes by the remaining scope
        combined = fa.align_to(
            combined, sorted(combined.names, key=lambda n: (n != var, n))
        )
        argmax = np.argmax(combined.table, axis=0)  # lowest state index on ties
        pool.add(fa.eliminate(combined, [var], MAX_PRODUCT))
        pointers.append((var, combined.names[1:], argmax))

    # traceback in name order (reverse of elimination)
    for var, rest, argmax in reversed(pointers):
        v = model.variable(var)
        if argmax is None:
            assignment[var] = v.states[0]
            continue
        idx = tuple(
            model.variable(n).index_of(assignment[n]) for n in rest
        )
        assignment[var] = v.states[int(argmax[idx] if rest else argmax)]
    score = log_joint(model, assignment)
    return assignment, score


# ---------------------------------------------------------------------------
# Junction tree
# ---------------------------------------------------------------------------


@dataclass
class JunctionTree:
    """A calibrated-on-demand clique tree.

    Cliques are frozensets of variable names; ``tree_edges`` connect clique
    indices and carry sepsets (intersections of endpoint scopes). The tree
    is fixed at construction, when its adjacency map is built. The
    potentials are products of the model factors assigned to each clique
    (family preservation). After :func:`jt_calibrate`, ``beliefs[c]`` is
    proportional to p(x_c, evidence) and ``log_partition`` holds log Z.
    """

    model: Model
    cliques: list[frozenset[str]]
    tree_edges: list[tuple[int, int]]
    sepsets: dict[tuple[int, int], frozenset[str]]
    potentials: list[Factor]
    assignment_of_factor: list[int]
    evidence: dict[str, str] = field(default_factory=dict)
    messages: dict[tuple[int, int], Factor] = field(default_factory=dict)
    message_log_scale: dict[tuple[int, int], float] = field(default_factory=dict)
    beliefs: list[Factor] | None = None
    belief_log_scale: list[float] | None = None
    calibrated: bool = False
    log_partition: float = math.nan
    _adjacency: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacency: dict[int, list[int]] = {}
        for a, b in self.tree_edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        self._adjacency = {i: sorted(nbrs) for i, nbrs in adjacency.items()}

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacency.get(i, ()))

    def clique_for(self, variable: str) -> int:
        """Index of the smallest clique containing the variable (ties by order)."""
        best = None
        for idx, c in enumerate(self.cliques):
            if variable in c and (best is None or len(c) < len(self.cliques[best])):
                best = idx
        if best is None:
            raise ScopeError(f"variable {variable!r} not covered by any clique")
        return best

    def to_dot(self) -> str:
        lines = ["graph junction_tree {"]
        for i, c in enumerate(self.cliques):
            label = ",".join(sorted(c))
            lines.append(f'  clique{i} [shape=ellipse, label="{label}"];')
        for k, (a, b) in enumerate(sorted(self.tree_edges)):
            label = ",".join(sorted(self.sepsets[(a, b)])) or "(empty)"
            lines.append(f'  sepset{k} [shape=box, label="{label}"];')
            lines.append(f"  clique{a} -- sepset{k};")
            lines.append(f"  sepset{k} -- clique{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def family_preservation_holds(jt: JunctionTree) -> bool:
    return all(
        set(f.names) <= jt.cliques[jt.assignment_of_factor[i]]
        for i, f in enumerate(model_factors(jt.model))
    )


def running_intersection_holds(jt: JunctionTree) -> bool:
    """For every variable, the cliques holding it form a connected subtree.

    On a tree this is the running-intersection property: every clique on
    the path between two cliques contains their intersection.
    """
    holding: dict[str, set[int]] = {}
    for k, c in enumerate(jt.cliques):
        for name in c:
            holding.setdefault(name, set()).add(k)
    for members in holding.values():
        start = min(members)
        seen, stack = {start}, [start]
        while stack:
            for w in jt.neighbors(stack.pop()):
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(members):
            return False
    return True


def build_junction_tree(model: Model, heuristic: str = "min_fill") -> JunctionTree:
    """Moralize/skeletonize, chordalize, and assemble a maximum-weight
    clique tree with sepset-cardinality edge weights.

    Kruskal runs on the clique pairs that share a variable. If they leave
    the cliques disconnected, zero-weight edges (empty sepsets) join the
    pieces, in label order, so a spanning tree exists even for
    disconnected models. Each factor is assigned to the lexicographically
    smallest containing clique.
    """
    graph = interaction_graph(model)
    ordering = choose_ordering(model, heuristic).order
    # choose_ordering excludes nothing here, so this is a full permutation
    chordal, elim_cliques = triangulate(graph, ordering)
    cliques = max_cliques(chordal, elim_cliques)
    if not cliques:
        cliques = [frozenset()]
    holding: dict[str, list[int]] = {}
    for k, c in enumerate(cliques):
        for name in c:
            holding.setdefault(name, []).append(k)

    labels = [f"c{i}" for i in range(len(cliques))]
    weights = {}
    for members in holding.values():
        for x, i in enumerate(members):
            for j in members[x + 1:]:
                if (labels[i], labels[j]) not in weights:
                    weights[(labels[i], labels[j])] = len(cliques[i] & cliques[j])
    spanning = max_weight_spanning_tree(UndirectedGraph(labels, weights), weights)
    tree_pairs = list(spanning.tree.edges)
    if not spanning.connected:
        # Every pair across two pieces has an empty sepset. Taken in label
        # order, the first such pairs join the least label to the least
        # label of each other piece.
        first = min(labels)
        tree_pairs += [
            (first, min(piece))
            for piece in spanning.tree.connected_components()
            if first not in piece
        ]
    tree = UndirectedGraph(labels, tree_pairs)
    index = {lab: k for k, lab in enumerate(labels)}
    tree_edges = sorted((index[u], index[v]) for u, v in tree.edges)
    sepsets = {}
    for a, b in tree_edges:
        sepsets[(a, b)] = cliques[a] & cliques[b]
        sepsets[(b, a)] = cliques[a] & cliques[b]

    factors = model_factors(model)
    ranked = sorted(range(len(cliques)), key=lambda k: tuple(sorted(cliques[k])))
    rank = {k: r for r, k in enumerate(ranked)}
    assignment = []
    for f in factors:
        names = set(f.names)
        candidates = holding.get(f.names[0], ()) if f.names else ranked
        home = min((k for k in candidates if names <= cliques[k]), key=rank.get, default=None)
        if home is None:
            raise RuntimeError(
                f"factor over {sorted(names)} fits no clique; chordalization is inconsistent"
            )
        assignment.append(home)

    homed: list[list[Factor]] = [[] for _ in cliques]
    for f, home in zip(factors, assignment):
        homed[home].append(f)
    potentials = []
    for c, assigned in zip(cliques, homed):
        scope = [model.variable(n) for n in sorted(c)]
        pot = fa.product_all([fa.ones_like(scope), *assigned])
        potentials.append(fa.align_to(pot, sorted(c)) if c else pot)

    jt = JunctionTree(model, list(cliques), tree_edges, sepsets, potentials, assignment)
    if not family_preservation_holds(jt) or not running_intersection_holds(jt):
        raise RuntimeError("constructed clique tree violates a junction-tree property")
    return jt


def jt_calibrate(jt: JunctionTree, evidence: Mapping[str, str] | None = None) -> JunctionTree:
    """Shafer-Shenoy calibration: two messages per edge, division-free.

    Beliefs end up proportional to p(x_c, evidence); sums agree across
    cliques once per-message normalizers (tracked in log space) are folded
    back in, and that common value is exp(log_partition).
    """
    evidence = check_evidence(jt.model, evidence or {})
    jt.evidence = dict(evidence)
    nodes = range(len(jt.cliques))
    cal = _calibrate(
        nodes,
        {i: jt.neighbors(i) for i in nodes},
        {i: fa.reduce_factor(p, evidence) for i, p in enumerate(jt.potentials)},
        {edge: sep.difference(evidence) for edge, sep in jt.sepsets.items()},
    )
    jt.messages = cal.messages
    jt.message_log_scale = cal.message_log_scale
    jt.beliefs = [cal.beliefs[i] for i in nodes]
    jt.belief_log_scale = [cal.belief_log_scale[i] for i in nodes]
    jt.calibrated = True
    jt.log_partition = float(jt.belief_log_scale[0] if nodes else 0.0)
    assert len(jt.messages) == 2 * len(jt.tree_edges)
    return jt


def jt_query(jt: JunctionTree, variable: str) -> Factor:
    """Normalized marginal of one variable from a calibrated tree."""
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree before querying")
    var = jt.model.variable(variable)
    if variable in jt.evidence:
        table = np.zeros(var.cardinality)
        table[var.index_of(jt.evidence[variable])] = 1.0
        return Factor([var], table)
    idx = jt.clique_for(variable)
    belief = jt.beliefs[idx]
    marg = fa.eliminate(belief, [n for n in belief.names if n != variable])
    out, _ = fa.normalize(marg)
    return out


def jt_clique_log_partitions(jt: JunctionTree) -> list[float]:
    """Per-clique log of the belief total, message scales folded back in.

    Calibration makes these identical; they equal log_partition.
    """
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree first")
    return list(jt.belief_log_scale)
