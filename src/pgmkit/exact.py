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
from .factors import Factor, Semiring, Variable, MAX_PRODUCT, SUM_PRODUCT
from .graphs import UndirectedGraph, max_cliques, max_weight_spanning_tree, moralize, triangulate
from .models import (
    BayesianNetwork,
    Model,
    check_evidence,
    linear_factors,
    model_factors,
    reduce_to_evidence,
)

HEURISTICS = ("min_neighbors", "min_weight", "min_fill")
# Entries in the largest table variable elimination, max-product decoding
# or a junction tree will build: a 1 GiB budget of float64. An elimination
# step's peak is under three times that (the product, the back-pointers
# and the eliminated result).
TABLE_CAP = 2**27


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

    factors = linear_factors(model_factors(model))
    factors = [fa.reduce_factor(f, evidence) for f in factors]
    factors = [f for f in factors if f.scope or float(f.table) != 1.0]
    rest, log_norm, widest, _ = _bucket_eliminate(factors, ordering, semiring)
    max_scope = max([widest, *(len(f.scope) for f in factors)])

    if rest:
        result = fa.product_all(rest)
    else:
        result = fa.ones_like([model.variable(q) for q in query])
    max_scope = max(max_scope, len(result.scope))
    if query:
        result = fa.align_to(
            fa.product(result, fa.ones_like([model.variable(q) for q in query])),
            sorted(query),
        )
    if semiring.kind == "sum_product":
        table, log_total = _rescaled(result.table)
        result = Factor(result.scope, table, _trusted=True)
        log_norm += log_total
    return VeResult(result, log_norm, max_scope)


def _bucket_eliminate(factors: Sequence[Factor], ordering: Sequence[str],
                      semiring: Semiring):
    """Eliminate the variables of ``ordering``, in that order, from the
    product of ``factors`` under ``semiring``.

    Every factor, given or produced, waits in the bucket of its first
    variable in the ordering, behind those that joined before it. A step
    multiplies its bucket and aggregates the variable out; sum-product
    results are rescaled. The steps are first walked on scopes alone, so
    TooLargeError is raised before any table is built when a product
    would hold more than ``TABLE_CAP`` entries.

    Returns the factors over no eliminated variable, the log of the mass
    pulled out, the scope size of the largest product, and, under
    max-product, each variable's back-pointers: None for an empty bucket,
    else the product's other names and its argmax along the variable's
    axis (the lowest state index on ties).
    """
    position = {var: i for i, var in enumerate(ordering)}
    last = len(ordering)
    buckets: list[list[int]] = [[] for _ in ordering]
    rest: list[int] = []
    scopes = [f.scope for f in factors]

    def place(k: int) -> None:
        first = min([position.get(v.name, last) for v in scopes[k]], default=last)
        (rest if first == last else buckets[first]).append(k)

    for k in range(len(scopes)):
        place(k)
    widest = 0
    for var, bucket in zip(ordering, buckets):
        if bucket:
            union = {v.name: v for k in bucket for v in scopes[k]}
            entries = math.prod(v.cardinality for v in union.values())
            if entries > TABLE_CAP:
                raise TooLargeError(
                    f"variable elimination needs a table of {entries} entries when it "
                    f"eliminates {var!r}, over the cap of {TABLE_CAP}"
                )
            widest = max(widest, len(union))
            del union[var]
            scopes.append(tuple(union.values()))
            place(len(scopes) - 1)

    tables = dict(enumerate(factors))
    key = len(factors)
    log_norm = 0.0
    pointers: dict[str, tuple | None] = {}
    for var, bucket in zip(ordering, buckets):
        if not bucket:
            pointers[var] = None
            continue
        combined = fa.product_all([tables.pop(k) for k in bucket])
        if semiring.kind == "max_product":
            axis = combined.axis(var)
            rest_names = combined.names[:axis] + combined.names[axis + 1:]
            pointers[var] = (rest_names, np.argmax(combined.table, axis=axis))
        tau = fa.eliminate(combined, [var], semiring)
        if semiring.kind == "sum_product":
            table, log_total = _rescaled(tau.table)
            tau = Factor(tau.scope, table, _trusted=True)
            log_norm += log_total
        tables[key] = tau  # the key its scope took in the walk above
        key += 1
    return [tables[k] for k in rest], log_norm, widest, pointers


def _rescaled(table: np.ndarray) -> tuple[np.ndarray, float]:
    """The table scaled to sum to 1, and the log of the total pulled out."""
    total = float(np.sum(table))
    if total <= 0.0:
        raise ZeroEvidenceError("the evidence has probability zero")
    return table / total, math.log(total)


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


class _MessageGraph:
    """Nodes holding base tables, joined by edges that each keep some of
    the sender's variables; the one send step of tree BP, the junction tree
    and loopy BP.

    A message is a plain array over its edge's kept variables, in the
    sender's order. Every edge's broadcast plan is worked out once, here:
    the axes the sender sums out, and the transpose order (None when the
    kept variables already appear in the receiver's order) and shape that
    take the message into the receiver's scope (a receiver's scope holds
    every variable an incoming edge keeps).
    """

    def __init__(self, nodes: Sequence, neighbors: Mapping[object, Sequence],
                 base: Mapping[object, Factor],
                 keep: Mapping[tuple, Iterable[str]]):
        self.nodes = list(nodes)
        self.neighbors = neighbors
        self.scope = {node: f.scope for node, f in base.items()}
        self.base = {node: f.table for node, f in base.items()}
        self.kept, self.summed, self.into = {}, {}, {}
        for edge, names in keep.items():
            names = set(names)
            sender, receiver = self.scope[edge[0]], self.scope[edge[1]]
            self.kept[edge] = tuple(v for v in sender if v.name in names)
            self.summed[edge] = tuple(ax for ax, v in enumerate(sender) if v.name not in names)
            kept_names = [v.name for v in self.kept[edge]]
            order = [kept_names.index(v.name) for v in receiver if v.name in names]
            self.into[edge] = (
                None if order == sorted(order) else tuple(order),
                tuple(v.cardinality if v.name in names else 1 for v in receiver),
            )

    def send(self, messages: Mapping[tuple, np.ndarray], node,
             target=None) -> np.ndarray:
        """The base of ``node`` times every message into it except the one
        from ``target``, summed down to what the edge to ``target`` keeps;
        with no target, the whole product (the node's belief). The table
        is returned unnormalized."""
        out = self.base[node]
        for nb in self.neighbors[node]:
            if nb != target:
                order, shape = self.into[(nb, node)]
                message = messages[(nb, node)]
                if order is not None:
                    message = message.transpose(order)
                out = out * message.reshape(shape)
        # C order fixes the summation order of the reductions that follow
        out = np.ascontiguousarray(out)
        axes = self.summed[(node, target)] if target is not None else ()
        return np.sum(out, axis=axes) if axes else out


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


def _calibrate(graph: _MessageGraph) -> _Calibration:
    """Two-pass sum-product calibration of a forest (Shafer-Shenoy).

    Every message and belief comes from :meth:`_MessageGraph.send` and is
    normalized, and the log of every pulled-out total is carried along, so
    a belief's log scale is the log-partition of its tree. Messages flow
    from the leaves to the roots of :func:`_tree_schedule`, then back out.
    A graph with a cycle raises NotATreeError before any message is sent
    (a clique tree from build_junction_tree never has one).
    """
    nodes, neighbors = graph.nodes, graph.neighbors
    order, parent, root = _tree_schedule(nodes, neighbors)
    n_edges = sum(len(nbrs) for nbrs in neighbors.values()) // 2
    if n_edges != len(nodes) - sum(p is None for p in parent.values()):
        raise NotATreeError(
            "the model's factor graph contains a cycle; use a junction tree"
        )

    messages: dict = {}
    scales: dict = {}

    def combine(node, target=None) -> tuple[np.ndarray, float]:
        scale = 0.0
        for nb in neighbors[node]:
            if nb != target:
                scale += scales[(nb, node)]
        table, log_total = _rescaled(graph.send(messages, node, target))
        return table, scale + log_total

    edges = [(node, parent[node]) for node in reversed(order) if parent[node] is not None]
    edges += [(node, nb) for node in order for nb in neighbors[node] if nb != parent[node]]
    for edge in edges:                # leaves toward the roots, then back out
        messages[edge], scales[edge] = combine(*edge)

    beliefs: dict = {}
    belief_scales: dict = {}
    for node in nodes:
        table, belief_scales[node] = combine(node)
        beliefs[node] = Factor(graph.scope[node], table, _trusted=True)
    messages = {edge: Factor(graph.kept[edge], t, _trusted=True) for edge, t in messages.items()}
    return _Calibration(messages, scales, beliefs, belief_scales, root)


def _factor_graph(model: Model, evidence: Mapping[str, str]
                  ) -> tuple[_MessageGraph, list[Variable], float]:
    """The factor graph of the model reduced to the (checked) evidence.

    Variable nodes ``("v", name)`` come first, in name order, each with a
    base of ones; factor nodes ``("f", i)`` follow, each with its reduced
    factor (linear domain) as base. A factor's neighbours are in its scope
    order, a variable's in factor order, and every edge keeps the
    variable. Returns the graph, the free variables and the log of the
    factors the evidence fixes completely.
    """
    reduced, scalar_log = reduce_to_evidence(model, evidence)
    variables = [v for n, v in sorted(model.variables.items()) if n not in evidence]
    nodes = [("v", v.name) for v in variables] + [("f", i) for i in range(len(reduced))]
    neighbors: dict[tuple, list[tuple]] = {node: [] for node in nodes}
    base: dict[tuple, Factor] = {("v", v.name): fa.ones_like([v]) for v in variables}
    keep: dict[tuple, tuple[str]] = {}
    for i, f in enumerate(linear_factors(reduced)):
        base[("f", i)] = f
        for name in f.names:
            neighbors[("f", i)].append(("v", name))
            neighbors[("v", name)].append(("f", i))
            keep[(("f", i), ("v", name))] = keep[(("v", name), ("f", i))] = (name,)
    return _MessageGraph(nodes, neighbors, base, keep), variables, scalar_log


def tree_bp(model: Model, evidence: Mapping[str, str] | None = None) -> TreeBpResult:
    """Two-phase sum-product message passing on a tree-shaped factor graph.

    Messages are cached in the result, so any marginal (including every
    per-factor joint belief) is read off without recomputation. Evidence
    may split the tree into a forest; each component is handled in the
    same two phases and the component log-partitions add up.
    """
    evidence = check_evidence(model, evidence or {})
    graph, variables, scalar_log = _factor_graph(model, evidence)
    if scalar_log == -math.inf:
        raise ZeroEvidenceError("the evidence has probability zero")
    cal = _calibrate(graph)

    # all beliefs of a tree agree on its log Z up to rounding; each tree
    # reports the one at its last node
    component_log_z: dict[tuple, float] = {}
    for node in graph.nodes:
        component_log_z[cal.root[node]] = cal.belief_log_scale[node]
    log_z = scalar_log + sum(component_log_z.values())
    return TreeBpResult(
        {v.name: cal.beliefs[("v", v.name)] for v in variables},
        [cal.beliefs[node] for node in graph.nodes if node[0] == "f"],
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

    The elimination runs on the same bucket pass as variable elimination,
    under the same ``TABLE_CAP`` budget.
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
    factors = linear_factors(reduce_to_evidence(model, evidence)[0])
    *_, pointers = _bucket_eliminate(factors, names[::-1], MAX_PRODUCT)
    # traceback in name order (reverse of elimination)
    assignment = dict(evidence)
    for var in names:
        states = model.variable(var).states
        if pointers[var] is None:
            assignment[var] = states[0]
            continue
        rest, argmax = pointers[var]
        idx = tuple(model.variable(n).index_of(assignment[n]) for n in rest)
        assignment[var] = states[int(argmax[idx])]
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
    smallest containing clique. A clique of more than ``TABLE_CAP``
    entries raises TooLargeError before any potential is built.
    """
    graph = interaction_graph(model)
    ordering = choose_ordering(model, heuristic).order
    # choose_ordering excludes nothing here, so this is a full permutation
    chordal, elim_cliques = triangulate(graph, ordering)
    cliques = max_cliques(chordal, elim_cliques)
    if not cliques:
        cliques = [frozenset()]
    for c in cliques:
        entries = math.prod(model.variable(n).cardinality for n in c)
        if entries > TABLE_CAP:
            raise TooLargeError(
                f"the junction tree needs a table of {entries} entries for the clique "
                f"{sorted(c)}, over the cap of {TABLE_CAP}"
            )
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

    factors = linear_factors(model_factors(model))
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
    cal = _calibrate(_MessageGraph(
        nodes,
        {i: jt.neighbors(i) for i in nodes},
        {i: fa.reduce_factor(p, evidence) for i, p in enumerate(jt.potentials)},
        {edge: sep.difference(evidence) for edge, sep in jt.sepsets.items()},
    ))
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
