"""Exact inference: variable elimination, belief propagation on factor
trees, and the junction tree algorithm.

All engines receive evidence as a partial assignment and condition on it
up front with ``models.reduce_to_evidence``; the junction tree reduces
each clique's home factors instead. Messages are normalized after every
send, with the pulled-out scale factors accumulated in log space, so
partition values are recovered exactly without underflow.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import (
    EvidenceError,
    IncompatibleVariableError,
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
    log_joint,
    reduce_to_evidence,
    refuse_zero_evidence,
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

    Node ``i`` is the ``i``-th name in sorted order, so ``(cost, i)`` breaks
    ties as ``(cost, name)`` does, and its neighbours are the set bits of
    the Python int ``bits[i]``. With ``b = bits[i]``, min_neighbors costs
    ``b.bit_count()``; min_fill counts the missing neighbour pairs as
    ``sum((b & ~bits[j]).bit_count() - 1 for j in b) // 2`` (each ``j`` is
    in ``b`` but not in ``bits[j]``, and each missing pair counts twice);
    eliminating ``i`` sets ``bits[j] = (bits[j] | b) & ~(1 << j) & ~(1 << i)``
    for each neighbour ``j``.
    """
    names = sorted(adj)
    index = {n: i for i, n in enumerate(names)}
    bits = [sum(1 << index[m] for m in adj[n]) for n in names]
    card = [cards[n] for n in names]

    def members(b: int) -> list[int]:
        out = []
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out

    def cost(i: int) -> int:
        b = bits[i]
        if heuristic == "min_neighbors":
            return b.bit_count()
        if heuristic == "min_weight":
            out = card[i]
            for j in members(b):
                out *= card[j]
            return out
        missing = -b.bit_count()
        rest = b
        while rest:
            low = rest & -rest
            missing += (b & ~bits[low.bit_length() - 1]).bit_count()
            rest ^= low
        return missing // 2

    current: dict[int, int] = {i: cost(i) for i, n in enumerate(names) if n not in targets}
    heap = [(c, i) for i, c in current.items()]
    heapq.heapify(heap)
    order: list[str] = []
    width = 0
    while heap:
        c, best = heapq.heappop(heap)
        if current.get(best) != c:
            continue
        del current[best]
        order.append(names[best])
        b = bits[best]
        bits[best] = 0
        width = max(width, b.bit_count())
        touched = b
        for j in members(b):
            bits[j] = (bits[j] | b) & ~(1 << j) & ~(1 << best)
            if heuristic == "min_fill":
                touched |= bits[j]
        for m in members(touched):
            if m in current:
                c = cost(m)
                if c != current[m]:
                    current[m] = c
                    heapq.heappush(heap, (c, m))
    return order, width


def choose_ordering(model: Model, heuristic: str = "min_fill",
                    query: Iterable[str] = (),
                    evidence: Iterable[str] = ()) -> EliminationOrdering:
    """Greedy elimination ordering over the interaction graph.

    Query and evidence variables are excluded from the ordering (queries
    stay, evidence is removed by factor reduction before elimination).
    """
    return _graph_ordering(model, interaction_graph(model), heuristic, query, evidence)


def _graph_ordering(model: Model, graph: UndirectedGraph, heuristic: str,
                    query: Iterable[str] = (),
                    evidence: Iterable[str] = ()) -> EliminationOrdering:
    """:func:`choose_ordering` on the model's interaction graph, given."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"heuristic must be one of {HEURISTICS}")
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

    With the sum-product semiring the factor is p(query | evidence) and
    ``log_normalizer`` is log p(evidence) for a Bayesian network (log of
    the evidence-reduced partition value for an MRF); zero-probability
    evidence raises ZeroEvidenceError. With max_product the factor times
    exp(``log_normalizer``) is the max-marginal (the max value is
    log(table) + ``log_normalizer``, -inf under zero-probability evidence).
    Other semirings raise ValueError: the elimination multiplies tables.
    """
    if semiring.kind not in ("sum_product", "max_product"):
        raise ValueError(f"variable elimination takes sum_product or max_product, "
                         f"not {semiring.kind}")
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

    mrf, log_offset = reduce_to_evidence(model, evidence)
    if semiring.kind == "sum_product":
        refuse_zero_evidence(log_offset)
    pairs, log_shift = _exp_shifted(mrf.factors, log_offset)
    rest, log_norm, widest, _ = _bucket_eliminate(pairs, ordering, semiring)
    scope = [model.variable(q) for q in sorted(query)]
    table, log_total = _rescaled(fa._product_into(scope, rest), semiring)
    max_scope = max([widest, len(scope), *(len(s) for s, _ in pairs)])
    return VeResult(Factor(scope, table, _trusted=True), log_norm + log_shift + log_total, max_scope)


def _bucket_eliminate(pairs: Sequence[tuple[Sequence[Variable], np.ndarray]],
                      ordering: Sequence[str], semiring: Semiring):
    """Eliminate the variables of ``ordering``, in that order, from the
    product of the (scope, table) ``pairs`` under sum- or max-product.

    Every table, given or produced, waits in the bucket of its first
    variable in the ordering, behind those that joined before it. The
    steps are first walked on scopes alone, recording each product's scope,
    so TooLargeError is raised before any table is built when a product
    would hold more than ``TABLE_CAP`` entries. A step then multiplies its
    bucket into that scope (:func:`factors._product_into`), dropping each
    table as it goes, aggregates the variable out of the product and
    rescales the result by :func:`_rescaled`.

    Returns the (scope, table) pairs over no eliminated variable, the log
    of the scale pulled out, the scope size of the largest product, and,
    under max-product, each variable's back-pointers (none for an empty
    bucket): the product's other names and its argmax along the
    variable's axis (the lowest state index on ties).
    """
    position = {var: i for i, var in enumerate(ordering)}
    last = len(ordering)
    buckets: list[list[int]] = [[] for _ in ordering]
    rest: list[int] = []
    scopes = [scope for scope, _ in pairs]
    products: dict[str, tuple[Variable, ...]] = {}

    def place(k: int) -> None:
        first = min([position.get(v.name, last) for v in scopes[k]], default=last)
        (rest if first == last else buckets[first]).append(k)

    for k in range(len(scopes)):
        place(k)
    for var, bucket in zip(ordering, buckets):
        if bucket:
            union = {v.name: v for k in bucket for v in scopes[k]}
            entries = math.prod(v.cardinality for v in union.values())
            if entries > TABLE_CAP:
                raise TooLargeError(
                    f"variable elimination needs a table of {entries} entries when it "
                    f"eliminates {var!r}, over the cap of {TABLE_CAP}"
                )
            products[var] = tuple(union.values())
            del union[var]
            scopes.append(tuple(union.values()))
            place(len(scopes) - 1)

    tables = {k: table for k, (_, table) in enumerate(pairs)}
    key = len(pairs)
    log_norm = 0.0
    pointers: dict[str, tuple] = {}
    for var, bucket in zip(ordering, buckets):
        if not bucket:
            continue
        combined = fa._product_into(products[var], [(scopes[k], tables.pop(k)) for k in bucket])
        names = [v.name for v in products[var]]
        axis = names.index(var)
        if semiring.kind == "max_product":
            pointers[var] = (names[:axis] + names[axis + 1:], np.argmax(combined, axis=axis))
        tables[key], log_total = _rescaled(semiring.aggregate(combined, axis=axis), semiring)
        log_norm += log_total
        key += 1   # the key the walk above gave the result
    widest = max(map(len, products.values()), default=0)
    return [(scopes[k], tables[k]) for k in rest], log_norm, widest, pointers


def _exp_shifted(factors: Iterable[Factor], log_shift: float = 0.0
                 ) -> tuple[list[tuple[tuple[Variable, ...], np.ndarray]], float]:
    """Each factor as a (scope, table) pair in the linear domain, for the
    engines that multiply tables, and ``log_shift`` plus the log of the
    scale taken out of them; no ``Factor`` is built.

    A log-domain table is exponentiated after subtracting its largest
    finite entry, so scores past exp's range stay finite, and that entry is
    added to the log shift. A linear-domain table passes through as it is.
    Two factors that give one variable different states raise
    IncompatibleVariableError, the refusal of every engine that multiplies
    tables.
    """
    seen: dict[str, Variable] = {}
    pairs = []
    for f in factors:
        for v in f.scope:
            first = seen.setdefault(v.name, v)
            if first is not v and first.states != v.states:
                raise IncompatibleVariableError(
                    f"variable {v.name!r} has states {list(first.states)} in one factor "
                    f"and {list(v.states)} in another"
                )
        table = f.table
        if f.domain == fa.LOG:
            finite = table[np.isfinite(table)]
            shift = float(finite.max()) if finite.size else 0.0
            table = np.exp(table - shift)
            log_shift += shift
        pairs.append((f.scope, table))
    return pairs, log_shift


def _rescaled(table: np.ndarray, semiring: Semiring = SUM_PRODUCT) -> tuple[np.ndarray, float]:
    """The table rescaled, and the log of the scale pulled out: under
    max-product by 2**-e, e the exponent of its largest finite entry
    (exact, so every comparison keeps its outcome), else to sum to 1."""
    if semiring.kind == "max_product":
        top = table.max()
        if not top < math.inf:   # an entry overflowed: take the largest finite one
            top = table[np.isfinite(table)].max(initial=0.0)
        e = math.frexp(top)[1]
        return np.ldexp(table, -e), e * math.log(2.0)
    total = float(np.sum(table))
    if total <= 0.0:
        raise ZeroEvidenceError("the evidence has probability zero")
    return table / total, math.log(total)


# ---------------------------------------------------------------------------
# Two-pass calibration on trees: belief propagation on factor trees here,
# the junction tree below
# ---------------------------------------------------------------------------


@dataclass
class MessageStore:
    """Directed messages keyed by (source, target) node labels.

    Factor nodes are labelled ``("f", index)`` and variable nodes
    ``("v", name)``. Exactly two messages, each a normalized array over its
    edge's variable, traverse every factor-graph edge after a full run.
    """

    messages: dict[tuple, np.ndarray] = field(default_factory=dict)

    @property
    def sends(self) -> int:
        return len(self.messages)


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
    beliefs: dict            # node -> normalized belief
    belief_log_scale: dict   # node -> log of the belief's unnormalized total
    root: dict               # node -> the root of its tree


class _MessageGraph:
    """Nodes, in ``scope`` order, each with a base table unless it would be
    all ones, joined by edges that each keep some of the sender's
    variables; the one send step of tree BP and the junction tree.

    A message is a plain array over its edge's kept variables, in the
    sender's order. An edge's broadcast plan is worked out on the first
    send that reads it, and kept in ``plans``: the axes the sender sums
    out, and the shape that takes the message into the receiver's scope.
    So a collect pass plans only the edges it sends on. A receiver's scope
    holds every variable an incoming edge keeps, in the sender's order, so
    no message needs a transpose: junction-tree scopes are in name order,
    and a factor-graph edge keeps one variable.
    """

    def __init__(self, neighbors: Mapping[object, Sequence],
                 scope: Mapping[object, Sequence[Variable]], base: Mapping[object, np.ndarray],
                 keep: Mapping[tuple, Iterable[str]]):
        self.nodes = list(scope)
        self.neighbors = neighbors
        self.scope = scope
        self.base = base
        self.keep = keep
        self.plans: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _plan(self, edge: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The edge's summed sender axes and its shape in the receiver."""
        names = set(self.keep[edge])
        sender, receiver = self.scope[edge[0]], self.scope[edge[1]]
        plan = self.plans[edge] = (
            tuple(ax for ax, v in enumerate(sender) if v.name not in names),
            tuple(v.cardinality if v.name in names else 1 for v in receiver),
        )
        return plan

    def send(self, messages: Mapping[tuple, np.ndarray], node,
             target=None) -> np.ndarray:
        """The base of ``node`` times every message into it except the one
        from ``target``, summed down to what the edge to ``target`` keeps;
        with no target, the whole product (the node's belief). The table
        is returned unnormalized.

        The first product goes into a fresh array of the node's shape (an
        array even when the scope is empty) and every later message is
        multiplied into it in place, so no base table or message is
        written, and each entry's products run in neighbour order.
        """
        plans = self.plans
        out = base = self.base.get(node)
        for nb in self.neighbors[node]:
            if nb != target:
                edge = (nb, node)
                message = messages[edge].reshape((plans.get(edge) or self._plan(edge))[1])
                if out is not base:
                    np.multiply(out, message, out=out)
                elif base is not None:
                    out = np.multiply(base, message, out=np.empty(base.shape))
                else:               # no base: a copy of the message, as 1 * x = x
                    out = np.empty([v.cardinality for v in self.scope[node]])
                    out[...] = message
        if out is None:     # no base and no message in
            out = np.ones([v.cardinality for v in self.scope[node]])
        # C order fixes the summation order of the reductions that follow
        out = np.ascontiguousarray(out)
        if target is None:
            return out
        edge = (node, target)
        axes = (plans.get(edge) or self._plan(edge))[0]
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


def _calibrate(graph: _MessageGraph, root=None) -> _Calibration:
    """Two-pass sum-product calibration of a forest (Shafer-Shenoy).

    Every message and belief comes from :meth:`_MessageGraph.send` and is
    normalized, and the log of every pulled-out total is carried along, so
    a belief's log scale is the log-partition of its tree. Messages flow
    from the leaves to the roots of :func:`_tree_schedule`, then back out.
    Given a ``root`` node, only collect passes run, one message per edge:
    the root's tree is rooted there, and every other tree at its first
    node. The root's belief is the only one built; each other tree's root
    only has its total taken, so evidence of probability zero in any tree
    raises ZeroEvidenceError, as the two passes do. A message depends only
    on the subtree behind it, so each is bit for bit that of the two
    passes. A graph with a cycle raises NotATreeError before any message
    is sent (a clique tree from build_junction_tree never has one).
    """
    nodes, neighbors = graph.nodes, graph.neighbors
    order, parent, roots = _tree_schedule(nodes if root is None else [root, *nodes], neighbors)
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
    if root is None:
        edges += [(node, nb) for node in order for nb in neighbors[node] if nb != parent[node]]
    for edge in edges:                # leaves toward the roots, then back out
        messages[edge], scales[edge] = combine(*edge)

    beliefs: dict = {}
    belief_scales: dict = {}
    for node in nodes if root is None else [root]:
        table, belief_scales[node] = combine(node)
        beliefs[node] = Factor(graph.scope[node], table, _trusted=True)
    if root is not None:
        for node in order:
            if parent[node] is None and node != root:
                _rescaled(graph.send(messages, node))   # the tree's total: refuses zero mass
    return _Calibration(messages, beliefs, belief_scales, roots)


def _factor_graph(model: Model, evidence: Mapping[str, str]
                  ) -> tuple[_MessageGraph, list[Variable], float]:
    """The factor graph of the model reduced to the (checked) evidence.

    Variable nodes ``("v", name)`` come first, in name order, with no
    base; factor nodes ``("f", i)`` follow, each with its reduced factor,
    made linear by :func:`_exp_shifted`, as base. A factor's
    neighbours are in its scope order, a variable's in factor order, and
    every edge keeps the variable. Returns the graph, the free variables
    and the log of the factors the evidence fixes completely plus the
    shift taken out of the log-domain ones. Evidence of probability zero
    that ``reduce_to_evidence`` shows raises ZeroEvidenceError.
    """
    mrf, log_offset = reduce_to_evidence(model, evidence)
    refuse_zero_evidence(log_offset)
    pairs, scalar_log = _exp_shifted(mrf.factors, log_offset)
    variables = list(mrf.variables.values())
    scope = {("v", v.name): [v] for v in variables} | {("f", i): s for i, (s, _) in enumerate(pairs)}
    neighbors: dict[tuple, list[tuple]] = {node: [] for node in scope}
    keep: dict[tuple, tuple[str]] = {}
    for i, (s, _) in enumerate(pairs):
        for name in (v.name for v in s):
            neighbors[("f", i)].append(("v", name))
            neighbors[("v", name)].append(("f", i))
            keep[(("f", i), ("v", name))] = keep[(("v", name), ("f", i))] = (name,)
    base = {("f", i): table for i, (_, table) in enumerate(pairs)}
    return _MessageGraph(neighbors, scope, base, keep), variables, scalar_log


def tree_bp(model: Model, evidence: Mapping[str, str] | None = None) -> TreeBpResult:
    """Two-phase sum-product message passing on a tree-shaped factor graph.

    Messages are cached in the result, so any marginal (including every
    per-factor joint belief) is read off without recomputation. Evidence
    may split the tree into a forest; each component is handled in the
    same two phases and the component log-partitions add up.
    """
    evidence = check_evidence(model, evidence or {})
    graph, variables, scalar_log = _factor_graph(model, evidence)
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
        MessageStore(cal.messages),
        float(log_z),
    )


def tree_bp_marginal(model: Model, target: str,
                     evidence: Mapping[str, str] | None = None) -> Factor:
    """Normalized p(target | evidence) from collect passes alone.

    Messages flow from the leaves toward the target's variable node, one
    per edge of its tree, and only its belief is built; every other tree
    of the forest collects toward its first node. The answer is
    ``tree_bp(model, evidence).marginal(target)`` bit for bit, and the
    refusals are those of :func:`tree_bp`: NotATreeError for a cycle,
    before any send, and ZeroEvidenceError when any tree has no mass. A
    target that is also evidence raises EvidenceError.
    """
    evidence = check_evidence(model, evidence or {})
    model.variable(target)
    if target in evidence:
        raise EvidenceError(f"query variable {target!r} is also evidence")
    graph, _, _ = _factor_graph(model, evidence)
    root = ("v", target)
    return _calibrate(graph, root=root).beliefs[root]


# ---------------------------------------------------------------------------
# MAP decoding by max-product elimination with back-pointers
# ---------------------------------------------------------------------------


def max_product_decode(model: Model, evidence: Mapping[str, str] | None = None):
    """MAP assignment and its log score.

    Runs max-product elimination in reverse name order, keeping a
    back-pointer table per eliminated variable; the traceback then fixes
    variables in name order, breaking every tie toward the lowest state
    index. The result is exactly the lexicographically-first argmax, which
    matches the enumeration oracle's tie-breaking.

    The elimination runs on the same bucket pass as variable elimination,
    under the same ``TABLE_CAP`` budget; each step's table is scaled by a
    power of two, so long models stay in float range and every comparison
    keeps its outcome.
    """
    evidence = check_evidence(model, evidence or {})
    mrf, _ = reduce_to_evidence(model, evidence)
    names = list(mrf.variables)
    pairs, _ = _exp_shifted(mrf.factors)
    *_, pointers = _bucket_eliminate(pairs, names[::-1], MAX_PRODUCT)
    # traceback in name order (reverse of elimination)
    assignment = dict(evidence)
    for var in names:
        states = model.variable(var).states
        if var not in pointers:
            assignment[var] = states[0]
            continue
        rest, argmax = pointers[var]
        idx = tuple(model.variable(n).index_of(assignment[n]) for n in rest)
        assignment[var] = states[int(argmax[idx])]
    score = log_joint(model, assignment)
    if score == -math.inf:
        # the evidence has probability zero, so every assignment ties at
        # -inf; the lexicographically-first one has every state index 0
        for var in names:
            assignment[var] = model.variable(var).states[0]
    return assignment, score


# ---------------------------------------------------------------------------
# Junction tree
# ---------------------------------------------------------------------------


@dataclass
class JunctionTree:
    """A clique tree: a structure built once, with tables built per evidence.

    Cliques are frozensets of variable names; ``tree_edges`` connect clique
    indices and carry sepsets (intersections of endpoint scopes), and
    ``assignment_of_factor`` gives each model factor, in model order, its
    home clique (family preservation). That structure is fixed at
    construction, when the adjacency map is built, and holds no table.
    Calibration and queries build the tables for their evidence: each
    clique's home factors are reduced to the evidence first, then
    multiplied over the clique's free variables, so no table ever spans an
    observed variable. ``potentials`` is a read-only view, built on each
    access, of the full products. After :func:`jt_calibrate`,
    ``beliefs[c]`` is proportional to p(x_c, evidence) and
    ``log_partition`` holds log Z.
    """

    model: Model
    cliques: list[frozenset[str]]
    tree_edges: list[tuple[int, int]]
    sepsets: dict[tuple[int, int], frozenset[str]]
    assignment_of_factor: list[int]
    evidence: dict[str, str] = field(default_factory=dict)
    messages: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
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

    @property
    def potentials(self) -> list[Factor]:
        """Each clique's potential over its variables in name order: its
        home factors, in model order and in the linear domain, multiplied
        into ones by :func:`factors._product_into`. Built anew on each
        access and read by no engine; the tables they calibrate on are
        these potentials sliced at the evidence, bit for bit."""
        homed = self._homed((f.scope, f.to_linear().table) for f in self.model.factors)
        scopes = [[self.model.variable(n) for n in sorted(c)] for c in self.cliques]
        return [Factor(s, fa._product_into(s, pairs), _trusted=True)
                for s, pairs in zip(scopes, homed)]

    def _homed(self, pairs: Iterable[tuple]) -> list[list[tuple]]:
        """The model's factors as (scope, table) pairs, in model order
        (each possibly reduced or made linear), grouped by their home
        clique."""
        homed: list[list[tuple]] = [[] for _ in self.cliques]
        for pair, home in zip(pairs, self.assignment_of_factor):
            homed[home].append(pair)
        return homed

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
        for i, f in enumerate(jt.model.factors)
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
    smallest containing clique. Only the structure is built: no table is
    multiplied here, and the tree serves any evidence and any model with
    the same variables and factor scopes. A clique of more than
    ``TABLE_CAP`` entries raises TooLargeError here, whatever evidence
    would later shrink it.
    """
    graph = interaction_graph(model)
    ordering = _graph_ordering(model, graph, heuristic).order
    # nothing is excluded here, so this is a full permutation
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

    ranked = sorted(range(len(cliques)), key=lambda k: tuple(sorted(cliques[k])))
    rank = {k: r for r, k in enumerate(ranked)}
    assignment = []
    for f in model.factors:
        names = set(f.names)
        candidates = holding.get(f.names[0], ()) if f.names else ranked
        home = min((k for k in candidates if names <= cliques[k]), key=rank.get, default=None)
        if home is None:
            raise RuntimeError(
                f"factor over {sorted(names)} fits no clique; chordalization is inconsistent"
            )
        assignment.append(home)

    jt = JunctionTree(model, list(cliques), tree_edges, sepsets, assignment)
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
    graph, log_shift = _clique_graph(jt, evidence)
    cal = _calibrate(graph)
    jt.messages = cal.messages
    jt.beliefs = [cal.beliefs[i] for i in nodes]
    jt.belief_log_scale = [cal.belief_log_scale[i] + log_shift for i in nodes]
    jt.calibrated = True
    jt.log_partition = float(jt.belief_log_scale[0] if nodes else 0.0)
    assert len(jt.messages) == 2 * len(jt.tree_edges)
    return jt


def _clique_graph(jt: JunctionTree, evidence: Mapping[str, str]
                  ) -> tuple[_MessageGraph, float]:
    """The clique tree with its tables for the (checked) evidence.

    Every model factor is reduced to the evidence and made a linear
    (scope, table) pair by :func:`_exp_shifted` before any product is
    taken. Each clique's table, over its unobserved variables in name
    order, is its home pairs multiplied in model order by
    :func:`factors._product_into`, as the clique's potential is: every
    entry is bit for bit that of the potential sliced at the evidence, and
    no table spans an observed variable. A clique with no home factor has
    no table. Returns the graph and the log of the scale the shift took out.
    """
    pairs, log_shift = _exp_shifted(fa.reduce_factor(f, evidence) for f in jt.model.factors)
    scope, base = {}, {}
    for i, (clique, homed) in enumerate(zip(jt.cliques, jt._homed(pairs))):
        scope[i] = [jt.model.variable(n) for n in sorted(clique.difference(evidence))]
        if homed:   # every home factor's scope lies in the clique
            base[i] = fa._product_into(scope[i], homed)
    neighbors = {i: jt.neighbors(i) for i in scope}
    keep = {edge: sep.difference(evidence) for edge, sep in jt.sepsets.items()}
    return _MessageGraph(neighbors, scope, base, keep), log_shift


def jt_query(jt: JunctionTree, variable: str) -> Factor:
    """Normalized marginal of one variable from a calibrated tree."""
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree before querying")
    var = jt.model.variable(variable)
    return _marginal(jt.beliefs[jt.clique_for(variable)], var, jt.evidence)


def jt_marginal(jt: JunctionTree, variable: str,
                evidence: Mapping[str, str] | None = None) -> Factor:
    """Normalized p(variable | evidence) from the collect pass alone.

    Messages flow from the leaves toward the smallest clique holding the
    variable, one per tree edge, and only that clique's belief is built;
    the tree itself is left as it was. The answer is that of
    :func:`jt_query` after :func:`jt_calibrate`, to rounding, and
    zero-probability evidence raises ZeroEvidenceError as there.
    """
    evidence = check_evidence(jt.model, evidence or {})
    var = jt.model.variable(variable)
    idx = jt.clique_for(variable)
    cal = _calibrate(_clique_graph(jt, evidence)[0], root=idx)
    return _marginal(cal.beliefs[idx], var, evidence)


def _marginal(belief: Factor, var: Variable, evidence: Mapping[str, str]) -> Factor:
    """The variable's normalized marginal from a clique belief; one-hot
    when the variable is evidence."""
    if var.name in evidence:
        table = np.zeros(var.cardinality)
        table[var.index_of(evidence[var.name])] = 1.0
        return Factor([var], table)
    marg = fa.eliminate(belief, [n for n in belief.names if n != var.name])
    out, _ = fa.normalize(marg)
    return out


def jt_clique_log_partitions(jt: JunctionTree) -> list[float]:
    """Per-clique log of the belief total, message scales folded back in.

    Calibration makes these identical; they equal log_partition.
    """
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree first")
    return list(jt.belief_log_scale)
