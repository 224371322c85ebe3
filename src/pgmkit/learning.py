"""Parameter and structure learning: closed-form MLE and conjugate updates
for Bayesian networks, structure scores and searches (Chow-Liu, greedy
DAG hill-climbing, constraint-based PC with Meek orientation rules),
gradient training for MRFs and chain CRFs, and EM for Gaussian mixtures.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import factors as fa
from .errors import InsufficientDataError, ScopeError
from .exact import JunctionTree, build_junction_tree, jt_calibrate
from .factors import Factor, Variable
from .graphs import (
    DirectedGraph,
    UndirectedGraph,
    MecSignature,
    d_separated,
    max_weight_spanning_tree,
    mec_signature,
)
from .models import BayesianNetwork, ChainCRF, MarkovRandomField
from .sampling import _site_logits, _site_plans, batch_log_unnormalized


# ---------------------------------------------------------------------------
# Datasets and counts
# ---------------------------------------------------------------------------


COUNT_CACHE_ENTRIES = 1 << 22
"""Table entries a dataset keeps cached (32 MiB of float64); tables past
this total are still counted, just not kept."""


@dataclass
class Dataset:
    """Complete discrete observations: one state index per variable per row.

    ``rows`` has one column per variable, in the order the variables are
    given; the dataset keeps both sorted by name. The rows are copied into
    a read-only, column-contiguous int64 block, so neither the caller's
    array nor a later write can change what the dataset counts. The
    dataset also caches the count tables it has been asked for (see
    ``counts``).
    """

    variables: tuple[Variable, ...]
    rows: np.ndarray

    def __post_init__(self):
        variables = tuple(self.variables)
        rows = np.array(self.rows, dtype=np.int64, order="F")
        if rows.ndim != 2 or rows.shape[1] != len(variables):
            raise ValueError("rows must be (N, #variables)")
        order = sorted(range(len(variables)), key=lambda k: variables[k].name)
        if order != list(range(len(order))):
            rows = np.asfortranarray(rows[:, order])
        self.variables = tuple(variables[k] for k in order)
        self._names = tuple(v.name for v in self.variables)
        self._index = {name: k for k, name in enumerate(self._names)}
        self._cards = tuple(v.cardinality for v in self.variables)
        if rows.size:
            bad = (rows.min(axis=0) < 0) | (rows.max(axis=0) >= self._cards)
            if bad.any():
                name = self._names[int(np.argmax(bad))]
                raise ValueError(f"state index out of range for {name!r}")
        rows.flags.writeable = False
        self.rows = rows
        self._tables: dict[tuple[int, ...], np.ndarray] = {}
        self._cached_entries = 0

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def index(self, name: str) -> int:
        """The column of a variable."""
        try:
            return self._index[name]
        except KeyError:
            raise ScopeError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.index(name)]

    @staticmethod
    def from_batch(batch) -> "Dataset":
        return Dataset(tuple(batch.variables), batch.states)


@dataclass
class CountTable:
    scope: tuple[Variable, ...]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def counts(dataset: Dataset, scope: Sequence[str]) -> CountTable:
    """Exact joint counts over the given variables, in the given order.

    Each row's cell is coded as ``code * card + state`` over the dataset's
    columns and counted with one ``bincount`` per scope *set*: the dataset
    caches that table (up to ``COUNT_CACHE_ENTRIES`` entries in all), and
    every order of the same set is answered from it. The returned table is
    always a fresh copy, so writing into it never changes the cache.
    """
    idx = [dataset.index(name) for name in scope]
    if not idx:
        return CountTable((), np.array(float(dataset.n)))
    key = tuple(sorted(idx))
    table = dataset._tables.get(key)
    if table is None:
        table = _count_table(dataset, key)
        if dataset._cached_entries + table.size <= COUNT_CACHE_ENTRIES:
            dataset._tables[key] = table
            dataset._cached_entries += table.size
    # axis j of the answer is the sorted key's position of scope entry j
    order = sorted(range(len(idx)), key=idx.__getitem__)
    axes = [0] * len(idx)
    for position, j in enumerate(order):
        axes[j] = position
    return CountTable(tuple(dataset.variables[k] for k in idx),
                      np.transpose(table, axes).copy())


def _count_table(dataset: Dataset, columns: tuple[int, ...]) -> np.ndarray:
    """The read-only count table over the given columns, in that order."""
    rows, cards = dataset.rows, dataset._cards
    code = rows[:, columns[0]]
    for k in columns[1:]:
        code = code * cards[k] + rows[:, k]
    shape = tuple(cards[k] for k in columns)
    table = np.bincount(code, minlength=math.prod(shape)).astype(float)
    table = table.reshape(shape)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Parameter estimation
# ---------------------------------------------------------------------------


def mle_bn(structure: DirectedGraph, dataset: Dataset,
           pseudocount: float = 0.0) -> BayesianNetwork:
    """Closed-form (smoothed) maximum likelihood CPTs.

    Each entry is (count + pseudocount) / (parent count + pseudocount *
    child cardinality). With pseudocount 0 an unseen parent configuration
    gets a uniform row and a warning.
    """
    if pseudocount < 0:
        raise ValueError("pseudocount must be nonnegative")
    structure.validate_dag()
    variables = [dataset.variable(n) for n in structure.nodes]
    cpds = {}
    for name in structure.nodes:
        child = dataset.variable(name)
        parents = [dataset.variable(p) for p in structure.parents(name)]
        table = counts(dataset, [p.name for p in parents] + [name]).counts
        table = table.reshape(-1, child.cardinality) + pseudocount
        row_sums = table.sum(axis=1, keepdims=True)
        empty = row_sums[:, 0] == 0.0
        if np.any(empty):
            warnings.warn(
                f"unseen parent configurations for {name!r}; using uniform rows",
                stacklevel=2,
            )
            table[empty] = 1.0
            row_sums = table.sum(axis=1, keepdims=True)
        table = table / row_sums
        shape = tuple(p.cardinality for p in parents) + (child.cardinality,)
        table = np.moveaxis(table.reshape(shape), -1, 0)
        cpds[name] = Factor([child, *parents], table)
    return BayesianNetwork(variables, structure, cpds)


@dataclass(frozen=True)
class DirichletParams:
    """Concentration parameters; two entries is the Beta special case."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        if any(a <= 0 for a in self.alpha):
            raise ValueError("concentrations must be positive")

    @property
    def mean(self) -> np.ndarray:
        a = np.asarray(self.alpha)
        return a / a.sum()


def dirichlet_posterior(prior: DirichletParams, observed: CountTable | np.ndarray
                        ) -> DirichletParams:
    """Conjugate update: add the counts to the concentrations."""
    values = observed.counts if isinstance(observed, CountTable) else np.asarray(observed)
    values = values.reshape(-1)
    if len(values) != len(prior.alpha):
        raise ValueError(
            f"counts of length {len(values)} do not match {len(prior.alpha)} concentrations"
        )
    return DirichletParams(tuple(float(a + c) for a, c in zip(prior.alpha, values)))


# ---------------------------------------------------------------------------
# Structure scores
# ---------------------------------------------------------------------------

SCORE_KINDS = ("loglik", "aic", "bic", "bd")


def _family_loglik(dataset: Dataset, child: str, parents: tuple[str, ...]) -> float:
    table = counts(dataset, list(parents) + [child]).counts
    card = dataset.variable(child).cardinality
    table = table.reshape(-1, card)
    row_sums = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_theta = np.where(table > 0, np.log(table / np.where(row_sums == 0, 1, row_sums)), 0.0)
    return float(np.sum(table * log_theta))


def _family_bd(dataset: Dataset, child: str, parents: tuple[str, ...],
               prior_count: float) -> float:
    from scipy.special import gammaln
    table = counts(dataset, list(parents) + [child]).counts
    card = dataset.variable(child).cardinality
    table = table.reshape(-1, card)
    a = prior_count
    out = 0.0
    for row in table:
        out += gammaln(card * a) - gammaln(card * a + row.sum())
        out += float(np.sum(gammaln(a + row) - gammaln(a)))
    return out


def _family_dim(dataset: Dataset, child: str, parents: tuple[str, ...]) -> int:
    card = dataset.variable(child).cardinality
    rows = math.prod(dataset.variable(p).cardinality for p in parents)
    return (card - 1) * rows


def score(structure: DirectedGraph, dataset: Dataset, kind: str = "bic",
          bd_prior_count: float = 1.0,
          _cache: dict | None = None) -> float:
    """Decomposable structure scores at the MLE parameters.

    loglik is the plain fit; aic subtracts the parameter count; bic
    subtracts (log N / 2) per parameter; bd is the marginal-likelihood
    score with uniform per-cell prior counts.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"score kind must be one of {SCORE_KINDS}")
    if dataset.n == 0:
        raise InsufficientDataError("cannot score an empty dataset")
    structure.validate_dag()
    cache = {} if _cache is None else _cache
    total = 0.0
    for name in structure.nodes:
        parents = tuple(structure.parents(name))
        total += _family_score(dataset, kind, name, parents, bd_prior_count, cache)
    return total


# ---------------------------------------------------------------------------
# Chow-Liu trees
# ---------------------------------------------------------------------------


def empirical_mutual_information(dataset: Dataset, x: str, u: str) -> float:
    """MI of the empirical joint; zero cells contribute nothing."""
    if dataset.n == 0:
        raise InsufficientDataError("empty dataset")
    joint = counts(dataset, [x, u]).counts / dataset.n
    px = joint.sum(axis=1, keepdims=True)
    pu = joint.sum(axis=0, keepdims=True)
    if np.count_nonzero(px) <= 1 or np.count_nonzero(pu) <= 1:
        warnings.warn(f"constant variable in pair ({x!r}, {u!r}); MI set to 0",
                      stacklevel=2)
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (px * pu), 1.0)
        return float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))


def chow_liu(dataset: Dataset, root: str | None = None) -> BayesianNetwork:
    """Maximum-likelihood directed tree.

    Pairwise empirical mutual information weights a complete graph; its
    maximum-weight spanning tree, oriented away from the root, carries the
    MLE conditional tables.
    """
    names = list(dataset.names)
    if len(names) < 2:
        raise ValueError("need at least two variables")
    root = names[0] if root is None else root
    if root not in names:
        raise ScopeError(f"unknown root {root!r}")
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    weights = {
        (a, b): empirical_mutual_information(dataset, a, b) for a, b in pairs
    }
    complete = UndirectedGraph(names, pairs)
    tree = max_weight_spanning_tree(complete, weights).tree
    edges = []
    seen, frontier = {root}, [root]
    while frontier:
        node = frontier.pop(0)
        for nb in tree.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                edges.append((node, nb))
                frontier.append(nb)
    structure = DirectedGraph(names, edges)
    return mle_bn(structure, dataset)


# ---------------------------------------------------------------------------
# Greedy DAG search
# ---------------------------------------------------------------------------


@dataclass
class HillClimbResult:
    graph: DirectedGraph
    score: float
    restarts: int
    moves: int


def _legal_moves(g: DirectedGraph, max_indegree: int | None):
    nodes = g.nodes
    edge_set = set(g.edges)
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            if (u, v) in edge_set:
                yield ("delete", u, v)
                if max_indegree is None or len(g.parents(u)) < max_indegree:
                    yield ("reverse", u, v)
            elif (v, u) not in edge_set:
                if max_indegree is None or len(g.parents(v)) < max_indegree:
                    yield ("add", u, v)


def _apply_move(g: DirectedGraph, move) -> DirectedGraph:
    kind, u, v = move
    if kind == "add":
        return g.with_edge(u, v)
    if kind == "delete":
        return g.without_edge(u, v)
    return g.reversed_edge(u, v)


def hill_climb(dataset: Dataset, score_kind: str = "bic", restarts: int = 1,
               max_indegree: int | None = None,
               rng: np.random.Generator | None = None,
               max_moves: int = 1000) -> HillClimbResult:
    """Greedy DAG search with add/delete/reverse moves.

    The first run starts from the empty graph; further restarts start from
    random DAGs. Family scores are cached, so only touched families are
    rescored per move. Returns the best-scoring graph over all restarts.
    ``restarts`` must be at least 1, and ``max_indegree``, when given,
    must not be negative.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_indegree is not None and max_indegree < 0:
        raise ValueError("max_indegree must not be negative")
    names = list(dataset.names)
    cache: dict = {}
    best_graph, best_score = None, -math.inf
    total_moves = 0
    for restart in range(restarts):
        if restart == 0:
            g = DirectedGraph(names)
        else:
            if rng is None:
                rng = np.random.default_rng(restart)
            perm = list(rng.permutation(names))
            edges = [
                (perm[i], perm[j])
                for i in range(len(names))
                for j in range(i + 1, len(names))
                if rng.random() < 0.3
            ]
            g = DirectedGraph(names, edges)
            if max_indegree is not None:
                for v in g.nodes:
                    ps = list(g.parents(v))
                    while len(ps) > max_indegree:
                        g = g.without_edge(ps.pop(), v)
        current = score(g, dataset, score_kind, _cache=cache)
        for _ in range(max_moves):
            best_move, best_gain = None, 1e-12
            parents = {n: g.parents(n) for n in g.nodes}
            reach = {n: g.descendants(n) for n in g.nodes}
            for move in _legal_moves(g, max_indegree):
                if _makes_cycle(g, move, reach):
                    continue
                gain = _move_gain(parents, move, dataset, score_kind, cache)
                if gain > best_gain or (
                    best_move is not None and gain == best_gain and move < best_move
                ):
                    best_move, best_gain = move, gain
            if best_move is None:
                break
            g = _apply_move(g, best_move)
            current += best_gain
            total_moves += 1
        if current > best_score:
            best_graph, best_score = g, current
    return HillClimbResult(best_graph, best_score, restarts, total_moves)


def _makes_cycle(g: DirectedGraph, move, reach: dict[str, set[str]]) -> bool:
    """Whether a move on the DAG g closes a cycle; ``reach`` maps each node
    to its descendants in g. A delete never does; adding u->v does iff v
    reaches u; reversing u->v does iff u reaches v without that edge."""
    kind, u, v = move
    if kind == "add":
        return u in reach[v]
    if kind == "reverse":
        return any(v in reach[c] for c in g.children(u) if c != v)
    return False


def _move_gain(parents, move, dataset, kind, cache) -> float:
    """The score change of a move, from the current parent tuples alone."""
    move_kind, u, v = move
    touched = {v} if move_kind in ("add", "delete") else {u, v}
    gain = 0.0
    for node in touched:
        gain += _family_score(dataset, kind, node, _moved_parents(parents, move, node),
                              1.0, cache)
        gain -= _family_score(dataset, kind, node, parents[node], 1.0, cache)
    return gain


def _moved_parents(parents, move, node) -> tuple[str, ...]:
    """node's parents after the move, sorted as DirectedGraph.parents sorts."""
    kind, u, v = move
    if node == v and kind != "add":
        return tuple(p for p in parents[v] if p != u)
    return tuple(sorted(parents[node] + ((u,) if kind == "add" else (v,))))


def _family_score(dataset, kind, child, parents, prior_count, cache) -> float:
    key = (kind, child, parents, prior_count)
    if key not in cache:
        if kind == "bd":
            value = _family_bd(dataset, child, parents, prior_count)
        else:
            value = _family_loglik(dataset, child, parents)
            dim = _family_dim(dataset, child, parents)
            if kind == "aic":
                value -= dim
            elif kind == "bic":
                value -= math.log(dataset.n) / 2 * dim
        cache[key] = value
    return cache[key]


# ---------------------------------------------------------------------------
# Conditional independence tests and the PC algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CiResult:
    independent: bool
    statistic: float
    p_value: float
    dof: int


def ci_test(source, x: str, y: str, z: Iterable[str] = (),
            alpha: float = 0.05) -> CiResult:
    """Conditional independence of x and y given z.

    With a DirectedGraph source this is the d-separation oracle (exact
    under the Markov and faithfulness conditions). With a Dataset source
    it is the G-test: twice the observed-vs-expected log-likelihood ratio
    summed over the strata of z, against a chi-squared reference with
    (|x|-1)(|y|-1) * prod |z| degrees of freedom. Every stratum's margins,
    expected counts and terms are computed at once from the (z, x, y)
    count table; empty strata add nothing. ``alpha`` must lie in (0, 1).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    from scipy.special import chdtrc
    z = sorted(set(z))
    if x == y or x in z or y in z:
        raise ValueError("x, y, z must be distinct")
    if isinstance(source, DirectedGraph):
        independent = d_separated(source, {x}, {y}, set(z))
        return CiResult(independent, math.inf if not independent else 0.0,
                        0.0 if not independent else 1.0, 0)
    dataset: Dataset = source
    cx = dataset.variable(x).cardinality
    cy = dataset.variable(y).cardinality
    cz = math.prod(dataset.variable(n).cardinality for n in z)
    dof = (cx - 1) * (cy - 1) * cz
    if dof <= 0:
        warnings.warn("degenerate degrees of freedom; treating as independent",
                      stacklevel=2)
        return CiResult(True, 0.0, 1.0, 0)
    table = counts(dataset, z + [x, y]).counts.reshape(cz, cx, cy)
    totals = table.sum(axis=(1, 2))
    rows = table.sum(axis=2, keepdims=True)
    cols = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows * cols / totals[:, None, None]
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    # Per-stratum sums, added one stratum at a time in stratum order: the
    # same reductions and the same additions as a loop over the strata.
    g_stat = 0.0
    for part in terms.reshape(cz, -1).sum(axis=1)[totals > 0].tolist():
        g_stat += 2.0 * part
    p_value = float(chdtrc(dof, g_stat))  # the chi-squared survival function
    return CiResult(p_value >= alpha, g_stat, p_value, dof)


@dataclass
class Cpdag:
    """Partially directed output of constraint-based search."""

    nodes: tuple[str, ...]
    undirected: set[frozenset[str]]
    directed: set[tuple[str, str]]
    separating_sets: dict[frozenset[str], tuple[str, ...]] = field(default_factory=dict)
    conflicts: list[tuple[str, str, str]] = field(default_factory=list)

    def adjacent(self, u: str, v: str) -> bool:
        return (
            frozenset((u, v)) in self.undirected
            or (u, v) in self.directed
            or (v, u) in self.directed
        )

    def neighbors(self, v: str) -> set[str]:
        return {u for u in self.nodes if u != v and self.adjacent(u, v)}

    def skeleton(self) -> UndirectedGraph:
        edges = [tuple(sorted(e)) for e in self.undirected]
        edges += [tuple(sorted(e)) for e in self.directed]
        return UndirectedGraph(self.nodes, edges)

    def to_mec_signature(self) -> MecSignature:
        vs = set()
        for (a, c) in self.directed:
            for (b, c2) in self.directed:
                if c2 == c and a < b and not self.adjacent(a, b):
                    vs.add((a, c, b))
        return MecSignature(self.skeleton(), frozenset(vs))

    def to_dot(self) -> str:
        lines = ["digraph cpdag {"]
        for n in self.nodes:
            lines.append(f'  "{n}";')
        for a, b in sorted(self.directed):
            lines.append(f'  "{a}" -> "{b}";')
        for e in sorted(self.undirected, key=sorted):
            a, b = sorted(e)
            lines.append(f'  "{a}" -> "{b}" [dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _meek_closure(cpdag: Cpdag) -> None:
    """Orient edges by Meek's rules R1-R4 until none applies.

    One edge is oriented at a time: the first undirected edge, in sorted
    order and lower name first, that a rule orients. The search then
    starts over. On a pattern that no DAG extends, the rules can disagree,
    and this order fixes which orientation the output keeps.
    """
    directed, undirected, adjacent = cpdag.directed, cpdag.undirected, cpdag.adjacent

    def fires(x, y):
        """Whether a rule orients the undirected edge x - y as x -> y."""
        others = [z for z in cpdag.nodes if z not in (x, y)]
        links = [z for z in others if frozenset((x, z)) in undirected]
        return (
            # R1: z -> x - y, z and y nonadjacent
            any((z, x) in directed and not adjacent(z, y) for z in others)
            # R2: x -> z -> y
            or any((x, z) in directed and (z, y) in directed for z in others)
            # R3: x - z1 -> y, x - z2 -> y, z1 and z2 nonadjacent
            or any(not adjacent(z1, z2) for z1, z2 in itertools.combinations(
                [z for z in links if (z, y) in directed], 2))
            # R4: x - z -> w -> y, z and y nonadjacent, x and w adjacent
            or any((z, w) in directed and (w, y) in directed
                   and not adjacent(z, y) and adjacent(x, w)
                   for z in links for w in others if w != z)
        )

    while True:
        ordered = [sorted(e) for e in sorted(undirected, key=sorted)]
        edge = next(((x, y) for a, b in ordered for x, y in ((a, b), (b, a))
                     if fires(x, y)), None)
        if edge is None:
            return
        undirected.discard(frozenset(edge))
        directed.add(edge)


def pc(source, variables: Sequence[str] | None = None, alpha: float = 0.05,
       max_cond_size: int | None = None) -> Cpdag:
    """The constraint-based PC algorithm.

    Phase 1 prunes the complete graph with independence tests over
    conditioning sets of growing size drawn from current neighborhoods,
    recording separating sets. Phase 2 orients unshielded triples a - c - b
    as v-structures when c is outside the recorded separating set. Phase 3
    closes under the Meek rules. Conflicting v-structure orientations are
    recorded and the edges left undirected. ``alpha`` must lie in (0, 1)
    and ``max_cond_size``, when given, must not be negative.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if max_cond_size is not None and max_cond_size < 0:
        raise ValueError("max_cond_size must not be negative")
    if variables is None:
        if isinstance(source, DirectedGraph):
            variables = source.nodes
        else:
            variables = source.names
    names = sorted(variables)
    cpdag = Cpdag(
        tuple(names),
        {frozenset((a, b)) for i, a in enumerate(names) for b in names[i + 1:]},
        set(),
    )

    level = 0
    limit = len(names) - 2 if max_cond_size is None else max_cond_size
    while level <= limit:
        any_big_enough = False
        for e in sorted(cpdag.undirected, key=sorted):
            a, b = sorted(e)
            for x, y in ((a, b), (b, a)):
                candidates = sorted(cpdag.neighbors(x) - {y})
                if len(candidates) < level:
                    continue
                any_big_enough = True
                sep = next((subset for subset in itertools.combinations(candidates, level)
                            if ci_test(source, x, y, subset, alpha).independent), None)
                if sep is not None:
                    cpdag.undirected.discard(e)
                    cpdag.separating_sets[e] = sep
                    break
        if not any_big_enough:
            break
        level += 1

    # v-structure orientation
    proposals: dict[tuple[str, str], int] = {}
    for c in names:
        nbrs = sorted(cpdag.neighbors(c))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if cpdag.adjacent(a, b):
                    continue
                sep = cpdag.separating_sets.get(frozenset((a, b)))
                if sep is None or c in sep:
                    continue
                for parent in (a, b):
                    if frozenset((parent, c)) in cpdag.undirected:
                        proposals[(parent, c)] = proposals.get((parent, c), 0) + 1
    for (parent, c) in sorted(proposals):
        if (c, parent) in proposals and (parent, c) < (c, parent):
            cpdag.conflicts.append((parent, c, "both orientations demanded"))
            continue
        if (c, parent) in proposals:
            continue
        cpdag.undirected.discard(frozenset((parent, c)))
        cpdag.directed.add((parent, c))

    _meek_closure(cpdag)
    return cpdag


def cpdag_of_dag(dag: DirectedGraph) -> Cpdag:
    """The CPDAG of a DAG's Markov equivalence class (for comparisons)."""
    sig = mec_signature(dag)
    cpdag = Cpdag(
        dag.nodes,
        {frozenset(e) for e in sig.skeleton.edges},
        set(),
    )
    for a, c, b in sig.v_structures:
        for parent in (a, b):
            cpdag.undirected.discard(frozenset((parent, c)))
            cpdag.directed.add((parent, c))
    _meek_closure(cpdag)
    return cpdag


# ---------------------------------------------------------------------------
# MRF fitting (moment matching) and pseudo-likelihood
# ---------------------------------------------------------------------------


@dataclass
class MrfFitResult:
    mrf: MarkovRandomField
    theta: list[np.ndarray]             # log-potential table per factor
    moment_mismatch: float
    loglik_trace: list[float]
    iterations: int


def _empirical_factor_moments(mrf: MarkovRandomField, dataset: Dataset
                              ) -> list[np.ndarray]:
    out = []
    for f in mrf.factors:
        table = counts(dataset, list(f.names)).counts / dataset.n
        out.append(table)
    return out


def _model_factor_moments(jt: JunctionTree) -> tuple[list[np.ndarray], float]:
    """Per-factor marginals of the tree's MRF, and its log Z."""
    jt = jt_calibrate(jt)
    out = []
    for f, home in zip(jt.model.factors, jt.assignment_of_factor):
        belief = jt.beliefs[home]
        marg = fa.eliminate(belief, [n for n in belief.names if n not in f.names])
        marg, _ = fa.normalize(marg)
        out.append(fa.align_to(marg, f.names).table)
    return out, jt.log_partition


def fit_mrf(structure: MarkovRandomField, dataset: Dataset,
            learning_rate: float | Callable[[int], float] = 2.0,
            iters: int = 300, l2: float = 1e-4,
            tol: float = 1e-6) -> MrfFitResult:
    """Gradient ascent on the average log-likelihood in the log-potential
    (indicator feature) parameterization.

    The gradient per table cell is the empirical frequency minus the model
    marginal, read off a junction tree calibrated at the current
    parameters; the tree's structure is built once, from ``structure``,
    since the steps change tables, not scopes. A small L2 pull keeps
    unsupported cells finite. At convergence the reported moment mismatch
    is the largest absolute difference between empirical and model
    marginals.
    """
    if dataset.n == 0:
        raise InsufficientDataError("empty dataset")
    lr = learning_rate if callable(learning_rate) else (lambda k: learning_rate)
    variables = list(structure.variables.values())
    scopes = [list(f.scope) for f in structure.factors]
    theta = [np.zeros(tuple(v.cardinality for v in s)) for s in scopes]
    empirical = _empirical_factor_moments(structure, dataset)
    if l2 == 0.0 and any(np.any(e == 0) for e in empirical):
        warnings.warn(
            "zero empirical moments without regularization diverge", stacklevel=2
        )
    trace = []
    mismatch = math.inf
    mrf = structure
    jt = build_junction_tree(structure)
    for k in range(1, iters + 1):
        mrf = MarkovRandomField(
            variables, [Factor(s, np.exp(t)) for s, t in zip(scopes, theta)]
        )
        model_moments, jt_logz = _model_factor_moments(replace(jt, model=mrf))
        log_scores = batch_log_unnormalized(mrf.factors, dataset.names, dataset.rows)
        avg_ll = float(np.mean(log_scores)) - jt_logz
        trace.append(avg_ll)
        mismatch = max(
            float(np.max(np.abs(e - m))) for e, m in zip(empirical, model_moments)
        )
        grads = [
            e - m - 2 * l2 * t for e, m, t in zip(empirical, model_moments, theta)
        ]
        grad_norm = max(float(np.max(np.abs(g))) for g in grads)
        if grad_norm < tol:
            break
        step = float(lr(k))
        theta = [t + step * g for t, g in zip(theta, grads)]
    return MrfFitResult(mrf, theta, mismatch, trace, len(trace))


def pseudo_likelihood(mrf: MarkovRandomField, dataset: Dataset,
                      theta: list[np.ndarray] | None = None,
                      l2: float = 0.0) -> tuple[float, list[np.ndarray]]:
    """Average pseudo-log-likelihood and its exact gradient.

    The objective replaces the joint likelihood with the sum over
    variables of the log full conditional given the observed neighbors;
    each conditional normalizer only sums over one variable, so no global
    inference is needed. The log tables are ``theta`` when given, else the
    model's tables as ``factors.log_tables`` reads them (either domain),
    and each variable's logits at the observed blanket states come from the
    Gibbs sampler's per-site gather. A row whose blanket leaves some
    variable no state of positive mass has probability zero: the value is
    -inf, and that row's conditional counts as zero in the gradients.
    """
    from scipy.special import logsumexp
    if dataset.n == 0:
        raise InsufficientDataError("empty dataset")
    if theta is None:
        theta = fa.log_tables(mrf.factors)
    logs = [Factor(f.scope, t, domain=fa.LOG) for f, t in zip(mrf.factors, theta)]
    names = sorted(mrf.variables)
    col_of = {name: dataset.index(name) for name in names}
    grads = [np.zeros_like(t) for t in theta]
    value, n = 0.0, dataset.n
    for site in _site_plans(logs, [mrf.variable(nm) for nm in names], col_of):
        logits, rows = _site_logits(site, dataset.rows[:, site.cols])
        norm = logsumexp(logits, axis=1, keepdims=True)
        norm[norm == -np.inf] = 0.0   # no state has mass: the conditional is zero
        cond = np.exp(logits - norm)
        observed = dataset.column(site.variable.name)
        value += float(np.sum(logits[np.arange(n), observed] - norm[:, 0]))
        for (fi, axis, _, table), flat in zip(site.terms, rows):
            gflat = np.zeros(table.shape)
            np.add.at(gflat, (flat, observed), 1.0)
            np.add.at(gflat, flat, -cond)
            moved = np.moveaxis(grads[fi], axis, -1)
            moved += gflat.reshape(moved.shape)
    value /= n
    grads = [g / n for g in grads]
    if l2:   # the log of a zero potential is -inf, which 0 * -inf would make NaN
        grads = [g - 2 * l2 * t for g, t in zip(grads, theta)]
        value -= l2 * sum(float(np.sum(t * t)) for t in theta)
    return value, grads


def fit_pseudo_likelihood(structure: MarkovRandomField, dataset: Dataset,
                          learning_rate: float = 2.0, iters: int = 500,
                          l2: float = 1e-4, tol: float = 1e-7) -> MrfFitResult:
    """Gradient ascent on the pseudo-likelihood objective."""
    scopes = [list(f.scope) for f in structure.factors]
    theta = [np.zeros(tuple(v.cardinality for v in s)) for s in scopes]
    variables = list(structure.variables.values())
    trace = []
    for k in range(1, iters + 1):
        value, grads = pseudo_likelihood(structure, dataset, theta, l2)
        trace.append(value)
        grad_norm = max(float(np.max(np.abs(g))) for g in grads)
        if grad_norm < tol:
            break
        theta = [t + learning_rate * g for t, g in zip(theta, grads)]
    mrf = MarkovRandomField(
        variables, [Factor(s, np.exp(t)) for s, t in zip(scopes, theta)]
    )
    return MrfFitResult(mrf, theta, math.nan, trace, len(trace))


# ---------------------------------------------------------------------------
# Chain CRF training
# ---------------------------------------------------------------------------


@dataclass
class CrfFitResult:
    crf: ChainCRF
    loglik_trace: list[float]
    iterations: int


def crf_log_likelihood(crf: ChainCRF, data: Sequence[tuple[Sequence, Sequence[str]]],
                       l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Conditional log-likelihood and gradient over labeled sequences.

    Per-example expectations come from forward-backward on the label chain
    (one pass per training sequence, since the normalizer depends on the
    input); features are the observation vector per (position, label) and
    label-pair indicators. The recursions run on max-shifted exponentials
    with a normalizer per step, so large scores cannot overflow.
    """
    k = crf.n_labels
    trans = crf.trans_weights
    trans_shift = float(trans.max())
    psi = np.exp(trans - trans_shift)
    grad_node = np.zeros((k, crf.n_obs_features))
    grad_trans = np.zeros((k, k))
    total = 0.0
    for x, y in data:
        length = len(x)
        labels = np.array([crf.labels.index(lab) for lab in y], dtype=np.int64)
        if len(labels) != length:
            raise ValueError("label sequence length must match the input")
        feats = crf.features(x)
        scores = feats @ crf.node_weights.T
        shift = scores.max(axis=1)
        phi = np.exp(scores - shift[:, None])
        # Scaled forward-backward: alpha[t] is the forward message divided by
        # its sum z[t], beta[t] the backward message divided by z[t+1:], so
        # alpha[t] * beta[t] is the label marginal at t.
        alpha = np.empty((length, k))
        z = np.empty(length)
        alpha[0] = phi[0]
        for t in range(1, length):
            z[t - 1] = alpha[t - 1].sum()
            alpha[t] = (alpha[t - 1] / z[t - 1]) @ psi * phi[t]
        z[-1] = alpha[-1].sum()
        alpha /= z[:, None]
        beta = np.empty((length, k))
        beta[-1] = 1.0
        for t in range(length - 1, 0, -1):
            beta[t - 1] = psi @ (phi[t] * beta[t]) / z[t]
        log_z = float(np.log(z).sum() + shift.sum()) + (length - 1) * trans_shift
        total += float(scores[np.arange(length), labels].sum())
        total += float(trans[labels[:-1], labels[1:]].sum()) - log_z
        grad_node += (np.eye(k)[labels] - alpha * beta).T @ feats
        ahead = phi[1:] * beta[1:] / z[1:, None]
        pairs = alpha[:-1, :, None] * psi * ahead[:, None, :]
        grad_trans -= pairs.sum(axis=0)
        np.add.at(grad_trans, (labels[:-1], labels[1:]), 1.0)
    theta = crf.theta
    total -= l2 * float(theta @ theta)
    grad = np.concatenate([grad_node.ravel(), grad_trans.ravel()]) - 2 * l2 * theta
    return float(total), grad


def fit_chain_crf(crf: ChainCRF, data: Sequence[tuple[Sequence, Sequence[str]]],
                  l2: float = 1e-3, steps: int = 100,
                  learning_rate: float = 0.1, tol: float = 1e-7) -> CrfFitResult:
    """Gradient ascent on the L2-regularized conditional log-likelihood."""
    theta = crf.theta
    trace = []
    current = crf
    for _ in range(steps):
        value, grad = crf_log_likelihood(current, data, l2)
        trace.append(value)
        if float(np.max(np.abs(grad))) < tol:
            break
        theta = theta + learning_rate * grad
        current = current.with_theta(theta)
    return CrfFitResult(current, trace, len(trace))


# ---------------------------------------------------------------------------
# EM for Gaussian mixtures
# ---------------------------------------------------------------------------


@dataclass
class GmmParams:
    weights: np.ndarray
    means: np.ndarray          # (K, d)
    covariances: np.ndarray    # (K, d, d)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        if not math.isclose(self.weights.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("mixing weights must sum to 1")
        for sigma in self.covariances:
            if not np.allclose(sigma, sigma.T, atol=1e-9):
                raise ValueError("covariances must be symmetric")

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass
class GmmResult:
    params: GmmParams
    loglik_trace: list[float]
    responsibilities: np.ndarray
    converged: bool
    iterations: int
    events: list[str] = field(default_factory=list)


def _log_gaussian(data: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = data.shape[1]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    diff = data - mean
    solved = np.linalg.solve(cov, diff.T).T
    quad = np.sum(diff * solved, axis=1)
    return -0.5 * (d * math.log(2 * math.pi) + logdet + quad)


def _kmeanspp_means(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    means = [data[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((data - m) ** 2, axis=1) for m in means], axis=0
        )
        total = d2.sum()
        if total <= 0:
            means.append(data[int(rng.integers(n))])
            continue
        probs = d2 / total
        means.append(data[int(rng.choice(n, p=probs))])
    return np.array(means)


def em_gmm(data: np.ndarray, k: int, rng: np.random.Generator | None = None,
           tol: float = 1e-7, max_iters: int = 300, restarts: int = 5,
           jitter_scale: float = 1e-6) -> GmmResult:
    """Expectation-maximization for a K-component Gaussian mixture.

    E-step: posterior component responsibilities by Bayes' rule. M-step:
    responsibility-weighted means, covariances (plus a jitter floor of
    jitter_scale * trace / d on the diagonal), and mixing weights equal to
    average responsibilities. The log-likelihood trace never decreases; a
    collapsing component is reseeded and logged. Best of ``restarts``
    seeded runs is returned. ``max_iters`` and ``restarts`` must be at
    least 1.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    if k < 1 or n < k:
        raise ValueError("need k >= 1 and at least k rows")
    rng = rng or np.random.default_rng(0)

    best: GmmResult | None = None
    for _ in range(restarts):
        result = _em_once(data, k, rng, tol, max_iters, jitter_scale)
        if best is None or result.loglik_trace[-1] > best.loglik_trace[-1]:
            best = result
    return best


def _em_once(data, k, rng, tol, max_iters, jitter_scale) -> GmmResult:
    from scipy.special import logsumexp
    n, d = data.shape
    means = _kmeanspp_means(data, k, rng)
    global_cov = np.cov(data.T).reshape(d, d) + np.eye(d) * 1e-6
    covs = np.stack([np.eye(d) * max(np.trace(global_cov) / d, 1e-6)] * k)
    weights = np.full(k, 1.0 / k)
    events: list[str] = []
    trace: list[float] = []
    resp = np.full((n, k), 1.0 / k)
    converged = False
    for it in range(1, max_iters + 1):
        # E-step
        log_dens = np.column_stack(
            [np.log(weights[j]) + _log_gaussian(data, means[j], covs[j]) for j in range(k)]
        )
        norms = logsumexp(log_dens, axis=1)
        trace.append(float(np.sum(norms)))
        resp = np.exp(log_dens - norms[:, None])
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        # M-step
        mass = resp.sum(axis=0)
        weights = mass / n
        for j in range(k):
            if mass[j] < 1e-10:
                means[j] = data[int(rng.integers(n))]
                covs[j] = global_cov.copy()
                weights = np.full(k, 1.0 / k)
                events.append(f"reseeded empty component {j} at iteration {it}")
                continue
            means[j] = resp[:, j] @ data / mass[j]
            diff = data - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / mass[j]
            floor = jitter_scale * max(np.trace(cov), 1e-12) / d
            eigvals = np.linalg.eigvalsh(cov)
            if eigvals.min() < floor:
                cov = cov + np.eye(d) * (floor - eigvals.min())
                events.append(f"jittered collapsing component {j} at iteration {it}")
            covs[j] = cov
    params = GmmParams(weights, means, covs)
    return GmmResult(params, trace, resp, converged, len(trace), events)
