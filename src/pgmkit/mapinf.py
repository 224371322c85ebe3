"""MAP inference beyond max-product: exact energy minimization by graph
cuts for binary pairwise models with metric interactions, plus approximate
strategies (LP/ILP export, dual decomposition, local search, simulated
annealing).
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import factors as fa
from .errors import ScopeError
from .models import CompiledModel, MarkovRandomField, _stacked
from .sampling import _site_plans, _site_tables


# ---------------------------------------------------------------------------
# Binary pairwise energy models and graph cuts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseEnergyModel:
    """Binary variables with unary energies and metric pairwise costs.

    The pairwise energy is 0 when endpoint labels agree and ``lam[(u, v)]``
    (nonnegative) when they disagree.
    """

    variables: tuple[str, ...]
    unary: dict[str, tuple[float, float]]       # E_u(0), E_u(1)
    lam: dict[tuple[str, str], float]           # keyed by sorted pair

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(sorted(self.variables)))
        unary = {v: (float(a), float(b)) for v, (a, b) in self.unary.items()}
        for v in self.variables:
            unary.setdefault(v, (0.0, 0.0))
        lam = {}
        for (u, v), cost in self.lam.items():
            if u == v or u not in unary or v not in unary:
                raise ScopeError(f"bad edge ({u!r}, {v!r})")
            if cost < 0:
                raise ValueError(f"pairwise cost for ({u}, {v}) must be nonnegative")
            lam[(min(u, v), max(u, v))] = float(cost)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "lam", lam)

    def energy(self, labels: Mapping[str, int]) -> float:
        total = sum(self.unary[v][labels[v]] for v in self.variables)
        for (u, v), cost in self.lam.items():
            if labels[u] != labels[v]:
                total += cost
        return total


def normalize_energies(m: PairwiseEnergyModel) -> PairwiseEnergyModel:
    """Shift each unary so its minimum is zero; the argmin is unchanged."""
    unary = {}
    for v, (e0, e1) in m.unary.items():
        low = min(e0, e1)
        unary[v] = (e0 - low, e1 - low)
    return PairwiseEnergyModel(m.variables, unary, dict(m.lam))


@dataclass
class FlowNetwork:
    """Directed arcs with nonnegative capacities plus source/sink labels."""

    source: str
    sink: str
    capacity: dict[tuple[str, str], float] = field(default_factory=dict)

    def add_arc(self, u: str, v: str, cap: float) -> None:
        if cap < 0:
            raise ValueError("capacities must be nonnegative")
        if u == v:
            raise ValueError("no self-loop arcs")
        self.capacity[(u, v)] = self.capacity.get((u, v), 0.0) + float(cap)

    @property
    def nodes(self) -> list[str]:
        out = {self.source, self.sink}
        for u, v in self.capacity:
            out.add(u)
            out.add(v)
        return sorted(out)


@dataclass(frozen=True)
class CutResult:
    cost: float
    source_side: frozenset[str]
    sink_side: frozenset[str]


def min_cut(network: FlowNetwork) -> CutResult:
    """Max-flow by shortest augmenting paths; the cut is the residual
    reachability partition, and its crossing capacity equals the flow value.
    """
    if network.source == network.sink:
        raise ValueError("source and sink must differ")
    residual: dict[str, dict[str, float]] = {}

    def ensure(u, v):
        residual.setdefault(u, {}).setdefault(v, 0.0)

    for (u, v), cap in network.capacity.items():
        ensure(u, v)
        ensure(v, u)
        residual[u][v] += cap

    s, t = network.source, network.sink
    flow = 0.0
    while True:
        # BFS for the shortest augmenting path, neighbors in sorted order
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v in sorted(residual.get(u, ())):
                if v not in prev and residual[u][v] > 1e-12:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            break
        path = [t]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        bottleneck = min(
            residual[path[i]][path[i + 1]] for i in range(len(path) - 1)
        )
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck

    reach = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, cap in residual.get(u, {}).items():
            if cap > 1e-12 and v not in reach:
                reach.add(v)
                stack.append(v)
    nodes = set(network.nodes)
    return CutResult(flow, frozenset(reach), frozenset(nodes - reach))


def partition_cost(network: FlowNetwork, source_side: frozenset[str]) -> float:
    """Total capacity of arcs crossing from the source side to the rest."""
    return sum(
        cap
        for (u, v), cap in network.capacity.items()
        if u in source_side and v not in source_side
    )


def graphcut_map(m: PairwiseEnergyModel) -> tuple[dict[str, int], float]:
    """Exact minimum-energy labeling via a single min-cut.

    Energies are normalized per node first. Nodes whose free label is 0 get
    a source arc weighted by their cost of taking label 1, and vice versa;
    pairwise disagreement costs become undirected arcs. Source-side nodes
    are labeled 0, sink-side nodes 1.
    """
    original = m
    m = normalize_energies(m)
    net = FlowNetwork("__source__", "__sink__")
    for v, (e0, e1) in m.unary.items():
        if e1 > 0:       # E_v(0) == 0 after normalization
            net.add_arc("__source__", v, e1)
        elif e0 > 0:     # E_v(1) == 0
            net.add_arc(v, "__sink__", e0)
        else:            # both zero: keep the node in the network
            net.add_arc("__source__", v, 0.0)
    for (u, v), cost in m.lam.items():
        net.add_arc(u, v, cost)
        net.add_arc(v, u, cost)
    cut = min_cut(net)
    labels = {v: (0 if v in cut.source_side else 1) for v in m.variables}
    return labels, original.energy(labels)


def mrf_to_energy_model(mrf: MarkovRandomField) -> PairwiseEnergyModel:
    """Convert a binary pairwise MRF with agreement-type couplings.

    Energies are the negated log-unaries and log-tables of
    :func:`_pairwise_parts`. Each edge's summed log table must be metric:
    equal diagonal, equal off-diagonal (to 1e-9 in logs), diagonal at least as
    large (so the disagreement penalty is nonnegative). The constant
    per-edge offset drops out of the argmin.
    """
    for name in sorted(mrf.variables):
        if mrf.variable(name).cardinality != 2:
            raise ValueError(f"graph cuts need binary variables; {name!r} is not")
    names, unary, edges = _pairwise_parts(mrf)
    if not all(np.all(np.isfinite(t)) for t in [*unary.values(), *edges.values()]):
        raise ValueError("zero potential entries have infinite energy")
    lam = {}
    for key, t in edges.items():
        if abs(t[0, 0] - t[1, 1]) > 1e-9 or abs(t[0, 1] - t[1, 0]) > 1e-9:
            raise ValueError(
                f"pairwise table over {list(key)} is not of the agreement (metric) form"
            )
        lam[key] = float(t[0, 0] - t[0, 1])
        if lam[key] < 0:
            raise ValueError(f"couplings must favor agreement; edge {list(key)} does not")
    # 0.0 - x, not -x: a zero log stays a +0.0 energy
    return PairwiseEnergyModel(tuple(names), {v: 0.0 - u for v, u in unary.items()}, lam)


# ---------------------------------------------------------------------------
# Pairwise MRF helpers shared by the approximate MAP methods
# ---------------------------------------------------------------------------


def _pairwise_parts(mrf: MarkovRandomField):
    """Split a pairwise MRF into per-node log-unaries and per-edge log-tables,
    as graph cuts, the LP export and dual decomposition all read it."""
    names = sorted(mrf.variables)
    unary = {n: np.zeros(mrf.variable(n).cardinality) for n in names}
    edges: dict[tuple[str, str], np.ndarray] = {}
    for f, logs in zip(mrf.factors, fa.log_tables(mrf.factors)):
        if len(f.scope) == 1:
            unary[f.names[0]] = unary[f.names[0]] + logs
        elif len(f.scope) == 2:
            a, b = f.names
            if a > b:
                logs = logs.T
                a, b = b, a
            key = (a, b)
            edges[key] = edges.get(key, 0.0) + logs
        else:
            raise ValueError(
                f"factor over {list(f.names)} is not pairwise; "
                "this method supports unary and pairwise factors only"
            )
    return names, unary, edges


# ---------------------------------------------------------------------------
# LP / ILP export
# ---------------------------------------------------------------------------


def export_map_ilp(mrf: MarkovRandomField) -> str:
    """Plain-text LP-format encoding of MAP as an integer linear program.

    One indicator mu_i_s per variable state and one mu_i_j_s_t per edge
    state pair; normalization rows force one choice per node and per edge,
    and consistency rows tie edge indicators to their endpoints. Dropping
    the Binary section (relaxing each indicator to [0, 1]) gives the LP
    relaxation whose solution can be rounded to an approximate MAP.
    """
    names, unary, edges = _pairwise_parts(mrf)
    if not names:
        raise ValueError("a model with no variables has no MAP program to export")
    for n, table in unary.items():
        if not np.all(np.isfinite(table)):
            raise ValueError(f"zero potential entries for {n!r} cannot be encoded")
    for key, table in edges.items():
        if not np.all(np.isfinite(table)):
            raise ValueError(f"zero potential entries for edge {key} cannot be encoded")
    idx = {n: i for i, n in enumerate(names)}

    def node_var(n, s):
        return f"mu_{idx[n]}_{s}"

    def edge_var(a, b, s, t):
        return f"mu_{idx[a]}_{idx[b]}_{s}_{t}"

    terms = []
    for n in names:
        for s, theta in enumerate(unary[n]):
            if theta:
                terms.append(f"{theta:+.12g} {node_var(n, s)}")
    for (a, b), table in sorted(edges.items()):
        for s in range(table.shape[0]):
            for t in range(table.shape[1]):
                theta = table[s, t]
                if theta:
                    terms.append(f"{theta:+.12g} {edge_var(a, b, s, t)}")
    lines = [
        "\\ MAP objective over indicator variables mu_i_s (nodes) and",
        "\\ mu_i_j_s_t (edges). Relax binaries to 0 <= mu <= 1 for the LP",
        "\\ relaxation, then round the LP solution to recover a labeling.",
        "Maximize",
        " obj: " + (" ".join(terms) if terms else "0 " + node_var(names[0], 0)),
        "Subject To",
    ]
    row = 0
    for n in names:
        card = mrf.variable(n).cardinality
        lhs = " + ".join(node_var(n, s) for s in range(card))
        lines.append(f" norm_{row}: {lhs} = 1")
        row += 1
    for (a, b), table in sorted(edges.items()):
        lhs = " + ".join(
            edge_var(a, b, s, t)
            for s in range(table.shape[0])
            for t in range(table.shape[1])
        )
        lines.append(f" norm_{row}: {lhs} = 1")
        row += 1
    crow = 0
    for (a, b), table in sorted(edges.items()):
        ka, kb = table.shape
        for t in range(kb):
            lhs = " + ".join(edge_var(a, b, s, t) for s in range(ka))
            lines.append(f" cons_{crow}: {lhs} - {node_var(b, t)} = 0")
            crow += 1
        for s in range(ka):
            lhs = " + ".join(edge_var(a, b, s, t) for t in range(kb))
            lines.append(f" cons_{crow}: {lhs} - {node_var(a, s)} = 0")
            crow += 1
    lines.append("Bounds")
    all_vars = [node_var(n, s) for n in names for s in range(mrf.variable(n).cardinality)]
    all_vars += [
        edge_var(a, b, s, t)
        for (a, b), table in sorted(edges.items())
        for s in range(table.shape[0])
        for t in range(table.shape[1])
    ]
    for v in all_vars:
        lines.append(f" 0 <= {v} <= 1")
    lines.append("Binary")
    lines.append(" " + " ".join(all_vars))
    lines.append("End")
    return "\n".join(lines) + "\n"


def ilp_objective_at(mrf: MarkovRandomField, assignment: Mapping[str, str]) -> float:
    """Value of the exported objective at the integral indicators of an assignment."""
    names, unary, edges = _pairwise_parts(mrf)
    total = 0.0
    state = {n: mrf.variable(n).index_of(assignment[n]) for n in names}
    for n in names:
        total += unary[n][state[n]]
    for (a, b), table in edges.items():
        total += table[state[a], state[b]]
    return float(total)


# ---------------------------------------------------------------------------
# Dual decomposition
# ---------------------------------------------------------------------------


@dataclass
class DualState:
    # per (edge, endpoint), in edges order: views into one (E, 2, K) array
    multipliers: dict[tuple[tuple[str, str], str], np.ndarray]
    bound: float                 # L(delta) at the final iterate, the multipliers' value
    best_bound: float            # min over iterations (still >= true MAP)
    bounds: list[float]          # per-iteration L(delta)
    agreement: bool
    assignment: dict[str, str]
    objective: float             # log score of the decoded assignment
    iterations: int


def dual_decomposition(
    mrf: MarkovRandomField,
    step_size: Callable[[int], float] | float | None = None,
    max_iters: int = 200,
) -> DualState:
    """Subgradient optimization of the edge-decomposed Lagrangian dual.

    One slave per node (its log-unary plus multipliers) and one per edge
    (its log-table minus the endpoint multipliers). Where the node and
    edge argmaxes disagree, the multipliers move by the step size, with a
    default schedule of 1/sqrt(k). Each L(delta) upper-bounds the true MAP
    log score; if all slaves agree the decoded assignment is exactly
    optimal. No step follows the last evaluation, so the returned
    multipliers are the ones ``bound`` was evaluated at.

    Each iteration is a few array operations: the multipliers are one
    (E, 2, K) array, zero-padded past each endpoint's cardinality, and
    every edge slave of one table shape takes its first maximum in one
    ``np.argmax``. The bound adds the node maxima, then the edge maxima,
    as Python floats in edges order.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    names, unary, edges = _pairwise_parts(mrf)
    if step_size is None:
        step = lambda k: 1.0 / math.sqrt(k)
    elif callable(step_size):
        step = step_size
    else:
        step = lambda k, c=float(step_size): c / math.sqrt(k)

    cards = [len(unary[n]) for n in names]
    width = max(cards, default=1)
    col = {n: i for i, n in enumerate(names)}
    keys = list(edges)
    ends = np.array([[col[a], col[b]] for a, b in keys], dtype=np.intp).reshape(-1, 2)
    # row 2e + s holds edge e's multipliers at endpoint s; the last row stays zero
    rows = np.zeros((2 * len(keys) + 1, width))
    delta = rows[:-1].reshape(len(keys), 2, width)
    multipliers = {
        (key, endpoint): delta[e, s, :cards[col[endpoint]]]
        for e, key in enumerate(keys)
        for s, endpoint in enumerate(key)
    }
    # each node's multiplier rows in edges order, so the sums keep their bits
    incident: list[list[int]] = [[] for _ in names]
    for r, i in enumerate(ends.reshape(-1).tolist()):
        incident[i].append(r)
    degree = max(map(len, incident), default=0)
    incident = np.array([r + [len(rows) - 1] * (degree - len(r)) for r in incident],
                        dtype=np.intp).reshape(len(names), degree)
    # padded states score -inf, so they never win a node's maximum
    node_base = np.full((len(names), width), -math.inf)
    for i, n in enumerate(names):
        node_base[i, :cards[i]] = unary[n]
    groups = [(tables, np.array(members, dtype=np.intp))
              for members, tables in _stacked(list(edges.values()))]
    compiled = CompiledModel(mrf)
    node_rows = np.arange(len(names))
    edge_states = np.zeros((len(keys), 2), dtype=np.intp)
    edge_maxima = np.zeros(len(keys))

    bounds = []
    best_bound = math.inf
    best_assignment = None
    best_objective = -math.inf
    agreement = False
    k = 0
    for k in range(1, max_iters + 1):
        gathered = rows[incident]
        total = np.zeros((len(names), width))
        for d in range(degree):
            total = total + gathered[:, d]
        node_scores = node_base + total
        node_states = np.argmax(node_scores, axis=1)
        bound = sum(node_scores[node_rows, node_states].tolist())
        for tables, members in groups:
            g, ka, kb = tables.shape
            adjusted = (tables - delta[members, 0, :ka, None]
                        - delta[members, 1, None, :kb]).reshape(g, ka * kb)
            flat = np.argmax(adjusted, axis=1)
            edge_maxima[members] = adjusted[np.arange(g), flat]
            edge_states[members, 0], edge_states[members, 1] = np.divmod(flat, kb)
        for value in edge_maxima.tolist():
            bound += value
        bounds.append(bound)
        best_bound = min(best_bound, bound)
        compiled.state[:] = node_states.tolist()
        objective = compiled.log_score()
        if best_assignment is None or objective > best_objective:
            best_objective = objective
            best_assignment = compiled.assignment()
        at_nodes = node_states[ends]
        agreement = bool(np.all(edge_states == at_nodes))
        if agreement or k == max_iters:
            break
        alpha = float(step(k))
        e, s = np.nonzero(edge_states != at_nodes)
        delta[e, s, at_nodes[e, s]] -= alpha
        delta[e, s, edge_states[e, s]] += alpha

    return DualState(
        multipliers=multipliers,
        bound=bounds[-1],
        best_bound=best_bound,
        bounds=bounds,
        agreement=agreement,
        assignment=best_assignment,
        objective=best_objective,
        iterations=k,
    )


# ---------------------------------------------------------------------------
# Local search and simulated annealing
# ---------------------------------------------------------------------------


def _site_rows(mrf: MarkovRandomField, compiled: CompiledModel) -> tuple[list, list]:
    """Per site of ``compiled``, in name order: its plan, and its rows and
    blanket from ``sampling._site_tables``, each row the site's summed log
    terms at one blanket state, as a list. The tables are the ones
    ``CompiledModel`` reads, summed in the same model order."""
    plans = _site_plans(mrf.factors, compiled.variables,
                        {n: k for k, n in enumerate(compiled.names)})
    return plans, _site_tables(plans, np.ndarray.tolist)


def local_search_map(
    mrf: MarkovRandomField,
    seed: int = 0,
    max_sweeps: int = 100,
    init: Mapping[str, str] | None = None,
) -> tuple[dict[str, str], float]:
    """Greedy single-variable moves until a full sweep changes nothing.

    A move is accepted only if it strictly increases the log joint; the
    returned assignment is a local optimum under single-variable flips.
    Each site's scores are read from its row of ``_site_rows`` at the
    blanket's state. ``max_sweeps`` must not be negative.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must not be negative")
    rng = np.random.default_rng(seed)
    compiled = CompiledModel(mrf)
    state = compiled.state
    cards = [v.cardinality for v in compiled.variables]
    if init is None:
        assignment = {}
        state[:] = [int(rng.integers(card)) for card in cards]
    else:
        assignment = dict(init)
        state[:] = [v.index_of(init[v.name]) for v in compiled.variables]
    sites = list(enumerate(_site_rows(mrf, compiled)[1]))
    for _ in range(max_sweeps):
        changed = False
        for i, (rows, blanket) in sites:
            r = 0
            for c, stride in blanket:
                r += state[c] * stride
            row = rows[r]
            current = state[i]
            best_state, best_score = current, row[current]
            for s, score in enumerate(row):
                if s != current and score > best_score:
                    best_state, best_score = s, score
            if best_state != current:
                state[i] = best_state
                changed = True
        if not changed:
            break
    assignment.update(compiled.assignment())
    return assignment, compiled.log_score()


@dataclass(frozen=True)
class AnnealSchedule:
    t_start: float = 5.0
    t_end: float = 0.05
    cooling: float = 0.95        # geometric factor per stage
    sweeps_per_stage: int = 4


class _PCG64Draws:
    """The draws of a fresh ``np.random.default_rng(seed)``, decoded from its
    raw PCG64 words read ``BLOCK`` at a time: ``integers(card)`` and
    ``random()`` return what ``Generator.integers(card)`` and
    ``Generator.random()`` would, in any interleaving, for cards up to
    2**32. Reading ahead moves the generator past the draws it returns, so
    it decodes a generator it owns and nothing else reads.

    ``integers`` takes 32-bit draws, the low half of a word first and its
    high half on the next call, and maps one to ``m >> 32`` with
    ``m = draw * card`` by Lemire's method, drawing again while
    ``m & 0xFFFFFFFF`` is under ``2**32 % card``; a card of 1 draws
    nothing. ``random`` takes a whole word, as ``(word >> 11) * 2**-53``,
    and leaves a pending high half for the next ``integers``.
    """

    BLOCK = 1024

    def __init__(self, seed: int):
        self._words = self._read(np.random.default_rng(seed).bit_generator)
        self._high = None        # the high half of the last split word

    def _read(self, bit_generator):
        while True:
            yield from bit_generator.random_raw(self.BLOCK).tolist()

    def integers(self, card: int) -> int:
        if card == 1:
            return 0
        threshold = (1 << 32) % card
        while True:
            if self._high is None:
                word = next(self._words)
                low, self._high = word & 0xFFFFFFFF, word >> 32
            else:
                low, self._high = self._high, None
            m = low * card
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0 ** -53


def simulated_annealing_map(
    mrf: MarkovRandomField,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
) -> tuple[dict[str, str], float]:
    """Metropolis sampling of p_t proportional to exp(log-joint / t) while t cools
    geometrically; returns the best assignment seen at any temperature.

    Draw order, from ``np.random.default_rng(seed)``: one
    ``integers(card)`` per variable for the initial state, then per sweep
    one ``integers(card)`` per site visit, in name order, and one
    ``random()`` per downhill proposal. The generator is private, so the
    draws are decoded from its raw words in blocks (``_PCG64Draws``), with
    the same values. A proposal's change of score is read from the site's
    row of ``_site_rows`` at the blanket's state.

    The best is taken over the states after each sweep, each compared by
    its exact ``log_score``. A sweep's running score is the last exact one
    plus the accepted moves' deltas; it is re-scored exactly only when it
    is not finite or comes within the rounding margin of the best, the
    only case where it could beat it.
    """
    schedule = schedule or AnnealSchedule()
    draws = _PCG64Draws(seed)
    draw, uniform = draws.integers, draws.random
    compiled = CompiledModel(mrf)
    state = compiled.state
    cards = [v.cardinality for v in compiled.variables]
    state[:] = [draw(card) for card in cards]
    plans, rows = _site_rows(mrf, compiled)
    sites = list(enumerate(zip(cards, rows)))
    best = list(state)
    best_score = score = compiled.log_score()
    # With u = eps / 2 the unit roundoff, F factors, at most B of them on
    # one variable, and A the sum over factors of their largest finite
    # |log entry| (a bound on |any sum of terms| at a state of finite
    # score): log_score is within (F - 1)uA of the real sum, each delta
    # (two sums of at most B terms and a subtraction) within about 2BuA of
    # the real change, and each addition to the running score adds about
    # uA. After m accepted moves the running score is thus within
    # ((F - 1) + m(B + 1/2)) eps A of log_score to first order, and the
    # margin below is twice that: a running score under best - margin
    # means an exact score under the best, which cannot replace it.
    blanket = max((len(plan.terms) for plan in plans), default=0)
    scale = 2.0 * sys.float_info.epsilon * sum(
        max((abs(v) for v in table if math.isfinite(v)), default=0.0)
        for table, *_ in compiled.factors
    )
    moves = 0                    # accepted since score was last exact
    t = schedule.t_start
    while t >= schedule.t_end:
        for _ in range(schedule.sweeps_per_stage):
            moved = moves
            for i, (card, (rows, others)) in sites:
                proposal = draw(card)
                current = state[i]
                if proposal == current:
                    continue
                r = 0
                for c, stride in others:
                    r += state[c] * stride
                row = rows[r]
                delta = row[proposal] - row[current]
                if delta >= 0 or uniform() < math.exp(delta / t):
                    state[i] = proposal
                    score += delta
                    moves += 1
            if moves == moved:   # the state and its score are unchanged
                continue
            margin = (len(compiled.factors) + moves * (blanket + 1)) * scale
            if math.isfinite(score) and score < best_score - margin:
                continue
            score, moves = compiled.log_score(), 0
            if score > best_score:
                best, best_score = list(state), score
        t *= schedule.cooling
    return compiled.assignment(best), best_score
