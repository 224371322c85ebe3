"""MAP inference beyond max-product: exact energy minimization by graph
cuts for binary pairwise models with metric interactions, plus approximate
strategies (LP/ILP export, dual decomposition, local search, simulated
annealing).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import factors as fa
from .errors import ScopeError
from .models import MarkovRandomField, linear_factors, log_joint, model_factors


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

    Pairwise tables must be metric: equal diagonal, equal off-diagonal,
    diagonal at least as large (so the disagreement penalty is
    nonnegative). Energies are negative log potentials; the constant
    per-edge offset drops out of the argmin.
    """
    variables = sorted(mrf.variables)
    for name in variables:
        if mrf.variable(name).cardinality != 2:
            raise ValueError(f"graph cuts need binary variables; {name!r} is not")
    unary = {v: [0.0, 0.0] for v in variables}
    lam: dict[tuple[str, str], float] = {}
    for f in linear_factors(mrf.factors):
        if np.any(f.table <= 0.0):
            raise ValueError("zero potential entries have infinite energy")
        if len(f.scope) == 1:
            name = f.names[0]
            unary[name][0] += -math.log(float(f.table[0]))
            unary[name][1] += -math.log(float(f.table[1]))
        elif len(f.scope) == 2:
            t = f.table
            if not (
                math.isclose(t[0, 0], t[1, 1], rel_tol=1e-9)
                and math.isclose(t[0, 1], t[1, 0], rel_tol=1e-9)
            ):
                raise ValueError(
                    f"pairwise table over {list(f.names)} is not of the "
                    "agreement (metric) form"
                )
            coupling = math.log(float(t[0, 0])) - math.log(float(t[0, 1]))
            if coupling < 0:
                raise ValueError(
                    f"couplings must favor agreement; edge {list(f.names)} does not"
                )
            key = (min(f.names), max(f.names))
            lam[key] = lam.get(key, 0.0) + coupling
        else:
            raise ValueError("graph cuts support unary and pairwise factors only")
    return PairwiseEnergyModel(
        tuple(variables), {v: tuple(e) for v, e in unary.items()}, lam
    )


# ---------------------------------------------------------------------------
# Pairwise MRF helpers shared by the approximate MAP methods
# ---------------------------------------------------------------------------


def _pairwise_parts(mrf: MarkovRandomField):
    """Split a pairwise MRF into per-node log-unaries and per-edge log-tables."""
    names = sorted(mrf.variables)
    unary = {n: np.zeros(mrf.variable(n).cardinality) for n in names}
    edges: dict[tuple[str, str], np.ndarray] = {}
    with np.errstate(divide="ignore"):
        for f in mrf.factors:
            log_table = f.table if f.domain == fa.LOG else np.log(f.table)
            if len(f.scope) == 1:
                unary[f.names[0]] = unary[f.names[0]] + log_table
            elif len(f.scope) == 2:
                a, b = f.names
                if a > b:
                    log_table = log_table.T
                    a, b = b, a
                key = (a, b)
                edges[key] = edges.get(key, 0.0) + log_table
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
    multipliers: dict[tuple[tuple[str, str], str], np.ndarray]
    bound: float                 # L(delta) at the final iterate
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
    optimal.
    """
    names, unary, edges = _pairwise_parts(mrf)
    cards = {n: mrf.variable(n).cardinality for n in names}
    if step_size is None:
        step = lambda k: 1.0 / math.sqrt(k)
    elif callable(step_size):
        step = step_size
    else:
        step = lambda k, c=float(step_size): c / math.sqrt(k)

    delta = {
        (key, endpoint): np.zeros(cards[endpoint])
        for key in edges
        for endpoint in key
    }

    def evaluate():
        node_scores = {
            n: unary[n] + sum(
                (delta[(key, n)] for key in edges if n in key), np.zeros(cards[n])
            )
            for n in names
        }
        node_argmax = {n: int(np.argmax(node_scores[n])) for n in names}
        bound = sum(float(np.max(node_scores[n])) for n in names)
        edge_argmax = {}
        for key, table in edges.items():
            a, b = key
            adjusted = table - delta[(key, a)][:, None] - delta[(key, b)][None, :]
            flat = int(np.argmax(adjusted))
            sa, sb = np.unravel_index(flat, adjusted.shape)
            edge_argmax[key] = (int(sa), int(sb))
            bound += float(adjusted[sa, sb])
        return bound, node_argmax, edge_argmax

    bounds = []
    best_bound = math.inf
    best_assignment = None
    best_objective = -math.inf
    agreement = False
    k = 0
    for k in range(1, max_iters + 1):
        bound, node_argmax, edge_argmax = evaluate()
        bounds.append(bound)
        best_bound = min(best_bound, bound)
        decoded = {n: mrf.variable(n).states[node_argmax[n]] for n in names}
        objective = log_joint(mrf, decoded)
        if objective > best_objective:
            best_objective = objective
            best_assignment = decoded
        agreement = all(
            edge_argmax[key][i] == node_argmax[key[i]]
            for key in edges
            for i in (0, 1)
        )
        if agreement:
            break
        alpha = float(step(k))
        for key, (sa, sb) in edge_argmax.items():
            a, b = key
            for endpoint, s_edge in ((a, sa), (b, sb)):
                s_node = node_argmax[endpoint]
                if s_edge != s_node:
                    delta[(key, endpoint)][s_node] -= alpha
                    delta[(key, endpoint)][s_edge] += alpha

    return DualState(
        multipliers=delta,
        bound=bounds[-1],
        best_bound=best_bound,
        bounds=bounds,
        agreement=agreement,
        assignment=best_assignment or {},
        objective=best_objective,
        iterations=k,
    )


# ---------------------------------------------------------------------------
# Local search and simulated annealing
# ---------------------------------------------------------------------------


def _local_tables(mrf: MarkovRandomField):
    """Per-variable list of (factor, scope names) touching it."""
    touching = {n: [] for n in mrf.variables}
    for f in model_factors(mrf):
        for n in f.names:
            touching[n].append(f)
    return touching


def _local_log_score(touching, assignment, name, state) -> float:
    trial = dict(assignment)
    trial[name] = state
    total = 0.0
    for f in touching[name]:
        value = f(trial)
        if f.domain == fa.LOG:
            total += value
        elif value <= 0.0:
            return -math.inf
        else:
            total += math.log(value)
    return total


def local_search_map(
    mrf: MarkovRandomField,
    seed: int = 0,
    max_sweeps: int = 100,
    init: Mapping[str, str] | None = None,
) -> tuple[dict[str, str], float]:
    """Greedy single-variable moves until a full sweep changes nothing.

    A move is accepted only if it strictly increases the log joint; the
    returned assignment is a local optimum under single-variable flips.
    """
    rng = np.random.default_rng(seed)
    names = sorted(mrf.variables)
    if init is None:
        assignment = {
            n: mrf.variable(n).states[int(rng.integers(mrf.variable(n).cardinality))]
            for n in names
        }
    else:
        assignment = dict(init)
    touching = _local_tables(mrf)
    for _ in range(max_sweeps):
        changed = False
        for n in names:
            current = _local_log_score(touching, assignment, n, assignment[n])
            best_state, best_score = assignment[n], current
            for s in mrf.variable(n).states:
                if s == assignment[n]:
                    continue
                score = _local_log_score(touching, assignment, n, s)
                if score > best_score:
                    best_state, best_score = s, score
            if best_state != assignment[n]:
                assignment[n] = best_state
                changed = True
        if not changed:
            break
    return assignment, log_joint(mrf, assignment)


@dataclass(frozen=True)
class AnnealSchedule:
    t_start: float = 5.0
    t_end: float = 0.05
    cooling: float = 0.95        # geometric factor per stage
    sweeps_per_stage: int = 4


def simulated_annealing_map(
    mrf: MarkovRandomField,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
) -> tuple[dict[str, str], float]:
    """Metropolis sampling of p_t proportional to exp(log-joint / t) while t cools
    geometrically; returns the best assignment seen at any temperature.
    """
    schedule = schedule or AnnealSchedule()
    rng = np.random.default_rng(seed)
    names = sorted(mrf.variables)
    assignment = {
        n: mrf.variable(n).states[int(rng.integers(mrf.variable(n).cardinality))]
        for n in names
    }
    touching = _local_tables(mrf)
    best = dict(assignment)
    best_score = log_joint(mrf, assignment)
    t = schedule.t_start
    while t >= schedule.t_end:
        for _ in range(schedule.sweeps_per_stage):
            for n in names:
                var = mrf.variable(n)
                proposal = var.states[int(rng.integers(var.cardinality))]
                if proposal == assignment[n]:
                    continue
                current = _local_log_score(touching, assignment, n, assignment[n])
                candidate = _local_log_score(touching, assignment, n, proposal)
                delta = candidate - current
                if delta >= 0 or rng.random() < math.exp(delta / t):
                    assignment[n] = proposal
            score = log_joint(mrf, assignment)
            if score > best_score:
                best, best_score = dict(assignment), score
        t *= schedule.cooling
    return best, best_score
