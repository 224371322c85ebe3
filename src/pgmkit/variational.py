"""Inference as optimization: KL divergence, the evidence lower bound,
mean-field coordinate ascent, and loopy belief propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import DegenerateUpdateError
from .exact import _exp_shifted
from .factors import Factor, Variable
from .models import (
    Model,
    _stacked,
    check_evidence,
    enumerate_inference,
    reduce_to_evidence,
    refuse_zero_evidence,
)

_ENUMERABLE = 1 << 16


def kl_divergence(q: Factor, p: Factor) -> float:
    """KL(q || p) over matching scopes; zero-forcing in q.

    Terms with q = 0 contribute nothing; q > 0 where p = 0 yields +inf.
    """
    if sorted(q.names) != sorted(p.names):
        raise ValueError("factors must share a scope")
    p = fa.align_to(p, q.names)
    qv, pv = q.values, p.values
    out = 0.0
    for a, b in zip(qv, pv):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        out += a * math.log(a / b)
    return out


@dataclass
class FactoredDistribution:
    """A fully factored distribution: one categorical table per variable."""

    tables: dict[str, np.ndarray]

    def __post_init__(self):
        clean = {}
        for name, t in self.tables.items():
            t = np.asarray(t, dtype=float)
            if t.ndim != 1 or np.any(t < 0) or not math.isclose(t.sum(), 1.0, abs_tol=1e-9):
                raise ValueError(f"table for {name!r} is not a distribution")
            clean[name] = t / t.sum()
        self.tables = clean

    def prob(self, name: str) -> np.ndarray:
        return self.tables[name]

    def entropy(self) -> float:
        out = 0.0
        for t in self.tables.values():
            nz = t[t > 0]
            out -= float(np.sum(nz * np.log(nz)))
        return out

    def joint_factor(self, variables: Sequence[Variable]) -> Factor:
        return fa.product_all(Factor([v], self.tables[v.name])
                              for v in sorted(variables, key=lambda v: v.name))

    @staticmethod
    def uniform(variables: Sequence[Variable]) -> "FactoredDistribution":
        return FactoredDistribution(
            {v.name: np.full(v.cardinality, 1.0 / v.cardinality) for v in variables}
        )

    @staticmethod
    def random(variables: Sequence[Variable], rng: np.random.Generator
               ) -> "FactoredDistribution":
        return FactoredDistribution(
            {v.name: rng.dirichlet(np.ones(v.cardinality)) for v in variables}
        )


def _expected_log_factor(f: Factor, logf: np.ndarray, q: FactoredDistribution,
                         fix: str | None = None) -> np.ndarray | float:
    """E_q[log f] from f's log table ``logf``, optionally as a function of
    one scope variable left free.

    Zero-probability assignments contribute nothing even when log f is
    -inf there.
    """
    # outer product of q tables, with the fixed axis (if any) left as ones
    weight = np.ones(f.table.shape)
    for ax, v in enumerate(f.scope):
        if fix is not None and v.name == fix:
            continue
        expand = [1] * len(f.scope)
        expand[ax] = v.cardinality
        weight = weight * q.prob(v.name).reshape(expand)
    # multiply only where q has mass, so 0 * -inf is never formed
    terms = np.multiply(weight, logf, out=np.zeros(weight.shape), where=weight != 0.0)
    if fix is None:
        return float(np.sum(terms))
    axis = tuple(ax for ax, v in enumerate(f.scope) if v.name != fix)
    out = np.sum(terms, axis=axis)
    return out


def elbo(model: Model, q: FactoredDistribution,
         evidence: Mapping[str, str] | None = None) -> float:
    """E_q[log of the unnormalized joint] plus the entropy of q.

    Always a lower bound on the log partition value of the
    (evidence-reduced) model; each expectation touches only one factor's
    variables.
    """
    mrf, log_offset = reduce_to_evidence(model, check_evidence(model, evidence or {}))
    return _elbo(list(mrf.variables), mrf.factors, fa.log_tables(mrf.factors), log_offset, q)


def _elbo(free: Sequence[str], reduced: Sequence[Factor], logs: Sequence[np.ndarray],
          log_offset: float, q: FactoredDistribution) -> float:
    """``elbo`` from the evidence-reduced factors, their log tables and the
    log of the factors the evidence fixes completely."""
    if sorted(q.tables) != free:
        raise ValueError(f"q must cover exactly the free variables {free}")
    total = log_offset
    total += q.entropy()
    for g, logf in zip(reduced, logs):
        total += _expected_log_factor(g, logf, q)
    return float(total)


@dataclass
class ElboTrace:
    """The bound along a mean-field run.

    ``values`` holds the initial ELBO and one per sweep, each a full
    ``elbo`` evaluation. ``update_values`` holds one per coordinate step:
    the previous value plus the change in the updated variable's own
    terms, so it can differ from a full evaluation in the last bits; the
    last step of each sweep holds that sweep's full value.
    """

    values: list[float] = field(default_factory=list)        # per sweep
    update_values: list[float] = field(default_factory=list)  # per coordinate step
    converged: bool = False
    sweeps: int = 0
    final_gap: float | None = None  # KL(q || p) when the model is enumerable
    max_blanket_size: int = 0

    def to_csv(self) -> str:
        lines = ["sweep,elbo"]
        lines += [f"{i},{v:.17g}" for i, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


def mean_field(model: Model, evidence: Mapping[str, str] | None = None,
               init: str | FactoredDistribution = "uniform",
               max_sweeps: int = 100, tol: float = 1e-9,
               rng: np.random.Generator | None = None
               ) -> tuple[FactoredDistribution, ElboTrace]:
    """Coordinate ascent on the fully factored family.

    Each coordinate update sets log q_j from the expected log factors in
    j's Markov blanket and renormalizes; the bound never decreases. Sweeps
    run in variable-name order until the per-sweep gain drops below tol.

    Each update's trace value adds the change in q_j's entropy plus
    E_q[log f] over j's factors to the previous value (a full ``elbo`` when
    either is not finite); each sweep ends with one full ``elbo``, which
    the sweep's last update value and the convergence test use. The
    reduced factors' logs are taken once per call, and every update and
    full ``elbo`` reads them. Evidence of probability zero that
    ``reduce_to_evidence`` shows raises ZeroEvidenceError. A negative
    ``max_sweeps`` raises ValueError; zero runs no sweep.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must not be negative")
    evidence = check_evidence(model, evidence or {})
    mrf, log_offset = reduce_to_evidence(model, evidence)
    refuse_zero_evidence(log_offset)
    free_names, free_vars, reduced = list(mrf.variables), mrf.variables.values(), mrf.factors
    logs = fa.log_tables(reduced)
    touching = {
        n: [(f, logf) for f, logf in zip(reduced, logs) if n in f.names] for n in free_names
    }
    if isinstance(init, FactoredDistribution):
        q = FactoredDistribution(dict(init.tables))
    elif init == "uniform":
        q = FactoredDistribution.uniform(free_vars)
    elif init == "random":
        if rng is None:
            raise ValueError("random init needs an rng")
        q = FactoredDistribution.random(free_vars, rng)
    else:
        raise ValueError(f"unknown init {init!r}")

    trace = ElboTrace()
    trace.max_blanket_size = max(
        (
            len({v for f, _ in touching[n] for v in f.names} - {n})
            for n in free_names
        ),
        default=0,
    )
    current = _elbo(free_names, reduced, logs, log_offset, q)
    trace.values.append(current)
    for sweep in range(1, max_sweeps + 1):
        before_sweep = current
        for name in free_names:
            log_q = np.zeros(model.variable(name).cardinality)
            for f, logf in touching[name]:
                log_q = log_q + _expected_log_factor(f, logf, q, fix=name)
            peak = np.max(log_q)
            if peak == -math.inf:
                raise DegenerateUpdateError(
                    f"every state of {name!r} has zero expected mass"
                )
            before = _site_terms(q.tables[name], log_q)
            table = np.exp(log_q - peak)
            q.tables[name] = table / table.sum()
            after = _site_terms(q.tables[name], log_q)
            if math.isfinite(current) and math.isfinite(before) and math.isfinite(after):
                current += after - before
            else:
                current = _elbo(free_names, reduced, logs, log_offset, q)
            trace.update_values.append(current)
        current = _elbo(free_names, reduced, logs, log_offset, q)
        if free_names:
            trace.update_values[-1] = current
        trace.values.append(current)
        trace.sweeps = sweep
        if current - before_sweep < tol:
            trace.converged = True
            break
    if _enumerable(model):
        log_z = enumerate_inference(model, mode="log_partition", evidence=evidence)
        trace.final_gap = log_z - current
    return q, trace


def _site_terms(table: np.ndarray, log_q: np.ndarray) -> float:
    """The terms of the ELBO that depend on one variable's table: its
    entropy plus E_q[log f] summed over the factors on it, where log_q
    holds that sum as a function of the variable's state. States without
    mass contribute nothing."""
    mass = table > 0.0
    p = table[mass]
    return float(np.sum(p * (log_q[mass] - np.log(p))))


def _enumerable(model: Model) -> bool:
    return model.joint_size() <= _ENUMERABLE


@dataclass
class LoopyBpResult:
    marginals: dict[str, Factor]
    converged: bool
    iterations: int
    final_residual: float


def loopy_bp(model: Model, evidence: Mapping[str, str] | None = None,
             max_iters: int = 200, damping: float = 0.5, tol: float = 1e-9,
             schedule: str = "synchronous") -> LoopyBpResult:
    """Sum-product message passing that simply ignores loops.

    Messages start uniform and update in a fixed order, either all at once
    per iteration (synchronous) or immediately (sequential); each new
    message is blended with the old one as (1 - damping) * old + damping *
    new. Convergence means the largest single message change fell below
    tol; on loopy graphs this may never happen, which is reported rather
    than raised. Beliefs are exact on trees. Where a message or belief
    sums to zero, loopy BP takes the uniform one instead; impossible
    evidence is refused before that fallback applies. A negative
    ``max_iters`` raises ValueError; zero sends no message.

    Both schedules run on the stacked arrays of :class:`_StackedFactorGraph`,
    in two half-steps: every factor-to-variable message, then every
    variable-to-factor message. Each half reads only the other half's
    messages, so it is a few array operations over all its edges. The
    synchronous schedule proposes both halves from the messages the
    iteration started with; the sequential one blends the factor half in
    before the variable half reads it. Products and sums run in the order
    of the send step of tree BP and the junction tree. Evidence of
    probability zero that ``reduce_to_evidence`` shows (a factor it fixes
    completely is zero, or one it reduces keeps no positive entry) raises
    ZeroEvidenceError before any message is sent.
    """
    if schedule not in ("synchronous", "sequential"):
        raise ValueError("schedule must be 'synchronous' or 'sequential'")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if max_iters < 0:
        raise ValueError("max_iters must not be negative")
    evidence = check_evidence(model, evidence or {})
    graph = _StackedFactorGraph(model, evidence)
    messages = graph.initial_messages()
    n = graph.n_edges

    def blend(rows: np.ndarray, new: np.ndarray) -> float:
        """Blend ``new`` into the message rows in place; the largest change."""
        blended = (1 - damping) * rows + damping * new
        # a row with a NaN drops out of the residual, as it would from max()
        change = float(np.fmax.reduce(np.max(np.abs(blended - rows), axis=1), initial=0.0))
        rows[:] = blended
        return change

    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if schedule == "synchronous":
            residual = blend(messages[:-1], np.vstack([graph.factor_half(messages),
                                                       graph.variable_half(messages)]))
        else:
            residual = blend(messages[:n], graph.factor_half(messages))
            residual = max(residual, blend(messages[n:-1], graph.variable_half(messages)))
        if residual < tol:
            break
    converged = residual < tol

    beliefs = graph.beliefs(messages)
    marginals = {
        v.name: Factor([v], row[:v.cardinality])
        for v, row in zip(graph.variables, beliefs)
    }
    return LoopyBpResult(marginals, converged, iterations, residual)


class _StackedFactorGraph:
    """The factor graph of a model reduced to its evidence, as stacked
    arrays for both schedules of :func:`loopy_bp`.

    Edge e joins a reduced factor, made linear by ``_exp_shifted``, to one
    variable of its scope, in factor order and then scope order. All
    messages sit in one (2E + 1, K) array: row e holds the message from
    edge e's factor, row E + e the one into it, and the last row holds
    ones. K is the largest free cardinality; a message over fewer states
    is padded with zeros. Factors are stacked by table shape, and each
    variable reads its incoming rows through a (V, D) incidence padded
    with the ones row. Multiplying by one is exact and a row's total sums
    only its own entries, so every product and sum runs in the order of
    the per-edge send step.
    """

    def __init__(self, model: Model, evidence: Mapping[str, str]):
        mrf, log_offset = reduce_to_evidence(model, evidence)
        refuse_zero_evidence(log_offset)
        pairs, _ = _exp_shifted(mrf.factors)
        self.variables = list(mrf.variables.values())
        row = {v.name: i for i, v in enumerate(self.variables)}
        cards = [v.cardinality for v in self.variables]
        self.width = width = max(cards, default=1)
        edge_var: list[int] = []
        edges = []
        for scope, _ in pairs:
            edges.append(range(len(edge_var), len(edge_var) + len(scope)))
            edge_var += [row[v.name] for v in scope]
        self.n_edges = n = len(edge_var)
        # (tables (G, *shape), edge index per slot (G, r), shape)
        self.groups = [(tables, np.array([edges[k] for k in ks], dtype=np.intp), tables.shape[1:])
                       for ks, tables in _stacked([table for _, table in pairs])]

        incident: list[list[int]] = [[] for _ in cards]
        for e, i in enumerate(edge_var):
            incident[i].append(e)
        degree = max(map(len, incident), default=0)
        ones = 2 * n
        self.incident = np.array([es + [ones] * (degree - len(es)) for es in incident],
                                 dtype=np.intp).reshape(len(cards), degree)
        # slot t of a variable multiplies every incident row but its own
        self.leave_one_out = np.repeat(self.incident[:, None, :], degree, axis=1)
        self.leave_one_out[:, np.arange(degree), np.arange(degree)] = ones
        # the row of edge e's leave-one-out product, flattened over (V, D)
        self.position = np.empty(n, dtype=np.intp)
        for i, es in enumerate(incident):
            self.position[es] = i * degree + np.arange(len(es))
        # each variable's base table of ones, padded with zeros: (V, 1, K)
        self.base = (np.arange(width) < np.array(cards).reshape(-1, 1, 1)).astype(float)
        self.message_rows = _RowLayout([cards[i] for i in edge_var], width)
        self.belief_rows = _RowLayout(cards, width)

    def initial_messages(self) -> np.ndarray:
        """Uniform messages on both sides of every edge, then the ones row."""
        uniform = self.message_rows.uniform
        return np.vstack([uniform, uniform, np.ones((1, self.width))])

    def factor_half(self, messages: np.ndarray) -> np.ndarray:
        """Every new factor-to-variable message from the current
        variable-to-factor ones, normalized."""
        n = self.n_edges
        new = np.zeros((n, self.width))
        for tables, edges, shape in self.groups:
            incoming = []
            for j, k in enumerate(shape):
                expand = [len(tables)] + [1] * len(shape)
                expand[j + 1] = k
                incoming.append(messages[n + edges[:, j], :k].reshape(expand))
            for t, k in enumerate(shape):
                out = tables
                for j, message in enumerate(incoming):
                    if j != t:
                        out = out * message
                if len(shape) > 1:
                    out = np.sum(out, axis=tuple(a + 1 for a in range(len(shape)) if a != t))
                new[edges[:, t], :k] = out
        return self.message_rows.normalized(new)

    def variable_half(self, messages: np.ndarray) -> np.ndarray:
        """Every new variable-to-factor message from the current
        factor-to-variable ones, normalized."""
        products = self._products(messages, self.leave_one_out).reshape(-1, self.width)
        return self.message_rows.normalized(products[self.position])

    def beliefs(self, messages: np.ndarray) -> np.ndarray:
        """Each variable's normalized belief, one padded row per variable."""
        products = self._products(messages, self.incident[:, None, :])
        return self.belief_rows.normalized(products.reshape(-1, self.width))

    def _products(self, messages: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Per variable and target slot, the base times the rows ``index``
        (V, T, D) names, multiplied in slot order: (V, T, K)."""
        out = self.base
        gathered = messages[index]
        for d in range(index.shape[2]):
            out = out * gathered[:, :, d]
        return out


class _RowLayout:
    """Rows of a padded array, each over the first k of its K columns."""

    def __init__(self, cards: Sequence[int], width: int):
        cards = np.array(cards, dtype=np.intp).reshape(-1, 1)
        self.uniform = np.where(np.arange(width) < cards, 1.0 / cards, 0.0)
        # each total sums k entries, in the order a k-entry table's sum takes
        seen = np.unique(cards)
        self.by_card = [(int(k), slice(None) if len(seen) == 1 else np.flatnonzero(cards == k))
                        for k in seen]

    def normalized(self, table: np.ndarray) -> np.ndarray:
        """Each row scaled to sum to 1; the uniform row where it sums to 0."""
        total = np.empty(len(table))
        for k, rows in self.by_card:
            total[rows] = table[rows, :k].sum(axis=1)
        positive = (total > 0)[:, None]
        return np.divide(table, total[:, None], out=self.uniform.copy(), where=positive)

