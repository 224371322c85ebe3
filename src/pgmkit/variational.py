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
from .exact import _factor_graph
from .factors import Factor, Variable
from .models import (
    Model,
    check_evidence,
    enumerate_inference,
    reduce_to_evidence,
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
        out = None
        for v in sorted(variables, key=lambda v: v.name):
            f = Factor([v], self.tables[v.name])
            out = f if out is None else fa.product(out, f)
        return out

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


def _expected_log_factor(f: Factor, q: FactoredDistribution,
                         fix: str | None = None) -> np.ndarray | float:
    """E_q[log f], optionally as a function of one scope variable left free.

    Zero-probability assignments contribute nothing even when log f is
    -inf there.
    """
    with np.errstate(divide="ignore"):
        logf = f.table if f.domain == fa.LOG else np.log(f.table)
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
    evidence = check_evidence(model, evidence or {})
    free = [n for n in sorted(model.variables) if n not in evidence]
    if sorted(q.tables) != free:
        raise ValueError(f"q must cover exactly the free variables {free}")
    reduced, total = reduce_to_evidence(model, evidence)
    total += q.entropy()
    for g in reduced:
        total += _expected_log_factor(g, q)
    return float(total)


@dataclass
class ElboTrace:
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
    """
    evidence = check_evidence(model, evidence or {})
    free_names = [n for n in sorted(model.variables) if n not in evidence]
    free_vars = [model.variables[n] for n in free_names]
    reduced, _ = reduce_to_evidence(model, evidence)
    touching = {
        n: [f for f in reduced if n in f.names] for n in free_names
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
            len({v for f in touching[n] for v in f.names} - {n})
            for n in free_names
        ),
        default=0,
    )
    current = elbo(model, q, evidence)
    trace.values.append(current)
    for sweep in range(1, max_sweeps + 1):
        before_sweep = current
        for name in free_names:
            log_q = np.zeros(model.variable(name).cardinality)
            for f in touching[name]:
                log_q = log_q + _expected_log_factor(f, q, fix=name)
            peak = np.max(log_q)
            if peak == -math.inf:
                raise DegenerateUpdateError(
                    f"every state of {name!r} has zero expected mass"
                )
            table = np.exp(log_q - peak)
            q.tables[name] = table / table.sum()
            current = elbo(model, q, evidence)
            trace.update_values.append(current)
        trace.values.append(current)
        trace.sweeps = sweep
        if current - before_sweep < tol:
            trace.converged = True
            break
    if _enumerable(model):
        log_z = math.log(
            enumerate_inference(model, mode="partition", evidence=evidence)
        )
        trace.final_gap = log_z - current
    return q, trace


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
    than raised. Beliefs are exact on trees.

    Messages and beliefs come from the send step of tree BP and the
    junction tree; where those refuse an all-zero table, loopy BP takes
    the uniform one instead.
    """
    if schedule not in ("synchronous", "sequential"):
        raise ValueError("schedule must be 'synchronous' or 'sequential'")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    evidence = check_evidence(model, evidence or {})
    graph, variables, _ = _factor_graph(model, evidence)
    messages = {edge: np.full(v.cardinality, 1.0 / v.cardinality)
                for edge, (v,) in graph.kept.items()}
    f2v = [edge for edge in messages if edge[0][0] == "f"]
    v2f = [edge for edge in messages if edge[0][0] == "v"]
    if schedule == "synchronous":
        groups = [f2v + v2f]      # every proposal reads the old messages
    else:
        groups = [[edge] for edge in sorted(f2v) + sorted(v2f)]

    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        residual = 0.0
        for group in groups:
            proposed = [_normalized(graph.send(messages, *edge)) for edge in group]
            for edge, new in zip(group, proposed):
                old = messages[edge]
                blended = (1 - damping) * old + damping * new
                residual = max(residual, float(np.max(np.abs(blended - old))))
                messages[edge] = blended
        if residual < tol:
            break
    converged = residual < tol

    marginals = {
        v.name: Factor([v], _normalized(graph.send(messages, ("v", v.name))))
        for v in variables
    }
    return LoopyBpResult(marginals, converged, iterations, residual)


def _normalized(table: np.ndarray) -> np.ndarray:
    """A one-variable table scaled to sum to 1; uniform when all zero."""
    total = table.sum()
    return table / total if total > 0 else np.full(len(table), 1.0 / len(table))
