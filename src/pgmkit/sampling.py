"""Monte Carlo machinery: ancestral and junction-tree forward sampling,
rejection and (normalized) importance estimators, Gibbs and
Metropolis-Hastings chains, and Markov-chain diagnostics.

Transition matrices follow the column-stochastic convention
T[i, j] = P(next = i | prev = j); most texts transpose this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import (
    InfiniteWeightError,
    InvalidKernelError,
    TrappedStateError,
)
from .exact import JunctionTree, _tree_schedule
from .factors import Factor, Variable
from .graphs import topological_sort
from .models import (
    BayesianNetwork,
    Model,
    check_evidence,
    linear_factors,
    model_factors,
)

CONDITIONAL_CACHE_CAP = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; one seed fixes the whole sample stream."""
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass
class SampleBatch:
    """Joint samples as an (n, len(variables)) array of state indices."""

    variables: tuple[Variable, ...]
    states: np.ndarray
    weights: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return self.states.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]

    def assignments(self) -> list[dict[str, str]]:
        return [
            {v.name: v.states[s] for v, s in zip(self.variables, row)}
            for row in self.states
        ]

    def frequency(self, name: str, state: str) -> float:
        var = self.variables[self.names.index(name)]
        return float(np.mean(self.column(name) == var.index_of(state)))

    def to_csv(self) -> str:
        header = list(self.names)
        if self.weights is not None:
            header.append("weight")
        lines = [",".join(header)]
        for i, row in enumerate(self.states):
            cells = [v.states[s] for v, s in zip(self.variables, row)]
            if self.weights is not None:
                cells.append(f"{self.weights[i]:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _categorical_rows(table_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of an (n, k) matrix of unnormalized probabilities."""
    totals = table_rows.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise TrappedStateError("a conditional distribution has no positive states")
    cum = np.cumsum(table_rows, axis=1)
    u = rng.random(table_rows.shape[0])[:, None] * totals
    idx = (u > cum).sum(axis=1)
    return np.minimum(idx, table_rows.shape[1] - 1)


# ---------------------------------------------------------------------------
# Forward sampling
# ---------------------------------------------------------------------------


def forward_sample(bn: BayesianNetwork, n: int, rng: np.random.Generator) -> SampleBatch:
    """Ancestral sampling: one categorical draw per variable per sample,
    in topological order, all samples drawn vectorized per variable."""
    order = topological_sort(bn.dag)
    names = sorted(bn.variables)
    col_of = {name: k for k, name in enumerate(names)}
    states = np.zeros((n, len(names)), dtype=np.int64)
    for name in order:
        cpd = bn.cpds[name]
        parents = list(cpd.names[1:])
        child = bn.variables[name]
        aligned = fa.align_to(cpd, parents + [name])
        table = aligned.table.reshape(-1, child.cardinality)
        if parents:
            strides = fa.strides([bn.variables[p].cardinality for p in parents])
            rows = states[:, [col_of[p] for p in parents]] @ strides
        else:
            rows = np.zeros(n, dtype=np.int64)
        states[:, col_of[name]] = _categorical_rows(table[rows], rng)
    variables = tuple(bn.variables[n] for n in names)
    return SampleBatch(variables, states, metadata={"method": "forward"})


def jt_forward_sample(jt: JunctionTree, n: int, rng: np.random.Generator) -> SampleBatch:
    """Top-down sampling through a calibrated clique tree.

    The root clique is drawn from its normalized belief; each child clique
    is drawn from its belief conditioned on the states already fixed on the
    shared (sepset) variables. Evidence variables come back as constants.
    """
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree before sampling")
    model = jt.model
    names = sorted(model.variables)
    col_of = {name: k for k, name in enumerate(names)}
    states = np.zeros((n, len(names)), dtype=np.int64)
    for name, state in jt.evidence.items():
        states[:, col_of[name]] = model.variable(name).index_of(state)

    # deterministic traversal: component roots in index order
    cliques = range(len(jt.cliques))
    order, _, _ = _tree_schedule(cliques, {i: jt.neighbors(i) for i in cliques})
    filled: set[str] = set(jt.evidence)
    for idx in order:
        belief = jt.beliefs[idx]
        known = [v for v in belief.names if v in filled]
        new = [v for v in belief.names if v not in filled]
        if not new:
            continue
        aligned = fa.align_to(belief, known + new)
        new_cards = [model.variable(v).cardinality for v in new]
        block = math.prod(new_cards)
        table = aligned.table.reshape(-1, block)
        if known:
            strides = fa.strides([model.variable(v).cardinality for v in known])
            rows = states[:, [col_of[v] for v in known]] @ strides
        else:
            rows = np.zeros(n, dtype=np.int64)
        flat = _categorical_rows(table[rows], rng)
        for pos, v in enumerate(new):
            divisor = math.prod(new_cards[pos + 1:])
            states[:, col_of[v]] = (flat // divisor) % new_cards[pos]
        filled.update(new)
    variables = tuple(model.variables[n] for n in names)
    return SampleBatch(variables, states, metadata={"method": "jtree"})


# ---------------------------------------------------------------------------
# Rejection and importance estimators
# ---------------------------------------------------------------------------


@dataclass
class RejectionResult:
    estimate: float
    accepted: int
    n: int
    zero_acceptance: bool


def rejection_estimate(bn: BayesianNetwork, evidence: Mapping[str, str],
                       n: int, rng: np.random.Generator) -> RejectionResult:
    """p(evidence) as the fraction of forward samples consistent with it."""
    evidence = check_evidence(bn, evidence)
    batch = forward_sample(bn, n, rng)
    mask = np.ones(n, dtype=bool)
    for name, state in evidence.items():
        mask &= batch.column(name) == bn.variable(name).index_of(state)
    accepted = int(np.sum(mask))
    if accepted == 0:
        import warnings

        warnings.warn(
            "no sample matched the evidence; the estimate of 0 is a lower bound",
            stacklevel=2,
        )
    return RejectionResult(accepted / n, accepted, n, accepted == 0)


def batch_log_unnormalized(factors: Sequence[Factor], names: Sequence[str],
                           states: np.ndarray) -> np.ndarray:
    """Vectorized log of the product of the factors for each row of states,
    whose columns are the variables ``names``."""
    col_of = {name: k for k, name in enumerate(names)}
    out = np.zeros(states.shape[0])
    with np.errstate(divide="ignore"):
        for f in factors:
            if not f.scope:
                value = float(f.table)
                if f.domain == fa.LOG:
                    out += value
                else:
                    out += math.log(value) if value > 0 else -np.inf
                continue
            flat = states[:, [col_of[v] for v in f.names]] @ fa.strides(f.table.shape)
            logtab = f.table.reshape(-1) if f.domain == fa.LOG else np.log(f.values)
            out += logtab[flat]
    return out


class UniformProposal:
    """Independent uniform draws over the given variables."""

    def __init__(self, variables: Sequence[Variable]):
        self.variables = tuple(sorted(variables, key=lambda v: v.name))

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.column_stack(
            [rng.integers(v.cardinality, size=n) for v in self.variables]
        )

    def log_prob_batch(self, states: np.ndarray) -> np.ndarray:
        total = -sum(math.log(v.cardinality) for v in self.variables)
        return np.full(states.shape[0], total)


class FactoredProposal:
    """Independent per-variable categorical draws from explicit tables."""

    def __init__(self, variables: Sequence[Variable], tables: Mapping[str, np.ndarray]):
        self.variables = tuple(sorted(variables, key=lambda v: v.name))
        self.tables = {
            v.name: np.asarray(tables[v.name], dtype=float) for v in self.variables
        }
        for name, t in self.tables.items():
            if t.ndim != 1 or not math.isclose(t.sum(), 1.0, abs_tol=1e-9):
                raise ValueError(f"proposal table for {name!r} must be a distribution")

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        for v in self.variables:
            rows = np.broadcast_to(self.tables[v.name], (n, v.cardinality))
            cols.append(_categorical_rows(np.ascontiguousarray(rows), rng))
        return np.column_stack(cols)

    def log_prob_batch(self, states: np.ndarray) -> np.ndarray:
        out = np.zeros(states.shape[0])
        with np.errstate(divide="ignore"):
            for k, v in enumerate(self.variables):
                out += np.log(self.tables[v.name])[states[:, k]]
        return out


@dataclass
class ImportanceResult:
    estimate: float
    weights: np.ndarray
    n: int
    normalized: bool
    batch: "SampleBatch | None" = None


_SUPPORT_CHECK_CAP = 1 << 14


def _check_proposal_support(bn, evidence, proposal, hidden) -> None:
    """Raise if q(z) = 0 somewhere p(evidence, z) > 0.

    Exact by enumeration when the hidden joint is small; skipped above the
    cap, where the violation would surface as an infinite weight anyway.
    """
    size = math.prod(v.cardinality for v in hidden)
    if size > _SUPPORT_CHECK_CAP:
        return
    cards = [v.cardinality for v in hidden]
    grid = np.indices(cards).reshape(len(cards), -1).T if hidden else np.zeros((1, 0), dtype=int)
    names = sorted(bn.variables)
    full = np.zeros((grid.shape[0], len(names)), dtype=np.int64)
    for k, v in enumerate(hidden):
        full[:, names.index(v.name)] = grid[:, k]
    for name, state in evidence.items():
        full[:, names.index(name)] = bn.variable(name).index_of(state)
    log_p = batch_log_unnormalized(model_factors(bn), names, full)
    log_q = proposal.log_prob_batch(grid)
    if np.any(np.isneginf(log_q) & (log_p > -np.inf)):
        raise InfiniteWeightError(
            "proposal assigns zero probability where p(evidence, z) > 0"
        )


def importance_estimate(bn: BayesianNetwork, evidence: Mapping[str, str],
                        proposal, n: int, rng: np.random.Generator,
                        target: Mapping[str, str] | None = None,
                        normalized: bool = False) -> ImportanceResult:
    """Importance-weighted estimates with weights w = p(evidence, z) / q(z).

    Unnormalized mode returns the mean weight, an unbiased estimate of
    p(evidence). Normalized mode estimates p(target | evidence) as the
    indicator-weighted mean over one shared set of samples; it is biased at
    finite n but asymptotically unbiased.
    """
    evidence = check_evidence(bn, evidence)
    if normalized and not target:
        raise ValueError("normalized mode needs a target assignment")
    hidden = [bn.variables[v] for v in sorted(bn.variables) if v not in evidence]
    prop_names = tuple(v.name for v in proposal.variables)
    if prop_names != tuple(v.name for v in hidden):
        raise ValueError(
            f"proposal covers {list(prop_names)}, need {[v.name for v in hidden]}"
        )
    _check_proposal_support(bn, evidence, proposal, hidden)
    z = proposal.sample_batch(n, rng)
    names = sorted(bn.variables)
    full = np.zeros((n, len(names)), dtype=np.int64)
    hidden_cols = [names.index(v.name) for v in hidden]
    full[:, hidden_cols] = z
    for name, state in evidence.items():
        full[:, names.index(name)] = bn.variable(name).index_of(state)
    log_p = batch_log_unnormalized(model_factors(bn), names, full)
    log_q = proposal.log_prob_batch(z)
    weights = np.exp(log_p - log_q)
    batch = SampleBatch(
        tuple(bn.variables[nm] for nm in names),
        full,
        weights=weights,
        metadata={"method": "importance"},
    )
    if not normalized:
        return ImportanceResult(float(np.mean(weights)), weights, n, False, batch)
    target = check_evidence(bn, target)
    mask = np.ones(n, dtype=bool)
    for name, state in target.items():
        mask &= full[:, names.index(name)] == bn.variable(name).index_of(state)
    denom = float(np.sum(weights))
    estimate = float(np.sum(weights[mask]) / denom) if denom > 0 else 0.0
    return ImportanceResult(estimate, weights, n, True, batch)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------


class _ConditionalSampler:
    """Per-variable full conditionals with cached blanket-indexed tables."""

    def __init__(self, model: Model, evidence: Mapping[str, str]):
        self.model = model
        self.evidence = dict(evidence)
        self.free = [n for n in sorted(model.variables) if n not in evidence]
        self.col_of = {n: k for k, n in enumerate(self.free)}
        self.cards = np.array(
            [model.variable(n).cardinality for n in self.free], dtype=np.int64
        )
        reduced = [
            fa.reduce_factor(f, evidence) for f in linear_factors(model_factors(model))
        ]
        self.plans = {}
        for name in self.free:
            touching = [f for f in reduced if name in f.names]
            blanket = sorted({v for f in touching for v in f.names if v != name})
            size = math.prod(model.variable(b).cardinality for b in blanket)
            card = model.variable(name).cardinality
            if touching and size * card <= CONDITIONAL_CACHE_CAP:
                aligned = fa.align_to(fa.product_all(touching), blanket + [name])
                table = aligned.table.reshape(size, card)
                strides = np.zeros(len(self.free), dtype=np.int64)
                strides[[self.col_of[b] for b in blanket]] = fa.strides(
                    aligned.table.shape[:-1]
                )
                self.plans[name] = ("table", table, strides)
            else:
                self.plans[name] = ("factors", touching, blanket)
        self.cums = {
            name: (np.cumsum(plan[1], axis=1), plan[2])
            for name, plan in self.plans.items()
            if plan[0] == "table"
        }

    def conditional(self, name: str, state_vec: np.ndarray) -> np.ndarray:
        kind, a, b = self.plans[name]
        if kind == "table":
            row = a[int(state_vec @ b)]
            return row
        touching, blanket = a, b
        card = self.model.variable(name).cardinality
        out = np.ones(card)
        assignment = {
            v: self.model.variable(v).states[state_vec[self.col_of[v]]]
            for v in blanket
        }
        for f in touching:
            sliced = fa.reduce_factor(f, assignment)
            out = out * fa.align_to(sliced, [name]).values
        return out


def _initial_state(model: Model, evidence: Mapping[str, str],
                   rng: np.random.Generator, free: Sequence[str]) -> np.ndarray:
    if isinstance(model, BayesianNetwork):
        warm = forward_sample(model, 1, rng)
        return np.array(
            [warm.column(n)[0] for n in free], dtype=np.int64
        )
    return np.array(
        [rng.integers(model.variable(n).cardinality) for n in free], dtype=np.int64
    )


def gibbs(model: Model, evidence: Mapping[str, str] | None,
          n: int, burn_in: int, rng: np.random.Generator,
          scan: str = "systematic") -> SampleBatch:
    """Single-site Gibbs sampling with exact Markov-blanket conditionals.

    Variables update in name order per sweep (or uniformly at random with
    scan="random"); each new value is used immediately. The first
    ``burn_in`` sweeps are discarded; one retained sample per sweep.
    """
    evidence = check_evidence(model, evidence or {})
    if scan not in ("systematic", "random"):
        raise ValueError("scan must be 'systematic' or 'random'")
    sampler = _ConditionalSampler(model, evidence)
    free = sampler.free
    state = _initial_state(model, evidence, rng, free)
    names = sorted(model.variables)
    out = np.zeros((n, len(names)), dtype=np.int64)
    ev_cols = {
        names.index(name): model.variable(name).index_of(state_label)
        for name, state_label in evidence.items()
    }
    free_cols = [names.index(nm) for nm in free]
    k_free = len(free)
    cums = sampler.cums
    for sweep in range(burn_in + n):
        if k_free:
            sites = (
                range(k_free)
                if scan == "systematic"
                else rng.integers(k_free, size=k_free)
            )
            for i in sites:
                name = free[i]
                cached = cums.get(name)
                if cached is not None:
                    cum_table, strides = cached
                    cum = cum_table[int(state @ strides)]
                else:
                    cum = np.cumsum(sampler.conditional(name, state))
                total = cum[-1]
                if total <= 0.0:
                    raise TrappedStateError(
                        f"all states of {name!r} have zero conditional probability"
                    )
                state[i] = int(np.searchsorted(cum, rng.random() * total))
        if sweep >= burn_in:
            row = out[sweep - burn_in]
            row[free_cols] = state
            for col, val in ev_cols.items():
                row[col] = val
    variables = tuple(model.variables[nm] for nm in names)
    return SampleBatch(
        variables,
        out,
        metadata={"method": "gibbs", "burn_in": burn_in, "scan": scan},
    )


def gibbs_transition_matrix(model: Model, evidence: Mapping[str, str] | None = None
                            ) -> tuple[np.ndarray, list[dict[str, str]]]:
    """The explicit one-sweep Gibbs kernel, column-stochastic, built from
    the same conditionals the sampler uses. Returns (T, state labels)."""
    evidence = check_evidence(model, evidence or {})
    sampler = _ConditionalSampler(model, evidence)
    free = sampler.free
    strides, vecs, labels = _free_states(model, evidence, free)
    size = len(vecs)
    total = np.eye(size)
    for i, name in enumerate(free):
        step = np.zeros((size, size))
        for flat, vec in enumerate(vecs):
            probs = sampler.conditional(name, vec)
            s = probs.sum()
            if s <= 0.0:
                raise TrappedStateError(f"zero conditional for {name!r}")
            probs = probs / s
            for s_i, p in enumerate(probs):
                target = flat + (s_i - vec[i]) * int(strides[i])
                step[target, flat] += p
        total = step @ total
    return total, labels


def _free_states(model: Model, evidence: Mapping[str, str], free: Sequence[str]):
    """Every joint state of the free variables, in flat-index order: the
    strides, the state vectors and their labels with the evidence added."""
    cards = [model.variable(nm).cardinality for nm in free]
    strides = fa.strides(cards)
    vecs = [
        np.array([(flat // int(strides[i])) % cards[i] for i in range(len(free))],
                 dtype=np.int64)
        for flat in range(math.prod(cards))
    ]
    labels = [
        {**evidence, **{nm: model.variable(nm).states[vec[i]] for i, nm in enumerate(free)}}
        for vec in vecs
    ]
    return strides, vecs, labels


# ---------------------------------------------------------------------------
# Metropolis-Hastings
# ---------------------------------------------------------------------------


class SingleSiteUniformKernel:
    """Pick a variable uniformly, then a uniformly random different state.

    Symmetric, so the acceptance ratio reduces to the probability ratio.
    """

    def __init__(self, variables: Sequence[Variable]):
        self.variables = tuple(sorted(variables, key=lambda v: v.name))

    def propose(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        i = int(rng.integers(len(self.variables)))
        card = self.variables[i].cardinality
        if card == 1:
            return state.copy()
        shift = 1 + int(rng.integers(card - 1))
        new = state.copy()
        new[i] = (state[i] + shift) % card
        return new

    def log_density(self, from_state: np.ndarray, to_state: np.ndarray) -> float:
        diff = np.nonzero(from_state != to_state)[0]
        if len(diff) == 0:
            return -math.inf  # staying put is never proposed
        if len(diff) > 1:
            return -math.inf
        i = int(diff[0])
        card = self.variables[i].cardinality
        if card == 1:
            return -math.inf
        return -math.log(len(self.variables)) - math.log(card - 1)


class GibbsSiteKernel:
    """Single-site conditional proposal; as an MH kernel it always accepts."""

    def __init__(self, model: Model, evidence: Mapping[str, str] | None = None):
        evidence = check_evidence(model, evidence or {})
        self._sampler = _ConditionalSampler(model, evidence)
        self.variables = tuple(
            model.variables[nm] for nm in self._sampler.free
        )

    def propose(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        i = int(rng.integers(len(self.variables)))
        probs = self._sampler.conditional(self.variables[i].name, state)
        total = probs.sum()
        if total <= 0.0:
            raise TrappedStateError("zero conditional")
        u = rng.random() * total
        new = state.copy()
        new[i] = int(np.searchsorted(np.cumsum(probs), u))
        return new

    def log_density(self, from_state: np.ndarray, to_state: np.ndarray) -> float:
        diff = np.nonzero(from_state != to_state)[0]
        if len(diff) > 1:
            return -math.inf
        n = len(self.variables)
        if len(diff) == 0:
            # any site could have resampled its current value
            total = 0.0
            for i, v in enumerate(self.variables):
                probs = self._sampler.conditional(v.name, from_state)
                total += probs[from_state[i]] / probs.sum()
            return math.log(total / n)
        i = int(diff[0])
        probs = self._sampler.conditional(self.variables[i].name, from_state)
        p = probs[to_state[i]] / probs.sum()
        return math.log(p / n) if p > 0 else -math.inf


def metropolis_hastings(model: Model, kernel, n: int, burn_in: int,
                        rng: np.random.Generator,
                        evidence: Mapping[str, str] | None = None) -> SampleBatch:
    """Generic MH over the model's free variables.

    Accepts a proposed move with min(1, ptilde(x') Q(x|x') / (ptilde(x)
    Q(x'|x))); the unnormalized joint suffices. Rejected steps repeat the
    current state. A proposed move whose reverse density is zero makes the
    kernel unusable and raises.
    """
    evidence = check_evidence(model, evidence or {})
    free = [nm for nm in sorted(model.variables) if nm not in evidence]
    kernel_names = tuple(v.name for v in kernel.variables)
    if kernel_names != tuple(free):
        raise InvalidKernelError(
            f"kernel covers {list(kernel_names)}, model needs {free}"
        )
    names = sorted(model.variables)
    reduced = [fa.reduce_factor(f, evidence) for f in model_factors(model)]

    cards = [model.variable(nm).cardinality for nm in free]
    size = math.prod(cards)
    if size <= CONDITIONAL_CACHE_CAP:
        strides = fa.strides(cards)
        grid = np.indices(cards).reshape(len(cards), -1).T
        lp_table = batch_log_unnormalized(reduced, free, grid)

        def log_ptilde(state_vec: np.ndarray) -> float:
            return float(lp_table[int(state_vec @ strides)])

    else:

        def log_ptilde(state_vec: np.ndarray) -> float:
            return float(batch_log_unnormalized(reduced, free, state_vec[None, :])[0])

    state = _initial_state(model, evidence, rng, free)
    current_lp = log_ptilde(state)
    out = np.zeros((n, len(names)), dtype=np.int64)
    ev_cols = {
        names.index(nm): model.variable(nm).index_of(st)
        for nm, st in evidence.items()
    }
    free_cols = [names.index(nm) for nm in free]
    accepted = 0
    for step in range(burn_in + n):
        proposal_vec = kernel.propose(state, rng)
        if np.array_equal(proposal_vec, state):
            accepted += 1  # self-move: the ratio is exactly 1
        else:
            log_fwd = kernel.log_density(state, proposal_vec)
            log_rev = kernel.log_density(proposal_vec, state)
            prop_lp = log_ptilde(proposal_vec)
            if log_rev == -math.inf and prop_lp > -math.inf:
                raise InvalidKernelError(
                    "proposal cannot return from a proposed state"
                )
            log_alpha = min(0.0, prop_lp + log_rev - current_lp - log_fwd)
            if math.log(max(rng.random(), 1e-300)) < log_alpha:
                state = proposal_vec
                current_lp = prop_lp
                accepted += 1
        if step >= burn_in:
            row = out[step - burn_in]
            row[free_cols] = state
            for col, val in ev_cols.items():
                row[col] = val
    variables = tuple(model.variables[nm] for nm in names)
    return SampleBatch(
        variables,
        out,
        metadata={
            "method": "mh",
            "burn_in": burn_in,
            "acceptance_rate": accepted / max(1, burn_in + n),
        },
    )


def mh_transition_matrix(model: Model, kernel,
                         evidence: Mapping[str, str] | None = None
                         ) -> tuple[np.ndarray, list[dict[str, str]]]:
    """Explicit MH kernel (proposal times acceptance), column-stochastic."""
    evidence = check_evidence(model, evidence or {})
    free = [nm for nm in sorted(model.variables) if nm not in evidence]
    reduced = [fa.reduce_factor(f, evidence) for f in model_factors(model)]
    _, vecs, labels = _free_states(model, evidence, free)
    size = len(vecs)
    log_p = batch_log_unnormalized(reduced, free, np.array(vecs).reshape(size, len(free)))
    T = np.zeros((size, size))
    for x in range(size):
        for y in range(size):
            if x == y:
                continue
            log_q_fwd = kernel.log_density(vecs[x], vecs[y])
            if log_q_fwd == -math.inf:
                continue
            log_q_rev = kernel.log_density(vecs[y], vecs[x])
            log_alpha = min(
                0.0, log_p[y] + log_q_rev - log_p[x] - log_q_fwd
            ) if log_p[x] > -np.inf else 0.0
            T[y, x] = math.exp(log_q_fwd) * math.exp(log_alpha)
        T[x, x] = max(0.0, 1.0 - T[:, x].sum() + T[x, x])
    return T, labels


# ---------------------------------------------------------------------------
# Markov-chain diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ChainDiagnostics:
    stationary: np.ndarray
    converged: bool
    iterations: int
    irreducible: bool
    aperiodic: bool
    detailed_balance_residual: float


def chain_analysis(T: np.ndarray, p0: np.ndarray | None = None,
                   tol: float = 1e-12, max_iters: int = 10**6) -> ChainDiagnostics:
    """Diagnostics for a column-stochastic transition matrix.

    Stationarity comes from power iteration; irreducibility is strong
    connectivity of the positive-entry digraph; aperiodicity requires
    every state on a cycle to have period 1.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(T < 0) or not np.allclose(T.sum(axis=0), 1.0, atol=1e-12):
        raise ValueError("columns must be nonnegative and sum to 1")
    d = T.shape[0]
    p = np.full(d, 1.0 / d) if p0 is None else np.asarray(p0, dtype=float)
    if p.shape != (d,) or not math.isclose(p.sum(), 1.0, abs_tol=1e-9):
        raise ValueError("p0 must be a distribution over the states")
    converged = False
    iterations = 0
    previous = None
    for iterations in range(1, max_iters + 1):
        nxt = T @ p
        if np.max(np.abs(nxt - p)) < tol:
            p = nxt
            converged = True
            break
        if previous is not None and np.array_equal(nxt, previous):
            p = nxt  # exact oscillation: the limit does not exist
            break
        previous = p
        p = nxt
    pi = p / p.sum()

    adj = T.T > 0.0  # adj[i, j]: state i can move to state j
    components = _strongly_connected_components(adj)
    irreducible = len(components) == 1
    aperiodic = all(_period_is_one(adj, comp) for comp in components)
    residual = 0.0
    for i in range(d):
        for j in range(d):
            residual = max(residual, abs(pi[j] * T[i, j] - pi[i] * T[j, i]))
    return ChainDiagnostics(pi, converged, iterations, irreducible, aperiodic, residual)


def _strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components by double DFS (small matrices only),
    each a sorted list of states."""
    d = adj.shape[0]
    unassigned = set(range(d))
    components = []
    while unassigned:
        s = min(unassigned)
        fwd = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                v = int(v)
                if v in unassigned and v not in fwd:
                    fwd.add(v)
                    stack.append(v)
        bwd = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[:, u])[0]:
                v = int(v)
                if v in unassigned and v not in bwd:
                    bwd.add(v)
                    stack.append(v)
        comp = fwd & bwd
        components.append(sorted(comp))
        unassigned -= comp
    return components


def _period_is_one(adj: np.ndarray, comp: list[int]) -> bool:
    """Whether the cycles within one strongly connected component have
    period 1; a single state with or without a self-loop passes."""
    if len(comp) == 1:
        return True
    members = set(comp)
    level = {comp[0]: 0}
    queue = [comp[0]]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v in members and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in comp:
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v in members:
                g = math.gcd(g, level[u] + 1 - level[v])
    return g == 1
