"""Monte Carlo machinery: ancestral and junction-tree forward sampling,
rejection and (normalized) importance estimators, Gibbs and
Metropolis-Hastings chains, and Markov-chain diagnostics.

Transition matrices follow the column-stochastic convention
T[i, j] = P(next = i | prev = j); most texts transpose this.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import factors as fa
from .errors import (
    InfiniteWeightError,
    InvalidKernelError,
    TrappedStateError,
    ZeroEvidenceError,
)
from .exact import JunctionTree, _tree_schedule
from .factors import Factor, Variable
from .graphs import topological_sort
from .models import (
    BayesianNetwork,
    CompiledModel,
    Model,
    check_evidence,
    reduce_to_evidence,
    refuse_zero_evidence,
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

    @cached_property
    def col_of(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.names)}

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]

    def assignments(self) -> list[dict[str, str]]:
        return [
            {v.name: v.states[s] for v, s in zip(self.variables, row)}
            for row in self.states
        ]

    def frequency(self, name: str, state: str) -> float:
        if not len(self):
            raise ValueError("an empty batch has no frequencies")
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


def _draw(states: np.ndarray, table: np.ndarray, known: Sequence[int],
          rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``states`` from ``table``, whose leading axes
    are the ``known`` columns of ``states`` and whose other axes are drawn:
    each row's flat index over the drawn axes."""
    cards = table.shape[:len(known)]
    rows = states[:, known] @ fa.strides(cards)
    return _categorical_rows(table.reshape(math.prod(cards), -1)[rows], rng)


def _batch(model: Model, n: int, evidence: Mapping[str, str], metadata: dict,
           free: Sequence[str] = (), states: np.ndarray | None = None) -> SampleBatch:
    """n rows over the sorted variable names holding the evidence states and
    the (n, len(free)) ``states`` of the ``free`` variables; zero elsewhere."""
    names = sorted(model.variables)
    batch = SampleBatch(tuple(model.variables[nm] for nm in names),
                        np.zeros((n, len(names)), dtype=np.int64), metadata=metadata)
    if free:
        batch.states[:, [batch.col_of[nm] for nm in free]] = states
    for name, state in evidence.items():
        batch.states[:, batch.col_of[name]] = model.variable(name).index_of(state)
    return batch


def _all_states(cards: Sequence[int]) -> np.ndarray:
    """Every joint state of variables of these cardinalities, as rows in
    flat-index order."""
    return np.indices(cards).reshape(len(cards), math.prod(cards)).T


# ---------------------------------------------------------------------------
# Forward sampling
# ---------------------------------------------------------------------------


def forward_sample(bn: BayesianNetwork, n: int, rng: np.random.Generator) -> SampleBatch:
    """Ancestral sampling: one categorical draw per variable per sample,
    in topological order, all samples drawn vectorized per variable."""
    batch = _batch(bn, n, {}, {"method": "forward"})
    col_of = batch.col_of
    for name in topological_sort(bn.dag):
        parents = list(bn.cpds[name].names[1:])
        table = fa.align_to(bn.cpds[name], parents + [name]).table
        batch.states[:, col_of[name]] = _draw(
            batch.states, table, [col_of[p] for p in parents], rng)
    return batch


def jt_forward_sample(jt: JunctionTree, n: int, rng: np.random.Generator) -> SampleBatch:
    """Top-down sampling through a calibrated clique tree.

    The root clique is drawn from its normalized belief; each child clique
    is drawn from its belief conditioned on the states already fixed on the
    shared (sepset) variables. Evidence variables come back as constants.
    """
    if not jt.calibrated:
        raise RuntimeError("calibrate the junction tree before sampling")
    batch = _batch(jt.model, n, jt.evidence, {"method": "jtree"})
    col_of = batch.col_of
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
        table = fa.align_to(belief, known + new).table
        flat = _draw(batch.states, table, [col_of[v] for v in known], rng)
        batch.states[:, [col_of[v] for v in new]] = np.column_stack(
            np.unravel_index(flat, table.shape[len(known):]))
        filled.update(new)
    return batch


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
    for f, logs in zip(factors, fa.log_tables(factors)):
        flat = states[:, [col_of[v] for v in f.names]] @ fa.strides(f.table.shape)
        out += logs.reshape(-1)[flat]
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


def _scored_batch(bn, hidden, z, evidence, metadata) -> tuple[SampleBatch, np.ndarray]:
    """The ``hidden`` states ``z`` beside the evidence, and each row's log
    unnormalized joint."""
    batch = _batch(bn, len(z), evidence, metadata, [v.name for v in hidden], z)
    return batch, batch_log_unnormalized(bn.factors, batch.names, batch.states)


def _check_proposal_support(bn, evidence, proposal, hidden) -> None:
    """Raise if q(z) = 0 somewhere p(evidence, z) > 0.

    Exact by enumeration when the hidden joint is small; skipped above the
    cap, where the violation would surface as an infinite weight anyway.
    """
    if math.prod(v.cardinality for v in hidden) > _SUPPORT_CHECK_CAP:
        return
    grid = _all_states([v.cardinality for v in hidden])
    _, log_p = _scored_batch(bn, hidden, grid, evidence, {})
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
    batch, log_p = _scored_batch(bn, hidden, z, evidence, {"method": "importance"})
    weights = batch.weights = np.exp(log_p - proposal.log_prob_batch(z))
    if not normalized:
        return ImportanceResult(float(np.mean(weights)), weights, n, False, batch)
    target = check_evidence(bn, target)
    mask = np.ones(n, dtype=bool)
    for name, state in target.items():
        mask &= batch.column(name) == bn.variable(name).index_of(state)
    denom = float(np.sum(weights))
    estimate = float(np.sum(weights[mask]) / denom) if denom > 0 else 0.0
    return ImportanceResult(estimate, weights, n, True, batch)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------


class _Site(NamedTuple):
    """One variable's full conditional: its Markov blanket (sorted by name)
    and the blanket's columns in the caller's state rows, and per touching
    factor, in model order, its index, the variable's axis in its scope,
    its strides over the blanket and its log table as (other states, site
    states)."""

    variable: Variable
    blanket: list[Variable]
    cols: list[int]
    terms: list[tuple[int, int, np.ndarray, np.ndarray]]


def _site_plans(factors: Sequence[Factor], sites: Sequence[Variable],
                col_of: Mapping[str, int]) -> list[_Site]:
    """One plan per site over the factors' tables, read as
    ``factors.log_tables`` gives them; ``col_of`` maps a variable's name to
    its column."""
    touching: dict[str, list[int]] = {v.name: [] for v in sites}
    for i, f in enumerate(factors):
        for name in touching.keys() & f.names:
            touching[name].append(i)
    logs = fa.log_tables(factors)
    plans = []
    for site in sites:
        others = {v.name: v for i in touching[site.name] for v in factors[i].scope}
        blanket = [others[n] for n in sorted(others) if n != site.name]
        pos_of = {v.name: k for k, v in enumerate(blanket)}
        terms = []
        for i in touching[site.name]:
            names = factors[i].names
            axis = names.index(site.name)
            order = [k for k in range(len(names)) if k != axis]
            strides, stride = [0] * len(blanket), 1
            for k in reversed(order):
                strides[pos_of[names[k]]], stride = stride, stride * logs[i].shape[k]
            table = logs[i].transpose(order + [axis]).reshape(-1, site.cardinality)
            terms.append((i, axis, np.array(strides, dtype=np.int64), table))
        plans.append(_Site(site, blanket, [col_of[v.name] for v in blanket], terms))
    return plans


def _site_logits(site: _Site, states: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The site's log tables summed in model order at each row of blanket
    ``states``, as (rows, site states), and each term's table rows."""
    logits = np.zeros((states.shape[0], site.variable.cardinality))
    rows = []
    for _, _, strides, table in site.terms:
        flat = states @ strides
        logits += table[flat]
        rows.append(flat)
    return logits, rows


def _site_tables(plans: Sequence[_Site], view: Callable[[np.ndarray], Sequence]
                 ) -> list[tuple[Sequence, list[tuple[int, int]]]]:
    """Per site, its rows and the blanket's (column, stride) pairs: row
    ``sum(state[c] * stride)`` is ``view`` (of a (rows, site states) array)
    of ``_site_logits`` at that blanket state. Rows holding at most
    ``CONDITIONAL_CACHE_CAP`` entries in all are built at once, else each
    when read; the strides are Python ints, as such a blanket can have
    more than 2**63 states."""
    out = []
    for plan in plans:
        cards = [v.cardinality for v in plan.blanket]
        strides = [math.prod(cards[k + 1:]) for k in range(len(cards))]
        if math.prod(cards) * plan.variable.cardinality <= CONDITIONAL_CACHE_CAP:
            rows = view(_site_logits(plan, _all_states(cards))[0])
        else:
            rows = _RowsAt(plan, strides, view)
        out.append((rows, list(zip(plan.cols, strides))))
    return out


class _RowsAt:
    """A site's rows past the cap, each built when read from the blanket
    state its flat index encodes."""

    def __init__(self, plan: _Site, strides: list[int], view: Callable[[np.ndarray], Sequence]):
        self.plan, self.strides, self.view = plan, strides, view

    def __getitem__(self, flat: int):
        states = []
        for stride in self.strides:
            state, flat = divmod(flat, stride)
            states.append(state)
        return self.view(_site_logits(self.plan, np.array([states], dtype=np.int64))[0])[0]


def _less_peak(logits: np.ndarray) -> np.ndarray:
    """Exp of each row of logits less the row's peak (zeros where no entry
    is finite)."""
    peak = logits.max(axis=1, keepdims=True)
    peak[peak == -np.inf] = 0.0
    return np.exp(logits - peak)


class _ConditionalSampler:
    """Per-variable full conditionals given the (checked) evidence,
    ``_less_peak`` of the site rows of ``_site_tables``: ``tables`` holds
    them as arrays, for ``conditional``, and ``cumulative`` their running
    sums as lists, for the Gibbs sweep. Each is built on first use."""

    def __init__(self, model: Model, evidence: Mapping[str, str]):
        mrf, log_offset = reduce_to_evidence(model, evidence)
        refuse_zero_evidence(log_offset)
        self.free = list(mrf.variables)
        self.col_of = {n: k for k, n in enumerate(self.free)}
        self.plans = _site_plans(mrf.factors, list(mrf.variables.values()), self.col_of)

    @cached_property
    def tables(self):
        return _site_tables(self.plans, _less_peak)

    @cached_property
    def cumulative(self):
        return _site_tables(self.plans, lambda logits: np.cumsum(_less_peak(logits), axis=1).tolist())

    def conditional(self, name: str, state_vec: np.ndarray) -> np.ndarray:
        rows, blanket = self.tables[self.col_of[name]]
        return rows[sum(int(state_vec[c]) * stride for c, stride in blanket)]


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

    Draw order: the initial state first (a forward sample for a Bayesian
    network, else one uniform integer per free variable), then per sweep
    ``rng.integers(k, size=k)`` for the random scan's sites, then
    ``rng.random(k)`` for the k site updates; update j takes the first
    state whose cumulative conditional reaches draw j times the total.
    """
    if burn_in < 0:
        raise ValueError("burn_in must not be negative")
    evidence = check_evidence(model, evidence or {})
    if scan not in ("systematic", "random"):
        raise ValueError("scan must be 'systematic' or 'random'")
    sampler = _ConditionalSampler(model, evidence)
    free = sampler.free
    state = _initial_state(model, evidence, rng, free).tolist()
    k_free = len(free)
    sites = sampler.cumulative
    kept = array("q")
    for sweep in range(burn_in + n):
        if k_free:
            order = (
                range(k_free)
                if scan == "systematic"
                else rng.integers(k_free, size=k_free).tolist()
            )
            for i, u in zip(order, rng.random(k_free).tolist()):
                rows, blanket = sites[i]
                row = 0
                for c, stride in blanket:
                    row += state[c] * stride
                cum = rows[row]
                total = cum[-1]
                if total <= 0.0:
                    raise TrappedStateError(
                        f"all states of {free[i]!r} have zero conditional probability"
                    )
                u *= total
                j = 0
                while cum[j] < u:
                    j += 1
                state[i] = j
        if sweep >= burn_in:
            kept.extend(state)
    chain = np.frombuffer(kept, dtype=np.int64).reshape(n, k_free)
    return _batch(model, n, evidence, {"method": "gibbs", "burn_in": burn_in, "scan": scan},
                  free, chain)


def gibbs_transition_matrix(model: Model, evidence: Mapping[str, str] | None = None
                            ) -> tuple[np.ndarray, list[dict[str, str]]]:
    """The explicit one-sweep Gibbs kernel, column-stochastic, built from
    the same conditionals the sampler uses. Returns (T, state labels)."""
    evidence = check_evidence(model, evidence or {})
    sampler = _ConditionalSampler(model, evidence)
    strides, states, labels = _free_states(model, evidence, sampler.free)
    flat = np.arange(len(states))
    total = np.eye(len(states))
    for i, plan in enumerate(sampler.plans):
        probs = _less_peak(_site_logits(plan, states[:, plan.cols])[0])
        sums = probs.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            raise TrappedStateError(f"zero conditional for {plan.variable.name!r}")
        step = np.zeros_like(total)
        for s_i, p in enumerate((probs / sums).T):
            step[flat + (s_i - states[:, i]) * strides[i], flat] = p
        total = step @ total
    return total, labels


def _free_states(model: Model, evidence: Mapping[str, str], free: Sequence[str]):
    """Every joint state of the free variables, in flat-index order: the
    strides, the states as rows and their labels with the evidence added."""
    cards = [model.variable(nm).cardinality for nm in free]
    states = _all_states(cards)
    labels = [
        {**evidence, **{nm: model.variable(nm).states[k] for nm, k in zip(free, row)}}
        for row in states.tolist()
    ]
    return fa.strides(cards), states, labels


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
        self._sampler = _ConditionalSampler(model, check_evidence(model, evidence or {}))
        self.variables = tuple(model.variables[nm] for nm in self._sampler.free)

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
    kernel unusable and raises, unless it leaves a zero-mass state.

    Each state is scored by one ``CompiledModel`` over the field of
    ``reduce_to_evidence``, bit for bit its ``log_joint``; the fixed
    factors' constant is left out (``ZeroEvidenceError`` when it is zero).

    The chain starts from the state ``gibbs`` would start from. If that
    state has zero mass and the joint fits the conditional cache cap, the
    joint is scored in full once and the chain starts from its MAP state
    instead (lowest state indices on ties), or raises ``ZeroEvidenceError``
    when no state has mass. Past the cap it keeps the drawn state, with no
    exact search for a supported one; every move out of a zero-mass state
    is accepted, so the chain walks into the support (or, when no state
    has mass, wanders over zero-mass states).
    """
    if burn_in < 0:
        raise ValueError("burn_in must not be negative")
    evidence = check_evidence(model, evidence or {})
    mrf, log_offset = reduce_to_evidence(model, evidence)
    free = list(mrf.variables)
    kernel_names = tuple(v.name for v in kernel.variables)
    if kernel_names != tuple(free):
        raise InvalidKernelError(
            f"kernel covers {list(kernel_names)}, model needs {free}"
        )
    refuse_zero_evidence(log_offset)
    compiled = CompiledModel(mrf)

    def log_ptilde(state_vec: np.ndarray) -> float:
        compiled.state = state_vec.tolist()
        return compiled.log_score()

    state = _initial_state(model, evidence, rng, free)
    current_lp = log_ptilde(state)
    cards = [model.variable(nm).cardinality for nm in free]
    if current_lp == -math.inf and math.prod(cards) <= CONDITIONAL_CACHE_CAP:
        # start where the target has mass: at the MAP state of the full table
        grid = _all_states(cards)
        lp_table = batch_log_unnormalized(mrf.factors, free, grid)
        top = int(np.argmax(lp_table))
        if lp_table[top] == -math.inf:
            raise ZeroEvidenceError(
                "every state of the free variables has zero probability"
            )
        state = grid[top]
        current_lp = float(lp_table[top])
    chain = np.zeros((n, len(free)), dtype=np.int64)
    accepted = 0
    for step in range(burn_in + n):
        # with every variable observed there is no move to propose
        proposal_vec = kernel.propose(state, rng) if free else state
        if np.array_equal(proposal_vec, state):
            accepted += 1  # self-move: the ratio is exactly 1
        else:
            log_fwd = kernel.log_density(state, proposal_vec)
            log_rev = kernel.log_density(proposal_vec, state)
            prop_lp = log_ptilde(proposal_vec)
            if current_lp == -math.inf:
                # a zero-mass start (past the cap): any move out is taken,
                # whether or not the kernel can return
                log_alpha = 0.0
            else:
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
            chain[step - burn_in] = state
    return _batch(model, n, evidence, {
        "method": "mh",
        "burn_in": burn_in,
        "acceptance_rate": accepted / max(1, burn_in + n),
    }, free, chain)


def mh_transition_matrix(model: Model, kernel,
                         evidence: Mapping[str, str] | None = None
                         ) -> tuple[np.ndarray, list[dict[str, str]]]:
    """Explicit MH kernel (proposal times acceptance), column-stochastic,
    scored as ``metropolis_hastings`` scores it."""
    evidence = check_evidence(model, evidence or {})
    mrf, log_offset = reduce_to_evidence(model, evidence)
    refuse_zero_evidence(log_offset)
    free = list(mrf.variables)
    _, vecs, labels = _free_states(model, evidence, free)
    size = len(vecs)
    log_p = batch_log_unnormalized(mrf.factors, free, vecs)
    # log_q[x][y] = log Q(y | x), each ordered pair scored once; staying put
    # is the remainder of the column
    log_q = [[-math.inf if x == y else kernel.log_density(a, b)
              for y, b in enumerate(vecs)] for x, a in enumerate(vecs)]
    T = np.zeros((size, size))
    for x in range(size):
        for y, log_q_fwd in enumerate(log_q[x]):
            if log_q_fwd == -math.inf:
                continue
            log_alpha = min(
                0.0, log_p[y] + log_q[y][x] - log_p[x] - log_q_fwd
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

    from scipy.sparse.csgraph import connected_components, shortest_path

    adj = T.T > 0.0  # adj[i, j]: state i can move to state j
    n_classes, labels = connected_components(adj, connection="strong")
    # a class's period is the gcd of level(u) + 1 - level(v) over its moves
    # u -> v, with BFS levels from any one member; 0 means no cycle
    periods = []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        within = adj[np.ix_(members, members)]
        level = shortest_path(within, unweighted=True, indices=0).astype(np.int64)
        u, v = np.nonzero(within)
        periods.append(np.gcd.reduce(level[u] + 1 - level[v]))
    residual = float(np.abs(T * pi - (T * pi).T).max())
    return ChainDiagnostics(pi, converged, iterations, n_classes == 1,
                            all(g <= 1 for g in periods), residual)
