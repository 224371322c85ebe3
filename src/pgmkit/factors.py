"""Discrete factors (potentials) and the semiring-generic algebra on them.

A factor is a nonnegative table over an ordered scope of discrete variables.
Tables are stored as C-ordered numpy arrays, so the first scope variable is
the slowest-varying index of the flattened table. Factors are immutable:
every operation returns a new factor, and value buffers are marked read-only
so they can be shared freely across threads.

Factors carry a ``domain`` tag. Linear-domain factors hold the values
themselves; log-domain factors hold their logarithms, in which case product
becomes addition and sum-elimination becomes logsumexp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDistributionError,
    EvidenceError,
    FactorDivisionError,
    IncompatibleVariableError,
    ScopeError,
)

LINEAR = "linear"
LOG = "log"
_LOG_MAX = math.log(sys.float_info.max)  # the largest log whose exp is finite


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered tuple of state labels."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        if len(self.states) < 1:
            raise ValueError(f"variable {self.name!r} needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def index_of(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise EvidenceError(
                f"unknown state {state!r} for variable {self.name!r}; "
                f"valid states are {list(self.states)}"
            ) from None


def binary(name: str) -> Variable:
    """Convenience constructor for a two-state variable with states '0', '1'."""
    return Variable(name, ("0", "1"))


@dataclass(frozen=True)
class Semiring:
    """A commutative (aggregate, combine) operator pair with identities.

    ``combine`` plays the role of multiplication and ``aggregate`` the role
    of addition; aggregate must distribute over combine. The four standard
    instances are exposed as module constants.
    """

    kind: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    aggregate: Callable[..., np.ndarray] = field(repr=False)
    combine_identity: float = 1.0
    aggregate_identity: float = 0.0


SUM_PRODUCT = Semiring("sum_product", np.multiply, np.sum, 1.0, 0.0)
MAX_PRODUCT = Semiring("max_product", np.multiply, np.amax, 1.0, 0.0)
MIN_SUM = Semiring("min_sum", np.add, np.amin, 0.0, math.inf)
OR_AND = Semiring("or_and", np.fmin, np.amax, 1.0, 0.0)

SEMIRINGS = {s.kind: s for s in (SUM_PRODUCT, MAX_PRODUCT, MIN_SUM, OR_AND)}


class Factor:
    """A table over an ordered scope of variables.

    Args:
        scope: ordered sequence of Variables (no duplicates).
        values: array-like of shape ``tuple(cardinalities)`` or a flat table
            of the matching length, first scope variable slowest-varying.
        domain: "linear" (default) or "log".
    """

    __slots__ = ("scope", "table", "domain", "names")

    def __init__(self, scope: Sequence[Variable], values, domain: str = LINEAR,
                 *, _trusted: bool = False):
        # ``_trusted`` marks a table pgmkit computed itself from valid
        # factors: it skips the defensive copy and the scans of given tables
        # (no NaN or +inf, no negative linear entry; -inf is a log zero).
        # Either way the table is C-ordered, which fixes the summation order
        # of later reductions.
        scope = tuple(scope)
        names = tuple(v.name for v in scope)
        if len(set(names)) != len(names):
            raise ScopeError(f"duplicate variables in scope {list(names)}")
        if domain not in (LINEAR, LOG):
            raise ValueError(f"unknown domain tag {domain!r}")
        shape = tuple(v.cardinality for v in scope)
        table = np.asarray(values, dtype=float, order="C")
        if table.shape != shape:
            expected = math.prod(shape)
            if table.size != expected:
                raise ValueError(
                    f"table has {table.size} entries, scope {list(names)} requires {expected}"
                )
            table = table.reshape(shape)
        if not _trusted:
            table = table.copy()
            if table.size:
                if domain == LINEAR and np.min(table) < 0:
                    raise ValueError("linear-domain factor entries must be nonnegative")
                if not np.max(table) < math.inf:   # NaN fails this too
                    raise ValueError(f"{domain}-domain factor entries must not be NaN or +inf")
        table.flags.writeable = False
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("factors are immutable")

    # -- introspection -------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The flat table, first scope variable slowest-varying."""
        return self.table.reshape(-1)

    def variable(self, name: str) -> Variable:
        for v in self.scope:
            if v.name == name:
                return v
        raise ScopeError(f"variable {name!r} not in scope {list(self.names)}")

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def __repr__(self):
        return f"Factor(scope={list(self.names)}, domain={self.domain})"

    def __call__(self, assignment: Mapping[str, str]) -> float:
        """Evaluate the factor at a (super)assignment given by state labels."""
        idx = tuple(v.index_of(assignment[v.name]) for v in self.scope)
        return float(self.table[idx])

    # -- domain conversion ----------------------------------------------

    def to_log(self) -> "Factor":
        if self.domain == LOG:
            return self
        return Factor(self.scope, log_tables([self])[0], domain=LOG, _trusted=True)

    def to_linear(self) -> "Factor":
        """The factor's values themselves; a log table with an entry past
        exp's range raises ValueError."""
        if self.domain == LINEAR:
            return self
        if self.table.size and np.max(self.table) > _LOG_MAX:
            raise ValueError("the log table is past exp's range: its values "
                             "overflow the linear domain")
        return Factor(self.scope, np.exp(self.table), _trusted=True)

    def to_energies(self) -> np.ndarray:
        """Negative log potentials (energies), as a plain array.

        The min-sum semiring operates on these; the conversion is always
        explicit, never implied by an operation.
        """
        return -log_tables([self])[0]


def log_tables(factors: Iterable[Factor]) -> list[np.ndarray]:
    """Each factor's table as logs, the one log convention of every engine
    that reads logs: a log-domain table as it is, and a linear one as
    ``np.log`` of it, with log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return [f.table if f.domain == LOG else np.log(f.table) for f in factors]


def _check_shared_variables(scope: Sequence[Variable], other: Sequence[Variable]) -> None:
    other_vars = {v.name: v for v in other}
    for v in scope:
        match = other_vars.get(v.name)
        if match is not None and match.states != v.states:
            raise IncompatibleVariableError(
                f"variable {v.name!r} has states {list(v.states)} in one factor "
                f"and {list(match.states)} in the other"
            )


def product(f: Factor, g: Factor) -> Factor:
    """Factor product: scope is f's order followed by g's unseen variables.

    In the linear domain entries multiply; in the log domain they add.
    """
    return product_all((f, g))


def product_all(factors: Iterable[Factor]) -> Factor:
    """Left-fold product ``product(product(f0, f1), f2)...``, built in one
    output table.

    The scope is the first factor's order followed by every unseen
    variable in order of appearance, and each step of the fold is checked
    as :func:`product` checks it. The table is :func:`_product_into` that
    scope, so every entry is that of the pairwise fold.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor product")
    first = factors[0]
    if len(factors) == 1:
        return first
    scope = list(first.scope)
    seen = set(first.names)
    for g in factors[1:]:
        if g.domain != first.domain:
            raise ValueError("cannot multiply factors with different domain tags")
        _check_shared_variables(scope, g.scope)
        for v in g.scope:
            if v.name not in seen:
                seen.add(v.name)
                scope.append(v)
    op = np.add if first.domain == LOG else np.multiply
    table = _product_into(scope, [(f.scope, f.table) for f in factors], op)
    return Factor(scope, table, domain=first.domain, _trusted=True)


def _product_into(scope: Sequence[Variable],
                  pairs: Iterable[tuple[Sequence[Variable], np.ndarray]],
                  op=np.multiply) -> np.ndarray:
    """The one table product: a fresh C-ordered table over ``scope`` that
    starts as ``op``'s identity (ones for multiply, zeros for add) and has
    each (scope, table) pair applied to it in order, in place.

    Every pair's scope lies within ``scope``; its table is transposed to
    ``scope``'s order and given size-1 axes for the variables it lacks.
    As 1 * x = x, a product holds the bits of the pairwise left fold.
    """
    names = [v.name for v in scope]
    out = np.full([v.cardinality for v in scope], 1.0 if op is np.multiply else 0.0)
    for own, table in pairs:
        own = [v.name for v in own]
        order = [own.index(n) for n in names if n in own]
        shape = [v.cardinality if v.name in own else 1 for v in scope]
        op(out, table.transpose(order).reshape(shape), out=out)
    return out


def eliminate(f: Factor, variables: Iterable[str], semiring: Semiring = SUM_PRODUCT) -> Factor:
    """Aggregate out a set of variables, per the semiring's aggregate op.

    With sum_product this is marginalization; with max_product it yields
    max-marginals. Log-domain factors support sum_product (via logsumexp)
    and max_product only.
    """
    drop = sorted(set(variables))
    for name in drop:
        if name not in f.names:
            raise ScopeError(f"cannot eliminate {name!r}: not in scope {list(f.names)}")
    if not drop:
        return f
    axes = tuple(f.axis(n) for n in drop)
    keep = [v for v in f.scope if v.name not in drop]
    if f.domain == LOG:
        if semiring.kind == "sum_product":
            from scipy.special import logsumexp
            table = logsumexp(f.table, axis=axes) if f.table.size else f.table
        elif semiring.kind == "max_product":
            table = np.amax(f.table, axis=axes)
        else:
            raise ValueError(f"semiring {semiring.kind} undefined for log-domain factors")
    else:
        table = semiring.aggregate(f.table, axis=axes)
    return Factor(keep, table, domain=f.domain, _trusted=True)


def reduce_factor(f: Factor, evidence: Mapping[str, str]) -> Factor:
    """Slice the factor at the evidence states, dropping those variables."""
    index: list = []
    keep = []
    for v in f.scope:
        state = evidence.get(v.name)
        if state is None:
            index.append(slice(None))
            keep.append(v)
        else:
            index.append(v.index_of(state))
    if len(keep) == len(index):
        return f
    return Factor(keep, f.table[tuple(index)], domain=f.domain, _trusted=True)


def normalize(f: Factor) -> tuple[Factor, float]:
    """Rescale a linear-domain factor to sum to 1; returns (factor, old sum)."""
    if f.domain != LINEAR:
        raise ValueError("normalize expects a linear-domain factor")
    total = float(np.sum(f.table))
    if total <= 0.0:
        raise DegenerateDistributionError("cannot normalize an all-zero factor")
    return Factor(f.scope, f.table / total, _trusted=True), total


def divide(f: Factor, g: Factor) -> Factor:
    """Entrywise f / g with g broadcast over f's scope; 0/0 is defined as 0."""
    if f.domain != LINEAR or g.domain != LINEAR:
        raise ValueError("divide expects linear-domain factors")
    if not set(g.names) <= set(f.names):
        raise ScopeError(
            f"divisor scope {list(g.names)} not contained in {list(f.names)}"
        )
    _check_shared_variables(f.scope, g.scope)
    denom = _product_into(f.scope, [(g.scope, g.table)])
    zero_denom = denom == 0.0
    if np.any(zero_denom & (f.table != 0.0)):
        raise FactorDivisionError("nonzero entry divided by zero")
    return Factor(f.scope, np.divide(f.table, denom, out=np.zeros(denom.shape), where=~zero_denom))


def align_to(f: Factor, scope_order: Sequence[str]) -> Factor:
    """Reorder f's axes to the given permutation of its scope names."""
    if sorted(scope_order) != sorted(f.names):
        raise ScopeError(f"{list(scope_order)} is not a permutation of {list(f.names)}")
    order = [f.names.index(n) for n in scope_order]
    scope = [f.scope[i] for i in order]
    return Factor(scope, np.transpose(f.table, order), domain=f.domain, _trusted=True)


def strides(cards: Sequence[int]) -> np.ndarray:
    """Flat-index strides of a C-ordered table over axes of these sizes:
    ``states @ strides(cards)`` maps rows of states to flat table indices."""
    out = np.ones(len(cards), dtype=np.int64)
    for k in range(len(cards) - 1, 0, -1):
        out[k - 1] = out[k] * cards[k]
    return out


def assignments(scope: Sequence[Variable]) -> Iterable[dict[str, str]]:
    """All joint assignments to the scope, first variable slowest-varying."""
    if not scope:
        yield {}
        return
    shape = tuple(v.cardinality for v in scope)
    for flat in range(math.prod(shape)):
        idx = np.unravel_index(flat, shape)
        yield {v.name: v.states[i] for v, i in zip(scope, idx)}
