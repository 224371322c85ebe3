"""Benchmark inputs as plain numpy data: model specs, their JSON model
documents, and exact samplers.

Nothing here imports pgmkit. A spec names each variable's cardinality
(states are labelled ``s0``, ``s1``, ...) and lists its factors as
``(scope, table)`` pairs, where ``table`` has one axis per scope variable
in scope order, as in pgmkit's model documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def state(k: int) -> str:
    return f"s{k}"


@dataclass
class Spec:
    kind: str                                   # "bayesian_network" | "markov_random_field"
    cards: dict[str, int]
    factors: list[tuple[tuple[str, ...], np.ndarray]]

    @property
    def names(self) -> list[str]:
        return sorted(self.cards)

    def document(self) -> str:
        """The model as pgmkit's versioned JSON model document."""
        variables = [
            {"name": n, "states": [state(k) for k in range(self.cards[n])]}
            for n in self.names
        ]
        factors = []
        for scope, table in self.factors:
            entry = {
                "kind": "cpd" if self.kind == "bayesian_network" else "potential",
                "scope": list(scope),
                "domain": "linear",
                "table": [float(x) for x in np.asarray(table).ravel()],
            }
            if self.kind == "bayesian_network":
                entry["child"] = scope[0]
            factors.append(entry)
        return json.dumps({
            "format_version": 1,
            "model_type": self.kind,
            "variables": variables,
            "factors": factors,
        })


def dirichlet_cpt(rng: np.random.Generator, card: int, parent_cards, alpha=1.0):
    """A CPT of shape (card, *parent_cards) whose child axis sums to one."""
    rows = int(np.prod(parent_cards, dtype=np.int64)) if parent_cards else 1
    table = rng.dirichlet([alpha] * card, size=rows).T
    return table.reshape((card, *parent_cards))


def bayes_net(rng: np.random.Generator, cards: dict[str, int],
              parents: dict[str, list[str]], alpha: float = 1.0) -> Spec:
    """A Bayesian network with Dirichlet-random CPT rows; parents in name order."""
    factors = []
    for child in sorted(cards):
        ps = sorted(parents.get(child, []))
        table = dirichlet_cpt(rng, cards[child], [cards[p] for p in ps], alpha)
        factors.append(((child, *ps), table))
    return Spec("bayesian_network", dict(cards), factors)


def topological(spec: Spec) -> list[str]:
    parents = {scope[0]: scope[1:] for scope, _ in spec.factors}
    order, done = [], set()
    while len(order) < len(parents):
        for n in sorted(parents):
            if n not in done and all(p in done for p in parents[n]):
                order.append(n)
                done.add(n)
    return order


def forward_sample(spec: Spec, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Ancestral samples of a Bayesian network spec, as state-index columns."""
    cpds = {scope[0]: (scope, table) for scope, table in spec.factors}
    cols: dict[str, np.ndarray] = {}
    for name in topological(spec):
        scope, table = cpds[name]
        flat = table.reshape(table.shape[0], -1)
        if len(scope) > 1:
            row = np.ravel_multi_index([cols[p] for p in scope[1:]], table.shape[1:])
        else:
            row = np.zeros(n, dtype=np.int64)
        cum = np.cumsum(flat[:, row], axis=0)          # (card, n)
        u = rng.random(n) * cum[-1]
        cols[name] = np.minimum((cum < u).sum(axis=0), table.shape[0] - 1)
    return cols


def csv_text(cards: dict[str, int], cols: dict[str, np.ndarray]) -> str:
    """A dataset CSV of state labels, columns in name order."""
    names = sorted(cards)
    body = [np.array([state(k) for k in range(cards[n])])[cols[n]] for n in names]
    lines = [",".join(names)]
    lines += [",".join(row) for row in zip(*body)]
    return "\n".join(lines) + "\n"


def enumerate_joint(spec: Spec) -> tuple[list[str], np.ndarray]:
    """The full unnormalized joint table of a small spec, axes in name order."""
    names = spec.names
    axis = {n: k for k, n in enumerate(names)}
    joint = np.ones([spec.cards[n] for n in names])
    for scope, table in spec.factors:
        order = sorted(range(len(scope)), key=lambda k: axis[scope[k]])
        shape = [1] * len(names)
        for n in scope:
            shape[axis[n]] = spec.cards[n]
        joint = joint * np.transpose(table, order).reshape(shape)
    return names, joint


def exact_sample(spec: Spec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact samples of a small spec by inverting its enumerated joint.

    Returns an (n, #variables) array of state indices, columns in name order.
    """
    _, joint = enumerate_joint(spec)
    p = joint.ravel() / joint.sum()
    flat = np.minimum(np.searchsorted(np.cumsum(p), rng.random(n) * p.sum()), p.size - 1)
    return np.stack(np.unravel_index(flat, joint.shape), axis=1)
