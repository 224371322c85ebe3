"""Ready-made fixture models: the classic textbook networks used throughout
the test suite and handy for demos.
"""

from __future__ import annotations

import numpy as np

from .factors import Factor, Variable
from .graphs import DirectedGraph, UndirectedGraph
from .models import BayesianNetwork, MarkovRandomField


def student_network() -> BayesianNetwork:
    """Five-variable student performance network (Koller & Friedman).

    DIFFICULTY and INVESTMENT are binary roots; GRADE (3 states) depends on
    both; SAT depends on INVESTMENT; LETTER depends on GRADE.
    """
    d = Variable("DIFFICULTY", ("d0", "d1"))
    i = Variable("INVESTMENT", ("i0", "i1"))
    g = Variable("GRADE", ("g1", "g2", "g3"))
    s = Variable("SAT", ("s0", "s1"))
    letter = Variable("LETTER", ("l0", "l1"))
    dag = DirectedGraph(
        [v.name for v in (d, i, g, s, letter)],
        [
            ("DIFFICULTY", "GRADE"),
            ("INVESTMENT", "GRADE"),
            ("INVESTMENT", "SAT"),
            ("GRADE", "LETTER"),
        ],
    )
    # grade rows by (investment, difficulty): i0d0, i0d1, i1d0, i1d1
    grade_rows = {
        ("i0", "d0"): (0.3, 0.4, 0.3),
        ("i0", "d1"): (0.05, 0.25, 0.7),
        ("i1", "d0"): (0.9, 0.08, 0.02),
        ("i1", "d1"): (0.5, 0.3, 0.2),
    }
    grade_table = np.zeros((3, 2, 2))
    for (inv, dif), row in grade_rows.items():
        grade_table[:, i.index_of(inv), d.index_of(dif)] = row
    cpds = {
        "DIFFICULTY": Factor([d], [0.6, 0.4]),
        "INVESTMENT": Factor([i], [0.7, 0.3]),
        "GRADE": Factor([g, d, i], np.moveaxis(grade_table, 1, 2)),
        "SAT": Factor([s, i], [[0.95, 0.2], [0.05, 0.8]]),
        "LETTER": Factor([letter, g], [[0.1, 0.4, 0.99], [0.9, 0.6, 0.01]]),
    }
    return BayesianNetwork([d, i, g, s, letter], dag, cpds)


def voting_mrf() -> MarkovRandomField:
    """Four binary voters on a cycle with agreement potentials 10/5/1."""
    names = ["A", "B", "C", "D"]
    vs = {n: Variable(n, ("0", "1")) for n in names}
    phi = np.array([[5.0, 1.0], [1.0, 10.0]])
    pairs = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
    factors = [Factor([vs[u], vs[v]], phi) for u, v in pairs]
    return MarkovRandomField(list(vs.values()), factors)


def asia_dag() -> DirectedGraph:
    """Structure of the eight-node chest-clinic network (Lauritzen & Spiegelhalter)."""
    return DirectedGraph(
        ["asia", "tub", "smoke", "lung", "bronc", "either", "xray", "dysp"],
        [
            ("asia", "tub"),
            ("smoke", "lung"),
            ("smoke", "bronc"),
            ("tub", "either"),
            ("lung", "either"),
            ("either", "xray"),
            ("either", "dysp"),
            ("bronc", "dysp"),
        ],
    )


def chow_liu_example() -> tuple[UndirectedGraph, dict[tuple[str, str], float]]:
    """A 4-node complete graph with worked-example mutual-information weights."""
    import itertools

    g = UndirectedGraph("ABCD", list(itertools.combinations("ABCD", 2)))
    weights = {
        ("A", "B"): 0.07,
        ("A", "C"): 0.32,
        ("B", "C"): 0.32,
        ("B", "D"): 0.32,
        ("C", "D"): 0.02,
        ("A", "D"): 0.17,
    }
    return g, weights


def y_structure_dag() -> DirectedGraph:
    """A -> C <- B with C -> D: fully identifiable from independence tests."""
    return DirectedGraph("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])


def three_state_chain() -> np.ndarray:
    """Column-stochastic transition matrix of the 3-state example chain.

    Transitions: 1 -> 2 w.p. 1; 2 -> 1 or 3 w.p. 0.5 each; 3 -> 1 w.p. 1.
    Stationary distribution (0.4, 0.4, 0.2).
    """
    t = np.zeros((3, 3))
    t[1, 0] = 1.0  # from state 1 to state 2
    t[0, 1] = 0.5
    t[2, 1] = 0.5
    t[0, 2] = 1.0
    return t


def reducible_chain() -> np.ndarray:
    """Column-stochastic matrix of the 4-state reducible example chain."""
    t = np.zeros((4, 4))
    t[0, 0], t[1, 0] = 0.1, 0.9
    t[0, 1], t[1, 1] = 0.9, 0.1
    t[1, 2], t[3, 2] = 0.5, 0.5
    t[3, 3] = 1.0
    return t


def periodic_chain() -> np.ndarray:
    """The two-state flip-flop chain that never settles."""
    return np.array([[0.0, 1.0], [1.0, 0.0]])
