"""Seeded outputs of the approximate engines, pinned bit for bit.

The values were recorded from the engines before they moved onto the
compiled blanket tables; any change to a draw order, a summation order or
a log convention shows up here.
"""

import math

import numpy as np

from pgmkit.factors import LOG, Factor, Variable
from pgmkit.mapinf import dual_decomposition, local_search_map, simulated_annealing_map
from pgmkit.models import MarkovRandomField, reduce_to_evidence
from pgmkit.sampling import gibbs, make_rng
from pgmkit.variational import mean_field

EVIDENCE = {"g11": "s0", "g32": "s1"}


def golden_grid():
    """A 4x4 grid with some ternary cells, one zero coupling entry and one
    log-domain coupling."""
    rng = np.random.default_rng(11)
    names = [[f"g{r}{c}" for c in range(4)] for r in range(4)]
    var = {
        n: Variable(n, tuple(f"s{i}" for i in range(3 if (r + c) % 3 == 0 else 2)))
        for r, row in enumerate(names) for c, n in enumerate(row)
    }
    factors = [Factor([var[n]], rng.random(var[n].cardinality) + 0.1)
               for row in names for n in row]
    for r in range(4):
        for c in range(4):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < 4 and c + dc < 4:
                    a, b = var[names[r][c]], var[names[r + dr][c + dc]]
                    table = rng.random((a.cardinality, b.cardinality)) + 0.1
                    if (a.name, b.name) == ("g00", "g01"):
                        table[0, 1] = 0.0
                    if (a.name, b.name) == ("g22", "g23"):
                        factors.append(Factor([a, b], np.log(table), domain=LOG))
                        continue
                    factors.append(Factor([a, b], table))
    return MarkovRandomField(list(var.values()), factors)


def reduced_grid():
    """The grid over its unobserved cells, reduced to EVIDENCE, as the
    CLI hands it to the MAP search engines."""
    mrf = golden_grid()
    kept, _ = reduce_to_evidence(mrf, EVIDENCE)
    free = [v for n, v in mrf.variables.items() if n not in EVIDENCE]
    return MarkovRandomField(free, kept)


def labels(states):
    return dict(zip(
        ["g00", "g01", "g02", "g03", "g10", "g12", "g13", "g20", "g21", "g22",
         "g23", "g30", "g31", "g33"],
        (f"s{s}" for s in states),
    ))


def rows(batch):
    return ["".join(str(int(x)) for x in row) for row in batch.states]


def test_gibbs_systematic_states():
    batch = gibbs(golden_grid(), EVIDENCE, 10, 3, make_rng(5))
    assert rows(batch) == [
        "0002000011102112", "2010001011102011", "0010000010002011",
        "0012000112101111", "2001100012100012", "2110100002102012",
        "2011100011102011", "2002100010102111", "2010100112112012",
        "2001002100110011",
    ]


def test_gibbs_random_scan_states():
    batch = gibbs(golden_grid(), EVIDENCE, 10, 3, make_rng(5), scan="random")
    assert rows(batch) == [
        "1002000011000011", "2001000002000111", "0001000111101112",
        "0010000011002111", "0010102011002111", "2010100011000111",
        "0011100011002111", "2011100011012112", "2010101112012011",
        "2111001112012010",
    ]


def test_anneal_assignment_and_logp():
    best = labels([2, 0, 0, 2, 1, 0, 1, 0, 2, 1, 1, 0, 1, 1])
    for seed in (0, 3):
        assignment, logp = simulated_annealing_map(reduced_grid(), seed=seed)
        assert assignment == best
        assert logp == -17.56917447729151


def test_local_search_assignment_and_logp():
    assignment, logp = local_search_map(reduced_grid(), seed=0)
    assert assignment == labels([2, 0, 0, 2, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1])
    assert logp == -19.220461371353014
    assignment, logp = local_search_map(reduced_grid(), seed=3)
    assert assignment == labels([0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 2, 1, 1])
    assert logp == -18.362763814161653


def test_dual_decomposition_assignment_and_bounds():
    state = dual_decomposition(reduced_grid(), max_iters=25)
    assert state.assignment == labels([2, 0, 0, 2, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1])
    assert state.objective == -19.220461371353014
    assert state.best_bound == -14.043457067631907
    assert state.bounds[0] == -8.238661891121886
    assert state.bounds[-1] == -14.043457067631907
    assert (state.iterations, state.agreement) == (25, False)


def test_mean_field_sweep_values():
    _, trace = mean_field(golden_grid(), EVIDENCE, max_sweeps=4, tol=-math.inf)
    assert trace.values == [
        -math.inf, -14.681298421142696, -14.544716960373062,
        -14.50176859745257, -14.486884927878975,
    ]
    assert len(trace.update_values) == 56
