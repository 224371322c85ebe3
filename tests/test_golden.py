"""Seeded outputs of the approximate engines, and of the exact engines'
message passing and elimination, pinned bit for bit.

The approximate engines' values were recorded before they moved onto the
compiled blanket tables, the exact engines' (as ``float.hex``) before
their messages and intermediate tables became plain arrays; any change to
a draw order, a summation order or a log convention shows up here.
"""

import math

import numpy as np
import pytest

from conftest import hmm_chain, wide_network
from pgmkit.exact import (
    build_junction_tree,
    jt_calibrate,
    jt_marginal,
    max_product_decode,
    tree_bp,
    variable_elimination,
)
from pgmkit.factors import LOG, MAX_PRODUCT, Factor, Variable
from pgmkit.mapinf import dual_decomposition, local_search_map, simulated_annealing_map
from pgmkit.models import ChainCRF, MarkovRandomField, reduce_to_evidence
from pgmkit.sampling import (
    FactoredProposal,
    GibbsSiteKernel,
    UniformProposal,
    chain_analysis,
    forward_sample,
    gibbs,
    importance_estimate,
    jt_forward_sample,
    make_rng,
    metropolis_hastings,
)
from pgmkit.variational import loopy_bp, mean_field
from pgmkit.zoo import periodic_chain, reducible_chain, student_network

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
    mrf, _ = reduce_to_evidence(golden_grid(), EVIDENCE)
    return mrf


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


def test_dual_decomposition_bound_is_the_returned_multipliers_value():
    # with no agreement the run ends on an evaluation, not on a step
    mrf = reduced_grid()
    for iters in (1, 5, 25):
        state = dual_decomposition(mrf, max_iters=iters)
        assert not state.agreement
        unary = {n: np.zeros(v.cardinality) for n, v in mrf.variables.items()}
        edges = {}
        for f in mrf.factors:
            with np.errstate(divide="ignore"):
                table = f.table if f.domain == LOG else np.log(f.table)
            if len(f.names) == 1:
                unary[f.names[0]] = unary[f.names[0]] + table
            else:
                key = tuple(sorted(f.names))
                edges[key] = edges.get(key, 0.0) + (table if key == f.names else table.T)
        nodes = {n: u.copy() for n, u in unary.items()}
        for (key, endpoint), delta in state.multipliers.items():
            nodes[endpoint] = nodes[endpoint] + delta
        bound = sum(float(np.max(score)) for score in nodes.values())
        for (a, b), table in edges.items():
            adjusted = table - state.multipliers[((a, b), a)][:, None] - state.multipliers[((a, b), b)][None, :]
            bound += float(np.max(adjusted))
        assert bound == pytest.approx(state.bound, rel=1e-12, abs=1e-12)


def test_mean_field_sweep_values():
    _, trace = mean_field(golden_grid(), EVIDENCE, max_sweeps=4, tol=-math.inf)
    assert trace.values == [
        -math.inf, -14.681298421142696, -14.544716960373062,
        -14.50176859745257, -14.486884927878975,
    ]
    assert len(trace.update_values) == 56


# (iterations, final_residual, marginals) of loopy_bp's defaults on
# golden_grid() under EVIDENCE, recorded before the synchronous schedule
# moved onto stacked arrays
LOOPY_SYNCHRONOUS = (
    73, 9.090646013731885e-10,
    {
        'g00': [0.4293438629095963, 0.07030639546592958, 0.5003497416244741],
        'g01': [0.8788336818329798, 0.12116631816702007],
        'g02': [0.6182573766215466, 0.38174262337845344],
        'g03': [0.260105145385713, 0.3190660868413846, 0.42082876777290246],
        'g10': [0.44146162462209676, 0.5585383753779032],
        'g12': [0.7144974210418386, 0.19962939528495469, 0.08587318367320679],
        'g13': [0.4509693827249662, 0.5490306172750338],
        'g20': [0.535177207775031, 0.4648227922249691],
        'g21': [0.07487448551195197, 0.3380436964807353, 0.5870818180073127],
        'g22': [0.2743271995817962, 0.7256728004182038],
        'g23': [0.5528005969984533, 0.44719940300154676],
        'g30': [0.4595408314073172, 0.14187929630492246, 0.3985798722877603],
        'g31': [0.5044349328974718, 0.4955650671025283],
        'g33': [0.1282246434278717, 0.7208017248965727, 0.1509736316755556],
    },
)
LOOPY_SEQUENTIAL = (
    58, 9.24301746252354e-10,
    {
        'g00': [0.4293438635602354, 0.0703063958037956, 0.500349740635969],
        'g01': [0.8788336815706157, 0.1211663184293842],
        'g02': [0.6182573764909769, 0.3817426235090231],
        'g03': [0.26010514672595764, 0.3190660869383697, 0.4208287663356727],
        'g10': [0.44146162558978735, 0.5585383744102127],
        'g12': [0.714497422202929, 0.19962939397036816, 0.08587318382670281],
        'g13': [0.45096938545101567, 0.5490306145489844],
        'g20': [0.5351772081084685, 0.46482279189153153],
        'g21': [0.07487448526043605, 0.33804369735821316, 0.5870818173813508],
        'g22': [0.27432719931562144, 0.7256728006843786],
        'g23': [0.552800598531682, 0.447199401468318],
        'g30': [0.4595408322698969, 0.14187929591773074, 0.39857987181237226],
        'g31': [0.5044349311940515, 0.4955650688059486],
        'g33': [0.12822464367266856, 0.7208017243170373, 0.15097363201029415],
    },
)


@pytest.mark.parametrize("schedule, pinned", [
    ("synchronous", LOOPY_SYNCHRONOUS),
    ("sequential", LOOPY_SEQUENTIAL),
])
def test_loopy_bp_marginals_iterations_and_residual(schedule, pinned):
    iterations, residual, marginals = pinned
    result = loopy_bp(golden_grid(), EVIDENCE, schedule=schedule)
    assert (result.iterations, result.final_residual, result.converged) == (iterations, residual, True)
    assert {n: f.values.tolist() for n, f in result.marginals.items()} == marginals


# The student network's samplers, recorded before the samplers moved onto
# one draw step and one row layout. Columns are DIFFICULTY, GRADE,
# INVESTMENT, LETTER, SAT.
STUDENT_EVIDENCE = {"LETTER": "l0", "SAT": "s1"}


def student_hidden():
    bn = student_network()
    return bn, [bn.variables[v] for v in sorted(bn.variables) if v not in STUDENT_EVIDENCE]


def test_forward_sample_states():
    batch = forward_sample(student_network(), 8, make_rng(3))
    assert rows(batch) == [
        "00111", "00111", "02000", "10111", "12001", "10011", "12000", "02000",
    ]


def test_jt_forward_sample_states_with_evidence():
    jt = jt_calibrate(build_junction_tree(student_network()), STUDENT_EVIDENCE)
    batch = jt_forward_sample(jt, 8, make_rng(4))
    assert rows(batch) == [
        "10101", "12001", "12101", "10101", "11101", "12101", "10101", "12101",
    ]


def test_importance_unnormalized_weights():
    bn, hidden = student_hidden()
    result = importance_estimate(bn, STUDENT_EVIDENCE, UniformProposal(hidden), 6, make_rng(5))
    assert result.estimate == 0.07071600000000001
    assert result.weights.tolist() == [
        0.016800000000000013, 0.0008400000000000011, 0.15552000000000007,
        0.13824000000000003, 0.05759999999999999, 0.05529600000000001,
    ]
    assert rows(result.batch) == ["11001", "10001", "00101", "11101", "10101", "01101"]


def test_importance_normalized_weights():
    bn, hidden = student_hidden()
    tables = {"DIFFICULTY": [0.5, 0.5], "GRADE": [0.2, 0.3, 0.5], "INVESTMENT": [0.25, 0.75]}
    result = importance_estimate(
        bn, STUDENT_EVIDENCE, FactoredProposal(hidden, tables), 6, make_rng(5),
        target={"GRADE": "g1"}, normalized=True,
    )
    assert result.estimate == 0.11232799775343999
    assert result.weights.tolist() == [
        0.1024, 0.101376, 0.099792, 0.099792, 0.1024, 0.06399999999999996,
    ]
    assert rows(result.batch) == ["11101", "12101", "02001", "02001", "11101", "10101"]


def test_metropolis_hastings_gibbs_kernel_with_evidence():
    bn = student_network()
    kernel = GibbsSiteKernel(bn, STUDENT_EVIDENCE)
    batch = metropolis_hastings(bn, kernel, 8, 2, make_rng(6), evidence=STUDENT_EVIDENCE)
    assert rows(batch) == [
        "01101", "11101", "12101", "12101", "12101", "12101", "12101", "02101",
    ]
    assert batch.metadata["acceptance_rate"] == 1.0


def test_chain_analysis_periodic_chain():
    d = chain_analysis(periodic_chain())
    assert d.stationary.tolist() == [0.5, 0.5]
    assert (d.converged, d.iterations, d.irreducible, d.aperiodic) == (True, 1, True, False)
    assert d.detailed_balance_residual == 0.0


def test_chain_analysis_reducible_chain():
    d = chain_analysis(reducible_chain())
    assert d.stationary.tolist() == [
        0.3124999999996419, 0.31250000000035855, 0.0, 0.3749999999999996,
    ]
    assert (d.converged, d.iterations, d.irreducible, d.aperiodic) == (True, 117, False, True)
    assert d.detailed_balance_residual == 6.449840661559847e-13


# tree_bp on a 6-step ternary HMM under its emissions, and the junction
# tree of wide_network() under its evidence, where cliques 9 and 10 are
# home to no factor
TREE_BP_MARGINALS = {
    "H000": ["0x1.ec9a486b73a7fp-5", "0x1.74b9d3f0b2e28p-1", "0x1.b1f21e22578bfp-3"],
    "H001": ["0x1.4a7f5474d6128p-5", "0x1.39717661e052dp-1", "0x1.63cd28ada497fp-2"],
    "H002": ["0x1.5c173b5c474fcp-2", "0x1.48756068055ecp-1", "0x1.2fe03d3adf2cap-6"],
    "H003": ["0x1.9c24fc738b9ccp-2", "0x1.fed33dd84e194p-3", "0x1.647164a04d56cp-2"],
    "H004": ["0x1.56013a048ac04p-5", "0x1.6f4796cfab1b3p-3", "0x1.8ece06abcc8d2p-1"],
    "H005": ["0x1.917d203a40ffcp-3", "0x1.1f724513dd2c0p-1", "0x1.f0b9cb764a503p-3"],
}
JT_MARGINALS = {
    "W20": ["0x1.686015f8ecf80p-2", "0x1.2b46150eeedbap-2", "0x1.6c59d4f8242c7p-2"],
    "W33": ["0x1.1df495bc2bcacp-2", "0x1.11b32ec1a1678p-2", "0x1.d0583b8232cdep-2"],
}


def hexes(factor):
    return [x.hex() for x in factor.table.tolist()]


def test_tree_bp_marginals_and_log_partition():
    bn, evidence = hmm_chain(np.random.default_rng(7), 6)
    result = tree_bp(bn, evidence)
    assert {n: hexes(f) for n, f in result.marginals.items()} == TREE_BP_MARGINALS
    assert result.log_partition.hex() == "-0x1.38ce3ca3fc548p+3"


def test_junction_tree_log_partition_and_marginals():
    wide, evidence = wide_network()
    jt = build_junction_tree(wide)
    assert jt_calibrate(build_junction_tree(wide), evidence).log_partition.hex() == \
        "-0x1.e7969723fdd30p+1"
    assert {n: hexes(jt_marginal(jt, n, evidence)) for n in JT_MARGINALS} == JT_MARGINALS


# variable elimination and max-product decoding, recorded before their
# intermediate tables became plain arrays: VE of H002 on the 6-step HMM
# under its emissions (sum- and max-product), of W20 on wide_network()
# under its evidence, and of y3 on a log-domain chain CRF whose node scores
# are in the hundreds, so every factor passes through the max shift
VE_HMM = {
    "sum_product": (["0x1.5c173b5c474fbp-2", "0x1.48756068055edp-1", "0x1.2fe03d3adf2c9p-6"],
                    "-0x1.38ce3ca3fc548p+3"),
    "max_product": (["0x1.1b5f526ff57aep-2", "0x1.6639b9431cdbbp-1", "0x1.82d3b09d0cdc1p-6"],
                    "-0x1.791272ee9dd8ep+3"),
}


def test_variable_elimination_on_the_hmm():
    bn, evidence = hmm_chain(np.random.default_rng(7), 6)
    for semiring in (None, MAX_PRODUCT):
        kw = {} if semiring is None else {"semiring": semiring}
        result = variable_elimination(bn, ["H002"], evidence, **kw)
        got = (hexes(result.normalized()), result.log_normalizer.hex())
        assert got == VE_HMM["sum_product" if semiring is None else "max_product"]


def test_max_product_decode_on_the_hmm():
    bn, evidence = hmm_chain(np.random.default_rng(7), 6)
    assignment, score = max_product_decode(bn, evidence)
    hidden = {n: s for n, s in assignment.items() if n.startswith("H")}
    assert hidden == {"H000": "s1", "H001": "s1", "H002": "s1", "H003": "s0",
                      "H004": "s2", "H005": "s1"}
    assert {n: s for n, s in assignment.items() if n in evidence} == evidence
    assert score.hex() == "-0x1.84cb041643de1p+3"


def test_variable_elimination_on_the_wide_network():
    wide, evidence = wide_network()
    result = variable_elimination(wide, ["W20"], evidence)
    assert hexes(result.normalized()) == [
        "0x1.686015f8ecf81p-2", "0x1.2b46150eeedb9p-2", "0x1.6c59d4f8242c6p-2"]
    assert result.log_normalizer.hex() == "-0x1.e7969723fdd16p+1"


def test_variable_elimination_on_a_log_domain_chain():
    rng = np.random.default_rng(5)
    crf = ChainCRF(["a", "b", "c"], 2, lambda x, t: np.eye(2)[x[t]],
                   node_weights=rng.normal(size=(3, 2)) * 300, trans_weights=rng.normal(size=(3, 3)))
    result = variable_elimination(crf.to_mrf([0, 1, 1, 0, 1, 0, 0, 1]), ["y3"], {"y0": "b"})
    assert hexes(result.normalized()) == [
        "0x1.e5b2ab1cae8ebp-839", "0x1.0d8bcbc2690eap-599", "0x1.0000000000000p+0"]
    assert result.log_normalizer.hex() == "0x1.6b7cc4441ff8cp+10"
