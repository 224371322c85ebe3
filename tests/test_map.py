import io
import itertools
import math
import re

import numpy as np
import pytest

import test_golden
from conftest import random_mrf, random_tree_mrf
from pgmkit import mapinf, sampling
from pgmkit.cli import main
from pgmkit.factors import Factor, Variable
from pgmkit.io import serialize_model
from pgmkit.mapinf import (
    AnnealSchedule,
    FlowNetwork,
    PairwiseEnergyModel,
    _PCG64Draws,
    dual_decomposition,
    export_map_ilp,
    graphcut_map,
    ilp_objective_at,
    local_search_map,
    min_cut,
    mrf_to_energy_model,
    normalize_energies,
    partition_cost,
    simulated_annealing_map,
)
from pgmkit.models import MarkovRandomField, enumerate_inference, log_joint
from pgmkit.zoo import voting_mrf


def enumerate_min_energy(m: PairwiseEnergyModel):
    best, best_labels = math.inf, None
    for bits in itertools.product((0, 1), repeat=len(m.variables)):
        labels = dict(zip(m.variables, bits))
        e = m.energy(labels)
        if e < best:
            best, best_labels = e, labels
    return best_labels, best


def random_energy_model(rng, n=5, p=0.5, metric=True):
    names = [f"n{i}" for i in range(n)]
    unary = {v: (float(rng.normal()), float(rng.normal())) for v in names}
    lam = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                lam[(names[i], names[j])] = float(rng.random() * 2)
    return PairwiseEnergyModel(tuple(names), unary, lam)


def grid_energy_model(rng, rows=4, cols=4):
    names = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    unary = {v: (float(rng.normal()), float(rng.normal())) for v in names}
    lam = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lam[(f"g{r}{c}", f"g{r}{c+1}")] = float(rng.random())
            if r + 1 < rows:
                lam[(f"g{r}{c}", f"g{r+1}{c}")] = float(rng.random())
    return PairwiseEnergyModel(tuple(names), unary, lam)


class TestNormalizeEnergies:
    def test_shift_example(self):
        m = PairwiseEnergyModel(("u",), {"u": (4.0, -5.0)}, {})
        out = normalize_energies(m)
        assert out.unary["u"] == (9.0, 0.0)

    def test_already_normalized(self):
        m = PairwiseEnergyModel(("u",), {"u": (0.0, 3.0)}, {})
        assert normalize_energies(m).unary["u"] == (0.0, 3.0)

    def test_argmin_preserved(self, rng):
        for _ in range(20):
            m = random_energy_model(rng, n=5)
            before, _ = enumerate_min_energy(m)
            after, _ = enumerate_min_energy(normalize_energies(m))
            assert before == after

    def test_total_shift_is_sum_of_minima(self, rng):
        m = random_energy_model(rng, n=4)
        out = normalize_energies(m)
        shift = sum(min(e) for e in m.unary.values())
        labels = {v: 0 for v in m.variables}
        assert out.energy(labels) == pytest.approx(m.energy(labels) - shift)


class TestMinCut:
    def test_single_arc(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "t", 5.0)
        cut = min_cut(net)
        assert cut.cost == pytest.approx(5.0)
        assert cut.source_side == {"s"}
        assert cut.sink_side == {"t"}

    def test_figure_partition(self):
        # undirected weights with B,E pinned to the source and D pinned to the sink
        weights = {
            ("A", "B"): 7, ("A", "C"): 4, ("B", "D"): 2, ("B", "E"): 1,
            ("C", "D"): 1, ("C", "F"): 5, ("D", "E"): 5, ("D", "F"): 2,
            ("E", "G"): 4, ("F", "G"): 1,
        }
        net = FlowNetwork("s", "t")
        for (u, v), w in weights.items():
            net.add_arc(u, v, w)
            net.add_arc(v, u, w)
        big = sum(weights.values()) + 1
        net.add_arc("s", "A", big)
        net.add_arc("s", "F", big)
        net.add_arc("D", "t", big)
        cut = min_cut(net)
        assert cut.source_side - {"s"} == {"A", "B", "C", "F"}
        assert cut.sink_side - {"t"} == {"D", "E", "G"}
        assert cut.cost == pytest.approx(2 + 1 + 1 + 2 + 1)

    def test_cost_equals_partition_capacity(self, rng):
        for _ in range(20):
            net = FlowNetwork("s", "t")
            inner = [f"x{i}" for i in range(4)]
            nodes = ["s"] + inner + ["t"]
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.4:
                        net.add_arc(u, v, float(rng.integers(1, 8)))
            net.add_arc("s", inner[0], float(rng.integers(1, 8)))
            net.add_arc(inner[-1], "t", float(rng.integers(1, 8)))
            cut = min_cut(net)
            assert cut.cost == pytest.approx(partition_cost(net, cut.source_side))
            # brute force over all 2-partitions separating s from t
            best = math.inf
            for bits in itertools.product((0, 1), repeat=len(inner)):
                side = frozenset(["s"] + [v for v, b in zip(inner, bits) if b == 0])
                best = min(best, partition_cost(net, side))
            assert cut.cost == pytest.approx(best)

    def test_cost_matches_networkx_on_random_networks(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(30):
            nodes = ["s", "t"] + [f"x{i}" for i in range(int(rng.integers(2, 12)))]
            net = FlowNetwork("s", "t")
            graph = nx.DiGraph()
            graph.add_nodes_from(nodes)
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.35:
                        cap = float(rng.random() * 10)
                        net.add_arc(u, v, cap)
                        graph.add_edge(u, v, capacity=cap)
            want, _ = nx.minimum_cut(graph, "s", "t")
            cut = min_cut(net)
            assert cut.cost == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert partition_cost(net, cut.source_side) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestGraphCut:
    def test_two_node_regimes(self):
        for e1_b in (0.4, 3.0):  # weak vs strong pull of B toward label 1
            m = PairwiseEnergyModel(
                ("A", "B"),
                {"A": (0.0, 2.0), "B": (e1_b, 0.0)},
                {("A", "B"): 1.0},
            )
            labels, energy = graphcut_map(m)
            want_labels, want_energy = enumerate_min_energy(m)
            assert energy == pytest.approx(want_energy)
            assert m.energy(labels) == pytest.approx(want_energy)

    def test_zero_coupling_is_independent_argmin(self, rng):
        m = random_energy_model(rng, n=6, p=0.0)
        labels, _ = graphcut_map(m)
        for v in m.variables:
            assert labels[v] == int(np.argmin(m.unary[v]))

    def test_random_grids_exact(self, rng):
        for _ in range(8):
            m = grid_energy_model(rng, rows=3, cols=3)
            labels, energy = graphcut_map(m)
            _, want = enumerate_min_energy(m)
            assert energy == pytest.approx(want)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            PairwiseEnergyModel(("a", "b"), {}, {("a", "b"): -1.0})

    @staticmethod
    def log_metric_grid(seed, lift):
        gen = np.random.default_rng(seed)
        vs = {(r, c): Variable(f"g{r}{c}", ("0", "1")) for r in range(3) for c in range(3)}
        factors = [Factor([v], gen.normal(size=2) + lift, domain="log") for v in vs.values()]
        for (r, c), v in vs.items():
            for nb in ((r, c + 1), (r + 1, c)):
                if nb in vs:
                    agree, disagree = gen.random(), -gen.random()
                    table = np.array([[agree, disagree], [disagree, agree]]) + lift
                    factors.append(Factor([v, vs[nb]], table, domain="log"))
        return MarkovRandomField(list(vs.values()), factors)

    def test_log_potentials_past_the_exp_range(self):
        for seed in range(5):
            mrf = self.log_metric_grid(seed, 800.0)
            labels, energy = graphcut_map(mrf_to_energy_model(mrf))
            want, logp = enumerate_inference(self.log_metric_grid(seed, 0.0), mode="map")
            assert {n: str(s) for n, s in labels.items()} == want
            assert math.isfinite(energy)
            # the energy leaves out each edge's agreement score
            dropped = sum(f.table[0, 0] for f in mrf.factors if len(f.scope) == 2)
            assert energy == pytest.approx(dropped - logp - 800.0 * len(mrf.factors), abs=1e-9)


def _refused_models():
    a, b, c = (Variable(n, ("0", "1")) for n in "abc")
    t = Variable("t", ("0", "1", "2"))
    return {
        "ternary variable": (
            MarkovRandomField([a, t], [Factor([a, t], np.ones((2, 3)))]),
            "need binary variables"),
        "factor over three variables": (
            MarkovRandomField([a, b, c], [Factor([a, b, c], np.ones((2, 2, 2)))]),
            "unary and pairwise factors only"),
        "zero linear entry": (
            MarkovRandomField([a, b], [Factor([a], [0.0, 1.0]),
                                       Factor([a, b], [[2.0, 1.0], [1.0, 2.0]])]),
            "infinite energy"),
        "-inf log entry": (
            MarkovRandomField([a, b], [Factor([a, b], [[1.0, -np.inf], [-np.inf, 1.0]],
                                              domain="log")]),
            "infinite energy"),
        "non-metric table": (
            MarkovRandomField([a, b], [Factor([a, b], [[3.0, 1.0], [2.0, 3.0]])]),
            r"not of the agreement \(metric\) form"),
        "repulsive coupling": (
            MarkovRandomField([a, b], [Factor([a, b], [[1.0, 3.0], [3.0, 1.0]])]),
            "couplings must favor agreement"),
    }


class TestGraphCutRefusals:
    @pytest.mark.parametrize("case", sorted(_refused_models()))
    def test_energy_model_refuses(self, case):
        mrf, message = _refused_models()[case]
        with pytest.raises(ValueError, match=message):
            mrf_to_energy_model(mrf)

    @pytest.mark.parametrize("case", sorted(_refused_models()))
    def test_cli_exits_2(self, case, tmp_path, capsys):
        mrf, message = _refused_models()[case]
        path = tmp_path / "model.json"
        path.write_text(serialize_model(mrf))
        assert main(["map", "--model", str(path), "--engine", "graphcut"],
                    out=io.StringIO()) == 2
        assert re.search(message, capsys.readouterr().err)


class TestIlpExport:
    def two_node_mrf(self, rng):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        factors = [
            Factor([a], rng.random(2) + 0.1),
            Factor([b], rng.random(2) + 0.1),
            Factor([a, b], rng.random((2, 2)) + 0.1),
        ]
        return MarkovRandomField([a, b], factors)

    def test_structure_counts(self, rng):
        text = export_map_ilp(self.two_node_mrf(rng))
        assert text.count("norm_") == 3
        assert text.count("cons_") == 4
        binary_line = text.split("Binary\n")[1].split("\n")[0]
        assert len(binary_line.split()) == 2 * 2 + 4
        for section in ("Maximize", "Subject To", "Bounds", "Binary"):
            assert section in text

    def test_single_node(self, rng):
        a = Variable("a", ("x", "y", "z"))
        mrf = MarkovRandomField([a], [Factor([a], rng.random(3) + 0.1)])
        text = export_map_ilp(mrf)
        assert text.count("norm_") == 1
        assert text.count("cons_") == 0

    def test_objective_at_map_equals_log_joint(self, rng):
        mrf = self.two_node_mrf(rng)
        assignment, logp = enumerate_inference(mrf, mode="map")
        assert ilp_objective_at(mrf, assignment) == pytest.approx(logp, abs=1e-9)

    def test_non_pairwise_rejected(self, rng):
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        mrf = MarkovRandomField(vs, [Factor(vs, rng.random((2, 2, 2)) + 0.1)])
        with pytest.raises(ValueError):
            export_map_ilp(mrf)

    def test_deterministic_output(self, rng):
        mrf = self.two_node_mrf(rng)
        assert export_map_ilp(mrf) == export_map_ilp(mrf)


class TestDualDecomposition:
    def test_tree_reaches_agreement(self, rng):
        for _ in range(10):
            mrf = random_tree_mrf(rng, n=5, max_states=3)
            state = dual_decomposition(mrf, max_iters=3000)
            _, want = enumerate_inference(mrf, mode="map")
            assert state.agreement
            assert state.objective == pytest.approx(want, abs=1e-9)
            assert state.bound - want <= 1e-9

    def test_single_node(self, rng):
        a = Variable("a", ("0", "1", "2"))
        mrf = MarkovRandomField([a], [Factor([a], [0.2, 0.5, 0.3])])
        state = dual_decomposition(mrf)
        assert state.iterations == 1
        assert state.bound == pytest.approx(math.log(0.5))
        assert state.assignment == {"a": "1"}

    def test_keeps_the_first_decode_when_every_state_scores_minus_inf(self):
        a, c = Variable("a", ("0", "1")), Variable("c", ("0", "1"))
        mrf = MarkovRandomField([a, c], [Factor([a], [0.0, 0.0]),
                                         Factor([a, c], [[1.0, 2.0], [3.0, 4.0]])])
        state = dual_decomposition(mrf, max_iters=5)
        assert state.assignment == {"a": "0", "c": "0"}
        assert state.objective == -math.inf

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iterations_is_refused(self, max_iters):
        a, c = Variable("a", ("0", "1")), Variable("c", ("0", "1"))
        mrf = MarkovRandomField([a, c], [Factor([a, c], [[1.0, 2.0], [3.0, 4.0]])])
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            dual_decomposition(mrf, max_iters=max_iters)

    def test_frustrated_cycle_bound_dominates(self, rng):
        vs = [Variable(n, ("0", "1")) for n in "abc"]
        anti = np.array([[0.1, 1.0], [1.0, 0.1]])
        factors = [
            Factor([vs[0], vs[1]], anti),
            Factor([vs[1], vs[2]], anti),
            Factor([vs[0], vs[2]], anti),
        ]
        mrf = MarkovRandomField(vs, factors)
        state = dual_decomposition(mrf, max_iters=150)
        _, want = enumerate_inference(mrf, mode="map")
        for bound in state.bounds:
            assert bound >= want - 1e-9

    def test_bounds_dominate_on_random_models(self, rng):
        for _ in range(10):
            mrf = random_mrf(rng, n=5, max_states=2, n_factors=9, max_scope=2)
            state = dual_decomposition(mrf, max_iters=60)
            _, want = enumerate_inference(mrf, mode="map")
            assert all(b >= want - 1e-9 for b in state.bounds)


    @staticmethod
    def binary_grid(side, rng):
        names = [[f"g{r}_{c}" for c in range(side)] for r in range(side)]
        var = {n: Variable(n, ("0", "1")) for row in names for n in row}
        factors = [Factor([var[n]], rng.random(2) + 0.1) for row in names for n in row]
        for r in range(side):
            for c in range(side):
                for dr, dc in ((0, 1), (1, 0)):
                    if r + dr < side and c + dc < side:
                        factors.append(Factor([var[names[r][c]], var[names[r + dr][c + dc]]],
                                              rng.random((2, 2)) + 0.1))
        return MarkovRandomField(list(var.values()), factors)

    def test_argmax_calls_per_iteration_do_not_grow_with_the_grid(self, monkeypatch, rng):
        # every slave of one table shape takes its argmax in one call: a
        # return to per-edge argmaxes shows up here as a count
        calls = []
        argmax = np.argmax

        def counted(*args, **kw):
            calls.append(1)
            return argmax(*args, **kw)

        monkeypatch.setattr(np, "argmax", counted)
        per_iteration = []
        for side in (4, 8):
            calls.clear()
            state = dual_decomposition(self.binary_grid(side, rng), max_iters=12)
            per_iteration.append(len(calls) / state.iterations)
        assert per_iteration[0] == per_iteration[1] == 2.0


class TestLocalSearch:
    def test_a_negative_sweep_count_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the model was compiled")

        monkeypatch.setattr(mapinf, "CompiledModel", refuse)
        with pytest.raises(ValueError, match="max_sweeps must not be negative"):
            local_search_map(voting_mrf(), max_sweeps=-1)

    def test_no_sweep_keeps_the_start(self):
        start = {"A": "1", "B": "0", "C": "1", "D": "0"}
        got, logp = local_search_map(voting_mrf(), max_sweeps=0, init=start)
        assert got == start
        assert logp == log_joint(voting_mrf(), start)

    def test_unary_only_exact(self, rng):
        vs = [Variable(n, ("0", "1", "2")) for n in "abcd"]
        factors = [Factor([v], rng.random(3) + 0.1) for v in vs]
        mrf = MarkovRandomField(vs, factors)
        want, want_logp = enumerate_inference(mrf, mode="map")
        got, logp = local_search_map(mrf, seed=3)
        assert got == want
        assert logp == pytest.approx(want_logp)
        sa_got, sa_logp = simulated_annealing_map(mrf, seed=3)
        assert sa_logp == pytest.approx(want_logp)

    def test_chain_restarts_find_map(self):
        gen = np.random.default_rng(2)
        vs = [Variable(f"x{i}", ("0", "1")) for i in range(5)]
        factors = [Factor([v], np.exp(gen.normal(size=2))) for v in vs]
        factors += [
            Factor([vs[i], vs[i + 1]], np.exp(0.4 * gen.normal(size=(2, 2))))
            for i in range(4)
        ]
        mrf = MarkovRandomField(vs, factors)
        _, want = enumerate_inference(mrf, mode="map")
        hits = 0
        for seed in range(20):
            _, logp = local_search_map(mrf, seed=seed)
            hits += abs(logp - want) < 1e-9
        assert hits >= 19

    def test_local_optimum_property(self, rng):
        mrf = random_mrf(rng, n=5, max_states=3, n_factors=8, max_scope=2)
        assignment, logp = local_search_map(mrf, seed=11)
        for n in sorted(mrf.variables):
            for s in mrf.variable(n).states:
                if s == assignment[n]:
                    continue
                trial = dict(assignment)
                trial[n] = s
                assert log_joint(mrf, trial) <= logp + 1e-12

    def test_annealing_on_grid_competitive(self, rng):
        # slow-cooled annealing should match or beat greedy search in most seeds
        wins = 0
        seeds = 10
        for seed in range(seeds):
            gen = np.random.default_rng(100 + seed)
            vs = [Variable(f"g{i}", ("0", "1")) for i in range(9)]
            factors = [Factor([v], gen.random(2) + 0.1) for v in vs]
            for r in range(3):
                for c in range(3):
                    i = 3 * r + c
                    if c + 1 < 3:
                        factors.append(Factor([vs[i], vs[i + 1]], gen.random((2, 2)) + 0.1))
                    if r + 1 < 3:
                        factors.append(Factor([vs[i], vs[i + 3]], gen.random((2, 2)) + 0.1))
            mrf = MarkovRandomField(vs, factors)
            _, ls = local_search_map(mrf, seed=seed, max_sweeps=5)
            schedule = AnnealSchedule(t_start=2.0, t_end=0.02, cooling=0.9, sweeps_per_stage=6)
            _, sa = simulated_annealing_map(mrf, schedule, seed=seed)
            if sa >= ls - 1e-12:
                wins += 1
        assert wins >= 9


class TestAnnealingDraws:
    CARDS = [1, 2, 3, 5, 7, 255, 256, 1000, 2**31 + 3]

    @pytest.mark.parametrize("block", [1, 5, 1024])
    def test_the_decoder_matches_a_fresh_generator_draw_for_draw(self, block, monkeypatch):
        # 2**31 + 3 rejects almost half its 32-bit draws; 3,000 draws span
        # more words than the default block holds
        monkeypatch.setattr(_PCG64Draws, "BLOCK", block)
        plan = np.random.default_rng(99)
        for seed in range(12):
            draws = _PCG64Draws(seed)
            rng = np.random.default_rng(seed)
            for kind, card in zip(plan.random(3000) < 0.3,
                                  plan.choice(self.CARDS, 3000).tolist()):
                if kind:
                    assert draws.random() == rng.random()
                else:
                    assert draws.integers(card) == rng.integers(card)

    def test_blanket_scores_come_from_the_site_rows(self, monkeypatch):
        built = []
        getitem = sampling._RowsAt.__getitem__

        def counted(self, flat):
            built.append(flat)
            return getitem(self, flat)

        monkeypatch.setattr(sampling._RowsAt, "__getitem__", counted)
        test_golden.test_anneal_assignment_and_logp()
        test_golden.test_local_search_assignment_and_logp()
        assert built == []
        # past the cap every row is built when read, with the same bits
        monkeypatch.setattr(sampling, "CONDITIONAL_CACHE_CAP", 1)
        test_golden.test_anneal_assignment_and_logp()
        test_golden.test_local_search_assignment_and_logp()
        assert built


class TestStarPastTheCap:
    """A ternary centre with 70 binary leaves: the centre's blanket has
    2**70 states, so its rows are built when read, from blanket states
    whose flat index is past int64. The pins were recorded when the
    centre was scored factor by factor."""

    PINS = {
        0: ("11000010001111000101000110010001101100011010010100100000110110101010011",
            "28.616352630532234",
            ["11011000001011100111000101010101000100111011001001000111111100011000011",
             "10001010101111100101000111000001100100010010111101100000111101101111101",
             "11001010010100000100101000010001000000101110010000100100111100111010010"]),
        1: ("20100001001010100011101110110110100000110101011101001000101001101000111",
            "40.98016936867122",
            ["20111101000000101011001111100111100001110111011101100000100001001000111",
             "20001001001010100011101111110101000000111101011100111010101001000001111",
             "20001001101010000011101111100111100000111110001101010000111011111000111"]),
    }

    @staticmethod
    def star_mrf():
        rng = np.random.default_rng(7)
        centre = Variable("c", ("0", "1", "2"))
        leaves = [Variable(f"l{k:02d}", ("0", "1")) for k in range(70)]
        factors = [Factor([centre], rng.gamma(1.0, size=3))]
        for k, leaf in enumerate(leaves):
            logs = rng.normal(0.0, 1.0, size=(3, 2))
            if k % 7 == 0:
                logs[0, 1] = -np.inf
            if k % 2:
                factors.append(Factor([centre, leaf], logs, domain="log"))
            else:
                with np.errstate(under="ignore"):
                    factors.append(Factor([leaf, centre], np.exp(logs.T)))
        return MarkovRandomField([centre, *leaves], factors)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_outputs_keep_their_bits(self, seed):
        mrf = self.star_mrf()
        sampler = sampling._ConditionalSampler(mrf, {})
        assert isinstance(sampler.tables[0][0], sampling._RowsAt)
        assert not any(isinstance(rows, sampling._RowsAt) for rows, _ in sampler.tables[1:])
        states, logp, rows = self.PINS[seed]
        for engine in (simulated_annealing_map, local_search_map):
            assignment, got = engine(mrf, seed=seed)
            assert "".join(assignment[n] for n in sorted(assignment)) == states
            assert repr(got) == logp
        batch = sampling.gibbs(mrf, {"l03": "1"}, 3, 5, sampling.make_rng(seed))
        assert ["".join(map(str, row)) for row in batch.states.tolist()] == rows
