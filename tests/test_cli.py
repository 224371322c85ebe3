import io as stdio
import itertools
import math

import numpy as np
import pytest

from pgmkit.cli import main
from pgmkit.io import dataset_to_csv, serialize_model
from pgmkit.learning import Dataset
from pgmkit.models import MarkovRandomField
from pgmkit.sampling import forward_sample, make_rng
from pgmkit.zoo import student_network, voting_mrf


@pytest.fixture
def student_path(tmp_path):
    path = tmp_path / "student.json"
    path.write_text(serialize_model(student_network()))
    return str(path)


@pytest.fixture
def voting_path(tmp_path):
    path = tmp_path / "voting.json"
    path.write_text(serialize_model(voting_mrf()))
    return str(path)


@pytest.fixture
def ising_path(tmp_path):
    """Three binary variables in a row with agreement couplings."""
    from pgmkit.factors import Factor, Variable
    from pgmkit.models import MarkovRandomField

    vs = [Variable(n, ("0", "1")) for n in "abc"]
    agree = np.array([[3.0, 1.0], [1.0, 3.0]])
    factors = [
        Factor([vs[0], vs[1]], agree),
        Factor([vs[1], vs[2]], agree),
        Factor([vs[0]], [1.0, 4.0]),
        Factor([vs[2]], [2.0, 1.0]),
    ]
    path = tmp_path / "ising.json"
    path.write_text(serialize_model(MarkovRandomField(vs, factors)))
    return str(path)


@pytest.fixture
def grid_path(tmp_path):
    """An 8x8 binary grid MRF: its joint has 2^64 entries."""
    from pgmkit.factors import Factor, Variable
    from pgmkit.models import MarkovRandomField

    gen = np.random.default_rng(0)
    vs = {(r, c): Variable(f"G{r}{c}", ("s0", "s1")) for r in range(8) for c in range(8)}
    factors = [Factor([v], np.exp(gen.normal(0, 0.5, size=2))) for v in vs.values()]
    for (r, c), v in vs.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in vs:
                factors.append(Factor([v, vs[nb]], np.exp(gen.normal(0, 0.3, size=(2, 2)))))
    path = tmp_path / "grid.json"
    path.write_text(serialize_model(MarkovRandomField(list(vs.values()), factors)))
    return str(path)


def write_mrf(tmp_path, name, tables):
    """A field over binary variables, one factor per (scope, table) pair."""
    from pgmkit.factors import Factor, Variable
    from pgmkit.models import MarkovRandomField

    var = {n: Variable(n, ("0", "1")) for scope, _ in tables for n in scope}
    factors = [Factor([var[n] for n in scope], table) for scope, table in tables]
    path = tmp_path / name
    path.write_text(serialize_model(MarkovRandomField(list(var.values()), factors)))
    return str(path)


# b=1 leaves f(a, b) with no positive entry, so the evidence has
# probability zero although no factor is fixed completely
REDUCED_TO_ZERO = [("ab", [[1.0, 0.0], [0.0, 0.0]]), ("ac", [[1.0, 2.0], [3.0, 4.0]])]


def run(argv):
    buffer = stdio.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


def grep(output, key):
    for line in output.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no {key}= line in output:\n{output}")


class TestQuery:
    def test_letter_marginal_enum(self, student_path):
        code, out = run(["query", "--model", student_path, "--target", "LETTER",
                         "--engine", "enum"])
        assert code == 0
        assert "p[l0]=0.497664 p[l1]=0.502336" in out
        assert "config.engine=enum" in out
        assert "config.seed=0" in out

    def test_every_exact_engine_agrees(self, student_path):
        for evidence in ([], ["--evidence", "INVESTMENT=i1", "--evidence", "DIFFICULTY=d0"]):
            lines = {}
            for engine in ("enum", "ve", "jtree", "bp"):
                code, out = run(["query", "--model", student_path, "--target", "LETTER",
                                 "--engine", engine, *evidence])
                assert code == 0
                lines[engine] = [l for l in out.splitlines() if l.startswith("p[")][0]
            assert len(set(lines.values())) == 1, evidence

    def test_exact_engines_agree_on_mrf_fixture(self, voting_path):
        lines = {}
        for engine in ("enum", "ve", "jtree"):
            code, out = run(["query", "--model", voting_path, "--target", "A",
                             "--engine", engine])
            assert code == 0
            lines[engine] = [l for l in out.splitlines() if l.startswith("p[")][0]
        assert len(set(lines.values())) == 1

    def test_only_ve_bp_and_jtree_drop_barren_nodes(self, student_path, monkeypatch):
        from pgmkit import cli

        pruned = []
        prune = cli.relevant_network
        monkeypatch.setattr(cli, "relevant_network", lambda *a: pruned.append(a) or prune(*a))
        for engine in ("ve", "bp", "jtree", "enum", "loopy", "meanfield", "gibbs", "mh"):
            pruned.clear()
            code, _ = run(["query", "--model", student_path, "--target", "GRADE",
                           "--engine", engine, "--n", "50", "--burn-in", "0"])
            assert code == 0
            assert len(pruned) == (engine in ("ve", "bp", "jtree")), engine

    def test_jtree_and_bp_answer_on_the_network_the_query_needs(self, tmp_path, monkeypatch):
        # P -> Q, and X0..X4 each under Q and every earlier X: the full
        # network is no polytree and its largest clique holds 3^6 entries;
        # the query keeps P and Q alone
        from pgmkit import exact
        from pgmkit.errors import NotATreeError, TooLargeError
        from pgmkit.factors import Variable
        from pgmkit.graphs import DirectedGraph
        from pgmkit.models import random_cpds

        xs = [f"X{k}" for k in range(5)]
        v = {n: Variable(n, ("s0", "s1", "s2")) for n in ["P", "Q", *xs]}
        edges = [("P", "Q")] + [(p, x) for k, x in enumerate(xs) for p in ["Q", *xs[:k]]]
        bn = random_cpds(list(v.values()), DirectedGraph(v, edges), np.random.default_rng(5))
        path = tmp_path / "barren.json"
        path.write_text(serialize_model(bn))
        monkeypatch.setattr(exact, "TABLE_CAP", 3**5)
        with pytest.raises(TooLargeError):
            exact.build_junction_tree(bn)
        with pytest.raises(NotATreeError):
            exact.tree_bp(bn)
        lines = {}
        for engine in ("enum", "jtree", "bp"):
            code, out = run(["query", "--model", str(path), "--target", "Q",
                             "--evidence", "P=s1", "--engine", engine])
            assert code == 0
            lines[engine] = [l for l in out.splitlines() if l.startswith("p[")][0]
        assert len(set(lines.values())) == 1

    def test_conditional_query(self, student_path):
        code, out = run([
            "query", "--model", student_path, "--target", "LETTER",
            "--evidence", "INVESTMENT=i1", "--evidence", "DIFFICULTY=d0",
        ])
        assert code == 0
        # the p[...] line holds both states; parse the l1 entry directly
        line = [l for l in out.splitlines() if l.startswith("p[")][0]
        value = float(dict(part.split("=") for part in line.split())["p[l1]"])
        assert value == pytest.approx(0.8582, abs=1e-4)

    def test_unknown_flag_exits_64(self, student_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["query", "--model", student_path, "--nonsense"])
        assert exc.value.code == 64

    def test_bad_evidence_exits_2(self, student_path):
        code, _ = run(["query", "--model", student_path, "--target", "LETTER",
                       "--evidence", "LETTER=zzz"])
        assert code == 2

    @pytest.mark.parametrize(
        "engine", ["enum", "ve", "bp", "jtree", "loopy", "meanfield", "gibbs", "mh"]
    )
    def test_target_that_is_evidence_exits_2(self, student_path, capsys, engine):
        code, out = run(["query", "--model", student_path, "--target", "SAT",
                         "--evidence", "SAT=s1", "--engine", engine])
        assert code == 2
        assert "p[" not in out
        assert "error=query variable 'SAT' is also evidence" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["enum", "ve", "bp", "jtree", "loopy", "meanfield"])
    def test_log_domain_model_answers_as_its_linear_twin(self, tmp_path, engine):
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField

        a, b = Variable("a", ("s0", "s1")), Variable("b", ("s0", "s1"))
        tables = [np.array([1.0, 4.0]), np.array([[3.0, 1.0], [1.0, 5.0]])]
        lines = {}
        for domain in ("linear", "log"):
            factors = [
                Factor(scope, t if domain == "linear" else np.log(t), domain=domain)
                for scope, t in zip([[a], [a, b]], tables)
            ]
            path = tmp_path / f"{domain}.json"
            path.write_text(serialize_model(MarkovRandomField([a, b], factors)))
            code, out = run(["query", "--model", str(path), "--target", "a",
                             "--evidence", "b=s0", "--engine", engine])
            assert code == 0, domain
            lines[domain] = [l for l in out.splitlines() if l.startswith("p[")]
        assert lines["log"] == lines["linear"]
        assert lines["log"] == ["p[s0]=0.428571 p[s1]=0.571429"]

    def test_oracle_on_a_log_table_past_the_exp_range_answers(self, tmp_path):
        # exp(800) overflows, but the oracle holds its joint as logs, so it
        # answers as the engines that shift log tables do
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField

        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a], [800.0, 0.0], domain="log"),
                                         Factor([a, b], [[1.0, 2.0], [3.0, 4.0]])])
        path = tmp_path / "wide.json"
        path.write_text(serialize_model(mrf))
        for engine in ("enum", "ve", "jtree", "bp"):
            code, out = run(["query", "--model", str(path), "--target", "b", "--engine", engine])
            assert code == 0, engine
            assert [l for l in out.splitlines() if l.startswith("p[")] == ["p[0]=0.333333 p[1]=0.666667"]
        for engine in ("enum", "maxprod"):
            code, out = run(["map", "--model", str(path), "--engine", engine])
            assert code == 0, engine
            assert [l for l in out.splitlines() if not l.startswith("config.")] == [
                "map[a]=0", "map[b]=1", "logp=800.693"]

    def test_zero_evidence_exits_3(self, tmp_path, capsys):
        from pgmkit.factors import Factor, Variable
        from pgmkit.graphs import DirectedGraph
        from pgmkit.models import BayesianNetwork

        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        bn = BayesianNetwork(
            [a, b],
            DirectedGraph(["a", "b"], [("a", "b")]),
            {
                "a": Factor([a], [1.0, 0.0]),
                "b": Factor([b, a], [[1.0, 0.5], [0.0, 0.5]]),
            },
        )
        path = tmp_path / "det.json"
        path.write_text(serialize_model(bn))
        for engine in ("ve", "bp", "jtree"):
            code, _ = run(["query", "--model", str(path), "--target", "a",
                           "--evidence", "b=1", "--engine", engine])
            assert code == 3, engine
            assert capsys.readouterr().err == "error=the evidence has probability zero\n", engine

    @pytest.mark.parametrize("engine", ["ve", "bp", "jtree", "loopy", "meanfield", "gibbs",
                                        "mh", "enum"])
    def test_evidence_a_fixed_factor_zeroes_exits_3_on_every_engine(self, tmp_path, capsys,
                                                                    engine):
        # f(a) = [0, 1]: the evidence a=0 fixes it to zero, and each engine
        # refuses alike
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField

        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        mrf = MarkovRandomField([a, b], [Factor([a], [0.0, 1.0]),
                                         Factor([a, b], [[1.0, 2.0], [3.0, 4.0]])])
        path = tmp_path / "zeroed.json"
        path.write_text(serialize_model(mrf))
        code, out = run(["query", "--model", str(path), "--target", "b", "--evidence", "a=0",
                         "--engine", engine, "--n", "50", "--burn-in", "5"])
        assert code == 3
        assert "p[" not in out
        assert capsys.readouterr().err == "error=the evidence has probability zero\n"

    @pytest.mark.parametrize("engine", ["ve", "bp", "jtree", "loopy", "meanfield", "gibbs",
                                        "mh", "enum"])
    def test_evidence_a_reduced_factor_zeroes_exits_3_on_every_engine(self, tmp_path, capsys,
                                                                      engine):
        path = write_mrf(tmp_path, "reduced.json", REDUCED_TO_ZERO)
        code, out = run(["query", "--model", path, "--target", "c", "--evidence", "b=1",
                         "--engine", engine, "--n", "50", "--burn-in", "5"])
        assert code == 3
        assert "p[" not in out
        assert capsys.readouterr().err == "error=the evidence has probability zero\n"

    def test_meanfield_degenerate_update_exits_3(self, tmp_path, capsys):
        # a uniform q over the XOR support sends every expected log to -inf
        path = write_mrf(tmp_path, "xor.json", [("ab", [[0.0, 1.0], [1.0, 0.0]])])
        code, out = run(["query", "--model", path, "--target", "a", "--engine", "meanfield"])
        assert code == 3
        assert "p[" not in out
        assert capsys.readouterr().err == "error=every state of 'a' has zero expected mass\n"

    def test_meanfield_on_a_grid_beyond_int64(self, grid_path):
        code, out = run(["query", "--model", grid_path, "--target", "G34",
                         "--engine", "meanfield", "--max-iters", "2"])
        assert code == 0
        assert math.isfinite(float(grep(out, "elbo")))

    def test_enum_on_a_grid_beyond_int64_is_too_large(self, grid_path, capsys):
        code, _ = run(["query", "--model", grid_path, "--target", "G34",
                       "--engine", "enum"])
        assert code == 3
        assert "18446744073709551616 entries exceeds the cap" in capsys.readouterr().err

    def test_mh_on_a_grid_beyond_int64(self, grid_path):
        code, out = run(["query", "--model", grid_path, "--target", "G34",
                         "--engine", "mh", "--n", "20", "--burn-in", "5",
                         "--evidence", "G00=s1"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("p[")][0]
        values = [float(part.split("=")[1]) for part in line.split()]
        assert sum(values) == pytest.approx(1.0)

    def test_gibbs_engine_close_to_exact(self, student_path):
        code, out = run(["query", "--model", student_path, "--target", "LETTER",
                         "--engine", "gibbs", "--n", "20000", "--seed", "5"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("p[")][0]
        value = float(dict(part.split("=") for part in line.split())["p[l1]"])
        assert value == pytest.approx(0.502336, abs=0.02)


    @pytest.mark.parametrize("engine", ["gibbs", "mh"])
    @pytest.mark.parametrize("flags, message", [
        (["--burn-in", "-5"], "burn_in must not be negative"),
        (["--n", "0"], "an empty batch has no frequencies"),
    ], ids=["negative_burn_in", "no_samples"])
    def test_sampler_arguments_that_leave_no_sample_exit_2(self, student_path, capsys,
                                                            engine, flags, message):
        code, out = run(["query", "--model", student_path, "--target", "LETTER",
                         "--engine", engine, "--n", "10", *flags])
        assert code == 2
        assert "p[" not in out
        assert capsys.readouterr().err == f"error={message}\n"


class TestMap:
    def test_student_map_enum(self, student_path):
        code, out = run(["map", "--model", student_path, "--engine", "enum"])
        assert code == 0
        assert grep(out, "map[DIFFICULTY]") == "d1"
        assert grep(out, "map[INVESTMENT]") == "i0"
        assert grep(out, "map[GRADE]") == "g3"
        assert grep(out, "map[SAT]") == "s0"
        assert grep(out, "map[LETTER]") == "l0"
        assert float(grep(out, "logp")) == pytest.approx(math.log(0.184338), abs=1e-5)

    def test_maxprod_matches_enum(self, student_path):
        _, enum_out = run(["map", "--model", student_path, "--engine", "enum"])
        _, mp_out = run(["map", "--model", student_path, "--engine", "maxprod"])
        for key in ("map[DIFFICULTY]", "map[GRADE]", "logp"):
            assert grep(enum_out, key) == grep(mp_out, key)

    def test_maxprod_too_large_exits_3(self, tmp_path, capsys):
        # reverse name order eliminates the hub Z first, over all 27
        # leaves: 2**28 entries, twice the default cap
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField

        hub = Variable("Z", ("0", "1"))
        leaves = [Variable(f"A{k:02d}", ("0", "1")) for k in range(27)]
        factors = [Factor([hub, leaf], [[2.0, 1.0], [1.0, 2.0]]) for leaf in leaves]
        path = tmp_path / "star.json"
        path.write_text(serialize_model(MarkovRandomField([hub, *leaves], factors)))
        code, _ = run(["map", "--model", str(path), "--engine", "maxprod"])
        assert code == 3
        assert "eliminates 'Z'" in capsys.readouterr().err
        code, out = run(["map", "--model", str(path), "--engine", "maxprod",
                         "--evidence", "Z=1"])
        assert code == 0
        assert grep(out, "map[A00]") == "1"

    @pytest.mark.parametrize("command, refusal", [
        (["query", "--target", "LETTER", "--engine", "ve"], "eliminates 'DIFFICULTY'"),
        (["query", "--target", "LETTER", "--engine", "jtree"],
         "for the clique ['DIFFICULTY', 'GRADE', 'INVESTMENT']"),
        (["map", "--engine", "maxprod"], "eliminates 'INVESTMENT'"),
    ], ids=["ve", "jtree", "maxprod"])
    def test_table_cap_exits_3(self, student_path, monkeypatch, capsys, command, refusal):
        # every engine's largest table on the student network holds 12 entries
        from pgmkit import exact

        monkeypatch.setattr(exact, "TABLE_CAP", 11)
        code, _ = run([command[0], "--model", student_path, *command[1:]])
        assert code == 3
        assert f"{refusal}, over the cap of 11" in capsys.readouterr().err
        monkeypatch.setattr(exact, "TABLE_CAP", 12)
        assert run([command[0], "--model", student_path, *command[1:]])[0] == 0

    def test_every_engine_honours_evidence(self, student_path, ising_path):
        from pgmkit.io import parse_model
        from pgmkit.models import log_joint

        cases = [
            (student_path, "SAT", "s1", ("enum", "maxprod", "localsearch", "anneal")),
            # graph cuts and dual decomposition need a binary pairwise model
            (ising_path, "b", "1", ("enum", "maxprod", "localsearch", "anneal",
                                     "graphcut", "dualdecomp")),
        ]
        for path, name, state, engines in cases:
            with open(path) as handle:
                model = parse_model(handle.read())
            for engine in engines:
                code, out = run(["map", "--model", path, "--engine", engine,
                                 "--evidence", f"{name}={state}", "--seed", "1"])
                assert code == 0, engine
                assert grep(out, f"map[{name}]") == state, engine
                assignment = {n: grep(out, f"map[{n}]") for n in model.variables}
                want = log_joint(model, assignment)
                assert float(grep(out, "logp")) == pytest.approx(want, rel=1e-5), engine
                if engine == "dualdecomp":
                    assert float(grep(out, "bound")) >= want - 1e-5

    @pytest.mark.parametrize("engine", ["enum", "maxprod", "graphcut", "dualdecomp",
                                        "localsearch", "anneal"])
    def test_every_engine_answers_the_first_assignment_when_none_has_mass(self, tmp_path,
                                                                         capsys, engine):
        fixed = write_mrf(tmp_path, "fixed.json",
                          [("a", [0.0, 1.0]), ("ab", [[1.0, 2.0], [3.0, 4.0]])])
        code, out = run(["map", "--model", fixed, "--engine", engine, "--evidence", "a=0"])
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith(("map[", "logp="))] == [
            "map[a]=0", "map[b]=0", "logp=-inf"]
        reduced = write_mrf(tmp_path, "reduced.json", REDUCED_TO_ZERO)
        code, out = run(["map", "--model", reduced, "--engine", engine, "--evidence", "b=1"])
        if engine == "graphcut":
            assert code == 2
            assert capsys.readouterr().err == "error=zero potential entries have infinite energy\n"
            return
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith(("map[", "logp="))] == [
            "map[a]=0", "map[b]=1", "map[c]=0", "logp=-inf"]

    @pytest.mark.parametrize("engine", ["localsearch", "anneal"])
    def test_a_search_stuck_at_minus_inf_prints_the_state_it_scored(self, tmp_path, engine):
        # seed 0 starts at (1, 1), where every single-site move scores -inf,
        # while (0, 0) has mass: the answer must agree with its logp
        from pgmkit.io import parse_model
        from pgmkit.models import log_joint

        path = write_mrf(tmp_path, "stuck.json", [("ab", [[1.0, 0.0], [0.0, 0.0]])])
        code, out = run(["map", "--model", path, "--engine", engine, "--seed", "0"])
        assert code == 0
        assignment = {n: grep(out, f"map[{n}]") for n in "ab"}
        assert assignment == {"a": "1", "b": "1"}
        with open(path) as handle:
            model = parse_model(handle.read())
        assert log_joint(model, assignment) == float(grep(out, "logp")) == -math.inf

    @pytest.mark.parametrize("max_iters, message", [
        ("0", "max_iters must be at least 1"),
        ("-1", "--max-iters must not be negative"),   # the rule of every engine
    ], ids=["0", "-1"])
    def test_dualdecomp_with_no_iterations_exits_2(self, voting_path, capsys, max_iters,
                                                   message):
        code, _ = run(["map", "--model", voting_path, "--engine", "dualdecomp",
                       "--max-iters", max_iters])
        assert code == 2
        assert capsys.readouterr().err == f"error={message}\n"

    def test_lp_export(self, voting_path, tmp_path):
        lp_path = tmp_path / "map.lp"
        code, out = run(["map", "--model", voting_path, "--engine", "enum",
                         "--export-lp", str(lp_path)])
        assert code == 0
        text = lp_path.read_text()
        assert "Maximize" in text and "Subject To" in text and "Binary" in text

    def test_lp_export_is_not_written_when_the_engine_refuses(self, voting_path, tmp_path,
                                                              capsys):
        lp_path = tmp_path / "map.lp"
        code, out = run(["map", "--model", voting_path, "--engine", "dualdecomp",
                         "--max-iters", "0", "--export-lp", str(lp_path)])
        assert code == 2
        assert "max_iters must be at least 1" in capsys.readouterr().err
        assert not lp_path.exists()
        assert "lp_written=" not in out

    def test_lp_export_line_comes_first(self, voting_path, tmp_path):
        lp_path = tmp_path / "map.lp"
        code, out = run(["map", "--model", voting_path, "--engine", "dualdecomp",
                         "--export-lp", str(lp_path)])
        assert code == 0 and lp_path.exists()
        lines = out.splitlines()
        assert lines[lines.index(f"lp_written={lp_path}") + 1].startswith("agreement=")

    def test_lp_export_of_a_model_with_no_variables_exits_2(self, tmp_path, capsys):
        from pgmkit.models import MarkovRandomField

        path = tmp_path / "empty.json"
        path.write_text(serialize_model(MarkovRandomField([], [])))
        lp_path = tmp_path / "map.lp"
        code, _ = run(["map", "--model", str(path), "--engine", "enum",
                       "--export-lp", str(lp_path)])
        assert code == 2
        assert "no variables" in capsys.readouterr().err
        assert not lp_path.exists()

    @pytest.mark.parametrize("evidence", [[], ["A=0"], ["A=0", "C=1"]])
    def test_lp_export_encodes_the_field_the_engine_answers_for(self, voting_path, tmp_path,
                                                              evidence):
        from pgmkit.mapinf import export_map_ilp, ilp_objective_at
        from pgmkit.models import reduce_to_evidence

        lp_path = tmp_path / "map.lp"
        flags = [f for pair in evidence for f in ("--evidence", pair)]
        code, out = run(["map", "--model", voting_path, "--engine", "enum", *flags,
                         "--export-lp", str(lp_path)])
        assert code == 0
        field, _ = reduce_to_evidence(voting_mrf(), dict(p.split("=") for p in evidence))
        assert lp_path.read_text() == export_map_ilp(field)
        if not evidence:
            assert lp_path.read_text() == export_map_ilp(voting_mrf())
        # the printed answer is a maximum of the exported objective
        answer = {n: grep(out, f"map[{n}]") for n in field.variables}
        best = max(ilp_objective_at(field, dict(zip(field.variables, states)))
                   for states in itertools.product("01", repeat=len(field.variables)))
        assert ilp_objective_at(field, answer) == pytest.approx(best, abs=1e-12)

    def test_lp_export_with_every_variable_observed_exits_2(self, voting_path, tmp_path,
                                                            capsys):
        lp_path = tmp_path / "map.lp"
        flags = [f for n in "ABCD" for f in ("--evidence", f"{n}=0")]
        code, out = run(["map", "--model", voting_path, "--engine", "enum", *flags,
                         "--export-lp", str(lp_path)])
        assert code == 2
        assert "no variables" in capsys.readouterr().err
        assert not lp_path.exists()
        assert "map[" not in out

    def test_graphcut_engine(self, tmp_path):
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField, enumerate_inference

        vs = [Variable(n, ("0", "1")) for n in "abc"]
        agree = np.array([[3.0, 1.0], [1.0, 3.0]])
        factors = [
            Factor([vs[0], vs[1]], agree),
            Factor([vs[1], vs[2]], agree),
            Factor([vs[0]], [1.0, 4.0]),
            Factor([vs[2]], [2.0, 1.0]),
        ]
        mrf = MarkovRandomField(vs, factors)
        path = tmp_path / "ising.json"
        path.write_text(serialize_model(mrf))
        code, out = run(["map", "--model", str(path), "--engine", "graphcut"])
        assert code == 0
        want, _ = enumerate_inference(mrf, mode="map")
        for name, state in want.items():
            assert grep(out, f"map[{name}]") == state

    def test_local_search_and_annealing(self, voting_path):
        for engine in ("localsearch", "anneal", "dualdecomp"):
            code, out = run(["map", "--model", voting_path, "--engine", engine,
                             "--seed", "3"])
            assert code == 0
            assert float(grep(out, "logp")) <= math.log(1e4) + 1e-9


class TestSample:
    def test_forward_deterministic_bytes(self, student_path, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for out_path in (out1, out2):
            code, _ = run(["sample", "--model", student_path, "--n", "5",
                           "--seed", "42", "--out", str(out_path)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_methods_run(self, student_path, tmp_path):
        for method in ("forward", "jtree", "gibbs", "mh"):
            out_path = tmp_path / f"{method}.csv"
            code, _ = run(["sample", "--model", student_path, "--method", method,
                           "--n", "50", "--seed", "1", "--out", str(out_path)])
            assert code == 0
            lines = out_path.read_text().strip().splitlines()
            assert len(lines) == 51  # header + rows

    def test_mh_with_every_variable_observed_returns_the_evidence_rows(self, student_path):
        observed = ["DIFFICULTY=d1", "GRADE=g2", "INVESTMENT=i0", "LETTER=l1", "SAT=s0"]
        outputs = {}
        for method in ("gibbs", "mh"):
            command = ["sample", "--model", student_path, "--method", method,
                       "--n", "4", "--seed", "5"]
            for item in observed:
                command += ["--evidence", item]
            code, out = run(command)
            assert code == 0
            outputs[method] = [l for l in out.splitlines() if not l.startswith("config.")]
        assert outputs["mh"] == outputs["gibbs"] == [
            "DIFFICULTY,GRADE,INVESTMENT,LETTER,SAT", *["d1,g2,i0,l1,s0"] * 4]

    @pytest.mark.parametrize("method", ["forward", "jtree", "gibbs", "mh"])
    def test_no_samples_prints_the_header(self, student_path, method):
        code, out = run(["sample", "--model", student_path, "--method", method,
                         "--n", "0"])
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("config.")] == [
            "DIFFICULTY,GRADE,INVESTMENT,LETTER,SAT"]

    @staticmethod
    def _relabelled(tmp_path, states: dict[str, list[str]]) -> str:
        """The student network with the given state labels, as a model file."""
        from pgmkit.io import canonical_json, model_to_document

        document = model_to_document(student_network())
        for entry in document["variables"]:
            entry["states"] = states.get(entry["name"], entry["states"])
        path = tmp_path / "relabelled.json"
        path.write_text(canonical_json(document))
        return str(path)

    def test_sample_out_round_trips_through_learn_params(self, tmp_path):
        from pgmkit.io import parse_model
        from pgmkit.learning import mle_bn

        labels = {"DIFFICULTY": ["very easy", "quite hard indeed"],   # inner spaces, 17 bytes
                  "GRADE": ["größer", "中文", "grade three of three"],  # non-ASCII, 20 bytes
                  "LETTER": ["l0", "ünïcödé letter"]}
        model_path = self._relabelled(tmp_path, labels)
        data_path, fit_path = tmp_path / "s.csv", tmp_path / "fit.json"
        code, _ = run(["sample", "--model", model_path, "--n", "400", "--seed", "3",
                       "--out", str(data_path)])
        assert code == 0
        model = parse_model(open(model_path).read())
        batch = forward_sample(model, 400, make_rng(3))
        assert data_path.read_text().splitlines()[1:] == [
            ",".join(v.states[s] for v, s in zip(batch.variables, row)) for row in batch.states]
        code, out = run(["learn-params", "--structure", model_path, "--data", str(data_path),
                         "--out", str(fit_path)])
        assert code == 0
        assert grep(out, "n") == "400"
        expected = mle_bn(model.dag, Dataset(batch.variables, batch.states), 0.0)
        assert fit_path.read_text() == serialize_model(expected)

    @pytest.mark.parametrize("states, refused", [
        (["x,y", " z"], "state 'x,y'"),
        (["x", " z"], "state ' z'"),
        (["x", "z\t"], "state 'z\\t'"),
        (["x", "y\nz"], "state 'y\\nz'"),
        (["x", "y\u2028z"], "state 'y\\u2028z'"),
    ])
    def test_sample_refuses_labels_the_reader_cannot_read_back(
            self, tmp_path, capsys, states, refused):
        model_path = self._relabelled(tmp_path, {"DIFFICULTY": states})
        data_path = tmp_path / "s.csv"
        code, out = run(["sample", "--model", model_path, "--n", "5", "--out", str(data_path)])
        assert code == 2
        assert not data_path.exists()
        assert "written=" not in out
        assert f"variable 'DIFFICULTY': {refused} cannot be written" in capsys.readouterr().err

    def test_stdout_csv(self, student_path):
        code, out = run(["sample", "--model", student_path, "--n", "3", "--seed", "7"])
        assert code == 0
        csv_lines = [l for l in out.splitlines() if not l.startswith("config.")]
        assert csv_lines[0] == "DIFFICULTY,GRADE,INVESTMENT,LETTER,SAT"


class TestLearning:
    def test_learn_params_round_trip(self, student_path, tmp_path):
        bn = student_network()
        batch = forward_sample(bn, 20_000, make_rng(3))
        data_path = tmp_path / "data.csv"
        data_path.write_text(batch.to_csv())
        out_path = tmp_path / "learned.json"
        code, out = run(["learn-params", "--structure", student_path,
                         "--data", str(data_path), "--pseudocount", "1",
                         "--out", str(out_path)])
        assert code == 0
        from pgmkit.io import parse_model

        learned = parse_model(out_path.read_text())
        for name in bn.cpds:
            assert np.allclose(
                learned.cpds[name].table, bn.cpds[name].table, atol=0.05
            )

    def test_learn_params_takes_one_prior_count(self, student_path, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text(forward_sample(student_network(), 300, make_rng(4)).to_csv())
        argv = ["learn-params", "--structure", student_path, "--data", str(data_path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--pseudocount", "5", "--dirichlet", "0"])
        assert exc.value.code == 64
        assert "not allowed with argument" in capsys.readouterr().err
        for flag in ("--pseudocount", "--dirichlet"):
            code, out = run(argv + [flag, "-1"])
            assert code == 2
            assert "loglik=" not in out
            assert capsys.readouterr().err == f"error={flag} must be nonnegative\n"

        def answer(out):
            return [line for line in out.splitlines() if not line.startswith("config.")]

        with_dirichlet = run(argv + ["--dirichlet", "2"])
        assert with_dirichlet[0] == 0
        assert answer(with_dirichlet[1]) == answer(run(argv + ["--pseudocount", "2"])[1])
        assert answer(with_dirichlet[1]) != answer(run(argv)[1])

    def test_learn_structure_chowliu(self, tmp_path, student_path):
        bn = student_network()
        batch = forward_sample(bn, 5000, make_rng(4))
        data_path = tmp_path / "data.csv"
        data_path.write_text(batch.to_csv())
        code, out = run(["learn-structure", "--data", str(data_path),
                         "--method", "chowliu", "--root", "DIFFICULTY",
                         "--model", student_path])
        assert code == 0
        assert out.count("edge=") == 4  # spanning tree over 5 variables

    @pytest.mark.parametrize("method", ["chowliu", "hillclimb", "pc"])
    def test_learn_structure_dot_names_every_printed_edge(self, tmp_path, method):
        data_path = tmp_path / "data.csv"
        data_path.write_text(forward_sample(student_network(), 3000, make_rng(4)).to_csv())
        dot_path = tmp_path / "learned.dot"
        code, out = run(["learn-structure", "--data", str(data_path), "--method", method,
                         "--dot", str(dot_path)])
        assert code == 0
        edges = [grep(line, "edge") for line in out.splitlines() if line.startswith("edge=")]
        assert edges
        dot = dot_path.read_text()
        for edge in edges:
            if "->" in edge:
                u, v = edge.split("->")
                assert f'"{u}" -> "{v}";' in dot, edge
            else:
                u, v = edge.split("-")
                assert f'"{u}" -> "{v}" [dir=none];' in dot, edge

    def test_learn_structure_pc_oracleish(self, tmp_path):
        # strongly coupled y-structure data, bare CSV (variables inferred)
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import BayesianNetwork
        from pgmkit.zoo import y_structure_dag

        variables = [Variable(n, ("0", "1")) for n in "ABCD"]
        by = {v.name: v for v in variables}
        z = np.zeros((2, 2, 2))
        z[1] = [[0.05, 0.6], [0.6, 0.95]]
        z[0] = 1.0 - z[1]
        strong = np.array([[0.9, 0.2], [0.1, 0.8]])
        bn = BayesianNetwork(
            variables,
            y_structure_dag(),
            {
                "A": Factor([by["A"]], [0.5, 0.5]),
                "B": Factor([by["B"]], [0.5, 0.5]),
                "C": Factor([by["C"], by["A"], by["B"]], z),
                "D": Factor([by["D"], by["C"]], strong),
            },
        )
        batch = forward_sample(bn, 40_000, make_rng(6))
        data_path = tmp_path / "y.csv"
        data_path.write_text(batch.to_csv())
        code, out = run(["learn-structure", "--data", str(data_path),
                         "--method", "pc", "--alpha", "0.01"])
        assert code == 0
        edges = {l.split("=", 1)[1] for l in out.splitlines() if l.startswith("edge=")}
        assert edges == {"A->C", "B->C", "C->D"}

    @pytest.mark.parametrize("text, message", [
        ("a,b\n0,1\n1\n", "row 2 has 1 cells, expected 2"),
        ("a,b\n0,1\n1,0,1\n", "row 2 has 3 cells, expected 2"),
        ("a,a\n0,1\n", "duplicate columns in header"),
        ("a,weight\n0,0.5\n", "column 'weight': per-row weights are not supported"),
    ])
    def test_bare_csv_rows_are_checked(self, tmp_path, capsys, text, message):
        from pgmkit.errors import SchemaError
        from pgmkit.factors import Variable
        from pgmkit.io import load_dataset

        with pytest.raises(SchemaError, match=message):
            load_dataset(text, [Variable(n, ("0", "1")) for n in "ab"])
        data_path = tmp_path / "bad.csv"
        data_path.write_text(text)
        for method in ("hillclimb", "pc", "chowliu"):
            code, _ = run(["learn-structure", "--data", str(data_path), "--method", method])
            assert code == 2, method
            assert capsys.readouterr().err == f"error={message}\n", method

    @pytest.mark.parametrize("flags, message", [
        (["--method", "pc", "--alpha", "2"], r"alpha must lie in (0, 1)"),
        (["--method", "pc", "--alpha", "0"], r"alpha must lie in (0, 1)"),
        (["--method", "pc", "--max-cond-size", "-1"], "max_cond_size must not be negative"),
        (["--method", "hillclimb", "--max-indegree", "-1"], "max_indegree must not be negative"),
    ], ids=["pc_alpha_2", "pc_alpha_0", "pc_max_cond_size_-1", "hillclimb_max_indegree_-1"])
    def test_meaningless_structure_parameters_exit_2(self, tmp_path, capsys, flags, message):
        data_path = tmp_path / "data.csv"
        data_path.write_text(forward_sample(student_network(), 500, make_rng(4)).to_csv())
        code, out = run(["learn-structure", "--data", str(data_path), *flags])
        assert code == 2
        assert "edge=" not in out
        assert capsys.readouterr().err == f"error={message}\n"

    def test_score_command(self, student_path, tmp_path):
        batch = forward_sample(student_network(), 2000, make_rng(5))
        data_path = tmp_path / "d.csv"
        data_path.write_text(batch.to_csv())
        code, out = run(["score", "--structure", student_path,
                         "--data", str(data_path), "--score", "bic"])
        assert code == 0
        assert float(grep(out, "score")) < 0

    def test_em_gmm_command(self, tmp_path):
        gen = make_rng(8)
        data = np.vstack([
            gen.normal(loc=-5.0, size=(400, 1)),
            gen.normal(loc=5.0, size=(400, 1)),
        ])
        data_path = tmp_path / "gmm.csv"
        data_path.write_text("x\n" + "\n".join(f"{x[0]:.6f}" for x in data) + "\n")
        code, out = run(["em-gmm", "--data", str(data_path), "--k", "2",
                         "--seed", "0"])
        assert code == 0
        means = sorted(float(grep(out, f"mean[{j}]")) for j in range(2))
        assert means[0] == pytest.approx(-5.0, abs=0.2)
        assert means[1] == pytest.approx(5.0, abs=0.2)

    def test_em_gmm_deterministic(self, tmp_path):
        gen = make_rng(9)
        data = gen.normal(size=(100, 2))
        data_path = tmp_path / "g.csv"
        data_path.write_text("\n".join(f"{a:.6f},{b:.6f}" for a, b in data) + "\n")
        outputs = set()
        for _ in range(2):
            code, out = run(["em-gmm", "--data", str(data_path), "--k", "2",
                             "--seed", "11"])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


    @pytest.mark.parametrize("cell, message", [
        ("nan", "row 3, column 2: non-finite value nan"),
        ("-inf", "row 3, column 2: non-finite value -inf"),
        ("Infinity", "row 3, column 2: non-finite value inf"),
    ])
    def test_em_gmm_refuses_non_finite_values(self, tmp_path, capsys, cell, message):
        data_path = tmp_path / "g.csv"
        data_path.write_text(f"x,y\n1.0,2.0\n3.0,{cell}\n5.0,6.0\n")
        code, out = run(["em-gmm", "--data", str(data_path), "--k", "2"])
        assert code == 2
        assert "loglik=" not in out
        assert capsys.readouterr().err == f"error={message}\n"

    @pytest.mark.parametrize("max_iters", ["0", "-1"])
    def test_em_gmm_with_no_iterations_exits_2(self, tmp_path, capsys, max_iters):
        data_path = tmp_path / "g.csv"
        data_path.write_text("x\n" + "\n".join(f"{x:.6f}" for x in make_rng(2).normal(size=20)))
        code, out = run(["em-gmm", "--data", str(data_path), "--k", "2",
                         "--max-iters", max_iters])
        assert code == 2
        assert "loglik=" not in out
        assert capsys.readouterr().err == "error=max_iters must be at least 1\n"


class TestJtree:
    def test_cliques_and_dot(self, student_path, tmp_path):
        dot_path = tmp_path / "jt.dot"
        code, out = run(["jtree", "--model", student_path, "--dot", str(dot_path)])
        assert code == 0
        assert "width=" in out
        assert dot_path.exists()

    @pytest.mark.parametrize("model", [student_network(), voting_mrf(), MarkovRandomField([], [])],
                             ids=["student", "voting", "empty"])
    def test_width_is_the_induced_width(self, tmp_path, model):
        from pgmkit.exact import choose_ordering

        path = tmp_path / "model.json"
        path.write_text(serialize_model(model))
        code, out = run(["jtree", "--model", str(path)])
        assert code == 0
        assert grep(out, "width") == str(choose_ordering(model).induced_width)

    def test_validate_command(self, student_path):
        code, out = run(["validate", "--model", student_path])
        assert code == 0
        assert grep(out, "valid") == "true"

    def test_validate_names_every_violation_in_one_error_line(self, tmp_path, capsys):
        from pgmkit.factors import Factor

        bn = student_network()
        for name in ("DIFFICULTY", "INVESTMENT"):
            bn.cpds[name] = Factor(bn.cpds[name].scope, 2 * bn.cpds[name].table)
        path = tmp_path / "unnormalized.json"
        path.write_text(serialize_model(bn))
        code, out = run(["validate", "--model", str(path)])
        assert code == 2
        assert [line for line in out.splitlines() if not line.startswith("config.")] == []
        assert capsys.readouterr().err == (
            "error=$: DIFFICULTY: rows do not sum to 1 over the child states; "
            "INVESTMENT: rows do not sum to 1 over the child states\n")

    def test_non_finite_table_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format_version": 1, "model_type": "markov_random_field", '
            '"variables": [{"name": "a", "states": ["0", "1"]}], "factors": '
            '[{"kind": "potential", "scope": ["a"], "table": [1.0, NaN]}]}')
        code, _ = run(["validate", "--model", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error=$.factors[0]: linear-domain factor entries must be finite\n")

    def test_main_builds_its_parser_once_per_process(self, student_path, monkeypatch):
        from pgmkit import cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run(["validate", "--model", student_path])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


@pytest.mark.parametrize("argv, message", [
    (["query", "--model", "{voting}", "--target", "A", "--engine", "loopy", "--max-iters", "-1"],
     "--max-iters must not be negative"),
    (["query", "--model", "{voting}", "--target", "A", "--engine", "meanfield",
      "--max-iters", "-1"], "--max-iters must not be negative"),
    (["map", "--model", "{voting}", "--engine", "localsearch", "--max-iters", "-1"],
     "--max-iters must not be negative"),
    (["learn-structure", "--data", "{student}", "--method", "hillclimb", "--restarts", "-3"],
     "restarts must be at least 1"),
    (["learn-structure", "--data", "{student}", "--method", "hillclimb", "--restarts", "0"],
     "restarts must be at least 1"),
    (["em-gmm", "--data", "{points}", "--k", "2", "--restarts", "-2"],
     "restarts must be at least 1"),
], ids=["loopy", "meanfield", "localsearch", "hillclimb_-3", "hillclimb_0", "em_gmm"])
def test_a_count_out_of_range_exits_2(voting_path, tmp_path, capsys, argv, message):
    student = tmp_path / "student.csv"
    student.write_text(forward_sample(student_network(), 300, make_rng(4)).to_csv())
    points = tmp_path / "points.csv"
    points.write_text("x\n" + "\n".join(f"{x:.6f}" for x in make_rng(2).normal(size=30)))
    paths = {"voting": voting_path, "student": student, "points": points}
    code, out = run([arg.format(**paths) for arg in argv])
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("config.")] == []
    assert capsys.readouterr().err == f"error={message}\n"
