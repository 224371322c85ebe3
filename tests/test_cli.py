import io as stdio
import math

import numpy as np
import pytest

from pgmkit.cli import main
from pgmkit.io import dataset_to_csv, serialize_model
from pgmkit.learning import Dataset
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
        lines = {}
        for engine in ("enum", "ve", "jtree", "bp"):
            code, out = run(["query", "--model", student_path, "--target", "LETTER",
                             "--engine", engine])
            assert code == 0
            lines[engine] = [l for l in out.splitlines() if l.startswith("p[")][0]
        assert len(set(lines.values())) == 1

    def test_exact_engines_agree_on_mrf_fixture(self, voting_path):
        lines = {}
        for engine in ("enum", "ve", "jtree"):
            code, out = run(["query", "--model", voting_path, "--target", "A",
                             "--engine", engine])
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

    def test_zero_evidence_exits_3(self, tmp_path):
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

    def test_lp_export(self, voting_path, tmp_path):
        lp_path = tmp_path / "map.lp"
        code, out = run(["map", "--model", voting_path, "--engine", "enum",
                         "--export-lp", str(lp_path)])
        assert code == 0
        text = lp_path.read_text()
        assert "Maximize" in text and "Subject To" in text and "Binary" in text

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


class TestJtree:
    def test_cliques_and_dot(self, student_path, tmp_path):
        dot_path = tmp_path / "jt.dot"
        code, out = run(["jtree", "--model", student_path, "--dot", str(dot_path)])
        assert code == 0
        assert "width=" in out
        assert dot_path.exists()

    def test_validate_command(self, student_path):
        code, out = run(["validate", "--model", student_path])
        assert code == 0
        assert grep(out, "valid") == "true"
