import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_bn, random_mrf
from pgmkit.errors import SchemaError
from pgmkit.factors import Factor, Variable
from pgmkit.io import (
    canonical_json,
    dataset_to_csv,
    export_dot,
    load_dataset,
    load_vector_csv,
    model_to_document,
    parse_model,
    serialize_model,
)
from pgmkit.learning import Dataset
from pgmkit.models import MarkovRandomField, enumerate_inference
from pgmkit.sampling import forward_sample, make_rng
from pgmkit.zoo import student_network, voting_mrf


class TestModelDocuments:
    def test_student_round_trip(self):
        bn = student_network()
        text = serialize_model(bn)
        again = parse_model(text)
        assert serialize_model(again) == text
        marg = enumerate_inference(again, ["LETTER"])
        assert np.allclose(marg.values, [0.497664, 0.502336], atol=1e-9)

    def test_round_trip_corpus(self, rng):
        for i in range(20):
            model = (
                random_bn(rng, n=int(rng.integers(1, 6)), max_states=4)
                if i % 2 == 0
                else random_mrf(rng, n=int(rng.integers(1, 6)), max_states=3)
            )
            text = serialize_model(model)
            reparsed = parse_model(text)
            assert serialize_model(reparsed) == text

    def test_semantically_equal_models_identical_bytes(self):
        a, b = Variable("a", ("0", "1")), Variable("b", ("0", "1"))
        f1 = Factor([a, b], [[0.2, 0.8], [0.5, 0.5]])
        m1 = MarkovRandomField([a, b], [f1])
        m2 = MarkovRandomField([b, a], [Factor([a, b], np.array([[0.2, 0.8], [0.5, 0.5]]))])
        assert serialize_model(m1) == serialize_model(m2)

    def test_table_length_mismatch_reported_with_path(self):
        doc = model_to_document(student_network())
        doc["factors"][0]["table"] = [0.1] * 5
        with pytest.raises(SchemaError) as err:
            parse_model(canonical_json(doc))
        assert "factors[0]" in str(err.value)

    def test_invalid_cpd_rows_rejected(self):
        doc = {
            "format_version": 1,
            "model_type": "bayesian_network",
            "variables": [{"name": "a", "states": ["0", "1"]}],
            "factors": [
                {"kind": "cpd", "child": "a", "scope": ["a"], "table": [0.5, 0.6]}
            ],
        }
        with pytest.raises(SchemaError):
            parse_model(canonical_json(doc))

    def test_unknown_model_type(self):
        with pytest.raises(SchemaError):
            parse_model(json.dumps({
                "format_version": 1,
                "model_type": "mystery",
                "variables": [],
                "factors": [],
            }))

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            parse_model("not json {")

    def test_voting_mrf_round_trip(self):
        text = serialize_model(voting_mrf())
        again = parse_model(text)
        z = enumerate_inference(again, mode="partition")
        want = enumerate_inference(voting_mrf(), mode="partition")
        assert z == pytest.approx(want)


class TestDatasetCsv:
    def test_small_round_trip(self):
        a, b = Variable("a", ("no", "yes")), Variable("b", ("x", "y"))
        data = Dataset((a, b), np.array([[0, 1], [1, 0], [1, 1]]))
        text = dataset_to_csv(data)
        again = load_dataset(text, [a, b])
        assert np.array_equal(again.rows, data.rows)
        assert again.n == 3

    def test_sample_export_reload(self):
        bn = student_network()
        batch = forward_sample(bn, 50, make_rng(1))
        reloaded = load_dataset(batch.to_csv(), bn)
        assert np.array_equal(reloaded.rows, batch.states)

    def test_invalid_cell_addressed(self):
        a = Variable("a", ("no", "yes"))
        text = "a\nno\nmaybe\n"
        with pytest.raises(SchemaError) as err:
            load_dataset(text, [a])
        assert "row 2" in str(err.value)
        assert "'a'" in str(err.value)

    def test_unknown_column(self):
        a = Variable("a", ("no", "yes"))
        with pytest.raises(SchemaError):
            load_dataset("a,zzz\nno,1\n", [a])

    def test_weight_column_is_refused(self):
        a = Variable("a", ("no", "yes"))
        with pytest.raises(SchemaError, match="column 'weight': per-row weights are not supported"):
            load_dataset("a,weight\nno,0.5\nyes,2\n", [a])
        with pytest.raises(SchemaError, match="column 'weight'"):
            load_dataset("a,weight\nno,0.5\nyes,2\n")
        # a declared variable of that name is an ordinary column
        w = Variable("weight", ("0.5", "2"))
        data = load_dataset("a,weight\nno,0.5\nyes,2\n", [a, w])
        assert np.array_equal(data.rows, [[0, 0], [1, 1]])

    @pytest.mark.parametrize("text, message", [
        # a bad cell in row 1 comes before a short row 2
        ("a,b\nno,maybe\nyes\n", "row 1, column 'b': invalid state 'maybe'"),
        # a short row 1 comes before a bad cell in row 2
        ("a,b\nno\nyes,maybe\n", "row 1 has 1 cells, expected 2"),
        # within a row the length is checked before the cells
        ("a,b\nmaybe,no,yes\n", "row 1 has 3 cells, expected 2"),
        # the first bad cell of a row, in header order
        ("b,a\nno,maybe\nyes,no,no\n", "row 1, column 'a': invalid state 'maybe'"),
        # rows count lines that are not blank
        ("a,b\n\nno,yes\n\nyes,\n", "row 2, column 'b': invalid state ''"),
    ])
    def test_first_bad_row_is_reported(self, text, message):
        variables = [Variable("a", ("no", "yes")), Variable("b", ("no", "yes"))]
        with pytest.raises(SchemaError) as err:
            load_dataset(text, variables)
        assert str(err.value) == message

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_round_trip_through_a_reformatted_csv(self, data):
        labels = st.text(alphabet="abxyz01_-", min_size=1, max_size=3)
        variables = [
            Variable(f"v{i}", tuple(data.draw(st.lists(labels, min_size=1, max_size=4,
                                                       unique=True))))
            for i in range(data.draw(st.integers(1, 4)))
        ]
        n = data.draw(st.integers(0, 8))
        rows = np.array([[data.draw(st.integers(0, v.cardinality - 1)) for v in variables]
                         for _ in range(n)], dtype=np.int64).reshape(n, len(variables))
        dataset = Dataset(tuple(variables), rows)
        table = [line.split(",") for line in dataset_to_csv(dataset).splitlines()]
        order = data.draw(st.permutations(range(len(variables))))
        pad = st.sampled_from(["", " ", "  ", "\t"])
        lines = []
        for cells in table:
            lines.append(",".join(data.draw(pad) + cells[k] + data.draw(pad) for k in order))
            lines.extend([""] * data.draw(st.integers(0, 2)))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join(lines) + newline
        shuffled = [variables[k] for k in data.draw(st.permutations(range(len(variables))))]
        again = load_dataset(text, shuffled)
        assert again.variables == dataset.variables
        assert np.array_equal(again.rows, dataset.rows)
        if n:
            inferred = load_dataset(text)
            assert inferred.names == dataset.names
            for v, column in zip(inferred.variables, inferred.rows.T):
                original = dataset.variable(v.name)
                assert [v.states[s] for s in column] == [
                    original.states[s] for s in dataset.column(v.name)]

    def test_vector_csv(self):
        data = load_vector_csv("x,y\n1.5,2\n3,4\n")
        assert data.shape == (2, 2)
        assert data[0, 0] == 1.5
        with pytest.raises(SchemaError):
            load_vector_csv("x\n1\n1,2\n")


class TestDot:
    def test_export_targets(self, tmp_path):
        bn = student_network()
        path = tmp_path / "g.dot"
        export_dot(bn, str(path))
        text = path.read_text()
        assert "DIFFICULTY" in text and "->" in text
        export_dot(bn.dag, str(path))
        assert path.read_text() == text

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
        export_dot(voting_mrf(), str(p1))
        export_dot(voting_mrf(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
