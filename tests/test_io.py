import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_bn, random_mrf
from pgmkit.errors import SchemaError, ScopeError
from pgmkit.factors import Factor, Variable
from pgmkit.io import (
    canonical_json,
    dataset_to_csv,
    document_to_model,
    export_dot,
    load_dataset,
    load_vector_csv,
    model_to_document,
    parse_model,
    serialize_model,
)
from pgmkit.learning import Dataset
from pgmkit.models import BayesianNetwork, MarkovRandomField, enumerate_inference, validate
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


def _document(model_type, factors, cards):
    return {
        "format_version": 1,
        "model_type": model_type,
        "variables": [{"name": n, "states": [f"s{k}" for k in range(c)]}
                      for n, c in cards.items()],
        "factors": factors,
    }


def _network(*factors, cards=None):
    return _document("bayesian_network", list(factors), cards or {"a": 2, "b": 3})


def _field(*factors, cards=None):
    return _document("markov_random_field", list(factors), cards or {"a": 2, "b": 3})


def _cpd(child, scope, table, **extra):
    return {"kind": "cpd", "child": child, "scope": scope, "table": table, **extra}


def _potential(scope, table, **extra):
    return {"kind": "potential", "scope": scope, "table": table, **extra}


A = _cpd("a", ["a"], [0.4, 0.6])
B = _cpd("b", ["b", "a"], [0.2, 0.5, 0.3, 0.1, 0.5, 0.4])   # columns sum to 1
UNNORMALIZED = "rows do not sum to 1 over the child states"
NEGATIVE = "linear-domain factor entries must be nonnegative"

# name: (document, exception type, the exact message)
REFUSALS = {
    "unknown variable": (
        _network(A, _cpd("b", ["b", "z"], [0.5] * 6)),
        SchemaError, "$.factors[1]: scope references unknown variable 'z'"),
    "duplicate scope variable": (
        _field(_potential(["a", "a"], [1, 2, 3, 4])),
        ScopeError, "duplicate variables in scope ['a', 'a']"),
    "wrong table length": (
        _network(A, _cpd("b", ["b", "a"], [0.5] * 5)),
        SchemaError, "$.factors[1]: table has 5 entries but the scope ['b', 'a'] requires 6"),
    "non-numeric entry": (
        _network(_cpd("a", ["a"], [0.4, "x"]), B),
        SchemaError, "$.factors[0]: could not convert string to float: 'x'"),
    "nested table of the wrong size": (
        _network(_cpd("a", ["a"], [[0.4, 0.6], [0.4, 0.6]]), B),
        SchemaError, "$.factors[0]: table has 4 entries, scope ['a'] requires 2"),
    "negative linear entry": (
        _network(_cpd("a", ["a"], [-0.4, 1.4]), B),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "minus infinity in a linear table": (
        _field(_potential(["a"], [1.0, float("-inf")])),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "unknown domain": (
        _network(_cpd("a", ["a"], [0.4, 0.6], domain="ln"), B),
        SchemaError, "$.factors[0]: unknown domain 'ln'"),
    "potential in a network": (
        _network(A, _potential(["b", "a"], [0.5] * 6)),
        SchemaError, "$.factors[1]: bayesian networks require cpd factors"),
    "cpd in a field": (
        _field(_potential(["a"], [1, 1]), _cpd("b", ["b"], [1, 1, 1])),
        SchemaError, "$.factors[1]: markov random fields require potential factors"),
    "cpd child mismatch": (
        _network(A, _cpd("b", ["a", "b"], [0.5] * 6)),
        SchemaError, "$.factors[1]: cpd scope must start with the child"),
    "duplicate cpd": (
        _network(A, B, A),
        SchemaError, "$.factors[2]: duplicate cpd for 'a'"),
    "rows not summing to 1": (
        _network(_cpd("a", ["a"], [0.5, 0.6]), B),
        SchemaError, f"$: a: {UNNORMALIZED}"),
    "cyclic dag": (
        _network(_cpd("a", ["a", "b"], [0.5] * 6), B),
        SchemaError, "$: dag: graph is cyclic"),
    "missing cpd": (
        _network(A),
        SchemaError, "$: b: no CPD declared"),
    # faults in two factors: the one today's entry-by-entry reading meets first
    "non-numeric entry before a wrong length": (
        _network(_cpd("a", ["a"], [0.4, "x"]), _cpd("b", ["b", "a"], [0.5] * 5)),
        SchemaError, "$.factors[0]: could not convert string to float: 'x'"),
    "unknown variable before a negative entry": (
        _network(_cpd("a", ["a", "z"], [0.5] * 4), _cpd("b", ["b", "a"], [-1] * 6)),
        SchemaError, "$.factors[0]: scope references unknown variable 'z'"),
    "negative entry before an unknown variable": (
        _network(_cpd("a", ["a"], [-0.4, 1.4]), _cpd("b", ["b", "z"], [0.5] * 6)),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "duplicate scope variable before a non-numeric entry": (
        _field(_potential(["a", "a"], [1, 2, 3, 4]), _potential(["b"], ["x", 1, 1])),
        ScopeError, "duplicate variables in scope ['a', 'a']"),
    "non-numeric entry before a duplicate scope variable": (
        _field(_potential(["b"], ["x", 1, 1]), _potential(["a", "a"], [1, 2, 3, 4])),
        SchemaError, "$.factors[0]: could not convert string to float: 'x'"),
    "faults in two table shapes": (
        _field(_potential(["a"], [1, 1]), _potential(["b"], [1, -1, 1]),
               _potential(["a"], [1, "x"])),
        SchemaError, f"$.factors[1]: {NEGATIVE}"),
    "negative entry before a non-numeric one of the same shape": (
        _field(_potential(["a"], [-1, 2]), _potential(["a"], [1, "x"])),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "negative entry before a wrong kind": (
        _network(_potential(["a"], [0.4, 0.6]), _cpd("b", ["b", "a"], [-1] * 6)),
        SchemaError, f"$.factors[1]: {NEGATIVE}"),
    "two unnormalized cpds": (
        _network(_cpd("a", ["a"], [0.5, 0.6]), _cpd("b", ["b", "a"], [0.5] * 6)),
        SchemaError, f"$: a: {UNNORMALIZED}; b: {UNNORMALIZED}"),
    "scope name that is not a string": (
        _field(_potential([["a"]], [1, 1])),
        SchemaError, "$.factors[0]: scope entry ['a'] is not a variable name"),
    "negative entry before a scope name that is not a string": (
        _field(_potential(["a"], [-1, 2]), _potential([["a"]], [1, 1])),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "document that is not an object": (
        [1], SchemaError, "$: must be an object"),
    "factor entry that is not an object": (
        _field(5),
        SchemaError, "$.factors[0]: must be an object"),
    "negative entry before a factor entry that is not an object": (
        _field(_potential(["a"], [-1, 2]), 5),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "variable entry that is not an object": (
        {**_field(), "variables": [7]},
        SchemaError, "$.variables[0]: must be an object"),
    "integer past float range": (
        _field(_potential(["a"], [1, 10**400])),
        SchemaError, "$.factors[0]: int too large to convert to float"),
    "integer past float range before a negative entry": (
        _field(_potential(["a"], [1, 10**400]), _potential(["a"], [-1, 2])),
        SchemaError, "$.factors[0]: int too large to convert to float"),
    "negative entry before an integer past float range": (
        _field(_potential(["b"], [1, -1, 1]), _potential(["a"], [1, 10**400])),
        SchemaError, f"$.factors[0]: {NEGATIVE}"),
    "missing cpd and an unnormalized one": (
        _network(_cpd("a", ["a"], [0.5, 0.6]), B, cards={"a": 2, "b": 3, "c": 2}),
        SchemaError, f"$: c: no CPD declared; a: {UNNORMALIZED}"),
}


class TestModelDocumentRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal_message_and_path(self, case):
        document, error, message = REFUSALS[case]
        for read in (document_to_model, lambda d: parse_model(json.dumps(d))):
            with pytest.raises(error) as caught:
                read(document)
            assert type(caught.value) is error
            assert str(caught.value) == message

    def test_parse_builds_one_factor_per_document_factor(self, monkeypatch):
        built = []
        init = Factor.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Factor, "__init__", counted)
        for n in (25, 100):
            cpds = [_cpd("x0", ["x0"], [0.5, 0.5])] + [
                _cpd(f"x{i}", [f"x{i}", f"x{i - 1}"], [0.25, 0.5, 0.75, 0.5])
                for i in range(1, n)]
            built.clear()
            model = document_to_model(_network(*cpds, cards={f"x{i}": 2 for i in range(n)}))
            assert len(built) == n
            assert validate(model) == []
            assert len(built) == n


ONE_FIELD = ('{"format_version": 1, "model_type": "markov_random_field", '
             '"variables": [{"name": "a", "states": ["0", "1"]}], "factors": '
             '[{"kind": "potential", "scope": ["a"], "domain": "%s", "table": [1.0, %s]}]}')


class TestNonFiniteEntries:
    @pytest.mark.parametrize("domain, entry, rule", [
        ("linear", "NaN", "linear-domain factor entries must be finite"),
        ("linear", "Infinity", "linear-domain factor entries must be finite"),
        # json null reads as NaN
        ("linear", "null", "linear-domain factor entries must be finite"),
        ("log", "NaN", "log-domain factor entries must not be NaN or +Infinity"),
        ("log", "Infinity", "log-domain factor entries must not be NaN or +Infinity"),
        ("log", "null", "log-domain factor entries must not be NaN or +Infinity"),
    ])
    def test_refused_at_parse(self, domain, entry, rule):
        with pytest.raises(SchemaError) as caught:
            parse_model(ONE_FIELD % (domain, entry))
        assert str(caught.value) == f"$.factors[0]: {rule}"

    def test_a_network_cpd_with_nan_is_refused_at_its_factor(self):
        document = _network(A, _cpd("b", ["b", "a"], [0.2, 0.5, 0.3, None, 0.5, 0.4]))
        with pytest.raises(SchemaError) as caught:
            document_to_model(document)
        assert str(caught.value) == "$.factors[1]: linear-domain factor entries must be finite"

    def test_a_log_table_may_hold_minus_infinity(self):
        model = parse_model(ONE_FIELD % ("log", "-Infinity"))
        assert model.factors[0].table.tolist() == [1.0, -math.inf]
        assert serialize_model(model) == serialize_model(parse_model(serialize_model(model)))
        assert '"table": [\n        1,\n        -Infinity\n      ]' in serialize_model(model)

    @pytest.mark.parametrize("domain, values", [
        ("linear", [1.0, math.nan]),
        ("linear", [1.0, math.inf]),
        ("linear", [1.0, -math.inf]),
        ("log", [1.0, math.nan]),
        ("log", [1.0, math.inf]),
    ])
    def test_serialize_refuses_what_parse_refuses(self, domain, values):
        a = Variable("a", ("0", "1"))
        model = MarkovRandomField([a], [Factor([a], values, domain=domain, _trusted=True)])
        with pytest.raises(SchemaError, match="non-finite numbers cannot be serialized"):
            serialize_model(model)


def _assert_same_model(got, want):
    assert type(got) is type(want)
    assert got.variables == want.variables
    if isinstance(want, BayesianNetwork):
        assert got.dag == want.dag
        assert sorted(got.cpds) == sorted(want.cpds)
    for f, g in zip(got.factors, want.factors, strict=True):
        assert (f.scope, f.domain) == (g.scope, g.domain)
        assert np.array_equal(f.table, g.table)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.data())
def test_parse_of_serialize_reproduces_the_model(data):
    """Random networks and fields, and the log-domain twin of each, whose
    zero entries become -inf, read back as the model that was written."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        model = random_bn(rng, n=n, max_states=3)
    else:
        model = random_mrf(rng, n=n, max_states=3, positive=False)
        model = MarkovRandomField(list(model.variables.values()), [
            Factor(f.scope, np.where(rng.random(f.table.shape) < 0.3, 0.0,
                                     f.table * 10.0 ** data.draw(st.integers(-300, 300))))
            for f in model.factors])
    twin = MarkovRandomField(list(model.variables.values()),
                             [f.to_log() for f in model.factors])
    for m in (model, twin):
        text = serialize_model(m)
        again = parse_model(text)
        _assert_same_model(again, m)
        assert serialize_model(again) == text


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
