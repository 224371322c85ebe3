import itertools
import math

import numpy as np
import pytest

from pgmkit import factors as fa
from pgmkit.errors import (
    DegenerateDistributionError,
    EvidenceError,
    FactorDivisionError,
    IncompatibleVariableError,
    ScopeError,
)
from pgmkit.factors import (
    MAX_PRODUCT,
    MIN_SUM,
    OR_AND,
    SUM_PRODUCT,
    Factor,
    Variable,
    divide,
    eliminate,
    normalize,
    product,
    reduce_factor,
)

A = Variable("a", ("0", "1"))
B = Variable("b", ("0", "1"))
C = Variable("c", ("0", "1"))
G = Variable("g", ("g1", "g2", "g3"))


def random_factor(rng, scope, positive=True):
    shape = tuple(v.cardinality for v in scope)
    vals = rng.random(shape)
    if positive:
        vals += 0.05
    return Factor(scope, vals)


def brute_product(f, g):
    """Nested-loop oracle over every joint assignment of the union scope."""
    scope = list(f.scope) + [v for v in g.scope if v.name not in f.names]
    out = {}
    for x in fa.assignments(scope):
        out[tuple(x[v.name] for v in scope)] = f(x) * g(x)
    return scope, out


class TestProduct:
    def test_pairwise_chain_tables(self):
        rng = np.random.default_rng(0)
        f1 = random_factor(rng, [A, B])
        f2 = random_factor(rng, [B, C])
        f3 = product(f1, f2)
        assert f3.names == ("a", "b", "c")
        for x in fa.assignments(f3.scope):
            assert f3(x) == pytest.approx(f1(x) * f2(x), abs=1e-15)

    def test_identity_factor(self):
        rng = np.random.default_rng(1)
        f = random_factor(rng, [A, G])
        ones = Factor([A, G], np.ones((A.cardinality, G.cardinality)))
        assert np.allclose(product(f, ones).table, f.table)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        f = random_factor(rng, [A, B])
        g = random_factor(rng, [B, C])
        scope, expected = brute_product(f, g)
        got = product(f, g)
        for key, val in expected.items():
            x = {v.name: s for v, s in zip(scope, key)}
            assert got(x) == pytest.approx(val, abs=1e-15)

    def test_state_label_mismatch_rejected(self):
        B2 = Variable("b", ("lo", "hi"))
        f = Factor([A, B], np.ones((2, 2)))
        g = Factor([B2, C], np.ones((2, 2)))
        with pytest.raises(IncompatibleVariableError):
            product(f, g)

    def test_domain_tag_mismatch_rejected(self):
        f = Factor([A], [0.5, 0.5])
        g = Factor([A], [0.0, 0.0], domain="log")
        with pytest.raises(ValueError):
            product(f, g)

    def test_commutative_and_associative_up_to_reorder(self):
        rng = np.random.default_rng(3)
        f = random_factor(rng, [A, B])
        g = random_factor(rng, [B, C])
        h = random_factor(rng, [C])
        fg = product(f, g)
        gf = fa.align_to(product(g, f), fg.names)
        assert np.allclose(fg.table, gf.table, atol=1e-12)
        left = product(product(f, g), h)
        right = fa.align_to(product(f, product(g, h)), left.names)
        assert np.allclose(left.table, right.table, atol=1e-12)

    def test_product_all_checks_every_step_of_the_fold(self):
        B2 = Variable("b", ("lo", "hi"))
        f = Factor([A], [1.0, 2.0])
        g = Factor([A, B], np.ones((2, 2)))
        h = Factor([C, B2], np.ones((2, 2)))
        with pytest.raises(IncompatibleVariableError) as pairwise:
            product(product(f, g), h)
        with pytest.raises(IncompatibleVariableError) as folded:
            fa.product_all([f, g, h])
        assert str(folded.value) == str(pairwise.value) == (
            "variable 'b' has states ['0', '1'] in one factor and ['lo', 'hi'] in the other"
        )
        with pytest.raises(ValueError, match="different domain tags"):
            fa.product_all([f, g, Factor([C], [0.0, 0.0], domain="log")])

    def test_product_all_matches_the_pairwise_fold(self):
        rng = np.random.default_rng(4)
        fs = [random_factor(rng, scope) for scope in ([A, B], [G, B], [C, A], [G])]
        for domain in ("linear", "log"):
            if domain == "log":
                fs = [f.to_log() for f in fs]
            got = fa.product_all(fs)
            want = product(product(product(fs[0], fs[1]), fs[2]), fs[3])
            assert got.domain == domain
            assert got.names == want.names == ("a", "b", "g", "c")
            assert np.array_equal(got.table, want.table)
        # log-domain entries are the left-to-right sums of the logs
        for x in fa.assignments(got.scope):
            assert got(x) == ((fs[0](x) + fs[1](x)) + fs[2](x)) + fs[3](x)


class TestEliminate:
    def test_uniform_doubling(self):
        f = Factor([A, B], np.full((2, 2), 0.25))
        out = eliminate(f, ["b"])
        assert out.names == ("a",)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_chain_marginal(self):
        # tau(x2) = sum_x1 p(x2|x1) p(x1)
        x1 = Variable("x1", ("0", "1"))
        x2 = Variable("x2", ("0", "1"))
        prior = Factor([x1], [0.3, 0.7])
        cond = Factor([x2, x1], [[0.9, 0.2], [0.1, 0.8]])
        tau = eliminate(product(cond, prior), ["x1"])
        assert tau.names == ("x2",)
        assert np.allclose(tau.values, [0.9 * 0.3 + 0.2 * 0.7, 0.1 * 0.3 + 0.8 * 0.7])
        assert np.sum(tau.values) == pytest.approx(1.0)

    def test_max_product_matches_scan(self):
        rng = np.random.default_rng(4)
        f = random_factor(rng, [A, G, B])
        out = eliminate(f, ["g"], MAX_PRODUCT)
        for x in fa.assignments([A, B]):
            best = max(f({**x, "g": s}) for s in G.states)
            assert out(x) == pytest.approx(best)

    def test_min_sum_on_energies(self):
        rng = np.random.default_rng(5)
        f = random_factor(rng, [A, B])
        energies = Factor([A, B], f.to_energies() + 5.0)  # shift keeps entries >= 0
        out = eliminate(energies, ["b"], MIN_SUM)
        for x in fa.assignments([A]):
            best = min(energies({**x, "b": s}) for s in B.states)
            assert out(x) == pytest.approx(best)

    def test_unknown_variable(self):
        f = Factor([A], [1.0, 2.0])
        with pytest.raises(ScopeError):
            eliminate(f, ["zzz"])

    def test_disjoint_elimination_commutes(self):
        rng = np.random.default_rng(6)
        f = random_factor(rng, [A, B, C])
        one = eliminate(eliminate(f, ["a"]), ["b"])
        both = eliminate(f, ["a", "b"])
        assert np.allclose(one.table, both.table, atol=1e-12)

    def test_total_elimination_is_total_sum(self):
        rng = np.random.default_rng(7)
        f = random_factor(rng, [A, G])
        out = eliminate(f, ["a", "g"])
        assert out.scope == ()
        assert float(out.table) == pytest.approx(float(np.sum(f.table)))


class TestReduce:
    def test_student_grade_row(self):
        # p(g | i, d) sliced at i=i1, d=d0
        I = Variable("i", ("i0", "i1"))
        D = Variable("d", ("d0", "d1"))
        table = np.array(
            [  # scope order (g, i, d): table[g][i][d]
                [[0.3, 0.05], [0.9, 0.5]],
                [[0.4, 0.25], [0.08, 0.3]],
                [[0.3, 0.7], [0.02, 0.2]],
            ]
        )
        cpd = Factor([G, I, D], table)
        row = reduce_factor(cpd, {"i": "i1", "d": "d0"})
        assert row.names == ("g",)
        assert np.allclose(row.values, [0.9, 0.08, 0.02])

    def test_empty_evidence_identity(self):
        f = Factor([A, B], np.arange(4.0).reshape(2, 2))
        assert reduce_factor(f, {}) is f

    def test_reduce_then_eliminate_equals_eliminate_then_slice(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = random_factor(rng, [A, B, C])
            left = eliminate(reduce_factor(f, {"c": "1"}), ["a"])
            right = reduce_factor(eliminate(f, ["a"]), {"c": "1"})
            assert np.allclose(left.table, right.table, atol=1e-12)

    def test_unknown_state(self):
        f = Factor([A], [1.0, 2.0])
        with pytest.raises(EvidenceError):
            reduce_factor(f, {"a": "nope"})


class TestNormalize:
    def test_simple(self):
        f = Factor([G], [2.0, 2.0, 4.0])
        out, z = normalize(f)
        assert np.allclose(out.values, [0.25, 0.25, 0.5])
        assert z == pytest.approx(8.0)

    def test_voting_scores_sum_to_one(self):
        # phi(a,b) phi(b,c) phi(c,d) phi(d,a) with the 10/5/1 agreement table
        names = ["a", "b", "c", "d"]
        vs = {n: Variable(n, ("0", "1")) for n in names}
        phi = np.array([[5.0, 1.0], [1.0, 10.0]])
        joint = fa.product_all(
            [
                Factor([vs["a"], vs["b"]], phi),
                Factor([vs["b"], vs["c"]], phi),
                Factor([vs["c"], vs["d"]], phi),
                Factor([vs["d"], vs["a"]], phi),
            ]
        )
        out, z = normalize(joint)
        assert np.sum(out.values) == pytest.approx(1.0, abs=1e-12)
        assert out({"a": "1", "b": "1", "c": "1", "d": "1"}) == pytest.approx(1e4 / z)

    def test_random_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = random_factor(rng, [A, G])
            out, _ = normalize(f)
            assert np.sum(out.values) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            normalize(Factor([A], [0.0, 0.0]))


class TestDivide:
    def test_self_division_gives_ones(self):
        rng = np.random.default_rng(10)
        f = random_factor(rng, [A, B])
        assert np.allclose(divide(f, f).table, 1.0)

    def test_conditional_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            joint, _ = normalize(random_factor(rng, [A, G]))
            marg = eliminate(joint, ["g"])
            cond = divide(joint, marg)
            rows = np.sum(cond.table, axis=cond.axis("g"))
            assert np.allclose(rows, 1.0, atol=1e-12)

    def test_zero_over_zero_is_zero(self):
        f = Factor([A], [0.0, 1.0])
        g = Factor([A], [0.0, 2.0])
        assert np.allclose(divide(f, g).values, [0.0, 0.5])

    def test_nonzero_over_zero_raises(self):
        f = Factor([A], [1.0, 1.0])
        g = Factor([A], [0.0, 2.0])
        with pytest.raises(FactorDivisionError):
            divide(f, g)

    def test_scope_containment_required(self):
        f = Factor([A], [1.0, 1.0])
        g = Factor([A, B], np.ones((2, 2)))
        with pytest.raises(ScopeError):
            divide(f, g)


class TestDomains:
    def test_log_product_matches_linear(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_factor(rng, [A, B])
            g = random_factor(rng, [B, G])
            lin = product(f, g)
            via_log = product(f.to_log(), g.to_log()).to_linear()
            assert np.allclose(via_log.table, lin.table, rtol=1e-9)

    def test_log_sum_elimination_is_logsumexp(self):
        rng = np.random.default_rng(13)
        f = random_factor(rng, [A, G])
        out = eliminate(f.to_log(), ["g"]).to_linear()
        direct = eliminate(f, ["g"])
        assert np.allclose(out.table, direct.table, rtol=1e-12)

    def test_or_and_truth_tables(self):
        # conjunction of 0/1 clauses matches exhaustive satisfiability check
        rng = np.random.default_rng(14)
        scope = [A, B, C, Variable("d", ("0", "1"))]
        for _ in range(10):
            clauses = []
            for _ in range(3):
                pick = [scope[i] for i in rng.choice(4, size=2, replace=False)]
                pick.sort(key=lambda v: v.name)
                clauses.append(Factor(pick, rng.integers(0, 2, size=(2, 2)).astype(float)))
            conj = clauses[0]
            for c in clauses[1:]:
                conj = product(conj, c, )
            conj = fa.align_to(conj, sorted(conj.names))
            exists = eliminate(conj, conj.names, OR_AND)
            truth = any(
                all(c(x) > 0 for c in clauses)
                for x in fa.assignments(scope)
            )
            assert bool(float(exists.table) > 0) == truth


class TestConstruction:
    def test_flat_values_slowest_first(self):
        f = Factor([A, B], [1.0, 2.0, 3.0, 4.0])
        assert f({"a": "0", "b": "0"}) == 1.0
        assert f({"a": "0", "b": "1"}) == 2.0
        assert f({"a": "1", "b": "0"}) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Factor([A, G], [1.0] * 5)

    def test_duplicate_scope_rejected(self):
        with pytest.raises(ScopeError):
            Factor([A, A], np.ones((2, 2)))

    def test_negative_linear_rejected(self):
        with pytest.raises(ValueError):
            Factor([A], [-1.0, 1.0])

    @pytest.mark.parametrize("domain", ["linear", "log"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_plus_inf_rejected(self, domain, bad):
        with pytest.raises(ValueError, match=f"{domain}-domain factor entries must not be NaN or \\+inf"):
            Factor([A, B], [[1.0, bad], [0.0, 2.0]], domain=domain)

    def test_a_log_table_may_hold_minus_inf(self):
        f = Factor([A], [-math.inf, 0.0], domain="log")
        assert f.to_linear().table.tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match="nonnegative"):
            Factor([A], [-math.inf, 0.0])

    def test_an_infinite_log_entry_next_to_a_zero_is_rejected(self):
        # with [[-inf, 0], [0, 0]] on (a, b), a site row of b would add
        # inf and -inf into NaN; the +inf is refused before any scorer runs
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            Factor([A], [math.inf, 0.0], domain="log")
        Factor([A, B], [[-math.inf, 0.0], [0.0, 0.0]], domain="log")

    def test_trusted_tables_skip_the_scans(self):
        # pgmkit's own results skip the scans, as the serializer's tests rely on
        f = Factor([A, B], [[math.nan, math.inf], [-1.0, 0.0]], _trusted=True)
        assert np.isnan(f.table[0, 0]) and f.table[0, 1] == math.inf

    def test_to_linear_past_the_exp_range_is_refused(self):
        at_edge = Factor([A], [fa._LOG_MAX, 0.0], domain="log").to_linear()
        assert math.isfinite(at_edge.table[0])
        past = Factor([A], [np.nextafter(fa._LOG_MAX, math.inf), 0.0], domain="log")
        with pytest.raises(ValueError, match="past exp's range"):
            past.to_linear()

    def test_immutability(self):
        f = Factor([A], [1.0, 2.0])
        with pytest.raises(ValueError):
            f.table[0] = 5.0
        with pytest.raises(AttributeError):
            f.domain = "log"
