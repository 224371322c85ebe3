"""The four benchmark workloads.

A workload owns a fixed model shape, writes its inputs into a work
directory, and builds requests: a request is a fixed script of user calls
on one input (one evidence set or one dataset). Calls go through
``pgmkit.cli.main`` in-process where the CLI offers the operation, and
through the public library function where it does not. ``check_call``
compares one successful call's answer with ``references`` or with a
property the method must have, and returns an error message or None.

Model structures are fixed; the seed draws the parameters, the evidence
and the datasets, so run time depends on the seed as little as possible.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref
import specs

PRINT_RTOL = 1e-5     # the CLI prints six significant digits


class CallFailed(Exception):
    """A call that did not return an answer (non-zero exit or exception)."""


@dataclass
class Call:
    name: str
    run: Callable[[], Any]


@dataclass
class Request:
    index: int
    calls: list[Call]
    context: dict = field(default_factory=dict)


def cli(argv: list[str]) -> Callable[[], str]:
    """A thunk running ``pgmkit.cli.main`` in-process; returns its stdout."""
    def run():
        import pgmkit.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = pgmkit.cli.main(argv, out=out)
        if code != 0:
            raise CallFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return run


def answer_lines(text: str) -> dict[str, str]:
    """The ``key=value`` answer lines of a CLI transcript (config echo skipped)."""
    out = {}
    for line in text.splitlines():
        if line.startswith("config.") or "=" not in line:
            continue
        for item in line.split(" "):
            key, _, value = item.partition("=")
            out[key] = value
    return out


def printed_marginal(text: str, card: int) -> np.ndarray:
    lines = answer_lines(text)
    return np.array([float(lines[f"p[{specs.state(k)}]"]) for k in range(card)])


def printed_map(text: str) -> tuple[dict[str, int], float]:
    lines = answer_lines(text)
    assignment = {
        key[4:-1]: int(value[1:]) for key, value in lines.items() if key.startswith("map[")
    }
    return assignment, float(lines["logp"])


def close(what: str, got: float, want: float, rtol=PRINT_RTOL, atol=1e-9) -> str | None:
    if abs(got - want) <= atol + rtol * abs(want):
        return None
    return f"{what} is {got!r}, reference {want!r}"


def marginal_error(got: np.ndarray, want: np.ndarray, atol: float) -> str | None:
    gap = float(np.max(np.abs(got - want)))
    if gap <= atol:
        return None
    return f"marginal {np.round(got, 6).tolist()} is {gap:.3g} from reference {np.round(want, 6).tolist()} (tolerance {atol})"


def map_error(printed_logp: float, logp: float, exact_max: float, exact: bool) -> str | None:
    """A MAP answer: printed logp is the log-joint of the printed assignment
    and never exceeds the exact maximum; exact engines must reach it."""
    tol = 1e-9 * max(1.0, abs(exact_max))
    return (
        close("printed logp", printed_logp, logp)
        or (f"assignment log-joint {logp!r} exceeds the exact MAP {exact_max!r}"
            if logp > exact_max + tol else None)
        or (f"assignment log-joint {logp!r} is below the exact MAP {exact_max!r}"
            if exact and logp < exact_max - tol else None)
    )


def upper_bound_error(low_name: str, low: float, high_name: str, high: float) -> str | None:
    """``low <= high`` allowing for the printed rounding of either side."""
    if low <= high + PRINT_RTOL * max(abs(low), abs(high)) + 1e-9:
        return None
    return f"{low_name} {low!r} exceeds {high_name} {high!r}"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tag])

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def model_files(self) -> list[str]:
        """Files the one-time set-up loads (parsed by the set-up probe)."""
        raise NotImplementedError

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def check_call(self, request: Request, call: Call, out) -> str | None:
        raise NotImplementedError

    @staticmethod
    def cached(request: Request, key: str, compute: Callable[[], Any]):
        """A per-request reference, computed once on first use."""
        if key not in request.context:
            request.context[key] = compute()
        return request.context[key]


# ---------------------------------------------------------------------------
# chain-exact
# ---------------------------------------------------------------------------


class ChainExact(Workload):
    """An HMM-shaped chain: T ternary hidden states, each with a 4-state child."""

    name = "chain-exact"
    T, K, M = 100, 3, 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(0)
        T, K, M = self.T, self.K, self.M
        self.prior = rng.dirichlet(np.ones(K))
        self.trans = rng.dirichlet(np.ones(K), size=(T - 1, K))       # [t-1, i, j]
        self.emit = rng.dirichlet(np.ones(M), size=(T, K))            # [t, j, o]
        self.hidden = [f"H{t:03d}" for t in range(T)]
        self.observed = [f"O{t:03d}" for t in range(T)]
        self.target = T // 2
        factors = [((self.hidden[0],), self.prior)]
        factors += [((self.hidden[t], self.hidden[t - 1]), self.trans[t - 1].T) for t in range(1, T)]
        factors += [((self.observed[t], self.hidden[t]), self.emit[t].T) for t in range(T)]
        cards = {**{h: K for h in self.hidden}, **{o: M for o in self.observed}}
        self.model = self.write("chain.json", specs.Spec("bayesian_network", cards, factors).document())

    def model_files(self):
        return [self.model]

    def request(self, i):
        rng = self.rng(1, i)
        T, K, M = self.T, self.K, self.M
        h = np.zeros(T, dtype=np.int64)
        h[0] = rng.choice(K, p=self.prior)
        for t in range(1, T):
            h[t] = rng.choice(K, p=self.trans[t - 1, h[t - 1]])
        obs = np.array([rng.choice(M, p=self.emit[t, h[t]]) for t in range(T)])
        evidence = []
        for t in range(T):
            evidence += ["--evidence", f"{self.observed[t]}={specs.state(obs[t])}"]
        query = ["query", "--model", self.model, "--target", self.hidden[self.target]]
        calls = [Call(f"query-{e}", cli(query + evidence + ["--engine", e]))
                 for e in ("ve", "bp", "jtree")]
        calls.append(Call("map-maxprod", cli(["map", "--model", self.model, "--engine", "maxprod"] + evidence)))
        return Request(i, calls, {"obs": obs})

    def check_call(self, request, call, out):
        obs = request.context["obs"]
        if call.name.startswith("query"):
            post = self.cached(request, "posteriors", lambda: ref.chain_posteriors(
                self.prior, self.trans, self.emit, obs)[0])
            return marginal_error(printed_marginal(out, self.K), post[self.target], 1e-5)
        _, best = ref.chain_viterbi(self.prior, self.trans, self.emit, obs)
        assignment, logp = printed_map(out)
        if [assignment[o] for o in self.observed] != list(obs):
            return "MAP assignment changed the evidence"
        path = np.array([assignment[h] for h in self.hidden])
        mine = ref.chain_log_joint(self.prior, self.trans, self.emit, path, obs)
        return map_error(logp, mine, best, exact=True)


# ---------------------------------------------------------------------------
# wide-exact
# ---------------------------------------------------------------------------


class WideExact(Workload):
    """A random ternary network of 40 variables with 3 parents each (fewer
    for the first three), drawn from a fixed structure seed whose largest
    junction-tree clique holds 3^13 (about 1.6 million) entries."""

    name = "wide-exact"
    N, STRUCTURE_SEED = 40, 1
    EVIDENCE = ("W07", "W23", "W36")
    TARGETS = ("W20", "W33")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        shape = np.random.default_rng(self.STRUCTURE_SEED)
        names = [f"W{k:02d}" for k in range(self.N)]
        parents = {}
        for k in range(1, self.N):
            parents[names[k]] = list(shape.choice(names[:k], size=min(k, 3), replace=False))
        self.spec = specs.bayes_net(self.rng(0), {n: 3 for n in names}, parents)
        self.model = self.write("wide.json", self.spec.document())

    def model_files(self):
        return [self.model]

    def request(self, i):
        states = self.rng(1, i).integers(3, size=len(self.EVIDENCE))
        evidence = {n: int(s) for n, s in zip(self.EVIDENCE, states)}
        ev = []
        for n, s in evidence.items():
            ev += ["--evidence", f"{n}={specs.state(s)}"]
        calls = [Call(f"query-{e}-{t}", cli(["query", "--model", self.model, "--target", t,
                                             "--engine", e] + ev))
                 for t in self.TARGETS for e in ("ve", "jtree")]
        return Request(i, calls, {"evidence": evidence})

    def check_call(self, request, call, out):
        target = call.name.split("-")[-1]
        want = self.cached(request, target, lambda: ref.bn_marginal(
            self.spec.factors, request.context["evidence"], target))
        return marginal_error(printed_marginal(out, 3), want, 1e-5)


# ---------------------------------------------------------------------------
# grid-approx
# ---------------------------------------------------------------------------


class GridApprox(Workload):
    """An 8x8 binary grid MRF, the smallest square grid whose joint size
    (2^64) overflows int64, with random unary and coupling potentials."""

    name = "grid-approx"
    R = C = 8
    EVIDENCE = ((1, 2), (4, 6), (6, 1))
    TARGET = (3, 4)
    LOOPY_ITERS, MEANFIELD_SWEEPS = 10, 2
    GIBBS_N, GIBBS_BURN_IN = 1200, 100
    DUAL_ITERS = 40
    LOOPY_TOL, GIBBS_TOL = 0.1, 0.15

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(0)
        R, C = self.R, self.C
        h = rng.normal(0.0, 0.5, size=(R, C))
        self.unary = np.stack([-h, h], axis=-1)
        agree = np.array([[1.0, -1.0], [-1.0, 1.0]])
        self.horiz = rng.normal(0.0, 0.3, size=(R, C - 1))[..., None, None] * agree
        self.vert = rng.normal(0.0, 0.3, size=(R - 1, C))[..., None, None] * agree
        self.names = [[f"G{r}{c}" for c in range(C)] for r in range(R)]
        factors = [((self.names[r][c],), np.exp(self.unary[r, c]))
                   for r in range(R) for c in range(C)]
        factors += [((self.names[r][c], self.names[r][c + 1]), np.exp(self.horiz[r, c]))
                    for r in range(R) for c in range(C - 1)]
        factors += [((self.names[r][c], self.names[r + 1][c]), np.exp(self.vert[r, c]))
                    for r in range(R - 1) for c in range(C)]
        cards = {n: 2 for row in self.names for n in row}
        self.model = self.write("grid.json", specs.Spec("markov_random_field", cards, factors).document())
        self.map_reference = ref.grid_exact(self.unary, self.horiz, self.vert)["map_value"]

    def model_files(self):
        return [self.model]

    def request(self, i):
        states = self.rng(1, i).integers(2, size=len(self.EVIDENCE))
        evidence = {cell: int(s) for cell, s in zip(self.EVIDENCE, states)}
        r, c = self.TARGET
        query = ["query", "--model", self.model, "--target", self.names[r][c]]
        for (er, ec), s in evidence.items():
            query += ["--evidence", f"{self.names[er][ec]}={specs.state(s)}"]
        seed = ["--seed", str(i)]
        fixed = ["--tol=-inf"]       # no early stop: every call runs its full iteration count
        calls = [
            Call("query-loopy", cli(query + ["--engine", "loopy", "--max-iters", str(self.LOOPY_ITERS)] + fixed)),
            Call("query-meanfield", cli(query + ["--engine", "meanfield", "--max-iters", str(self.MEANFIELD_SWEEPS)] + fixed)),
            Call("query-gibbs", cli(query + ["--engine", "gibbs", "--n", str(self.GIBBS_N),
                                             "--burn-in", str(self.GIBBS_BURN_IN)] + seed)),
            Call("map-localsearch", cli(["map", "--model", self.model, "--engine", "localsearch"] + seed)),
            Call("map-anneal", cli(["map", "--model", self.model, "--engine", "anneal"] + seed)),
            Call("map-dualdecomp", cli(["map", "--model", self.model, "--engine", "dualdecomp",
                                        "--max-iters", str(self.DUAL_ITERS)])),
        ]
        return Request(i, calls, {"evidence": evidence})

    def grid_of(self, assignment: dict[str, int]) -> np.ndarray:
        return np.array([[assignment[n] for n in row] for row in self.names])

    def check_call(self, request, call, out):
        exact = self.cached(request, "exact", lambda: ref.grid_exact(
            self.unary, self.horiz, self.vert, request.context["evidence"]))
        engine = call.name.split("-")[1]
        if engine in ("loopy", "gibbs"):
            tol = self.LOOPY_TOL if engine == "loopy" else self.GIBBS_TOL
            return marginal_error(printed_marginal(out, 2), exact["marginals"][self.TARGET], tol)
        if engine == "meanfield":
            return upper_bound_error("ELBO", float(answer_lines(out)["elbo"]), "log Z", exact["log_z"])
        assignment, logp = printed_map(out)
        mine = ref.grid_log_joint(self.unary, self.horiz, self.vert, self.grid_of(assignment))
        error = map_error(logp, mine, self.map_reference, exact=False)
        if engine == "dualdecomp" and error is None:
            error = upper_bound_error("exact MAP", self.map_reference,
                                      "dual bound", float(answer_lines(out)["bound"]))
        return error


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _one_hot_features(x, t):
    return np.eye(4)[x[t]]


class Learn(Workload):
    """Structure and parameter learning on fresh datasets from one fixed
    12-variable ternary network, plus MRF and chain-CRF gradient training."""

    name = "learn"
    ROWS = 3000
    NETWORK_SEED, MRF_SEED, CRF_SEED = 7, 8, 9
    MRF_ROWS, MRF_ITERS = 500, 8
    CRF_SEQUENCES, CRF_LENGTH, CRF_STEPS, CRF_L2, CRF_RATE = 10, 8, 4, 1e-3, 0.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        shape = np.random.default_rng(self.NETWORK_SEED)
        names = [f"L{k:02d}" for k in range(12)]
        parents = {}
        for k in range(1, 12):
            m = int(shape.integers(1, min(k, 2) + 1))
            parents[names[k]] = list(shape.choice(names[:k], size=m, replace=False))
        self.network = specs.bayes_net(shape, {n: 3 for n in names}, parents, alpha=0.5)
        self.names = names
        self.cards = [3] * 12
        self.true_parents = {k: [names.index(p) for p in self.network.factors[k][0][1:]]
                             for k in range(12)}
        self.model = self.write("network.json", self.network.document())
        self._mrf_inputs()
        self._crf_inputs()

    def _mrf_inputs(self):
        from pgmkit.factors import Factor, Variable
        from pgmkit.models import MarkovRandomField

        rng = np.random.default_rng(self.MRF_SEED)
        cells = [f"M{r}{c}" for r in range(3) for c in range(3)]
        edges = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
        edges += [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)]
        factors = [((cells[a], cells[b]), np.exp(rng.normal(0, 0.7, size=(2, 2)))) for a, b in edges]
        self.mrf_spec = specs.Spec("markov_random_field", {n: 2 for n in cells}, factors)
        self.mrf_scopes = edges
        self.mrf_variables = [Variable(n, ("s0", "s1")) for n in cells]
        self.mrf_structure = MarkovRandomField(
            self.mrf_variables,
            [Factor([self.mrf_variables[a], self.mrf_variables[b]], np.ones((2, 2))) for a, b in edges],
        )

    def _crf_inputs(self):
        rng = np.random.default_rng(self.CRF_SEED)
        self.crf_trans = rng.dirichlet(np.ones(3), size=3)
        self.crf_emit = rng.dirichlet(np.full(4, 0.5), size=3)

    def model_files(self):
        return [self.model]

    def request(self, i):
        import pgmkit.learning as learning  # looked up at call time, so traced runs see wrappers
        from pgmkit.models import ChainCRF

        rng = self.rng(1, i)
        cols = specs.forward_sample(self.network, self.ROWS, rng)
        rows = np.stack([cols[n] for n in self.names], axis=1).astype(np.uint8)  # kept until the checks
        data = self.write("data.csv", specs.csv_text(self.network.cards, cols))
        mrf_rows = specs.exact_sample(self.mrf_spec, self.MRF_ROWS, rng).astype(np.uint8)
        mrf_data = learning.Dataset(tuple(self.mrf_variables), mrf_rows)
        sequences = []
        for _ in range(self.CRF_SEQUENCES):
            y = [int(rng.integers(3))]
            for _ in range(self.CRF_LENGTH - 1):
                y.append(int(rng.choice(3, p=self.crf_trans[y[-1]])))
            x = [int(rng.choice(4, p=self.crf_emit[k])) for k in y]
            sequences.append((x, y))
        crf_data = [(x, [("a", "b", "c")[k] for k in y]) for x, y in sequences]
        crf = ChainCRF(("a", "b", "c"), 4, _one_hot_features)

        structure = ["learn-structure", "--model", self.model, "--data", data, "--method"]
        calls = [
            Call("hillclimb", cli(structure + ["hillclimb"])),
            Call("pc", cli(structure + ["pc"])),
            Call("chowliu", cli(structure + ["chowliu", "--root", self.names[0]])),
            Call("learn-params", cli(["learn-params", "--structure", self.model, "--data", data])),
            Call("score", cli(["score", "--structure", self.model, "--data", data, "--score", "bic"])),
            Call("fit_mrf", lambda: learning.fit_mrf(
                self.mrf_structure, mrf_data, iters=self.MRF_ITERS, tol=0.0)),
            Call("fit_chain_crf", lambda: learning.fit_chain_crf(
                crf, crf_data, l2=self.CRF_L2, steps=self.CRF_STEPS,
                learning_rate=self.CRF_RATE, tol=0.0)),
        ]
        return Request(i, calls, {"rows": rows, "mrf_rows": mrf_rows, "sequences": sequences})

    def printed_edges(self, text: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        directed, undirected = [], []
        for line in text.splitlines():
            if line.startswith("edge="):
                body = line[5:]
                if "->" in body:
                    u, v = body.split("->")
                    directed.append((self.names.index(u), self.names.index(v)))
                else:
                    u, v = body.split("-")
                    undirected.append((self.names.index(u), self.names.index(v)))
        return directed, undirected

    def check_call(self, request, call, out):
        checks = {
            "hillclimb": self._check_hill_climb,
            "pc": self._check_pc,
            "chowliu": self._check_chow_liu,
            "learn-params": self._check_params,
            "score": self._check_score,
            "fit_mrf": self._check_mrf,
            "fit_chain_crf": self._check_crf,
        }
        return checks[call.name](request.context, out)

    def _check_hill_climb(self, ctx, out):
        edges, _ = self.printed_edges(out)
        rows = ctx["rows"]
        parents = {v: [u for u, w in edges if w == v] for v in range(12)}
        error = close("hill-climb BIC", float(answer_lines(out)["score"]), ref.bic(rows, parents, self.cards))
        if error:
            return error
        gain, move = ref.best_single_move_gain(rows, edges, self.cards)
        if gain > 1e-6:
            return f"move {move} raises the hill-climb BIC by {gain:.6g}"
        return None

    def _check_pc(self, ctx, out):
        directed, undirected = self.printed_edges(out)
        for u, v in directed + undirected:
            p = ref.g_test_pvalue(ctx["rows"], u, v, self.cards)
            if p >= 0.05:
                return f"pc left {self.names[u]}-{self.names[v]} adjacent, marginal G-test p={p:.3g}"
        return None

    def _check_chow_liu(self, ctx, out):
        edges, _ = self.printed_edges(out)
        rows = ctx["rows"]
        n = len(self.names)
        reached, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == node and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if len(edges) != n - 1 or len(reached) != n:
            return f"Chow-Liu output {edges} is not a spanning tree"
        weights = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                weights[a, b] = weights[b, a] = ref.mutual_information(rows, a, b, self.cards)
        got = sum(weights[u, v] for u, v in edges)
        parents = {v: [u for u, w in edges if w == v] for v in range(n)}
        return (close("Chow-Liu tree weight", got, ref.max_spanning_tree_weight(weights), rtol=1e-9)
                or close("Chow-Liu BIC", float(answer_lines(out)["score"]), ref.bic(rows, parents, self.cards)))

    def _check_params(self, ctx, out):
        rows = ctx["rows"]
        start, end = out.index("{"), out.rindex("}") + 1
        document = json.loads(out[start:end])
        tail = answer_lines(out[end:])
        for entry in document["factors"]:
            scope = [self.names.index(n) for n in entry["scope"]]
            want = ref.mle_cpt(rows, scope[0], scope[1:], self.cards)
            if not np.allclose(np.array(entry["table"]).reshape(want.shape), want, rtol=1e-12, atol=1e-12):
                return f"CPT of {entry['child']} differs from the count-based MLE"
        if int(tail["n"]) != len(rows):
            return f"n={tail['n']}, dataset has {len(rows)} rows"
        return close("log-likelihood", float(tail["loglik"]), ref.loglik(rows, self.true_parents, self.cards))

    def _check_score(self, ctx, out):
        return close("BIC", float(answer_lines(out)["score"]), ref.bic(ctx["rows"], self.true_parents, self.cards))

    def _check_mrf(self, ctx, result):
        factors = [(scope, f.table) for scope, f in zip(self.mrf_scopes, result.mrf.factors)]
        want_ll = ref.mrf_avg_loglik(factors, [2] * 9, ctx["mrf_rows"])
        _, marginals = ref.mrf_brute_force(factors, [2] * 9)
        data = ctx["mrf_rows"]
        empirical = [ref.contingency(data, list(scope), [2] * 9) / len(data) for scope in self.mrf_scopes]
        mismatch = max(float(np.max(np.abs(e - m))) for e, m in zip(empirical, marginals))
        return (close("fit_mrf log-likelihood", result.loglik_trace[-1], want_ll, rtol=1e-9)
                or close("fit_mrf moment mismatch", result.moment_mismatch, mismatch, rtol=1e-6))

    def _check_crf(self, ctx, result):
        data = [(np.eye(4)[x], np.array(y)) for x, y in ctx["sequences"]]
        trace, theta = ref.crf_fit(3, 4, data, self.CRF_L2, self.CRF_STEPS, self.CRF_RATE)
        if len(result.loglik_trace) != len(trace):
            return f"CRF ran {len(result.loglik_trace)} steps, asked for {len(trace)}"
        for k, (got, want) in enumerate(zip(result.loglik_trace, trace)):
            error = close(f"CRF log-likelihood at step {k}", got, want, rtol=1e-9)
            if error:
                return error
        gap = float(np.max(np.abs(result.crf.theta - theta)))
        return None if gap <= 1e-9 else f"CRF weights differ from forward-backward ascent by {gap:.3g}"


WORKLOADS = {w.name: w for w in (ChainExact, WideExact, GridApprox, Learn)}
