"""Batch command-line interface.

Every run echoes its full effective configuration as ``config.key=value``
lines before the results, so outputs are reproducible from the transcript
alone. Numeric results print as ``key=value`` lines. Exit codes: 0 on
success, 2 on validation problems (bad documents, bad evidence), 3 on
inference failures (zero-probability evidence, non-tree input), 64 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import (
    DegenerateUpdateError,
    EvidenceError,
    InsufficientDataError,
    NotATreeError,
    SchemaError,
    ScopeError,
    TooLargeError,
    TrappedStateError,
    ZeroEvidenceError,
)
from .exact import (
    build_junction_tree,
    jt_calibrate,
    jt_marginal,
    max_product_decode,
    tree_bp_marginal,
    variable_elimination,
)
from .io import (
    export_dot,
    load_dataset,
    load_vector_csv,
    parse_model,
    serialize_model,
)
from .learning import SCORE_KINDS, chow_liu, em_gmm, hill_climb, mle_bn, pc, score
from .mapinf import (
    dual_decomposition,
    export_map_ilp,
    graphcut_map,
    local_search_map,
    mrf_to_energy_model,
    simulated_annealing_map,
)
from .models import (
    BayesianNetwork,
    check_evidence,
    enumerate_inference,
    log_joint,
    reduce_to_evidence,
    relevant_network,
)
from .sampling import (
    SingleSiteUniformKernel,
    forward_sample,
    gibbs,
    jt_forward_sample,
    make_rng,
    metropolis_hastings,
)
from .variational import loopy_bp, mean_field

USAGE_EXIT = 64
VALIDATION_EXIT = 2
INFERENCE_EXIT = 3

_VALIDATION_ERRORS = (SchemaError, EvidenceError, ScopeError, ValueError,
                      InsufficientDataError)
_INFERENCE_ERRORS = (ZeroEvidenceError, NotATreeError, TooLargeError,
                     TrappedStateError, DegenerateUpdateError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _float_fmt(x: float) -> str:
    return f"{x:.6g}"


def _echo_config(args: argparse.Namespace, out) -> None:
    skip = {"func", "command"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        print(f"config.{key}={value}", file=out)


def _parse_evidence(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise EvidenceError(f"evidence must be VAR=state, got {pair!r}")
        name, state = pair.split("=", 1)
        out[name] = state
    return out


def _read_model(path: str):
    with open(path) as handle:
        return parse_model(handle.read())


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _read_structure(args, task: str):
    """The Bayesian network of ``--structure``, and ``--data`` over its variables."""
    structure = _read_model(args.structure)
    if not isinstance(structure, BayesianNetwork):
        raise ValueError(f"{task} needs a Bayesian network structure")
    return structure, load_dataset(_read_text(args.data), structure)


def _uniform_kernel(model, evidence) -> SingleSiteUniformKernel:
    # over the unobserved variables; metropolis_hastings checks the evidence
    return SingleSiteUniformKernel(v for n, v in model.variables.items() if n not in evidence)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _refuse_negative_max_iters(args) -> None:
    if args.max_iters < 0:
        raise ValueError("--max-iters must not be negative")


def _cmd_query(args, out) -> int:
    _refuse_negative_max_iters(args)
    model = _read_model(args.model)
    evidence = _parse_evidence(args.evidence)
    target = args.target
    var = model.variable(target)
    evidence = check_evidence(model, evidence)
    if target in evidence:
        raise EvidenceError(f"query variable {target!r} is also evidence")
    engine = args.engine
    if engine in ("ve", "bp", "jtree"):
        # barren nodes sum out to 1; enum, the oracle, answers the full network
        model = relevant_network(model, [target], evidence)
    if engine == "enum":
        marg = enumerate_inference(model, [target], evidence)
        values = marg.values
    elif engine == "ve":
        values = variable_elimination(model, [target], evidence).normalized().values
    elif engine == "bp":
        values = tree_bp_marginal(model, target, evidence).values
    elif engine == "jtree":
        values = jt_marginal(build_junction_tree(model), target, evidence).values
    elif engine == "loopy":
        result = loopy_bp(model, evidence, max_iters=args.max_iters,
                          damping=args.damping, tol=args.tol)
        print(f"converged={str(result.converged).lower()}", file=out)
        values = result.marginals[target].values
    elif engine == "meanfield":
        q, trace = mean_field(model, evidence, max_sweeps=args.max_iters,
                              tol=args.tol)
        print(f"converged={str(trace.converged).lower()}", file=out)
        print(f"elbo={_float_fmt(trace.values[-1])}", file=out)
        values = q.prob(target)
    elif engine in ("gibbs", "mh"):
        rng = make_rng(args.seed)
        if engine == "gibbs":
            batch = gibbs(model, evidence, args.n, args.burn_in, rng)
        else:
            kernel = _uniform_kernel(model, evidence)
            batch = metropolis_hastings(model, kernel, args.n, args.burn_in, rng, evidence)
        values = np.array([batch.frequency(target, s) for s in var.states])
    else:
        raise ValueError(f"unknown engine {engine!r}")
    print(
        " ".join(f"p[{s}]={_float_fmt(v)}" for s, v in zip(var.states, values)),
        file=out,
    )
    return 0


def _cmd_map(args, out) -> int:
    _refuse_negative_max_iters(args)
    model = _read_model(args.model)
    evidence = check_evidence(model, _parse_evidence(args.evidence))
    engine = args.engine
    # The field of the unobserved variables: the export encodes it, and every
    # engine but enum and maxprod searches it. The export is written, and every
    # line printed, only once the engine has answered, so a refusal leaves no
    # file and no partial output.
    if args.export_lp or engine not in ("enum", "maxprod"):
        mrf, log_offset = reduce_to_evidence(model, evidence)
    text = export_map_ilp(mrf) if args.export_lp else None
    lines: list[str] = []
    if engine == "enum":
        assignment, logp = enumerate_inference(model, mode="map", evidence=evidence)
    elif engine == "maxprod":
        assignment, logp = max_product_decode(model, evidence)
    else:
        if engine == "graphcut":
            energy_model = mrf_to_energy_model(mrf)
            labels, energy = graphcut_map(energy_model)
            assignment = {
                name: mrf.variable(name).states[value]
                for name, value in labels.items()
            }
            logp = log_joint(mrf, assignment)
            lines.append(f"energy={_float_fmt(energy)}")
        elif engine == "dualdecomp":
            state = dual_decomposition(mrf, max_iters=args.max_iters)
            assignment, logp = state.assignment, state.objective
            lines.append(f"agreement={str(state.agreement).lower()}")
            lines.append(f"bound={_float_fmt(state.best_bound + log_offset)}")
        elif engine == "localsearch":
            assignment, logp = local_search_map(mrf, seed=args.seed,
                                                max_sweeps=args.max_iters)
        elif engine == "anneal":
            assignment, logp = simulated_annealing_map(mrf, seed=args.seed)
        else:
            raise ValueError(f"unknown engine {engine!r}")
        assignment = {**evidence, **assignment}
        logp += log_offset      # the factors the evidence fixes completely
        if log_offset == -np.inf:
            # the evidence leaves no mass: answer the oracle's first assignment
            assignment = {n: evidence.get(n, v.states[0])
                          for n, v in model.variables.items()}
    if text is not None:
        with open(args.export_lp, "w") as handle:
            handle.write(text)
        print(f"lp_written={args.export_lp}", file=out)
    for line in lines:
        print(line, file=out)
    for name in sorted(assignment):
        print(f"map[{name}]={assignment[name]}", file=out)
    print(f"logp={_float_fmt(logp)}", file=out)
    return 0


def _cmd_sample(args, out) -> int:
    model = _read_model(args.model)
    evidence = _parse_evidence(args.evidence)
    rng = make_rng(args.seed)
    method = args.method
    if method == "forward":
        if evidence:
            raise EvidenceError("forward sampling does not take evidence")
        if not isinstance(model, BayesianNetwork):
            raise ValueError("forward sampling needs a Bayesian network")
        batch = forward_sample(model, args.n, rng)
    elif method == "jtree":
        jt = jt_calibrate(build_junction_tree(model), evidence)
        batch = jt_forward_sample(jt, args.n, rng)
    elif method == "gibbs":
        batch = gibbs(model, evidence, args.n, args.burn_in, rng)
    elif method == "mh":
        kernel = _uniform_kernel(model, evidence)
        batch = metropolis_hastings(model, kernel, args.n, args.burn_in, rng, evidence)
    else:
        raise ValueError(f"unknown method {method!r}")
    csv = batch.to_csv()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(csv)
        print(f"rows={len(batch)}", file=out)
        print(f"written={args.out}", file=out)
    else:
        out.write(csv)
    return 0


def _cmd_learn_params(args, out) -> int:
    flag, prior = (("--pseudocount", args.pseudocount) if args.dirichlet is None
                   else ("--dirichlet", args.dirichlet))
    if prior < 0:
        raise ValueError(f"{flag} must be nonnegative")
    structure_model, dataset = _read_structure(args, "parameter learning")
    learned = mle_bn(structure_model.dag, dataset, prior)
    text = serialize_model(learned)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"written={args.out}", file=out)
    else:
        out.write(text)
    print(f"n={dataset.n}", file=out)
    print(f"loglik={_float_fmt(score(learned.dag, dataset, 'loglik'))}", file=out)
    return 0


def _cmd_learn_structure(args, out) -> int:
    text = _read_text(args.data)
    dataset = load_dataset(text, _read_model(args.model) if args.model else None)
    lines = []
    if args.method == "pc":
        learned = pc(dataset, alpha=args.alpha, max_cond_size=args.max_cond_size)
        lines += [f"edge={u}->{v}" for u, v in sorted(learned.directed)]
        lines += ["edge={}-{}".format(*sorted(e))
                  for e in sorted(learned.undirected, key=sorted)]
    else:
        if args.method == "chowliu":
            learned = chow_liu(dataset, root=args.root).dag
            value = score(learned, dataset, args.score)
        elif args.method == "hillclimb":
            result = hill_climb(dataset, args.score, restarts=args.restarts,
                                max_indegree=args.max_indegree,
                                rng=make_rng(args.seed))
            learned, value = result.graph, result.score
        else:
            raise ValueError(f"unknown method {args.method!r}")
        lines += [f"edge={u}->{v}" for u, v in sorted(learned.edges)]
        lines.append(f"score={_float_fmt(value)}")
    for line in lines:
        print(line, file=out)
    if args.dot:
        export_dot(learned, args.dot)
    return 0


def _cmd_jtree(args, out) -> int:
    model = _read_model(args.model)
    jt = build_junction_tree(model)
    for i, clique in enumerate(jt.cliques):
        print(f"clique[{i}]={','.join(sorted(clique))}", file=out)
    for a, b in sorted(jt.tree_edges):
        sep = ",".join(sorted(jt.sepsets[(a, b)]))
        print(f"sepset[{a}-{b}]={sep}", file=out)
    # a model with no variables has one empty clique, of width 0
    width = max(max(len(c) for c in jt.cliques) - 1, 0)
    print(f"width={width}", file=out)
    if args.dot:
        export_dot(jt, args.dot)
        print(f"written={args.dot}", file=out)
    return 0


def _cmd_em_gmm(args, out) -> int:
    data = load_vector_csv(_read_text(args.data))
    result = em_gmm(data, args.k, rng=make_rng(args.seed), tol=args.tol,
                    max_iters=args.max_iters, restarts=args.restarts)
    print(f"loglik={_float_fmt(result.loglik_trace[-1])}", file=out)
    print(f"iterations={result.iterations}", file=out)
    print(f"converged={str(result.converged).lower()}", file=out)
    for j in range(result.params.k):
        print(f"weight[{j}]={_float_fmt(result.params.weights[j])}", file=out)
        mean = ",".join(_float_fmt(x) for x in result.params.means[j])
        print(f"mean[{j}]={mean}", file=out)
        cov = ",".join(_float_fmt(x) for x in result.params.covariances[j].ravel())
        print(f"cov[{j}]={cov}", file=out)
    return 0


def _cmd_score(args, out) -> int:
    structure_model, dataset = _read_structure(args, "scoring")
    value = score(structure_model.dag, dataset, args.score)
    print(f"score={_float_fmt(value)}", file=out)
    return 0


def _cmd_validate(args, out) -> int:
    _read_model(args.model)   # parse_model refuses a model with any violation
    print("valid=true", file=out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pgmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_sampler(p):
        p.add_argument("--n", type=int, default=10_000)
        p.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("query", help="marginal or conditional distribution")
    q.add_argument("--model", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--evidence", action="append", metavar="VAR=state")
    q.add_argument("--engine", default="ve",
                   choices=["ve", "bp", "jtree", "gibbs", "mh", "meanfield",
                            "loopy", "enum"])
    q.add_argument("--max-iters", dest="max_iters", type=int, default=200)
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--damping", type=float, default=0.5)
    common_sampler(q)
    q.set_defaults(func=_cmd_query)

    m = sub.add_parser("map", help="most probable assignment")
    m.add_argument("--model", required=True)
    m.add_argument("--evidence", action="append", metavar="VAR=state")
    m.add_argument("--engine", default="maxprod",
                   choices=["maxprod", "graphcut", "dualdecomp", "localsearch",
                            "anneal", "enum"])
    m.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--export-lp", dest="export_lp")
    m.set_defaults(func=_cmd_map)

    s = sub.add_parser("sample", help="draw joint samples")
    s.add_argument("--model", required=True)
    s.add_argument("--method", default="forward",
                   choices=["forward", "jtree", "gibbs", "mh"])
    s.add_argument("--evidence", action="append", metavar="VAR=state")
    s.add_argument("--out")
    common_sampler(s)
    s.set_defaults(func=_cmd_sample)

    lp = sub.add_parser("learn-params", help="fit CPTs to data")
    lp.add_argument("--structure", required=True)
    lp.add_argument("--data", required=True)
    prior = lp.add_mutually_exclusive_group()
    prior.add_argument("--pseudocount", type=float, default=0.0)
    prior.add_argument("--dirichlet", type=float, default=None,
                       help="symmetric prior count; reports the posterior mean")
    lp.add_argument("--out")
    lp.set_defaults(func=_cmd_learn_params)

    ls = sub.add_parser("learn-structure", help="learn a DAG or CPDAG")
    ls.add_argument("--data", required=True)
    ls.add_argument("--model", help="optional model file declaring the variables")
    ls.add_argument("--method", default="hillclimb",
                    choices=["chowliu", "pc", "hillclimb"])
    ls.add_argument("--score", default="bic",
                    choices=SCORE_KINDS)
    ls.add_argument("--alpha", type=float, default=0.05)
    ls.add_argument("--root", default=None)
    ls.add_argument("--restarts", type=int, default=1)
    ls.add_argument("--max-indegree", dest="max_indegree", type=int, default=None)
    ls.add_argument("--max-cond-size", dest="max_cond_size", type=int, default=None)
    ls.add_argument("--seed", type=int, default=0)
    ls.add_argument("--dot")
    ls.set_defaults(func=_cmd_learn_structure)

    j = sub.add_parser("jtree", help="build a junction tree")
    j.add_argument("--model", required=True)
    j.add_argument("--dot")
    j.set_defaults(func=_cmd_jtree)

    e = sub.add_parser("em-gmm", help="fit a Gaussian mixture")
    e.add_argument("--data", required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--restarts", type=int, default=5)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--tol", type=float, default=1e-7)
    e.add_argument("--max-iters", dest="max_iters", type=int, default=300)
    e.set_defaults(func=_cmd_em_gmm)

    sc = sub.add_parser("score", help="score a structure against data")
    sc.add_argument("--structure", required=True)
    sc.add_argument("--data", required=True)
    sc.add_argument("--score", default="bic",
                    choices=SCORE_KINDS)
    sc.set_defaults(func=_cmd_score)

    v = sub.add_parser("validate", help="check a model document")
    v.add_argument("--model", required=True)
    v.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every ``main`` call in this process, built on first use."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    _echo_config(args, out)
    try:
        return args.func(args, out)
    except _INFERENCE_ERRORS as exc:
        print(f"error={exc}", file=sys.stderr)
        return INFERENCE_EXIT
    except _VALIDATION_ERRORS as exc:
        print(f"error={exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except FileNotFoundError as exc:
        print(f"error={exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
