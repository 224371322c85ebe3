"""Cold start: a fresh process that only reads and answers models never
loads scipy, and every function that imports it on demand works on its
first call."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import io, math, os, sys, tempfile

import numpy as np

import pgmkit.cli as cli
from pgmkit.io import serialize_model
from pgmkit.zoo import student_network, voting_mrf

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "student.json")
    with open(path, "w") as handle:
        handle.write(serialize_model(student_network()))
    for argv in (["query", "--target", "LETTER", "--engine", "ve"],
                 ["query", "--target", "LETTER", "--engine", "bp"],
                 ["query", "--target", "LETTER", "--engine", "jtree"],
                 ["query", "--target", "LETTER", "--engine", "enum"],
                 ["map", "--engine", "maxprod"],
                 ["map", "--engine", "enum"]):
        assert cli.main([*argv, "--model", path], out=io.StringIO()) == 0, argv
print("loaded", *sorted(m for m in ("scipy", "numpy.testing") if m in sys.modules))

from pgmkit.factors import LOG, Factor, eliminate
from pgmkit.learning import Dataset, ci_test, em_gmm, pseudo_likelihood, score
from pgmkit.sampling import forward_sample, make_rng

bn = student_network()
batch = forward_sample(bn, 500, make_rng(1))
data = Dataset(batch.variables, batch.states)
mrf = voting_mrf()
mrf_vars = tuple(mrf.variables.values())
mrf_rows = make_rng(2).integers(0, [v.cardinality for v in mrf_vars], size=(50, len(mrf_vars)))
grade, letter = bn.variable("GRADE"), bn.variable("LETTER")
log_table = np.log(np.arange(1.0, 7.0)).reshape(grade.cardinality, letter.cardinality)
values = {
    "eliminate": lambda: eliminate(Factor([grade, letter], log_table, domain=LOG),
                                   ["LETTER"]).table.sum(),
    "score": lambda: score(bn.dag, data, kind="bd"),
    "ci_test": lambda: ci_test(data, "GRADE", "LETTER").p_value,
    "pseudo_likelihood": lambda: pseudo_likelihood(mrf, Dataset(mrf_vars, mrf_rows))[0],
    "em_gmm": lambda: em_gmm(make_rng(3).normal(size=(40, 2)), 2, make_rng(4),
                             restarts=1).loglik_trace[-1],
}
for name, call in values.items():
    value = float(call())
    print(name, "finite" if math.isfinite(value) else f"not finite: {value}")
"""


def run_fresh():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_answering_models_never_loads_scipy_and_each_lazy_site_works_first_time():
    lines = run_fresh()
    assert lines[0] == "loaded", lines[0]
    assert lines[1:] == [f"{name} finite" for name in
                         ("eliminate", "score", "ci_test", "pseudo_likelihood", "em_gmm")]
