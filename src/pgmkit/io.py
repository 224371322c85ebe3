"""Model documents, dataset CSV handling, and DOT export.

Model documents are JSON with a canonical rendering: keys sorted, floats
printed with 17 significant digits, two-space indentation. Semantically
equal models therefore serialize to identical bytes, and
parse(serialize(m)) reproduces m exactly.
"""

from __future__ import annotations

import json
import math
from operator import getitem
from typing import NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import SchemaError, ScopeError
from .factors import Factor, Variable
from .graphs import DirectedGraph
from .learning import Dataset
from .models import BayesianNetwork, MarkovRandomField, Model, validate

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _render(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{pad}  {json.dumps(str(k))}: {_render(value[k], indent + 1)}'
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{pad}  {_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if value == -math.inf:
            return "-Infinity"   # a zero of a log table; json reads it back
        if not math.isfinite(value):
            raise SchemaError("non-finite numbers cannot be serialized")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise SchemaError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(document) -> str:
    return _render(document, 0) + "\n"


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------


def _document_table(f: Factor) -> list[float]:
    if f.domain == "linear" and not np.isfinite(f.table).all():
        raise SchemaError("non-finite numbers cannot be serialized")
    return [float(x) for x in f.values]


def model_to_document(model: Model) -> dict:
    variables = [
        {"name": v.name, "states": list(v.states)}
        for _, v in sorted(model.variables.items())
    ]
    factors = []
    if isinstance(model, BayesianNetwork):
        model_type = "bayesian_network"
        for name in sorted(model.cpds):
            cpd = model.cpds[name]
            factors.append(
                {
                    "kind": "cpd",
                    "child": name,
                    "scope": list(cpd.names),
                    "domain": cpd.domain,
                    "table": _document_table(cpd),
                }
            )
    else:
        model_type = "markov_random_field"
        for f in model.factors:
            factors.append(
                {
                    "kind": "potential",
                    "scope": list(f.names),
                    "domain": f.domain,
                    "table": _document_table(f),
                }
            )
    return {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "variables": variables,
        "factors": factors,
    }


def serialize_model(model: Model) -> str:
    return canonical_json(model_to_document(model))


def _require(document, key, types, path):
    if not isinstance(document, dict):
        raise SchemaError("must be an object", path=path)
    if key not in document:
        raise SchemaError(f"missing key {key!r}", path=path)
    value = document[key]
    if not isinstance(value, types):
        raise SchemaError(
            f"{key!r} must be {getattr(types, '__name__', types)}", path=path
        )
    return value


class _Entry(NamedTuple):
    """A factor entry of a model document that passed the structural checks."""

    kind: str
    document: dict
    scope: tuple[Variable, ...]
    shape: tuple[int, ...]
    domain: str
    table: list
    path: str


def _entry(document, path: str, by_name: dict[str, Variable]) -> _Entry:
    """Check everything of one factor entry but its numbers."""
    kind = _require(document, "kind", str, path)
    scope_names = _require(document, "scope", list, path)
    table = _require(document, "table", list, path)
    domain = document.get("domain", "linear")
    if domain not in ("linear", "log"):
        raise SchemaError(f"unknown domain {domain!r}", path=path)
    scope = []
    for name in scope_names:
        if not isinstance(name, str):
            raise SchemaError(f"scope entry {name!r} is not a variable name", path=path)
        if name not in by_name:
            raise SchemaError(f"scope references unknown variable {name!r}", path=path)
        scope.append(by_name[name])
    shape = tuple(v.cardinality for v in scope)
    expected = math.prod(shape)
    if len(table) != expected:
        raise SchemaError(
            f"table has {len(table)} entries but the scope "
            f"{scope_names} requires {expected}",
            path=path,
        )
    if len(set(scope_names)) != len(scope_names):
        # Factor's own refusal, raised here to keep its place in entry order
        raise ScopeError(f"duplicate variables in scope {scope_names}")
    return _Entry(kind, document, tuple(scope), shape, domain, table, path)


def _tables(entries: list[_Entry]) -> list[np.ndarray]:
    """The tables of the entries as read-only float arrays, in entry order.

    The tables of one (shape, domain) are read as one block and checked at
    once, and each is returned as a view of its block. A linear table may
    hold finite, nonnegative numbers; a log table anything below +Infinity
    (-Infinity is a zero). Of the refused tables, the first in document
    order is reported, as reading the entries one by one would.
    """
    groups: dict[tuple, list[int]] = {}
    for k, e in enumerate(entries):
        groups.setdefault((e.shape, e.domain), []).append(k)
    tables: list = [None] * len(entries)
    faults = []   # (position, message) of the first refused table of each group
    for (shape, domain), ks in groups.items():
        block, unreadable = _block([entries[k] for k in ks], shape)
        allowed = block < math.inf
        if domain == "linear":
            allowed &= block >= 0
        bad = np.flatnonzero(~allowed.reshape(len(block), math.prod(shape)).all(axis=1))
        if bad.size:
            faults.append((ks[bad[0]], _refusal(block[bad[0]], domain)))
        elif unreadable is not None:
            faults.append((ks[len(block)], unreadable))
        else:
            block.flags.writeable = False
            for k, table in zip(ks, block):
                tables[k] = table
    if faults:
        k, message = min(faults)
        raise SchemaError(message, path=entries[k].path)
    return tables


def _refusal(table: np.ndarray, domain: str) -> str:
    if domain == "log":
        return "log-domain factor entries must not be NaN or +Infinity"
    if (table < 0).any():
        return "linear-domain factor entries must be nonnegative"
    return "linear-domain factor entries must be finite"


def _block(entries: list[_Entry], shape: tuple[int, ...]) -> tuple[np.ndarray, str | None]:
    """The entries' tables stacked as floats, and None; or, when one cannot
    be read, the stack of the tables before it and the reason."""
    try:
        return np.array([e.table for e in entries], dtype=float).reshape(len(entries), *shape), None
    except (TypeError, ValueError, OverflowError):
        pass   # a nonnumeric entry, a nested table or a huge integer: read one at a time
    rows = []
    for e in entries:
        try:
            rows.append(Factor(e.scope, e.table, e.domain, _trusted=True).table)
        except (TypeError, ValueError, OverflowError) as exc:
            return np.array(rows).reshape(len(rows), *shape), str(exc)
    return np.array(rows), None


def document_to_model(document: dict) -> Model:
    version = _require(document, "format_version", int, "$")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version}", path="$.format_version")
    model_type = _require(document, "model_type", str, "$")
    entries = _require(document, "variables", list, "$")
    variables: list[Variable] = []
    for i, entry in enumerate(entries):
        path = f"$.variables[{i}]"
        name = _require(entry, "name", str, path)
        states = _require(entry, "states", list, path)
        if not states or not all(isinstance(s, str) for s in states):
            raise SchemaError("states must be a nonempty list of strings", path=path)
        variables.append(Variable(name, tuple(states)))
    by_name = {v.name: v for v in variables}
    if len(by_name) != len(variables):
        raise SchemaError("duplicate variable names", path="$.variables")

    factor_entries = _require(document, "factors", list, "$")
    parsed: list[_Entry] = []
    try:
        for i, entry in enumerate(factor_entries):
            parsed.append(_entry(entry, f"$.factors[{i}]", by_name))
    except Exception:
        _tables(parsed)   # a refused table in an earlier factor is reported first
        raise
    factors = [Factor(e.scope, table, e.domain, _trusted=True)
               for e, table in zip(parsed, _tables(parsed))]

    if model_type == "bayesian_network":
        cpds = {}
        edges = []
        for e, factor in zip(parsed, factors):
            if e.kind != "cpd":
                raise SchemaError("bayesian networks require cpd factors", path=e.path)
            child = _require(e.document, "child", str, e.path)
            if not factor.names or factor.names[0] != child:
                raise SchemaError("cpd scope must start with the child", path=e.path)
            if child in cpds:
                raise SchemaError(f"duplicate cpd for {child!r}", path=e.path)
            cpds[child] = factor
            edges.extend((parent, child) for parent in factor.names[1:])
        dag = DirectedGraph([v.name for v in variables], edges)
        model = BayesianNetwork(variables, dag, cpds)
    elif model_type == "markov_random_field":
        for e in parsed:
            if e.kind != "potential":
                raise SchemaError("markov random fields require potential factors", path=e.path)
        model = MarkovRandomField(variables, factors)
    else:
        raise SchemaError(f"unknown model_type {model_type!r}", path="$.model_type")

    problems = validate(model)
    if problems:
        raise SchemaError("; ".join(str(p) for p in problems), path="$")
    return model


def parse_model(text: str) -> Model:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return document_to_model(document)


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------


def load_dataset(text: str,
                 variables: Sequence[Variable] | Model | None = None) -> Dataset:
    """Parse a CSV of state labels, validating header and every cell.

    Without ``variables``, every column is a variable whose states are the
    sorted distinct labels found in it. Per-row weights are not supported:
    a ``weight`` column that is not a declared variable is refused.
    """
    lines = [line for line in text.strip().splitlines() if line]
    if variables is None and len(lines) < 2:
        raise SchemaError("dataset needs a header and at least one row")
    if not lines:
        raise SchemaError("empty dataset")
    header = [h.strip() for h in lines[0].split(",")]
    if len(set(header)) != len(header):
        raise SchemaError("duplicate columns in header")
    body = lines[1:]
    if hasattr(variables, "variables"):
        variables = list(variables.variables.values())
    by_name = {v.name: v for v in variables or ()}
    if "weight" in header and "weight" not in by_name:
        raise SchemaError("column 'weight': per-row weights are not supported")
    if variables is None:
        by_name = {v.name: v for v in _inferred_variables(header, body)}
    unknown = [h for h in header if h not in by_name]
    if unknown:
        raise SchemaError(f"unknown columns {unknown}")
    missing = sorted(set(by_name) - set(header))
    if missing:
        raise SchemaError(f"missing columns {missing}")
    # One {label: index} dict per column and one lookup per cell; a row that
    # fails goes to _reject_row, which raises the error the row deserves.
    index_of = [{s: i for i, s in enumerate(by_name[h].states)} for h in header]
    width = len(header)
    flat: list[int] = []
    for r, line in enumerate(body, start=1):
        cells = line.split(",")
        if len(cells) != width:
            _reject_row(r, line, header, by_name)
        try:
            flat.extend(map(getitem, index_of, map(str.strip, cells)))
        except KeyError:
            _reject_row(r, line, header, by_name)
    rows = np.array(flat, dtype=np.int64).reshape(len(body), width)
    ordered = sorted(by_name)
    rows = rows[:, [header.index(n) for n in ordered]]
    return Dataset(tuple(by_name[n] for n in ordered), rows)


def _cells(r: int, line: str, width: int) -> list[str]:
    """The stripped cells of data row r, which must number ``width``."""
    cells = [c.strip() for c in line.split(",")]
    if len(cells) != width:
        raise SchemaError(f"row {r} has {len(cells)} cells, expected {width}")
    return cells


def _reject_row(r: int, line: str, header: list[str],
                by_name: dict[str, Variable]) -> NoReturn:
    """Raise the error for data row r: its length, else its first bad cell."""
    for name, cell in zip(header, _cells(r, line, len(header))):
        if cell not in by_name[name].states:
            raise SchemaError(f"row {r}, column {name!r}: invalid state {cell!r}")
    raise AssertionError(f"row {r} is valid")


def _inferred_variables(header: list[str], body: list[str]) -> list[Variable]:
    seen: list[set[str]] = [set() for _ in header]
    for r, line in enumerate(body, start=1):
        for states, cell in zip(seen, _cells(r, line, len(header))):
            states.add(cell)
    return [Variable(name, tuple(sorted(s))) for name, s in zip(header, seen)]


def dataset_to_csv(dataset: Dataset) -> str:
    lines = [",".join(dataset.names)]
    for row in dataset.rows:
        lines.append(
            ",".join(v.states[s] for v, s in zip(dataset.variables, row))
        )
    return "\n".join(lines) + "\n"


def load_vector_csv(text: str) -> np.ndarray:
    """Numeric CSV (header optional) as a float matrix, for mixture models."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines:
        raise SchemaError("empty dataset")
    start = 0
    try:
        [float(c) for c in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for r, line in enumerate(lines[start:], start=start + 1):
        try:
            rows.append([float(c) for c in line.split(",")])
        except ValueError as exc:
            raise SchemaError(f"row {r}: {exc}") from exc
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise SchemaError("rows have inconsistent widths")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(obj, path: str) -> None:
    """Write the DOT rendering of a graph, junction tree, or model."""
    if hasattr(obj, "to_dot"):
        text = obj.to_dot()
    elif isinstance(obj, BayesianNetwork):
        text = obj.dag.to_dot()
    elif isinstance(obj, MarkovRandomField):
        text = obj.skeleton().to_dot()
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as DOT")
    with open(path, "w") as handle:
        handle.write(text)
