"""Model documents, dataset CSV handling, and DOT export.

Model documents are JSON with a canonical rendering: keys sorted, floats
printed with 17 significant digits, two-space indentation. Semantically
equal models therefore serialize to identical bytes, and
parse(serialize(m)) reproduces m exactly.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, ScopeError
from .factors import Factor, Variable
from .graphs import DirectedGraph
from .learning import Dataset
from .models import BayesianNetwork, MarkovRandomField, Model, validate
from .sampling import SampleBatch

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


def _tables(scopes: list[tuple[Variable, ...]], raw: list[list],
            groups: dict[tuple, list[int]]) -> list[np.ndarray]:
    """The raw tables of the factor entries as read-only float arrays, in
    entry order; ``groups`` lists the entries of each (shape, domain).

    The tables of one (shape, domain) are read as one block and checked at
    once, and each is returned as a view of its block. A linear table may
    hold finite, nonnegative numbers; a log table anything below +Infinity
    (-Infinity is a zero). Of the refused tables, the first in document
    order is reported, as reading the entries one by one would.
    """
    tables: list = [None] * len(raw)
    faults = []   # (position, message) of the first refused table of each group
    for (shape, domain), ks in groups.items():
        block, unreadable = _block([(scopes[k], raw[k]) for k in ks], shape, domain)
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
        raise SchemaError(message, path=f"$.factors[{k}]")
    return tables


def _refusal(table: np.ndarray, domain: str) -> str:
    if domain == "log":
        return "log-domain factor entries must not be NaN or +Infinity"
    if (table < 0).any():
        return "linear-domain factor entries must be nonnegative"
    return "linear-domain factor entries must be finite"


def _block(entries: list[tuple], shape: tuple[int, ...], domain: str
           ) -> tuple[np.ndarray, str | None]:
    """The (scope, raw table) entries' tables stacked as floats, and None;
    or, when one cannot be read, the stack of the tables before it and the
    reason."""
    try:
        return np.array([table for _, table in entries], dtype=float).reshape(len(entries), *shape), None
    except (TypeError, ValueError, OverflowError):
        pass   # a nonnumeric entry, a nested table or a huge integer: read one at a time
    rows = []
    for scope, table in entries:
        try:
            rows.append(Factor(scope, table, domain, _trusted=True).table)
        except (TypeError, ValueError, OverflowError) as exc:
            return np.array(rows).reshape(len(rows), *shape), str(exc)
    return np.array(rows), None


def _kind_refusal(entry: dict, kind: str, scope_names: list, network: bool,
                  children: dict[str, int], i: int, path: str) -> SchemaError | None:
    """The refusal of factor entry ``i`` for the model type, if any: a
    factor of the wrong kind, or a CPD whose child is missing, not first in
    its scope or already given. A network's accepted child joins
    ``children``."""
    if not network:
        if kind != "potential":
            return SchemaError("markov random fields require potential factors", path=path)
        return None
    if kind != "cpd":
        return SchemaError("bayesian networks require cpd factors", path=path)
    try:
        child = _require(entry, "child", str, path)
    except SchemaError as exc:
        return exc
    if not scope_names or scope_names[0] != child:
        return SchemaError("cpd scope must start with the child", path=path)
    if child in children:
        return SchemaError(f"duplicate cpd for {child!r}", path=path)
    children[child] = i
    return None


def document_to_model(document: dict) -> Model:
    """The model a document describes, read in one pass over its factors.

    The refusals keep one precedence: the document's header and variables
    first; then the first factor entry, in document order, that is
    malformed or whose table is refused (a malformed entry before its
    table); then the first entry of the wrong kind for the model type, or
    a CPD whose child is missing, not first in its scope or repeated; then
    an unknown model type; then the model's own validation.
    """
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
        variables.append(Variable(name, states))
    by_name = {v.name: v for v in variables}
    if len(by_name) != len(variables):
        raise SchemaError("duplicate variable names", path="$.variables")

    network = model_type == "bayesian_network"
    factor_entries = _require(document, "factors", list, "$")
    scopes: list[tuple[Variable, ...]] = []
    raw: list[list] = []
    domains: list[str] = []
    groups: dict[tuple, list[int]] = {}
    children: dict[str, int] = {}   # a network's CPD children, at their entries
    late = None   # the first kind or child refusal, raised once every table is read
    try:
        for i, entry in enumerate(factor_entries):
            path = f"$.factors[{i}]"
            kind = _require(entry, "kind", str, path)
            scope_names = _require(entry, "scope", list, path)
            table = _require(entry, "table", list, path)
            domain = entry.get("domain", "linear")
            if domain not in ("linear", "log"):
                raise SchemaError(f"unknown domain {domain!r}", path=path)
            scope = []
            for name in scope_names:
                if not isinstance(name, str):
                    raise SchemaError(f"scope entry {name!r} is not a variable name", path=path)
                if name not in by_name:
                    raise SchemaError(f"scope references unknown variable {name!r}", path=path)
                scope.append(by_name[name])
            shape = tuple([len(v.states) for v in scope])
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
            scopes.append(tuple(scope))
            raw.append(table)
            domains.append(domain)
            groups.setdefault((shape, domain), []).append(i)
            if late is None and model_type in ("bayesian_network", "markov_random_field"):
                late = _kind_refusal(entry, kind, scope_names, network, children, i, path)
    except Exception:
        _tables(scopes, raw, groups)   # a refused table in an earlier factor is reported first
        raise
    factors = [Factor(scope, table, domain, _trusted=True)
               for scope, table, domain in zip(scopes, _tables(scopes, raw, groups), domains)]
    if late is not None:
        raise late

    if network:
        edges = [(parent, f.names[0]) for f in factors for parent in f.names[1:]]
        model = BayesianNetwork(variables, DirectedGraph(by_name, edges),
                                {child: factors[k] for child, k in children.items()})
    elif model_type == "markov_random_field":
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

# The line ends str.splitlines splits at, besides "\n".
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# _MASKS[k] keeps the first k bytes of a little-endian 8-byte word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)   # odd, so multiplying by it mixes without losing bits
_BLOCK = 1 << 14   # bytes searched for delimiters at a time


def load_dataset(text: str,
                 variables: Sequence[Variable] | Model | None = None) -> Dataset:
    """Parse a CSV of state labels, validating header and every cell.

    Without ``variables``, every column is a variable whose states are the
    sorted distinct labels found in it. Per-row weights are not supported:
    a ``weight`` column that is not a declared variable is refused.

    A cell holds a label and any surrounding whitespace, and blank lines
    are skipped. The body is read in one pass over its UTF-8 bytes, a
    column at a time (see ``_read_column``). A refusal names the first
    bad row: its cell count if that is wrong, else its first bad cell in
    header order.
    """
    if any(c in text for c in _LINE_BREAKS):   # end lines with "\n" alone, as the bytes are split
        text = "\n".join(text.splitlines())
    text = text.strip()
    end = text.find("\n")
    if variables is None and end < 0:
        raise SchemaError("dataset needs a header and at least one row")
    if not text:
        raise SchemaError("empty dataset")
    header = [h.strip() for h in (text if end < 0 else text[:end]).split(",")]
    if len(set(header)) != len(header):
        raise SchemaError("duplicate columns in header")
    if hasattr(variables, "variables"):
        variables = list(variables.variables.values())
    by_name = {v.name: v for v in variables or ()}
    if "weight" in header and "weight" not in by_name:
        raise SchemaError("column 'weight': per-row weights are not supported")
    if variables is not None:
        unknown = [h for h in header if h not in by_name]
        if unknown:
            raise SchemaError(f"unknown columns {unknown}")
        missing = sorted(set(by_name) - set(header))
        if missing:
            raise SchemaError(f"missing columns {missing}")

    rows, states = _read_rows(text, header, None if variables is None
                              else [by_name[h].states for h in header])
    if variables is None:
        by_name = {name: Variable(name, labels) for name, labels in zip(header, states)}
    order = sorted(range(len(header)), key=header.__getitem__)
    return Dataset(tuple(by_name[header[k]] for k in order), rows[:, order])


def _read_rows(text: str, header: list[str], states: list[tuple[str, ...]] | None
               ) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The state indices of the data rows of a stripped CSV, a column per
    header name, and the states of each column: ``states`` if given, else
    the sorted distinct labels found in the column.

    Rows are held in the smallest integer type that fits, and the offsets
    are freed on return, so that little of the reader is alive when the
    dataset copies the rows.
    """
    raw = (text + "\n" + "\0" * 7).encode()   # a line end after the last row; padding for _words
    line_start, stop, short = _cell_offsets(raw, len(header))
    words = _words(raw)
    tables = None if states is None else _state_tables(states)
    largest = len(line_start) if states is None else max(map(len, states))
    rows = np.empty(stop.shape, dtype=np.min_scalar_type(-largest), order="F")
    found = []
    first_bad = None   # (row, column, stripped cell) of the first cell that is no state
    for j, name in enumerate(header):
        column, labels, bad = _read_column(
            raw, words, line_start if j == 0 else stop[:, j - 1] + 1, stop[:, j],
            None if states is None else states[j], None if tables is None else tables[j])
        rows[:, j] = column
        found.append(labels)
        if bad is not None and (first_bad is None or bad[0] < first_bad[0]):
            first_bad = (bad[0], name, bad[1])
    if first_bad is not None:
        r, name, cell = first_bad
        raise SchemaError(f"row {r + 1}, column {name!r}: invalid state {cell!r}")
    if short is not None:
        raise SchemaError(f"row {short[0]} has {short[1]} cells, expected {len(header)}")
    return rows, found


def _cell_offsets(raw: bytes, width: int
                  ) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """The offset where each data row starts in ``raw``, and where each of
    its cells stops, as a (rows, ``width``) array, over the rows before the
    first whose cell count is not ``width``; and that row's (number, cell
    count), if any.

    ``raw`` is a stripped CSV with a line end after every line. Its first
    line is the header, and blank lines are not rows. A cell stops at its
    comma or line end, and the next cell starts after it. Offsets are int32
    unless ``raw`` is too long.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    found = buf == 44
    found |= buf == 10
    offset = np.int32 if len(raw) < 2**30 else np.int64   # room for _keys' word offsets
    stop = np.empty(np.count_nonzero(found), dtype=offset)
    done = 0
    for at in range(0, len(buf), _BLOCK):   # no int64 array of every offset at once
        block = np.flatnonzero(found[at:at + _BLOCK]) + at
        stop[done:done + len(block)] = block
        done += len(block)
    ends = np.flatnonzero(buf.take(stop) == 10)   # each line's last cell
    line_start = np.zeros(len(ends), dtype=offset)
    line_start[1:] = stop[ends[:-1]] + 1
    blank = np.flatnonzero(stop[ends] == line_start)   # lines that hold one empty cell
    if blank.size:
        stop = np.delete(stop, ends[blank])
        line_start = np.delete(line_start, blank)
        ends = np.flatnonzero(buf.take(stop) == 10)
    cells = np.diff(ends)   # of each data row
    short = np.flatnonzero(cells != width)
    n = int(short[0]) if short.size else len(cells)
    return (line_start[1:n + 1], stop[width:width * (n + 1)].reshape(n, width),
            (n + 1, int(cells[n])) if short.size else None)


def _words(raw: bytes) -> np.ndarray:
    """The little-endian 8-byte word at each offset of ``raw`` but its last
    7, which are padding."""
    return np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))


def _word_count(size: np.ndarray) -> int:
    """The 8-byte words that hold the longest of strings of ``size`` bytes (at least one)."""
    return max(-(-int(size.max(initial=0)) // 8), 1)


def _keys(words: np.ndarray, start: np.ndarray, size: np.ndarray, count: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` 8-byte words of each string at ``start``, zero
    past its ``size`` bytes, as a (``count``, strings) array; and a hash of
    each string's words and size.

    Two strings of at most 8 * ``count`` bytes are equal exactly when
    their sizes and words are; the hash only finds candidates.
    """
    last = len(words) - 1
    spans = np.empty((count, len(start)), dtype=np.uint64)
    key = size.astype(np.uint64)
    for k in range(count):
        if k == 0:
            spans[k] = words[start] & _MASKS.take(np.minimum(size, 8))
        else:   # a word past the string's end reads from anywhere, and keeps nothing
            spans[k] = (words[np.minimum(start + 8 * k, last)]
                        & _MASKS.take(np.maximum(np.minimum(size - 8 * k, 8), 0)))
        key = (key * _MIX) ^ spans[k]
    return spans, key * _MIX


class _StateTable(NamedTuple):
    """The states of one column that a cell can match byte for byte, in
    hash order."""

    key: np.ndarray
    spans: np.ndarray
    size: np.ndarray
    code: np.ndarray   # the state's index


def _state_tables(columns: list[tuple[str, ...]]) -> list[_StateTable]:
    """The state table of each column's states, all of one word count.

    A state with surrounding whitespace matches no cell byte for byte, as
    a cell is stripped before it is looked up; such states are left out.
    """
    where = [(j, k) for j, states in enumerate(columns)
             for k, s in enumerate(states) if s == s.strip()]
    data = [columns[j][k].encode() for j, k in where]
    size = np.array([len(b) for b in data], dtype=np.int64)
    # 8 bytes of padding: an empty last state starts at the end of the states
    spans, key = _keys(_words(b"".join(data) + bytes(8)), np.cumsum(size) - size,
                       size, _word_count(size))
    column = np.array([j for j, _ in where], dtype=np.int64)
    code = np.array([k for _, k in where], dtype=np.int64)
    order = np.lexsort((key, column))
    key, spans, size, code = key[order], spans[:, order], size[order], code[order]
    bounds = np.searchsorted(column[order], np.arange(len(columns) + 1))
    return [_StateTable(key[a:b], spans[:, a:b], size[a:b], code[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


def _read_column(raw: bytes, words: np.ndarray, start: np.ndarray, stop: np.ndarray,
                 states: tuple[str, ...] | None, table: _StateTable | None
                 ) -> tuple[np.ndarray, tuple[str, ...] | None, tuple[int, str] | None]:
    """The state index of every cell of one column, the column's states,
    and the (row, stripped text) of its first cell that is no state.

    A cell whose bytes are a state's in ``table`` takes that state, found
    by one ``searchsorted`` of the cell hashes among the state hashes. The
    other cells (padded ones, unknown ones, or all of them without
    ``states``) are stripped and looked up once per distinct byte string.
    Without ``states``, the column's states are the sorted distinct texts.
    """
    size = stop - start
    if table is not None and len(table.key):
        spans, key = _keys(words, start, size, len(table.spans))
        at = np.searchsorted(table.key, key)
        codes = table.code.take(at, mode="clip")
        miss = np.flatnonzero((table.size.take(at, mode="clip") != size)
                              | (table.spans.take(at, axis=1, mode="clip") != spans).any(axis=0))
    else:
        codes = np.full(len(start), -1, dtype=np.int64)
        miss = np.arange(len(start))
    if not miss.size:
        return codes, states, None
    size = size[miss]
    spans, key = _keys(words, start[miss], size, _word_count(size))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    odd = np.flatnonzero((size != size[first[group]])
                         | (spans != spans[:, first[group]]).any(axis=0))   # hash collisions
    texts = [raw[start[r]:stop[r]].decode().strip() for r in miss[first]]
    odd_texts = [raw[start[r]:stop[r]].decode().strip() for r in miss[odd]]
    if states is None:
        states = tuple(sorted({*texts, *odd_texts}))
    index = {s: k for k, s in enumerate(states)}
    found = np.array([index.get(t, -1) for t in texts], dtype=np.int64)[group]
    found[odd] = [index.get(t, -1) for t in odd_texts]
    codes[miss] = found
    bad = np.flatnonzero(found < 0)
    if not bad.size:
        return codes, states, None
    r = miss[bad[0]]
    return codes, states, (int(r), raw[start[r]:stop[r]].decode().strip())


def _unwritable(text: str, columns: int) -> bool:
    """Whether ``load_dataset`` would read ``text``, a name or label in a
    CSV of ``columns`` columns, back as something else."""
    return ("," in text or text != text.strip() or "".join(text.splitlines()) != text
            or (columns == 1 and not text))   # an empty cell alone makes a blank line


def dataset_to_csv(data: Dataset | SampleBatch) -> str:
    """The CSV that ``load_dataset`` reads back as ``data``: a header of
    names and one line of state labels per row, with a ``weight`` column
    for a weighted sample batch.

    A name or label that would not read back as itself (one holding a
    comma or a line break, one with surrounding whitespace, or an empty
    one in a one-column CSV) is refused.
    """
    variables = data.variables
    for v in variables:
        what = next((f"state {s!r}" for s in v.states if _unwritable(s, len(variables))), None)
        if _unwritable(v.name, len(variables)):
            what = "name"
        if what is not None:
            raise SchemaError(
                f"variable {v.name!r}: {what} cannot be written to a dataset CSV; "
                "names and states must hold no comma or line break, no surrounding "
                "whitespace, and not be empty in a one-column CSV")
    if isinstance(data, SampleBatch):
        rows, weights = data.states, data.weights
    else:
        rows, weights = data.rows, None
    header = [v.name for v in variables] + ([] if weights is None else ["weight"])
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        cells = [v.states[s] for v, s in zip(variables, row)]
        if weights is not None:
            cells.append(f"{weights[i]:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_vector_csv(text: str) -> np.ndarray:
    """Numeric CSV (header optional) as a float matrix, for mixture models.

    Every value must be finite: a NaN or infinity is refused with its row
    and 1-based column."""
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
            values = [float(c) for c in line.split(",")]
        except ValueError as exc:
            raise SchemaError(f"row {r}: {exc}") from exc
        for c, value in enumerate(values, start=1):
            if not math.isfinite(value):
                raise SchemaError(f"row {r}, column {c}: non-finite value {value}")
        rows.append(values)
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
