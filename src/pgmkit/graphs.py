"""Directed and undirected graphs plus the structural transformations used
by inference and learning: moralization, triangulation, maximal cliques,
d-separation, the Markov blanket, spanning trees, and Markov-equivalence
signatures.

All outputs are deterministic: ties are broken by node-name order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import NotADagError, OrderingError, ScopeError


class DirectedGraph:
    """An immutable directed graph over named nodes.

    Acyclicity is not assumed at construction; call :meth:`validate_dag`
    or :func:`topological_sort` to check it.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = tuple(sorted(set(nodes)))
        node_set = set(self._nodes)
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown node")
            seen.add((u, v))
        self._edges = tuple(sorted(seen))
        parents: dict[str, list[str]] = {n: [] for n in self._nodes}
        children: dict[str, list[str]] = {n: [] for n in self._nodes}
        for u, v in self._edges:   # sorted edges give sorted lists
            parents[v].append(u)
            children[u].append(v)
        self._parents = {n: tuple(ps) for n, ps in parents.items()}
        self._children = {n: tuple(cs) for n, cs in children.items()}

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._children.get(u, ())

    def parents(self, v: str) -> tuple[str, ...]:
        self._check(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self._check(v)
        return self._children[v]

    def spouses(self, v: str) -> tuple[str, ...]:
        """Other parents of v's children, as a set (each spouse once)."""
        self._check(v)
        out = set()
        for c in self._children[v]:
            out.update(self._parents[c])
        out.discard(v)
        return tuple(sorted(out))

    def ancestors(self, v: str) -> set[str]:
        self._check(v)
        out, stack = set(), list(self._parents[v])
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(self._parents[u])
        return out

    def descendants(self, v: str) -> set[str]:
        self._check(v)
        out, stack = set(), list(self._children[v])
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(self._children[u])
        return out

    def adjacent(self, u: str, v: str) -> bool:
        return self.has_edge(u, v) or self.has_edge(v, u)

    def skeleton(self) -> "UndirectedGraph":
        return UndirectedGraph(self._nodes, self._edges)

    def validate_dag(self) -> None:
        topological_sort(self)

    def with_edge(self, u: str, v: str) -> "DirectedGraph":
        return DirectedGraph(self._nodes, self._edges + ((u, v),))

    def without_edge(self, u: str, v: str) -> "DirectedGraph":
        return DirectedGraph(self._nodes, tuple(e for e in self._edges if e != (u, v)))

    def reversed_edge(self, u: str, v: str) -> "DirectedGraph":
        edges = tuple(e for e in self._edges if e != (u, v)) + ((v, u),)
        return DirectedGraph(self._nodes, edges)

    def _check(self, v: str) -> None:
        if v not in self._parents:
            raise ScopeError(f"unknown node {v!r}")

    def __eq__(self, other):
        return (
            isinstance(other, DirectedGraph)
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._nodes, self._edges))

    def __repr__(self):
        return f"DirectedGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"

    def to_dot(self) -> str:
        lines = ["digraph G {"]
        for n in self._nodes:
            lines.append(f'  "{n}";')
        for u, v in self._edges:
            lines.append(f'  "{u}" -> "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


class UndirectedGraph:
    """An immutable undirected graph; edges are stored as sorted pairs."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = tuple(sorted(set(nodes)))
        node_set = set(self._nodes)
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown node")
            seen.add((min(u, v), max(u, v)))
        self._edges = tuple(sorted(seen))
        self._adj = {n: set() for n in self._nodes}
        for u, v in self._edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self._adj:
            raise ScopeError(f"unknown node {v!r}")
        return tuple(sorted(self._adj[v]))

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def is_clique(self, nodes: Sequence[str]) -> bool:
        nodes = list(nodes)
        return all(
            self.has_edge(nodes[i], nodes[j])
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        )

    def connected_components(self) -> list[tuple[str, ...]]:
        out, seen = [], set()
        for start in self._nodes:
            if start in seen:
                continue
            comp, stack = set(), [start]
            while stack:
                u = stack.pop()
                if u not in comp:
                    comp.add(u)
                    stack.extend(self._adj[u] - comp)
            seen |= comp
            out.append(tuple(sorted(comp)))
        return out

    def is_tree(self) -> bool:
        return (
            len(self._edges) == len(self._nodes) - 1
            and len(self.connected_components()) == 1
        )

    def __eq__(self, other):
        return (
            isinstance(other, UndirectedGraph)
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._nodes, self._edges))

    def __repr__(self):
        return f"UndirectedGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for n in self._nodes:
            lines.append(f'  "{n}";')
        for u, v in self._edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MecSignature:
    """Skeleton plus v-structures; two DAGs are Markov equivalent iff these match."""

    skeleton: UndirectedGraph
    v_structures: frozenset[tuple[str, str, str]]  # (low parent, collider, high parent)


def topological_sort(g: DirectedGraph) -> tuple[str, ...]:
    """Kahn's algorithm with name-ordered tie-breaking.

    Raises NotADagError (carrying one cycle) if the graph is cyclic.
    """
    indeg = {n: len(g.parents(n)) for n in g.nodes}
    ready = sorted([n for n, d in indeg.items() if d == 0], reverse=True)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        changed = False
        for c in g.children(n):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
                changed = True
        if changed:
            ready.sort(reverse=True)
    if len(order) != len(g.nodes):
        cycle = _find_cycle(g, [n for n, d in indeg.items() if d > 0])
        raise NotADagError(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)
    return tuple(order)


def _find_cycle(g: DirectedGraph, remaining: Sequence[str]) -> list[str]:
    # Every node left over by Kahn's algorithm has a leftover parent, so
    # walking parents must revisit a node, closing a cycle.
    remaining = set(remaining)
    node = min(remaining)
    path, seen = [node], {node}
    while True:
        node = min(p for p in g.parents(node) if p in remaining)
        if node in seen:
            cycle = path[path.index(node):] + [node]
            return cycle[::-1]
        path.append(node)
        seen.add(node)


def is_dag(g: DirectedGraph) -> bool:
    try:
        topological_sort(g)
        return True
    except NotADagError:
        return False


def moralize(g: DirectedGraph) -> UndirectedGraph:
    """Skeleton plus an edge for each pair of parents sharing a child."""
    g.validate_dag()
    edges = list(g.edges)
    for child in g.nodes:
        ps = g.parents(child)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.append((ps[i], ps[j]))
    return UndirectedGraph(g.nodes, edges)


def triangulate(
    g: UndirectedGraph, ordering: Sequence[str]
) -> tuple[UndirectedGraph, list[frozenset[str]]]:
    """Chordalize by simulated elimination along the ordering.

    Returns the filled graph and, per eliminated node, its elimination
    clique: the node together with its not-yet-eliminated neighbors at
    elimination time.
    """
    if sorted(ordering) != list(g.nodes):
        raise OrderingError("ordering must be a permutation of the graph's nodes")
    adj = {n: set(g.neighbors(n)) for n in g.nodes}
    fill: list[tuple[str, str]] = []
    cliques: list[frozenset[str]] = []
    for node in ordering:
        nbrs = sorted(adj[node])
        cliques.append(frozenset([node, *nbrs]))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, v = nbrs[i], nbrs[j]
                if v not in adj[u]:
                    adj[u].add(v)
                    adj[v].add(u)
                    fill.append((u, v))
        for nb in nbrs:
            adj[nb].discard(node)
        adj[node] = set()
    return UndirectedGraph(g.nodes, list(g.edges) + fill), cliques


def max_cliques(
    chordal: UndirectedGraph, elim_cliques: Sequence[frozenset[str]]
) -> list[frozenset[str]]:
    """Maximal cliques of a chordal graph, from its elimination cliques.

    Candidates are taken largest first, and one is kept unless a kept
    clique strictly contains it. Such a clique holds every variable of the
    candidate, so only the kept cliques holding one of its variables are
    compared.
    """
    for c in elim_cliques:
        if not chordal.is_clique(sorted(c)):
            raise ValueError(f"elimination set {sorted(c)} is not a clique")
    out: list[frozenset[str]] = []
    holding: dict[str, list[frozenset[str]]] = {}
    for c in sorted(set(elim_cliques), key=lambda s: (-len(s), tuple(sorted(s)))):
        pool = holding.get(next(iter(c)), ()) if c else out
        if not any(c < kept for kept in pool):
            out.append(c)
            for v in c:
                holding.setdefault(v, []).append(c)
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


def d_separated(
    g: DirectedGraph, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()
) -> bool:
    """True iff every undirected path between xs and ys is blocked given zs.

    Implemented as reachability over (node, direction) states rather than
    path enumeration, using the ancestors of the conditioning set to decide
    which colliders are active.
    """
    xs, ys, zs = set(xs), set(ys), set(zs)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be disjoint")
    for n in xs | ys | zs:
        if n not in g.nodes:
            raise ScopeError(f"unknown node {n!r}")
    z_anc = set(zs)
    for z in zs:
        z_anc |= g.ancestors(z)
    # direction "up" ~ arriving at the node from one of its children,
    # "down" ~ arriving from one of its parents.
    start = [(x, "up") for x in xs]
    visited = set()
    while start:
        node, direction = start.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node in ys:
            return False
        if direction == "up":
            if node not in zs:
                start.extend((p, "up") for p in g.parents(node))
                start.extend((c, "down") for c in g.children(node))
        else:
            if node not in zs:
                start.extend((c, "down") for c in g.children(node))
            if node in z_anc:  # collider with self or a descendant observed
                start.extend((p, "up") for p in g.parents(node))
    return True


def d_separated_by_paths(
    g: DirectedGraph, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()
) -> bool:
    """Path-enumeration oracle for d-separation (exponential; tests only)."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be disjoint")
    edge_set = set(g.edges)
    skeleton = {n: set(g.skeleton().neighbors(n)) for n in g.nodes}
    z_anc = set(zs)
    for z in zs:
        z_anc |= g.ancestors(z)

    def path_active(path: list[str]) -> bool:
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            is_collider = (prev, node) in edge_set and (nxt, node) in edge_set
            if is_collider:
                if node not in z_anc:
                    return False
            else:
                if node in zs:
                    return False
        return True

    def extend(path: list[str]) -> bool:
        node = path[-1]
        if node in ys:
            return path_active(path)
        for nb in sorted(skeleton[node]):
            if nb not in path:
                if extend(path + [nb]):
                    return True
        return False

    return not any(extend([x]) for x in sorted(xs))


def markov_blanket(g, v: str, mode: str | None = None) -> set[str]:
    """Parents + children + spouses in a DAG; neighbors in an undirected graph."""
    if mode is None:
        mode = "directed" if isinstance(g, DirectedGraph) else "undirected"
    if mode == "directed":
        return set(g.parents(v)) | set(g.children(v)) | set(g.spouses(v))
    if mode == "undirected":
        return set(g.neighbors(v))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SpanningTreeResult:
    tree: UndirectedGraph
    weight: float
    connected: bool


def max_weight_spanning_tree(
    g: UndirectedGraph, weights: Mapping[tuple[str, str], float]
) -> SpanningTreeResult:
    """Kruskal's algorithm, maximizing total weight.

    Edge weights are looked up under either key order. Ties are broken by
    lexicographic edge order so the result is reproducible. A disconnected
    input yields a per-component forest with ``connected=False``.
    """

    def weight_of(e):
        u, v = e
        if (u, v) in weights:
            return float(weights[(u, v)])
        if (v, u) in weights:
            return float(weights[(v, u)])
        raise KeyError(f"no weight for edge {e}")

    parent = {n: n for n in g.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen, total = [], 0.0
    ranked = sorted(g.edges, key=lambda e: (-weight_of(e), e))
    for e in ranked:
        ru, rv = find(e[0]), find(e[1])
        if ru != rv:
            parent[ru] = rv
            chosen.append(e)
            total += weight_of(e)
    tree = UndirectedGraph(g.nodes, chosen)
    connected = len(chosen) == len(g.nodes) - 1
    return SpanningTreeResult(tree, total, connected)


def v_structures(g: DirectedGraph) -> frozenset[tuple[str, str, str]]:
    out = set()
    for c in g.nodes:
        ps = g.parents(c)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                a, b = ps[i], ps[j]
                if not g.adjacent(a, b):
                    out.add((a, c, b))
    return frozenset(out)


def mec_signature(g: DirectedGraph) -> MecSignature:
    g.validate_dag()
    return MecSignature(g.skeleton(), v_structures(g))


def mec_equivalent(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    s1, s2 = mec_signature(g1), mec_signature(g2)
    return s1.skeleton == s2.skeleton and s1.v_structures == s2.v_structures


def induced_width(g: UndirectedGraph, ordering: Sequence[str]) -> int:
    """Size minus one of the largest elimination clique under the ordering."""
    _, cliques = triangulate(g, ordering)
    return max(len(c) for c in cliques) - 1 if cliques else 0
