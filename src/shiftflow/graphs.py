"""Finite directed multigraphs and the walks-on-them arithmetic.

Edges carry a stable integer id assigned at construction.  Ids survive
essentialization, which matters for labeled graphs layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import InvalidInput

Vertex = Hashable


class Edge(NamedTuple):
    src: Vertex
    dst: Vertex
    eid: int


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed multigraph with ordered vertices and edges."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidInput("duplicate vertices")
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise InvalidInput(f"edge {e} touches a vertex not in the graph")

    @classmethod
    def build(cls, vertices: Iterable[Vertex], arcs: Iterable[tuple[Vertex, Vertex]]) -> "DirectedGraph":
        """Make a graph from (src, dst) pairs; edge ids follow input order."""
        return cls(tuple(vertices), tuple(Edge(s, d, i) for i, (s, d) in enumerate(arcs)))

    @cached_property
    def _out(self) -> dict[Vertex, tuple[Edge, ...]]:
        """Out-edges of every vertex in edge order, built once per graph."""
        out: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    def out_edges(self, v: Vertex) -> tuple[Edge, ...]:
        return self._out.get(v, ())

    def in_edges(self, v: Vertex) -> list[Edge]:
        return [e for e in self.edges if e.dst == v]

    def essential_part(self) -> "DirectedGraph":
        """Repeatedly remove vertices with no outgoing or no incoming edge.

        Edge objects (and their ids) are kept, not renumbered, so labels
        indexed by id remain valid on the result.
        """
        vertices = list(self.vertices)
        edges = list(self.edges)
        while True:
            outs = {v: 0 for v in vertices}
            ins = {v: 0 for v in vertices}
            for e in edges:
                outs[e.src] += 1
                ins[e.dst] += 1
            keep = [v for v in vertices if outs[v] > 0 and ins[v] > 0]
            if len(keep) == len(vertices):
                return DirectedGraph(tuple(vertices), tuple(edges))
            kept = set(keep)
            vertices = keep
            edges = [e for e in edges if e.src in kept and e.dst in kept]

    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix indexed by vertex order: entry (i, j) counts i -> j edges."""
        idx = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for e in self.edges:
            m[idx[e.src]][idx[e.dst]] += 1
        return tuple(tuple(row) for row in m)

    def sparse_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Rows of `adjacency_matrix` without the zeros: row i lists the
        (j, entry) pairs with a nonzero entry, in increasing j."""
        idx = {v: i for i, v in enumerate(self.vertices)}
        rows = []
        for v in self.vertices:
            row: dict[int, int] = {}
            for e in self._out[v]:
                j = idx[e.dst]
                row[j] = row.get(j, 0) + 1
            rows.append(tuple(sorted(row.items())))
        return tuple(rows)

    def strongly_connected_components(self) -> list["DirectedGraph"]:
        """SCC subgraphs that contain at least one edge, as separate graphs.

        Iterative Tarjan; component order is deterministic given vertex order.
        """
        index: dict[Vertex, int] = {}
        low: dict[Vertex, int] = {}
        on_stack: dict[Vertex, bool] = {}
        stack: list[Vertex] = []
        components: list[list[Vertex]] = []
        counter = 0
        succ = self._out

        for root in self.vertices:
            if root in index:
                continue
            work = [(root, iter(succ[root]))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                v, it = work[-1]
                advanced = False
                for e in it:
                    w = e.dst
                    if w not in index:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(succ[w])))
                        advanced = True
                        break
                    elif on_stack.get(w, False):
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)

        comp_of = {v: c for c, comp in enumerate(components) for v in comp}
        comp_edges: list[list[Edge]] = [[] for _ in components]
        for e in self.edges:
            if comp_of[e.src] == comp_of[e.dst]:
                comp_edges[comp_of[e.src]].append(e)
        out: list[DirectedGraph] = []
        order = {v: i for i, v in enumerate(self.vertices)}
        for comp, edges in zip(components, comp_edges):
            if not edges:
                continue
            comp_sorted = tuple(sorted(comp, key=order.__getitem__))
            out.append(DirectedGraph(comp_sorted, tuple(edges)))
        out.sort(key=lambda g: order[g.vertices[0]])
        return out

    def is_strongly_connected(self) -> bool:
        if not self.vertices:
            return False
        comps = self.strongly_connected_components()
        return len(comps) == 1 and len(comps[0].vertices) == len(self.vertices)


def essentialize(graph: DirectedGraph) -> DirectedGraph:
    """Largest subgraph where every vertex has an edge in and an edge out."""
    return graph.essential_part()


def scc_decompose(graph: DirectedGraph) -> list[DirectedGraph]:
    """Strongly connected subgraphs containing at least one edge."""
    return graph.strongly_connected_components()


def from_adjacency(matrix: Sequence[Sequence[int]]) -> DirectedGraph:
    """Graph on vertices 0..n-1 with matrix[i][j] parallel edges i -> j."""
    n = len(matrix)
    arcs: list[tuple[int, int]] = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise InvalidInput("adjacency matrix must be square")
        for j, k in enumerate(row):
            if not isinstance(k, int) or k < 0:
                raise InvalidInput(f"entry ({i}, {j}) must be a nonnegative integer")
            arcs.extend((i, j) for _ in range(k))
    return DirectedGraph.build(range(n), arcs)


def path_count(graph: DirectedGraph, length: int) -> int:
    """Number of directed paths with `length` edges, exactly.

    Computed as ones^T A^k ones by repeated matrix-vector products with
    Python integers, so no overflow and no cubing of the matrix.
    """
    if length < 0:
        raise InvalidInput("path length must be nonnegative")
    n = len(graph.vertices)
    if n == 0:
        return 0
    rows = graph.sparse_adjacency()
    vec = [1] * n
    for _ in range(length):
        vec = [sum(k * vec[j] for j, k in row) for row in rows]
    return sum(vec)
