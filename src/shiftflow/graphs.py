"""Finite directed multigraphs and the walks-on-them arithmetic.

Edges carry a stable integer id assigned at construction.  Ids survive
essentialization, which matters for labeled graphs layered on top.
Automata, of the edge shift and of presentations, are lists of
`{label: next index}` rows, read by `_index_rows`, `_trim` and `_restrict`.
Every path count is one kernel, `_walks`, over the flat `_gather` form
of index rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import itemgetter, mul
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

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
        index = self._index
        if len(index) != len(self.vertices):
            raise InvalidInput("duplicate vertices")
        for e in self.edges:
            if e.src not in index or e.dst not in index:
                raise InvalidInput(f"edge {e} touches a vertex not in the graph")

    @classmethod
    def build(cls, vertices: Iterable[Vertex], arcs: Iterable[tuple[Vertex, Vertex]]) -> "DirectedGraph":
        """Make a graph from (src, dst) pairs; edge ids follow input order."""
        # Tuples on hot paths are built from lists, for the reason given
        # in `invariants.as_matrix`.
        return cls(tuple(vertices), tuple([Edge(s, d, i) for i, (s, d) in enumerate(arcs)]))

    @cached_property
    def _index(self) -> dict[Vertex, int]:
        """Each vertex's position, built once per graph."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _ends(self) -> tuple[list[int], list[int]]:
        """The source and the target index of every edge, in edge order,
        built once per graph."""
        index = self._index
        return [index[e.src] for e in self.edges], [index[e.dst] for e in self.edges]

    @cached_property
    def _out(self) -> dict[Vertex, tuple[Edge, ...]]:
        """Out-edges of every vertex in edge order, built once per graph."""
        out: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    def out_edges(self, v: Vertex) -> tuple[Edge, ...]:
        return self._out.get(v, ())

    def essential_part(self) -> "DirectedGraph":
        """Largest subgraph where every vertex has an edge in and an edge
        out, by the one queue trim `_essential`; the graph itself when
        nothing drops.

        Edge objects (and their ids) are kept, not renumbered, so labels
        indexed by id remain valid on the result.
        """
        src, dst = self._ends
        keep = _essential(len(self.vertices), src, dst)
        if len(keep) == len(self.vertices):
            return self
        kept = set(keep)
        edges = [e for e, s, d in zip(self.edges, src, dst) if s in kept and d in kept]
        return DirectedGraph(tuple([self.vertices[i] for i in keep]), tuple(edges))

    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix indexed by vertex order: entry (i, j) counts i -> j edges."""
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for s, d in zip(*self._ends):
            m[s][d] += 1
        return tuple([tuple(row) for row in m])

    def sparse_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Rows of `adjacency_matrix` without the zeros: row i lists the
        (j, entry) pairs with a nonzero entry, in increasing j."""
        return self._rows

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`sparse_adjacency`, built once per graph."""
        rows: list[dict[int, int]] = [{} for _ in self.vertices]
        for s, d in zip(*self._ends):
            rows[s][d] = rows[s].get(d, 0) + 1
        return tuple([tuple(sorted(row.items())) for row in rows])

    def strongly_connected_components(self) -> list["DirectedGraph"]:
        """SCC subgraphs that contain at least one edge, as separate graphs,
        in the order of their first vertex; edges keep their ids and order."""
        comps = _components(self.sparse_adjacency())
        comp_of = [-1] * len(self.vertices)
        for c, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = c
        comp_edges: list[list[Edge]] = [[] for _ in comps]
        for e, s, d in zip(self.edges, *self._ends):
            c = comp_of[s]
            if c >= 0 and c == comp_of[d]:
                comp_edges[c].append(e)
        return [
            DirectedGraph(tuple([self.vertices[i] for i in comp]), tuple(edges))
            for comp, edges in zip(comps, comp_edges)
        ]

    def is_strongly_connected(self) -> bool:
        return _strongly_connected(self.sparse_adjacency())


def essentialize(graph: DirectedGraph) -> DirectedGraph:
    """Largest subgraph where every vertex has an edge in and an edge out
    (`DirectedGraph.essential_part`)."""
    return graph.essential_part()


def scc_decompose(graph: DirectedGraph) -> list[DirectedGraph]:
    """Strongly connected subgraphs containing at least one edge."""
    return graph.strongly_connected_components()


def _adjacency_rows(matrix: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Rows of a square matrix of nonnegative integers as the (j, entry)
    pairs with a nonzero entry, in increasing j: the index rows that
    `DirectedGraph.sparse_adjacency` gives for `from_adjacency(matrix)`."""
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise InvalidInput("adjacency matrix must be square")
        for j, k in enumerate(row):
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise InvalidInput(f"entry ({i}, {j}) must be a nonnegative integer")
        rows.append([(j, k) for j, k in enumerate(row) if k])
    return rows


def _components(rows: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """Strongly connected components that contain at least one edge, of
    the graph with these index rows: each one its indices in increasing
    order, the components in the order of their least index.

    Iterative Tarjan on list indices.
    """
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(rows[root]))]
        while work:
            v, it = work[-1]
            for w, _ in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
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
                    if len(comp) > 1 or any(j == v for j, _ in rows[v]):
                        components.append(sorted(comp))
    components.sort()
    return components


def _strongly_connected(rows: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """Whether the graph with these index rows is one strongly connected
    component holding every index; the empty graph is not."""
    comps = _components(rows)
    return len(comps) == 1 and len(comps[0]) == len(rows)


def _essential(n: int, src: Sequence[int], dst: Sequence[int]) -> list[int]:
    """Indices of the largest subgraph where every vertex has an edge in
    and an edge out, in increasing order, for the graph on vertices
    0..n-1 with an edge src[k] -> dst[k] for each k.

    A queue trim in O(V + E): unless every vertex is a source and a
    target already, degrees are counted once, and each vertex that drops
    decrements its neighbours' degrees, listing those that reach 0.
    Which order vertices drop in does not change what is left.
    """
    if len(set(src)) == n and len(set(dst)) == n:
        return list(range(n))
    outs = [0] * n
    ins = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(src, dst):
        outs[s] += 1
        ins[d] += 1
        succ[s].append(d)
        preds[d].append(s)
    alive = [bool(k and ins[i]) for i, k in enumerate(outs)]
    dead = [i for i, a in enumerate(alive) if not a]
    while dead:
        i = dead.pop()
        for j in succ[i]:
            ins[j] -= 1
            if not ins[j] and alive[j]:
                alive[j] = False
                dead.append(j)
        for j in preds[i]:
            outs[j] -= 1
            if not outs[j] and alive[j]:
                alive[j] = False
                dead.append(j)
    return [i for i, a in enumerate(alive) if a]


def _index_rows(delta: list[dict[str, int]]) -> list[tuple[tuple[int, int], ...]]:
    """Index rows of an automaton: per state the (next, number of labels
    leading there) pairs in increasing next, the `sparse_adjacency` of the
    automaton built as a graph."""
    rows = []
    for row in delta:
        counts: dict[int, int] = {}
        for t in row.values():
            counts[t] = counts.get(t, 0) + 1
        rows.append(tuple(sorted(counts.items())))
    return rows


def _trim(delta: list[dict[str, int]]) -> list[int]:
    """The states of the automaton's essential part, in increasing order."""
    src = [i for i, row in enumerate(delta) for _ in row]
    return _essential(len(delta), src, [t for row in delta for t in row.values()])


def _restrict(delta: list[dict[str, int]], keep: list[int]) -> list[dict[str, int]]:
    """The automaton on the states `keep`, renumbered in order, without moves that leave them."""
    at = {i: k for k, i in enumerate(keep)}
    return [{a: at[t] for a, t in delta[i].items() if t in at} for i in keep]


class _Gather(NamedTuple):
    """Index rows in the flat form `_walks` reads: `terms` gathers the
    entry of every row term's column from a vector, row after row, into
    one tuple; `ks` are the terms' multiplicities, None when all are 1;
    `cut` cuts such a tuple into one slice per row; `size` counts the rows."""

    terms: Callable[[Sequence[int]], tuple[int, ...]]
    ks: tuple[int, ...] | None
    cut: Callable[[tuple[int, ...]], tuple[tuple[int, ...], ...]]
    size: int


def _getter(items: tuple) -> Callable[[Sequence], tuple]:
    """`itemgetter(*items)`, which returns the tuple of those items of a
    sequence, except that for one item it returns the item itself and for
    none it raises; this returns a tuple for those too."""
    if len(items) > 1:
        return itemgetter(*items)
    if items:
        key = items[0]
        return lambda seq: (seq[key],)
    return lambda seq: ()


def _gather(rows: Sequence[Sequence[tuple[int, int]]]) -> _Gather:
    """The `_Gather` form of these index rows, built in a few passes."""
    cols = tuple([j for row in rows for j, _ in row])
    ks = tuple([k for row in rows for _, k in row])
    ends = list(accumulate(map(len, rows), initial=0))
    cut = tuple(map(slice, ends, ends[1:]))
    return _Gather(_getter(cols), None if ks.count(1) == len(ks) else ks, _getter(cut), len(rows))


def _walks(form: _Gather) -> Iterator[list[int]]:
    """A^k 1 for k = 0, 1, 2, ..., A the matrix of the index rows that
    `form` was built from: entry i counts the paths of k edges that start
    at index i.

    Repeated matrix-vector products with Python integers, so no overflow
    and no powers of the matrix.  Each is a few C-level passes: one gather
    of every term's entry of the last vector, times the multiplicities
    unless all are 1, one cut of those into rows, and per row a `sum`,
    which adds the row's terms in row order.
    """
    terms, ks, cut, size = form
    vec = [1] * size
    while True:
        yield vec
        t = terms(vec)
        if ks is not None:
            t = tuple(map(mul, ks, t))
        vec = list(map(sum, cut(t)))


def from_adjacency(matrix: Sequence[Sequence[int]]) -> DirectedGraph:
    """Graph on vertices 0..n-1 with matrix[i][j] parallel edges i -> j."""
    rows = _adjacency_rows(matrix)
    arcs = [(i, j) for i, row in enumerate(rows) for j, k in row for _ in range(k)]
    return DirectedGraph.build(range(len(rows)), arcs)


def path_count(graph: DirectedGraph, length: int) -> int:
    """Number of directed paths with `length` edges, exactly."""
    if length < 0:
        raise InvalidInput("path length must be nonnegative")
    return sum(next(islice(_walks(_gather(graph.sparse_adjacency())), length, None)))
