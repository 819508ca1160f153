"""Labeled graph presentations of sofic shifts.

Labels live in a tuple indexed by edge id, so pruning a graph never
detaches an edge from its label.  Right-resolving means out-edges at
each vertex carry distinct labels.

Every algorithm reads a labeled graph by vertex index, through its rows
of (label, target index) pairs, and automata are `{label: next index}`
rows, one dict per state, read with the helpers in `graphs`.  Vertex
names appear only at the public boundary, and only what a public
function returns is built as a `LabeledGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Sequence

from .errors import InvalidInput, PreconditionError
from .graphs import DirectedGraph, Edge, Vertex, _components, _essential, _gather, _index_rows, _restrict, _trim, _walks
from .sft import ForbiddenSetSFT, _edge_graph, _unambiguous_word
from .words import EMPTY_WORD, Word, _word


@dataclass(frozen=True)
class LabeledGraph:
    graph: DirectedGraph
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for e in self.graph.edges:
            if e.eid >= len(self.labels):
                raise InvalidInput(f"edge {e} has no label entry")
            if not isinstance(self.labels[e.eid], str) or not self.labels[e.eid]:
                raise InvalidInput(f"edge {e} carries a bad label")

    @cached_property
    def _rows(self) -> list[list[tuple[str, int]]]:
        """Per vertex index the (label, target index) of each out-edge, in
        edge order, built once per graph."""
        rows: list[list[tuple[str, int]]] = [[] for _ in self.graph.vertices]
        for e, s, d in zip(self.graph.edges, *self.graph._ends):
            rows[s].append((self.labels[e.eid], d))
        return rows

    def label(self, e: Edge) -> str:
        return self.labels[e.eid]

    def label_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({self.labels[e.eid] for e in self.graph.edges}))

    def essential_part(self) -> "LabeledGraph":
        """`DirectedGraph.essential_part` with the labels; the labeled
        graph itself when nothing drops."""
        graph = self.graph.essential_part()
        return self if graph is self.graph else LabeledGraph(graph, self.labels)

    def out_labeled(self, v: Vertex) -> list[tuple[str, Vertex]]:
        i = self.graph._index.get(v)
        return [] if i is None else [(a, self.graph.vertices[t]) for a, t in self._rows[i]]


def labeled_graph(vertices, arcs) -> LabeledGraph:
    """Build from (src, dst, label) triples."""
    triples = list(arcs)
    g = DirectedGraph.build(vertices, [(s, d) for s, d, _ in triples])
    return LabeledGraph(g, tuple([lab for _, _, lab in triples]))


def sft_presentation(x: ForbiddenSetSFT) -> LabeledGraph:
    """Right-resolving presentation of an SFT: the edge-shift graph with
    each edge labeled by the last symbol of its word."""
    graph, words = _edge_graph(x)
    return LabeledGraph(graph, tuple([w[-1] for w in words]))


def is_right_resolving(lg: LabeledGraph) -> bool:
    return all(len(row) == len({a for a, _ in row}) for row in lg._rows)


def _essential_rows(lg: LabeledGraph) -> list[list[tuple[str, int]]]:
    """The rows of `lg`'s essential part, trimmed by `_essential` on the
    edge ends and renumbered in vertex order; `lg`'s own rows when
    nothing drops."""
    rows = lg._rows
    keep = _essential(len(rows), *lg.graph._ends)
    if len(keep) == len(rows):
        return rows
    at = {i: k for k, i in enumerate(keep)}
    return [[(a, at[t]) for a, t in rows[i] if t in at] for i in keep]


def _subset_automaton(
    rows: Sequence[Iterable[tuple[str, int]]], include_singletons: bool = False
) -> tuple[list[frozenset[int]], list[dict[str, int]]]:
    """Deterministic automaton of subsets reachable from the full index
    set, for rows of (label, target index) pairs.

    States are indices in breadth-first order from state 0, the full set;
    rows list labels in order.  `states[i]` is a state's set of indices.
    Words readable along the rows correspond exactly to paths from state
    0; with no rows, state 0 is the empty set and reads nothing.  With
    `include_singletons` every one-index subset is seeded too.
    """
    seeds = [frozenset(range(len(rows)))]
    if include_singletons:
        seeds += [frozenset([i]) for i in range(len(rows))]
    index = {s: i for i, s in enumerate(dict.fromkeys(seeds))}
    states = list(index)
    delta: list[dict[str, int]] = []
    for s in states:
        follow: dict[str, set[int]] = {}
        for i in s:
            for a, t in rows[i]:
                follow.setdefault(a, set()).add(t)
        row = {}
        for a in sorted(follow):
            nxt = frozenset(follow[a])
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row[a] = index[nxt]
        delta.append(row)
    return states, delta


def determinize(lg: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same sofic shift, essential part.

    Subsets are seeded from the full vertex set and from every singleton,
    so reachable one-vertex follower states show up even when the full
    seed never narrows down to them.  The automaton is trimmed on its
    rows, and the one graph built holds only the survivors, with the
    vertices, edges and ids of the whole automaton's essential part.
    """
    vertices = lg.graph.vertices
    if not vertices:
        raise PreconditionError("empty presentation")
    states, delta = _subset_automaton(lg._rows, include_singletons=True)
    names = {i: tuple([vertices[j] for j in sorted(states[i])]) for i in _trim(delta)}
    edges = []
    labels = []
    # Ids count every arc, so they are those of the whole automaton's graph.
    for i, row in enumerate(delta):
        for a, t in row.items():
            if i in names and t in names:
                edges.append(Edge(names[i], names[t], len(labels)))
            labels.append(a)
    return LabeledGraph(DirectedGraph(tuple(names.values()), tuple(edges)), tuple(labels))


def _moore_classes(delta: list[dict[str, int]]) -> list[int]:
    """Coarsest partition where states agree on label -> class of target,
    classes numbered by their least state.  Rows list labels in order;
    absent labels distinguish states on their own, since they vanish from
    the signature."""
    classes = [0] * len(delta)
    while True:
        renumber: dict[tuple, int] = {}
        new = [
            renumber.setdefault((classes[i], tuple([(a, classes[t]) for a, t in row.items()])), len(renumber))
            for i, row in enumerate(delta)
        ]
        if new == classes:
            return classes
        classes = new


def _sofic_word_counts(lg: LabeledGraph, upto: int) -> list[int]:
    """|B_n| for n = 1 .. upto: paths of length n from the seed of the
    subset automaton of the essential part, the seed's entry of A^n 1.

    Counting must run on the essential part: a label path that dead-ends
    is readable but belongs to no point.
    """
    _, delta = _subset_automaton(_essential_rows(lg))
    return [vec[0] for vec in islice(_walks(_gather(_index_rows(delta))), 1, upto + 1)]


def _pair_walk(first: list[dict[str, int]], second: list[dict[str, int]], start: tuple[int, int]) -> Word | None:
    """The shortest word, least in label order, readable from exactly one
    side of a pair: state start[0] of `first` and state start[1] of
    `second`, two deterministic automata whose rows list labels in order.
    None when both sides read the same words.

    A breadth-first walk over the pairs of states the words reach, each
    pair first reached along its least word; the first pair whose rows
    offer different labels ends it with the least of those labels.
    """
    parent: dict[tuple[int, int], tuple | None] = {start: None}
    queue = [start]
    for pair in queue:
        here, there = first[pair[0]], second[pair[1]]
        if here.keys() != there.keys():
            word = [min(here.keys() ^ there.keys())]
            while parent[pair] is not None:
                pair, a = parent[pair]
                word.append(a)
            return _word(reversed(word))
        for a, t in here.items():
            nxt = (t, there[a])
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return None


def _same_shift(first: list[dict[str, int]], second: list[dict[str, int]]) -> bool:
    """Whether two subset automata, each seeded with the full set of an
    essential presentation, present the same shift: every state accepts,
    so the languages are equal iff the pair walk from the two seeds finds
    no word that only one side reads."""
    return _pair_walk(first, second, (0, 0)) is None


def minimal_right_resolving(lg: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Determinize the input's essential part from its full vertex set, keep
    the essential states, merge states with equal follower sets, then keep
    the unique sink component, the one no edge leaves, all on index rows.
    Vertices and edges on no bi-infinite path never reach the automaton,
    so they do not change the result.  Its language is contained in the
    input's; `_same_shift` certifies equality, reading the determinization
    as the input's automaton and the result's straight from the sink's
    rows (strongly connected, so essential).  Inputs presenting a
    reducible shift are rejected.  The result is the one graph built.
    """
    if not lg.graph.vertices:
        raise PreconditionError("empty presentation")
    rows = _essential_rows(lg)
    if not rows:
        raise PreconditionError("presentation has no bi-infinite points")
    _, det = _subset_automaton(rows)
    delta = _restrict(det, _trim(det))
    classes = _moore_classes(delta)
    first = dict(zip(reversed(classes), reversed(range(len(classes)))))  # each class's least state
    merged = [{a: classes[t] for a, t in delta[first[c]].items()} for c in range(len(first))]
    comps = _components(_index_rows(merged))
    sinks = [comp for comp in comps if set(comp).issuperset(t for i in comp for t in merged[i].values())]
    if len(sinks) == 1:
        sink = _restrict(merged, sinks[0])
        if _same_shift(det, _subset_automaton([row.items() for row in sink])[1]):
            arcs = [(str(i), str(t), a) for i, row in enumerate(sink) for a, t in row.items()]
            return labeled_graph([str(i) for i in range(len(sink))], arcs)
    raise PreconditionError(
        "presentation is not an irreducible sofic shift; "
        "minimize each strongly connected component separately"
    )


def follower_table(lg: LabeledGraph, depth: int) -> dict[Vertex, frozenset[Word]]:
    """Words of length <= depth readable from each vertex."""
    table = [{EMPTY_WORD} for _ in lg._rows]
    layer = [{EMPTY_WORD} for _ in lg._rows]
    for _ in range(depth):
        layer = [{Word([a]) + w for a, t in row for w in layer[t]} for row in lg._rows]
        for words, new in zip(table, layer):
            words |= new
    return {v: frozenset(ws) for v, ws in zip(lg.graph.vertices, table)}


def _follow(rows: list[list[tuple[str, int]]], focus: Iterable[int], word: Word) -> set[int]:
    """The ends of the paths labeled `word` that start at an index in `focus`."""
    for a in word:
        focus = {t for i in focus for b, t in rows[i] if b == a}
    return set(focus)


def focus_set(lg: LabeledGraph, word: Word | str) -> frozenset:
    """Terminal vertices of paths labeled by the word, from any start.

    Raises when no path presents the word.  A plain string is refused
    when a label has more than one character.
    """
    w = _unambiguous_word(word, lg.label_alphabet())
    current = _follow(lg._rows, range(len(lg._rows)), w)
    if not current:
        raise PreconditionError(f"{w!r} is not readable in the presentation")
    return frozenset([lg.graph.vertices[i] for i in current])


def _separating_word(rows: list[dict[str, int]], focus: Iterable[int]) -> Word | None:
    """Shortest word killing exactly one of a tracked pair of threads: the
    pair walk on right-resolving rows, `{label: next index}` in label
    order, from each pair of focus indices in increasing order; label
    order breaks ties, so the answer is reproducible."""
    for start in combinations(sorted(focus), 2):
        z = _pair_walk(rows, rows, start)
        if z is not None:
            return z
    return None


def extend_to_synchronizing(lg: LabeledGraph, word: Word | str) -> Word:
    """Extend a language word until its focus set is a single vertex.

    Requires a right-resolving presentation; each appended block kills
    at least one surviving thread, so the loop terminates.  The focus
    set of the longer word is the current one followed along the block.
    """
    if not is_right_resolving(lg):
        raise PreconditionError("presentation must be right-resolving")
    w = _unambiguous_word(word, lg.label_alphabet())
    focus = {lg.graph._index[v] for v in focus_set(lg, w)}
    rows = [dict(sorted(row)) for row in lg._rows]
    while len(focus) > 1:
        z = _separating_word(rows, focus)
        if z is None:
            raise PreconditionError("focus threads cannot be separated; presentation is not follower-separated")
        w = w + z
        focus = _follow(lg._rows, focus, z)
    return w
