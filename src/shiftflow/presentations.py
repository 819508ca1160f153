"""Labeled graph presentations of sofic shifts.

Labels live in a tuple indexed by edge id, so pruning a graph never
detaches an edge from its label.  Right-resolving means out-edges at
each vertex carry distinct labels.

Automata are `{label: next index}` rows, one dict per state, read with
the helpers in `graphs`; only what a public function returns is built as
a `LabeledGraph`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import InvalidInput, PreconditionError
from .graphs import DirectedGraph, Edge, Vertex, _components, _index_rows, _restrict, _trim, _walks
from .sft import ForbiddenSetSFT, _edge_shift, _unambiguous_word
from .words import EMPTY_WORD, Word


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
        return [(self.labels[e.eid], e.dst) for e in self.graph.out_edges(v)]


def labeled_graph(vertices, arcs) -> LabeledGraph:
    """Build from (src, dst, label) triples."""
    triples = list(arcs)
    g = DirectedGraph.build(vertices, [(s, d) for s, d, _ in triples])
    return LabeledGraph(g, tuple([lab for _, _, lab in triples]))


def sft_presentation(x: ForbiddenSetSFT) -> LabeledGraph:
    """Right-resolving presentation of an SFT: the edge-shift graph with
    each edge labeled by the last symbol of its word."""
    data = _edge_shift(x)
    return LabeledGraph(data.graph, tuple([w[-1] for w in data.words]))


def is_right_resolving(lg: LabeledGraph) -> bool:
    for v in lg.graph.vertices:
        labs = [lg.labels[e.eid] for e in lg.graph.out_edges(v)]
        if len(labs) != len(set(labs)):
            return False
    return True


def _subset_automaton(
    lg: LabeledGraph, include_singletons: bool = False
) -> tuple[list[tuple], list[dict[str, int]]]:
    """Deterministic automaton of subsets reachable from the full vertex set.

    States are indices in breadth-first order from state 0, the full set;
    rows list labels in order.  `names[i]` is a state's tuple of original
    vertices in graph order.  Words readable in `lg` correspond exactly to
    paths from state 0.  With `include_singletons` every one-vertex subset
    is seeded too.
    """
    vertices = lg.graph.vertices
    if not vertices:
        raise PreconditionError("empty presentation")
    order = {v: i for i, v in enumerate(vertices)}
    out = [[(lg.labels[e.eid], order[e.dst]) for e in lg.graph.out_edges(v)] for v in vertices]
    seeds = [frozenset(range(len(vertices)))]
    if include_singletons:
        seeds += [frozenset([i]) for i in range(len(vertices))]
    index = {s: i for i, s in enumerate(dict.fromkeys(seeds))}
    states = list(index)
    delta: list[dict[str, int]] = []
    for s in states:
        follow: dict[str, set[int]] = {}
        for i in s:
            for a, t in out[i]:
                follow.setdefault(a, set()).add(t)
        row = {}
        for a in sorted(follow):
            nxt = frozenset(follow[a])
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row[a] = index[nxt]
        delta.append(row)
    return [tuple([vertices[i] for i in sorted(s)]) for s in states], delta


def determinize(lg: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same sofic shift, essential part.

    Subsets are seeded from the full vertex set and from every singleton,
    so reachable one-vertex follower states show up even when the full
    seed never narrows down to them.  The automaton is trimmed on its
    rows, and the one graph built holds only the survivors, with the
    vertices, edges and ids of the whole automaton's essential part.
    """
    names, delta = _subset_automaton(lg, include_singletons=True)
    keep = _trim(delta)
    kept = set(keep)
    edges = []
    labels = []
    # Ids count every arc, so they are those of the whole automaton's graph.
    for i, row in enumerate(delta):
        for a, t in row.items():
            if i in kept and t in kept:
                edges.append(Edge(names[i], names[t], len(labels)))
            labels.append(a)
    return LabeledGraph(DirectedGraph(tuple([names[i] for i in keep]), tuple(edges)), tuple(labels))


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
    ess = lg.essential_part()
    if not ess.graph.vertices:
        return [0] * upto
    _, delta = _subset_automaton(ess)
    return [vec[0] for vec in islice(_walks(_index_rows(delta)), 1, upto + 1)]


def _same_shift(p: LabeledGraph, q: LabeledGraph, first: list[dict[str, int]] | None = None) -> bool:
    """Whether p and q present the same shift, by a walk over pairs of
    states of their subset automata (essential parts, both nonempty) from
    the two seeds.  `first`, when given, is p's automaton.

    Both automata are deterministic and every state accepts, so a word
    reads in one exactly when it reads in the other until some reached
    pair offers different labels: the languages are equal iff no pair does.
    """
    if first is None:
        _, first = _subset_automaton(p.essential_part())
    _, second = _subset_automaton(q.essential_part())
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        i, j = todo.pop()
        here, there = first[i], second[j]
        if here.keys() != there.keys():
            return False
        for a, t in here.items():
            pair = (t, there[a])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def minimal_right_resolving(lg: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Determinize the input's essential part from its full vertex set, keep
    the essential states, merge states with equal follower sets, then keep
    the unique sink component, the one no edge leaves, all on index rows.
    Vertices and edges on no bi-infinite path never reach the automaton,
    so they do not change the result.  Its language is contained in the
    input's; `_same_shift` certifies equality by its pair walk, reading
    the determinization as the input's automaton.  Inputs presenting a
    reducible shift are rejected.
    """
    ess = lg.essential_part()
    if lg.graph.vertices and not ess.graph.vertices:
        raise PreconditionError("presentation has no bi-infinite points")
    _, det = _subset_automaton(ess)
    delta = _restrict(det, _trim(det))
    classes = _moore_classes(delta)
    first = dict(zip(reversed(classes), reversed(range(len(classes)))))  # each class's least state
    merged = [{a: classes[t] for a, t in delta[first[c]].items()} for c in range(len(first))]
    comps = _components(_index_rows(merged))
    sinks = [comp for comp in comps if set(comp).issuperset(t for i in comp for t in merged[i].values())]
    if len(sinks) == 1:
        sink = _restrict(merged, sinks[0])
        arcs = [(str(i), str(t), a) for i, row in enumerate(sink) for a, t in row.items()]
        result = labeled_graph([str(i) for i in range(len(sink))], arcs)
        if _same_shift(ess, result, det):
            return result
    raise PreconditionError(
        "presentation is not an irreducible sofic shift; "
        "minimize each strongly connected component separately"
    )


def follower_table(lg: LabeledGraph, depth: int) -> dict[Vertex, frozenset[Word]]:
    """Words of length <= depth readable from each vertex."""
    table: dict[Vertex, set[Word]] = {v: {EMPTY_WORD} for v in lg.graph.vertices}
    layer: dict[Vertex, set[Word]] = {v: {EMPTY_WORD} for v in lg.graph.vertices}
    for _ in range(depth):
        nxt: dict[Vertex, set[Word]] = {v: set() for v in lg.graph.vertices}
        for v in lg.graph.vertices:
            for a, t in lg.out_labeled(v):
                for w in layer[t]:
                    nxt[v].add(Word([a]) + w)
        for v in lg.graph.vertices:
            table[v] |= nxt[v]
        layer = nxt
    return {v: frozenset(ws) for v, ws in table.items()}


def focus_set(lg: LabeledGraph, word: Word | str) -> frozenset:
    """Terminal vertices of paths labeled by the word, from any start.

    Raises when no path presents the word.  A plain string is refused
    when a label has more than one character.
    """
    w = _unambiguous_word(word, lg.label_alphabet())
    current = set(lg.graph.vertices)
    for a in w:
        current = {t for v in current for b, t in lg.out_labeled(v) if b == a}
    if not current:
        raise PreconditionError(f"{w!r} is not readable in the presentation")
    return frozenset(current)


def _separating_word(lg: LabeledGraph, focus: frozenset) -> Word | None:
    """Shortest word killing exactly one of a tracked pair of threads.

    Pairs are tried in vertex order; label order breaks ties, so the
    answer is reproducible.
    """
    order = {v: i for i, v in enumerate(lg.graph.vertices)}
    step = {v: dict(lg.out_labeled(v)) for v in lg.graph.vertices}
    alphabet = lg.label_alphabet()
    members = sorted(focus, key=order.__getitem__)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            start = (members[i], members[j])
            queue = deque([(start, EMPTY_WORD)])
            seen = {start}
            while queue:
                (x, y), w = queue.popleft()
                for a in alphabet:
                    nx = step[x].get(a) if x is not None else None
                    ny = step[y].get(a) if y is not None else None
                    if nx is None and ny is None:
                        continue
                    nw = w + Word([a])
                    if (nx is None) != (ny is None):
                        return nw
                    state = (nx, ny)
                    if state not in seen:
                        seen.add(state)
                        queue.append((state, nw))
    return None


def extend_to_synchronizing(lg: LabeledGraph, word: Word | str) -> Word:
    """Extend a language word until its focus set is a single vertex.

    Requires a right-resolving presentation; each appended block kills
    at least one surviving thread, so the loop terminates.
    """
    if not is_right_resolving(lg):
        raise PreconditionError("presentation must be right-resolving")
    w = _unambiguous_word(word, lg.label_alphabet())
    focus = focus_set(lg, w)
    while len(focus) > 1:
        z = _separating_word(lg, focus)
        if z is None:
            raise PreconditionError("focus threads cannot be separated; presentation is not follower-separated")
        w = w + z
        focus = focus_set(lg, w)
    return w
