"""Labeled graph presentations of sofic shifts.

Labels live in a tuple indexed by edge id, so pruning a graph never
detaches an edge from its label.  Right-resolving means out-edges at
each vertex carry distinct labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import InvalidInput, PreconditionError
from .graphs import DirectedGraph, Edge, Vertex, _walks
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
        return LabeledGraph(self.graph.essential_part(), self.labels)

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
    return LabeledGraph(data.graph, tuple([w[-1] for w in data.edge_words]))


def is_right_resolving(lg: LabeledGraph) -> bool:
    for v in lg.graph.vertices:
        labs = [lg.labels[e.eid] for e in lg.graph.out_edges(v)]
        if len(labs) != len(set(labs)):
            return False
    return True


def _subset_automaton(
    lg: LabeledGraph, include_singletons: bool = False
) -> tuple[DirectedGraph, tuple[str, ...], Vertex]:
    """Deterministic automaton of subsets reachable from the full vertex set.

    Vertex names are tuples of original vertices in graph order.  Words
    readable in `lg` correspond exactly to paths from the seed state.
    With `include_singletons` every one-vertex subset is seeded too.
    """
    if not lg.graph.vertices:
        raise PreconditionError("empty presentation")
    order = {v: i for i, v in enumerate(lg.graph.vertices)}

    def name(state: frozenset) -> tuple:
        return tuple(sorted(state, key=order.__getitem__))

    seed = frozenset(lg.graph.vertices)
    seeds = [seed]
    if include_singletons:
        seeds.extend(frozenset([v]) for v in lg.graph.vertices)
    queue: deque[frozenset] = deque()
    seen: dict[frozenset, tuple] = {}
    for s in seeds:
        if s not in seen:
            seen[s] = name(s)
            queue.append(s)
    states: list[frozenset] = []
    arcs: list[tuple[tuple, tuple, str]] = []
    while queue:
        s = queue.popleft()
        states.append(s)
        follow: dict[str, set[Vertex]] = {}
        for v in s:
            for a, t in lg.out_labeled(v):
                follow.setdefault(a, set()).add(t)
        for a in sorted(follow):
            nxt = frozenset(follow[a])
            if nxt not in seen:
                seen[nxt] = name(nxt)
                queue.append(nxt)
            arcs.append((seen[s], seen[nxt], a))
    vertices = [seen[s] for s in states]
    g = DirectedGraph.build(vertices, [(s, d) for s, d, _ in arcs])
    return g, tuple([a for _, _, a in arcs]), seen[seed]


def determinize(lg: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same sofic shift, essential part.

    Subsets are seeded from the full vertex set and from every singleton,
    so reachable one-vertex follower states show up even when the full
    seed never narrows down to them.
    """
    g, labels, _ = _subset_automaton(lg, include_singletons=True)
    return LabeledGraph(g, labels).essential_part()


def _moore_classes(lg: LabeledGraph) -> dict[Vertex, int]:
    """Coarsest partition where vertices agree on label -> class of target.

    Assumes right-resolving input.  Absent labels distinguish states on
    their own, since they vanish from the signature.
    """
    classes = {v: 0 for v in lg.graph.vertices}
    step = {v: sorted(dict(lg.out_labeled(v)).items()) for v in lg.graph.vertices}
    while True:
        renumber: dict[tuple, int] = {}
        new = {
            v: renumber.setdefault((classes[v], tuple([(a, classes[t]) for a, t in out])), len(renumber))
            for v, out in step.items()
        }
        if new == classes:
            return classes
        classes = new


def _quotient(lg: LabeledGraph, classes: dict[Vertex, int]) -> LabeledGraph:
    reps: dict[int, Vertex] = {}
    for v in lg.graph.vertices:
        reps.setdefault(classes[v], v)
    order = sorted(reps)
    rename = {c: str(i) for i, c in enumerate(order)}
    arcs: list[tuple[str, str, str]] = []
    for c in order:
        v = reps[c]
        for a, t in sorted(lg.out_labeled(v)):
            arcs.append((rename[c], rename[classes[t]], a))
    return labeled_graph([rename[c] for c in order], arcs)


def _sofic_word_counts(lg: LabeledGraph, upto: int) -> list[int]:
    """|B_n| for n = 1 .. upto: paths of length n from the seed of the
    subset automaton of the essential part, the seed's entry of A^n 1.

    Counting must run on the essential part: a label path that dead-ends
    is readable but belongs to no point.
    """
    ess = lg.essential_part()
    if not ess.graph.vertices:
        return [0] * upto
    g, _, seed = _subset_automaton(ess)
    at = g.vertices.index(seed)
    return [vec[at] for vec in islice(_walks(g.sparse_adjacency()), 1, upto + 1)]


def _same_shift(p: LabeledGraph, q: LabeledGraph) -> bool:
    """Whether p and q present the same shift: Moore's partition of their
    subset automata (essential parts, both nonempty), joined side by side,
    puts the two seeds in one class."""
    vertices: list[tuple[int, Vertex]] = []
    arcs: list[tuple[tuple, tuple, str]] = []
    seeds = []
    for tag, lg in enumerate((p, q)):
        g, labels, seed = _subset_automaton(lg.essential_part())
        vertices += [(tag, v) for v in g.vertices]
        arcs += [((tag, e.src), (tag, e.dst), labels[e.eid]) for e in g.edges]
        seeds.append((tag, seed))
    classes = _moore_classes(labeled_graph(vertices, arcs))
    return classes[seeds[0]] == classes[seeds[1]]


def minimal_right_resolving(lg: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Determinize from the full vertex set, merge states with equal
    follower sets, then keep the unique sink component, the one no edge
    leaves.  Its language is contained in the input's; `_same_shift`
    certifies equality.  Both subset automata are deterministic and every
    state accepts, so Moore classes of their join are classes of equal
    follower sets: the seeds share a class exactly when the languages are
    equal.  Inputs presenting a reducible shift are rejected.
    """
    g, labels, _ = _subset_automaton(lg)
    det = LabeledGraph(g, labels).essential_part()
    if not det.graph.vertices:
        raise PreconditionError("presentation has no bi-infinite points")
    merged = _quotient(det, _moore_classes(det))
    sinks = []
    for comp in merged.graph.strongly_connected_components():
        inside = set(comp.vertices)
        if all(e.dst in inside for v in comp.vertices for e in merged.graph.out_edges(v)):
            sinks.append(comp)
    if len(sinks) == 1:
        sink = sinks[0]
        result = _quotient(LabeledGraph(sink, merged.labels), {v: i for i, v in enumerate(sink.vertices)})
        if _same_shift(lg, result):
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
