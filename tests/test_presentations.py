from __future__ import annotations

import itertools
import random
import time

import pytest

from shiftflow import (
    InvalidInput,
    LabeledGraph,
    PreconditionError,
    Word,
    determinize,
    extend_to_synchronizing,
    focus_set,
    follower_table,
    full_shift,
    is_right_resolving,
    labeled_graph,
    minimal_right_resolving,
    perron_entropy,
    sft,
    sft_presentation,
    sofic_entropy,
    symbol_expand,
)
from shiftflow import presentations
from shiftflow.graphs import DirectedGraph
from shiftflow.jsonio import dumps, labeled_graph_json
from shiftflow.words import EMPTY_WORD

from . import oracles
from .oracles import same_language_by_counting

# Standard presentation of the even shift: 0-runs between 1s have even length.
EVEN = labeled_graph(
    ["e", "o"],
    [("e", "e", "1"), ("e", "o", "0"), ("o", "e", "0")],
)

# A deliberately redundant presentation of the same shift, for minimization.
EVEN_FAT = labeled_graph(
    ["e1", "e2", "o"],
    [
        ("e1", "e1", "1"),
        ("e1", "o", "0"),
        ("o", "e2", "0"),
        ("e2", "e1", "1"),
        ("e2", "o", "0"),
    ],
)


def readable_words(lg: LabeledGraph, n: int) -> set[str]:
    """Label words of length n along paths of the essential part."""
    core = lg.essential_part()
    out: set[str] = set()

    def walk(v, acc: str) -> None:
        if len(acc) == n:
            out.add(acc)
            return
        for lab, dst in core.out_labeled(v):
            walk(dst, acc + lab)

    for v in core.graph.vertices:
        walk(v, "")
    return out


def test_sft_presentation_is_right_resolving():
    x = sft(["0", "1"], ["11"])
    lg = sft_presentation(x)
    assert is_right_resolving(lg)
    for n in range(1, 7):
        assert len(readable_words(lg, n)) == len(set(readable_words(lg, n)))


def test_even_presentations_read_same_language():
    for n in range(1, 9):
        assert readable_words(EVEN, n) == readable_words(EVEN_FAT, n)


def test_determinize_output_right_resolving_same_language():
    cases = [EVEN, EVEN_FAT, sft_presentation(sft(["0", "1"], ["11"]))]
    nondet = labeled_graph(
        ["a", "b"],
        [("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1")],
    )
    cases.append(nondet)
    for lg in cases:
        det = determinize(lg)
        assert is_right_resolving(det)
        for n in range(1, 9):
            assert readable_words(det, n) == readable_words(lg, n)


def test_minimal_right_resolving_reaches_fischer_cover():
    m = minimal_right_resolving(EVEN_FAT)
    assert len(m.graph.vertices) == 2
    assert is_right_resolving(m)
    for n in range(1, 9):
        assert readable_words(m, n) == readable_words(EVEN, n)


def test_minimal_right_resolving_fixed_point():
    m = minimal_right_resolving(EVEN)
    again = minimal_right_resolving(m)
    assert len(again.graph.vertices) == len(m.graph.vertices)


def test_minimized_presentation_is_follower_separated():
    m = minimal_right_resolving(EVEN_FAT)
    depth = len(m.graph.vertices) ** 2 + 1
    table = follower_table(m, depth)
    seen = list(table.values())
    for a, b in itertools.combinations(range(len(seen)), 2):
        assert seen[a] != seen[b]


def test_minimize_rejects_reducible_presentations():
    lg = labeled_graph(
        ["a", "b"],
        [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "0")],
    )
    with pytest.raises(PreconditionError) as exc:
        minimal_right_resolving(lg)
    assert "strongly connected component" in str(exc.value)


def test_focus_set_narrows_with_longer_words():
    assert focus_set(EVEN, "1") == frozenset([next(iter(EVEN.graph.vertices))]) or len(focus_set(EVEN, "1")) == 1
    assert len(focus_set(EVEN, "0")) == 2


def test_focus_set_unreadable_word_raises():
    with pytest.raises(PreconditionError) as exc:
        focus_set(EVEN, "0101")
    assert "not readable" in str(exc.value)


def _twice_expanded_presentation() -> LabeledGraph:
    """Minimal presentation of the full 2-shift with 1 expanded twice:
    labels 0, 1, ◇ and ◇2."""
    y, _ = symbol_expand(full_shift(["0", "1"]), "1")
    z, mv = symbol_expand(y, "1")
    assert mv.fresh == "◇2"
    return minimal_right_resolving(sft_presentation(z))


def test_focus_set_refuses_to_split_multi_character_labels():
    lg = _twice_expanded_presentation()
    with pytest.raises(InvalidInput):
        focus_set(lg, "◇2")
    assert len(focus_set(lg, Word(["◇2"]))) >= 1


def test_extend_to_synchronizing_refuses_to_split_multi_character_labels():
    lg = _twice_expanded_presentation()
    with pytest.raises(InvalidInput):
        extend_to_synchronizing(lg, "◇2")
    w = extend_to_synchronizing(lg, Word(["◇2"]))
    assert w[0] == "◇2" and len(focus_set(lg, w)) == 1


def test_extend_to_synchronizing_yields_intrinsic_synchronizer():
    w = extend_to_synchronizing(EVEN, "0")
    assert len(focus_set(EVEN, w)) == 1
    lang = {n: readable_words(EVEN, n) for n in range(1, 14)}

    def in_lang(s: str) -> bool:
        return s in lang.get(len(s), set()) if s else True

    wt = w.text()
    for ul in range(1, 4):
        for vl in range(1, 4):
            for u in lang[ul]:
                for v in lang[vl]:
                    if in_lang(u + wt) and in_lang(wt + v):
                        assert in_lang(u + wt + v), (u, wt, v)


def test_extend_to_synchronizing_keeps_given_word_as_factor():
    w = extend_to_synchronizing(EVEN, "00")
    assert "00" in w.text()


def test_sofic_entropy_of_even_shift_matches_golden_mean():
    import math

    phi = (1 + math.sqrt(5)) / 2
    est = sofic_entropy(EVEN)
    assert est.method == "perron"
    assert abs(est.value - math.log2(phi)) < 1e-9


def test_full_shift_presentation_minimizes_to_one_state():
    lg = sft_presentation(full_shift(["a", "b"]))
    m = minimal_right_resolving(lg)
    assert len(m.graph.vertices) == 1


def _arcs(lg: LabeledGraph) -> list[tuple]:
    return [(e.src, e.dst, lg.label(e)) for e in lg.graph.edges]


def _cycle_plus_edges(rng: random.Random, names: list[str], labels: str, extra: int) -> list[tuple]:
    """Hamiltonian cycle on `names` plus up to `extra` random labeled edges."""
    n = len(names)
    arcs = [(names[i], names[(i + 1) % n], rng.choice(labels)) for i in range(n)]
    arcs += [(rng.choice(names), rng.choice(names), rng.choice(labels)) for _ in range(rng.randint(0, extra))]
    return arcs


def _differential_graph(seed: int) -> LabeledGraph:
    """Seeded graph on 2-3 labels; seed % 3 picks the kind: a Hamiltonian
    cycle plus random edges on 3-6 vertices, two strongly connected parts
    with edges from the first into the second, or a source part with edges
    into two sink parts."""
    rng = random.Random(seed)
    labels = "abc"[: rng.randint(2, 3)]
    kind = seed % 3
    if kind == 0:
        names = [str(i) for i in range(rng.randint(3, 6))]
        return labeled_graph(names, _cycle_plus_edges(rng, names, labels, 2 * len(names)))
    parts = [[f"{c}{i}" for i in range(rng.randint(1, 3))] for c in "stu"[: kind + 1]]
    arcs = [a for part in parts for a in _cycle_plus_edges(rng, part, labels, len(part))]
    for sink in parts[1:]:
        arcs += [(rng.choice(parts[0]), rng.choice(sink), rng.choice(labels)) for _ in range(rng.randint(1, 2))]
    return labeled_graph([v for part in parts for v in part], arcs)


def _minimize_outcome(lg: LabeledGraph) -> tuple[str, str]:
    try:
        return "accepted", dumps(labeled_graph_json(minimal_right_resolving(lg)))
    except PreconditionError as exc:
        return "refused", str(exc)


def _automaton(lg: LabeledGraph) -> list[dict[str, int]]:
    """The subset automaton of lg's essential part, seeded with its full set."""
    return presentations._subset_automaton(presentations._essential_rows(lg))[1]


def _automaton_arcs(delta: list[dict[str, int]]) -> list[tuple]:
    return [(i, t, a) for i, row in enumerate(delta) for a, t in row.items()]


def test_moore_certificate_matches_counting_oracle(monkeypatch):
    """The pair-walk certificate, the Moore-partition certificate it
    replaced and word counting up to the horizon give the same verdict on
    every pair they are asked about, and minimization accepts or refuses
    (same message) under either.  Minimization hands the certificate the
    input's automaton as the certificate test builds it, and, for the
    result, the automaton of the graph it returns, read from the sink rows."""
    graphs = [_differential_graph(seed) for seed in range(300)]
    walk = presentations._same_shift
    verdicts = []
    asked = []

    def checked(first, second, pair=None):
        """`pair` holds the presentations the automata come from; the
        minimization pairs are read as the automata's own graphs."""
        verdict = walk(first, second)
        if pair is None:
            assert verdict == oracles.same_automata_by_counting(first, second)
            pair = [labeled_graph(range(len(d)), _automaton_arcs(d)) for d in (first, second)]
        else:
            assert verdict == same_language_by_counting(_arcs(pair[0]), _arcs(pair[1]))
        assert verdict == oracles._same_shift(*pair)
        verdicts.append(verdict)
        asked.append((first, second))
        return verdict

    # Pairs beyond minimization: the graph against each of its strongly
    # connected sub-presentations, whose languages it contains.
    for lg in graphs:
        for comp in lg.graph.strongly_connected_components():
            sub = LabeledGraph(comp, lg.labels)
            checked(_automaton(lg), _automaton(sub), [lg, sub])
    scc_pairs = len(verdicts)
    monkeypatch.setattr(presentations, "_same_shift", checked)
    outcomes = []
    for lg in graphs:
        asked.clear()
        try:
            m = minimal_right_resolving(lg)
        except PreconditionError as exc:
            outcomes.append(("refused", str(exc)))
            assert all(first == _automaton(lg) for first, _ in asked)
        else:
            outcomes.append(("accepted", dumps(labeled_graph_json(m))))
            assert asked == [(_automaton(lg), _automaton(m))]
    monkeypatch.setattr(presentations, "_same_shift", oracles.same_automata_by_counting)
    assert [_minimize_outcome(lg) for lg in graphs] == outcomes
    assert sum(verdicts) > 100 and len(verdicts) - sum(verdicts) > 100
    assert len(verdicts) - scc_pairs > 100
    refused = {msg for kind, msg in outcomes if kind == "refused"}
    assert refused == {
        "presentation is not an irreducible sofic shift; minimize each strongly connected component separately"
    }


SEED_2499_MINIMAL = (
    '{"vertices":["0","1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","'
    '16","17","18","19","20","21","22","23","24","25","26","27","28","29","30","31","32",'
    '"33","34","35","36","37","38","39","40","41"],"edges":[{"from":"0","to":"0","label":'
    '"a"},{"from":"0","to":"1","label":"b"},{"from":"0","to":"2","label":"c"},{"from":"1"'
    ',"to":"3","label":"a"},{"from":"1","to":"4","label":"b"},{"from":"1","to":"5","label'
    '":"c"},{"from":"2","to":"0","label":"a"},{"from":"2","to":"1","label":"b"},{"from":"'
    '2","to":"6","label":"c"},{"from":"3","to":"7","label":"a"},{"from":"3","to":"8","lab'
    'el":"b"},{"from":"3","to":"9","label":"c"},{"from":"4","to":"10","label":"a"},{"from'
    '":"4","to":"11","label":"b"},{"from":"4","to":"5","label":"c"},{"from":"5","to":"12"'
    ',"label":"a"},{"from":"5","to":"1","label":"b"},{"from":"5","to":"13","label":"c"},{'
    '"from":"6","to":"14","label":"a"},{"from":"6","to":"15","label":"b"},{"from":"6","to'
    '":"6","label":"c"},{"from":"7","to":"16","label":"a"},{"from":"7","to":"7","label":"'
    'c"},{"from":"8","to":"3","label":"a"},{"from":"8","to":"10","label":"b"},{"from":"8"'
    ',"to":"17","label":"c"},{"from":"9","to":"18","label":"a"},{"from":"9","to":"8","lab'
    'el":"b"},{"from":"9","to":"19","label":"c"},{"from":"10","to":"11","label":"b"},{"fr'
    'om":"10","to":"20","label":"c"},{"from":"11","to":"10","label":"a"},{"from":"11","to'
    '":"21","label":"c"},{"from":"12","to":"22","label":"a"},{"from":"12","to":"21","labe'
    'l":"b"},{"from":"12","to":"23","label":"c"},{"from":"13","to":"24","label":"a"},{"fr'
    'om":"13","to":"21","label":"b"},{"from":"13","to":"8","label":"c"},{"from":"14","to"'
    ':"2","label":"a"},{"from":"14","to":"1","label":"b"},{"from":"14","to":"25","label":'
    '"c"},{"from":"15","to":"26","label":"a"},{"from":"15","to":"4","label":"b"},{"from":'
    '"15","to":"20","label":"c"},{"from":"16","to":"13","label":"a"},{"from":"16","to":"4'
    '","label":"b"},{"from":"16","to":"26","label":"c"},{"from":"17","to":"27","label":"a'
    '"},{"from":"17","to":"15","label":"b"},{"from":"17","to":"13","label":"c"},{"from":"'
    '18","to":"28","label":"a"},{"from":"18","to":"11","label":"b"},{"from":"18","to":"29'
    '","label":"c"},{"from":"19","to":"30","label":"a"},{"from":"19","to":"15","label":"b'
    '"},{"from":"19","to":"19","label":"c"},{"from":"20","to":"31","label":"a"},{"from":"'
    '20","to":"8","label":"b"},{"from":"20","to":"13","label":"c"},{"from":"21","to":"26"'
    ',"label":"a"},{"from":"21","to":"10","label":"b"},{"from":"21","to":"26","label":"c"'
    '},{"from":"22","to":"32","label":"a"},{"from":"22","to":"4","label":"b"},{"from":"22'
    '","to":"33","label":"c"},{"from":"23","to":"34","label":"a"},{"from":"23","to":"10",'
    '"label":"b"},{"from":"23","to":"35","label":"c"},{"from":"24","to":"16","label":"a"}'
    ',{"from":"24","to":"11","label":"b"},{"from":"24","to":"33","label":"c"},{"from":"25'
    '","to":"36","label":"a"},{"from":"25","to":"8","label":"b"},{"from":"25","to":"6","l'
    'abel":"c"},{"from":"26","to":"7","label":"a"},{"from":"26","to":"21","label":"b"},{"'
    'from":"26","to":"11","label":"c"},{"from":"27","to":"37","label":"a"},{"from":"27","'
    'to":"21","label":"b"},{"from":"27","to":"31","label":"c"},{"from":"28","to":"13","la'
    'bel":"a"},{"from":"28","to":"4","label":"b"},{"from":"28","to":"20","label":"c"},{"f'
    'rom":"29","to":"2","label":"a"},{"from":"29","to":"1","label":"b"},{"from":"29","to"'
    ':"12","label":"c"},{"from":"30","to":"37","label":"a"},{"from":"30","to":"8","label"'
    ':"b"},{"from":"30","to":"25","label":"c"},{"from":"31","to":"28","label":"a"},{"from'
    '":"31","to":"38","label":"c"},{"from":"32","to":"39","label":"a"},{"from":"32","to":'
    '"1","label":"b"},{"from":"32","to":"19","label":"c"},{"from":"33","to":"40","label":'
    '"a"},{"from":"33","to":"8","label":"b"},{"from":"33","to":"12","label":"c"},{"from":'
    '"34","to":"12","label":"a"},{"from":"34","to":"1","label":"b"},{"from":"34","to":"9"'
    ',"label":"c"},{"from":"35","to":"29","label":"a"},{"from":"35","to":"15","label":"b"'
    '},{"from":"35","to":"12","label":"c"},{"from":"36","to":"41","label":"a"},{"from":"3'
    '6","to":"4","label":"b"},{"from":"36","to":"29","label":"c"},{"from":"37","to":"32",'
    '"label":"a"},{"from":"37","to":"4","label":"b"},{"from":"37","to":"27","label":"c"},'
    '{"from":"38","to":"5","label":"a"},{"from":"38","to":"10","label":"b"},{"from":"38",'
    '"to":"27","label":"c"},{"from":"39","to":"22","label":"a"},{"from":"39","to":"8","la'
    'bel":"b"},{"from":"39","to":"2","label":"c"},{"from":"40","to":"41","label":"a"},{"f'
    'rom":"40","to":"4","label":"b"},{"from":"40","to":"35","label":"c"},{"from":"41","to'
    '":"39","label":"a"},{"from":"41","to":"1","label":"b"},{"from":"41","to":"32","label'
    '":"c"}]}'
)


def test_minimize_seed_2499_graph_within_budget():
    """Six vertices, three labels: the subset automaton of the result has
    2,883 states, so certifying by word counts took seconds."""
    rng = random.Random(2499)
    names = [str(i) for i in range(6)]
    arcs = [(names[i], names[(i + 1) % 6], rng.choice("abc")) for i in range(6)]
    arcs += [(rng.choice(names), rng.choice(names), rng.choice("abc")) for _ in range(rng.randint(1, 14))]
    lg = labeled_graph(names, arcs)
    start = time.monotonic()
    m = minimal_right_resolving(lg)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"
    assert dumps(labeled_graph_json(m)) == SEED_2499_MINIMAL


def _index_form_case(seed: int) -> LabeledGraph:
    """Seeded graph on 1-7 vertices and 1-3 labels; seed % 4 picks the
    kind: a spanning cycle plus random edges, random edges alone, two
    cycles with edges from the first toward the second (reducible), or
    edges that only go forward (empty essential part).  Random edges
    repeat an earlier edge now and then, label and all or with a new
    label, and may be self-loops."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    labels = "abc"[: rng.randint(1, 3)]
    names = rng.sample(range(10), n)
    kind = seed % 4
    if kind == 3:
        forward = itertools.combinations(names, 2)
        return labeled_graph(names, [(s, d, rng.choice(labels)) for s, d in forward for _ in range(rng.randint(0, 2))])
    arcs = []
    if kind == 0:
        arcs += [(names[i], names[(i + 1) % n], rng.choice(labels)) for i in range(n)]
    if kind == 2:
        cut = rng.randint(1, n)
        for part in (names[:cut], names[cut:]):
            arcs += [(part[i], part[(i + 1) % len(part)], rng.choice(labels)) for i in range(len(part))]
        arcs += [(rng.choice(names[:cut]), rng.choice(names[cut - 1 :]), rng.choice(labels)) for _ in range(2)]
    for _ in range(rng.randint(0, 2 * n)):
        if arcs and rng.random() < 0.25:
            s, d, lab = rng.choice(arcs)
            arcs.append((s, d, lab if rng.random() < 0.5 else rng.choice(labels)))
        else:
            arcs.append((rng.choice(names), rng.choice(names), rng.choice(labels)))
    return labeled_graph(names, arcs)


def _outcome(f, *args):
    try:
        out = f(*args)
    except Exception as exc:  # the oracle must raise the same, message and all
        return type(exc), str(exc)
    return dumps(labeled_graph_json(out)) if isinstance(out, LabeledGraph) else out


def _check_walkers(lg: LabeledGraph) -> None:
    """The walkers on index rows give what their name-keyed bodies give
    on a right-resolving presentation: out-edges, right-resolving,
    followers to depth 2, and for the empty word and each label the focus
    set, the separating word of that focus and the synchronizing
    extension (refusals included)."""
    assert all(lg.out_labeled(v) == oracles.out_labeled(lg, v) for v in lg.graph.vertices)
    assert is_right_resolving(lg) and oracles.is_right_resolving(lg)
    assert follower_table(lg, 2) == oracles.follower_table(lg, 2)
    rows = [dict(sorted(row)) for row in lg._rows]
    for w in [EMPTY_WORD] + [Word([a]) for a in lg.label_alphabet()]:
        focus = _outcome(focus_set, lg, w)
        assert focus == _outcome(oracles.focus_set, lg, w)
        if isinstance(focus, frozenset):
            at = [lg.graph._index[v] for v in focus]
            assert presentations._separating_word(rows, at) == oracles._separating_word(lg, focus)
        assert _outcome(extend_to_synchronizing, lg, w) == _outcome(oracles.extend_to_synchronizing, lg, w)


def test_index_automaton_matches_the_graph_pipeline():
    """Subset automaton, Moore classes, trim and quotient on index rows
    give the bytes of the pipeline that built a labeled graph for every
    intermediate automaton: determinize, minimize (refusals included),
    sofic entropy and word counts, and the shift-equality certificate
    against each strongly connected sub-presentation.  Minimization
    gives what the oracle gives for the input's essential part, or, when
    that is empty, the oracle's refusal of the input.  The walkers give
    what they gave reading vertex names, on the determinization."""
    kinds = {"accepted": 0, "refused": 0, "empty": 0, "parallel": 0, "loop": 0, "pairs": 0}
    for seed in range(2000):
        lg = _index_form_case(seed)
        assert _outcome(determinize, lg) == _outcome(oracles.determinize, lg)
        got = _outcome(minimal_right_resolving, lg)
        ess = lg.essential_part()
        assert got == _outcome(oracles.minimal_right_resolving, ess if ess.graph.vertices else lg), seed
        kinds["accepted" if isinstance(got, str) else "refused"] += 1
        assert _outcome(sofic_entropy, lg) == _outcome(lambda g: perron_entropy(oracles.determinize(g).graph), lg)
        assert presentations._sofic_word_counts(lg, 12) == oracles._sofic_word_counts(lg, 12)
        for comp in lg.graph.strongly_connected_components():
            sub = LabeledGraph(comp, lg.labels)
            assert presentations._same_shift(_automaton(lg), _automaton(sub)) == oracles._same_shift(lg, sub)
            kinds["pairs"] += 1
        assert is_right_resolving(lg) == oracles.is_right_resolving(lg)
        _check_walkers(determinize(lg))
        arcs = _arcs(lg)
        kinds["empty"] += not ess.graph.vertices
        kinds["parallel"] += len({(s, d) for s, d, _ in arcs}) < len(arcs)
        kinds["loop"] += any(s == d for s, d, _ in arcs)
    assert min(kinds.values()) > 200, kinds


def test_minimize_builds_only_its_result(monkeypatch):
    """One minimization builds its result and no other graph, with or
    without dead ends: the input is trimmed on its rows, the certificate
    reuses the determinization and reads the result's automaton from the
    sink rows.  An input with a dead end gives the essential input's
    bytes."""
    built = []
    post_init = DirectedGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    arcs = [("w", "x", "0"), ("w", "y", "0"), ("x", "w", "1"), ("y", "z", "0"), ("z", "w", "1"), ("z", "z", "0")]
    lg = labeled_graph("wxyz", arcs)
    dead_end = labeled_graph("wxyzd", arcs + [("w", "d", "1")])
    monkeypatch.setattr(DirectedGraph, "__post_init__", counting)
    m = minimal_right_resolving(lg)
    assert len(built) == 1 and built[0] is m.graph
    built.clear()
    m_dead = minimal_right_resolving(dead_end)
    assert len(built) == 1 and built[0] is m_dead.graph
    assert dumps(labeled_graph_json(m_dead)) == dumps(labeled_graph_json(m))
