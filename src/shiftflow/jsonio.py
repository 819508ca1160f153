"""JSON parsing and serialization for every file format the CLI speaks.

Parsers validate as they go and raise InvalidInput with a path into the
document (like `edges[3].to`), so command-line users get exact error
locations.  Serializers are deterministic: fixed key order, compact
separators, no ASCII escaping.  Each input format, move op and gap-set
kind is declared once, in a table that detection, parsing and writing
all read.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .entropy import EntropyEstimate
from .errors import InvalidInput, ShiftSpaceError
from .graphs import DirectedGraph
from .invariants import SignedBFGroup
from .moves import MovePipeline, Recode, SymbolContraction, SymbolExpansion, WordContraction
from .presentations import LabeledGraph
from .sft import ForbiddenSetSFT, sft
from .sgap import (
    Classification,
    EventuallyPeriodicGaps,
    FEVerdict,
    FiniteGaps,
    SampledGaps,
    SGapSet,
)
from .words import Word


def _fail(path: str, message: str) -> InvalidInput:
    where = path if path else "document"
    return InvalidInput(f"{where}: {message}")


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_object(value: Any, path: str, keys: set[str]) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    extra = set(value) - keys
    if extra:
        raise _fail(path, f"unknown key {sorted(extra)[0]!r}")
    return value


def _expect_symbol(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(path, "expected a non-empty symbol string")
    return value


def _expect_int(value: Any, path: str, message: str, least: int | None = None) -> int:
    """An integer that is not a bool and, given `least`, not below it."""
    if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
        raise _fail(path, message)
    return value


def parse_word(value: Any, path: str = "word") -> Word:
    """A word is a string (one symbol per codepoint) or an array of
    symbol strings."""
    if isinstance(value, str):
        return Word(value)
    if isinstance(value, list):
        return Word(_expect_symbol(s, f"{path}[{i}]") for i, s in enumerate(value))
    raise _fail(path, "expected a string or an array of symbols")


def word_json(w: Word) -> str | list[str]:
    if all(len(s) == 1 for s in w):
        return "".join(w)
    return list(w)


def parse_sft(doc: Any, path: str = "") -> ForbiddenSetSFT:
    obj = _expect_object(doc, path, {"alphabet", "forbidden"})
    if "alphabet" not in obj or "forbidden" not in obj:
        raise _fail(path, "an SFT needs both \"alphabet\" and \"forbidden\"")
    pre = f"{path}." if path else ""
    alphabet = [
        _expect_symbol(s, f"{pre}alphabet[{i}]")
        for i, s in enumerate(_expect_list(obj["alphabet"], f"{pre}alphabet"))
    ]
    if len(set(alphabet)) != len(alphabet):
        raise _fail(f"{pre}alphabet", "symbols repeat")
    words = [
        parse_word(w, f"{pre}forbidden[{i}]")
        for i, w in enumerate(_expect_list(obj["forbidden"], f"{pre}forbidden"))
    ]
    symbols = set(alphabet)
    for i, w in enumerate(words):
        for s in w:
            if s not in symbols:
                raise _fail(f"{pre}forbidden[{i}]", f"symbol {s!r} is not in the alphabet")
    return sft(alphabet, words)


def sft_json(x: ForbiddenSetSFT) -> dict:
    return {
        "alphabet": list(x.alphabet.symbols),
        "forbidden": [word_json(w) for w in x.sorted_forbidden()],
    }


def parse_matrix(doc: Any) -> list[list[int]]:
    rows = _expect_list(doc, "")
    if not rows:
        raise _fail("", "matrix has no rows")
    out: list[list[int]] = []
    for i, row in enumerate(rows):
        row = _expect_list(row, f"[{i}]")
        out.append([_expect_int(v, f"[{i}][{j}]", "expected an integer entry") for j, v in enumerate(row)])
    if any(len(r) != len(rows) for r in out):
        raise _fail("", "matrix must be square")
    return out


def parse_adjacency(doc: Any) -> list[list[int]]:
    m = parse_matrix(doc)
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v < 0:
                raise _fail(f"[{i}][{j}]", f"negative entry {v}")
    return m


def _vertex_name(v: Any) -> str:
    if isinstance(v, Word):
        return v.text()
    return str(v)


def parse_graph(doc: Any) -> DirectedGraph | LabeledGraph:
    """Graph JSON; returns a LabeledGraph when every edge carries a label."""
    obj = _expect_object(doc, "", {"vertices", "edges"})
    if "vertices" not in obj or "edges" not in obj:
        raise _fail("", "a graph needs both \"vertices\" and \"edges\"")
    vertices = [
        _expect_symbol(v, f"vertices[{i}]")
        for i, v in enumerate(_expect_list(obj["vertices"], "vertices"))
    ]
    if len(set(vertices)) != len(vertices):
        raise _fail("vertices", "vertex names repeat")
    known = set(vertices)
    arcs: list[tuple[str, str]] = []
    labels: list[str | None] = []
    for i, e in enumerate(_expect_list(obj["edges"], "edges")):
        epath = f"edges[{i}]"
        edge = _expect_object(e, epath, {"from", "to", "label"})
        for key in ("from", "to"):
            if key not in edge:
                raise _fail(epath, f"missing \"{key}\"")
            name = _expect_symbol(edge[key], f"{epath}.{key}")
            if name not in known:
                raise _fail(f"{epath}.{key}", f"unknown vertex {name!r}")
        arcs.append((edge["from"], edge["to"]))
        labels.append(_expect_symbol(edge["label"], f"{epath}.label") if "label" in edge else None)
    present = [lab for lab in labels if lab is not None]
    if present and len(present) != len(labels):
        raise _fail("edges", "either every edge is labeled or none is")
    g = DirectedGraph.build(vertices, arcs)
    if present:
        return LabeledGraph(g, tuple(present))
    return g


def graph_json(g: DirectedGraph, labels: dict[int, str] | None = None) -> dict:
    edges = []
    for e in g.edges:
        entry: dict[str, str] = {"from": _vertex_name(e.src), "to": _vertex_name(e.dst)}
        if labels is not None:
            entry["label"] = labels[e.eid]
        edges.append(entry)
    return {"vertices": [_vertex_name(v) for v in g.vertices], "edges": edges}


def labeled_graph_json(lg: LabeledGraph) -> dict:
    return graph_json(lg.graph, {e.eid: lg.labels[e.eid] for e in lg.graph.edges})


def _parse_block_table(value: Any, path: str) -> dict[Word, str]:
    table: dict[Word, str] = {}
    if isinstance(value, dict):
        for key, out in value.items():
            table[Word(key)] = _expect_symbol(out, f"{path}[{key!r}]")
        return table
    for i, pair in enumerate(_expect_list(value, path)):
        row = _expect_list(pair, f"{path}[{i}]")
        if len(row) != 2:
            raise _fail(f"{path}[{i}]", "expected [block, symbol]")
        table[parse_word(row[0], f"{path}[{i}][0]")] = _expect_symbol(row[1], f"{path}[{i}][1]")
    return table


def _int_list(value: Any, path: str) -> list[int]:
    out: list[int] = []
    for i, v in enumerate(_expect_list(value, path)):
        if _expect_int(v, f"{path}[{i}]", "expected an integer") < 0:
            raise _fail(f"{path}[{i}]", f"negative value {v}")
        out.append(v)
    if out != sorted(set(out)):
        raise _fail(path, "must be strictly increasing")
    return out


# How each key of a move or a gap set is read from JSON, and written.
_KEYS = {
    "symbol": (_expect_symbol, str),
    "removed": (_expect_symbol, str),
    "word": (parse_word, word_json),
    "table": (_parse_block_table, lambda table: [[word_json(u), s] for u, s in table]),
    "window": (lambda v, path: _expect_int(v, path, "expected a positive integer", 1), int),
    "elements": (_int_list, list),
    "R": (_int_list, list),
    "T": (_int_list, list),
    "N": (lambda v, path: _expect_int(v, path, "expected a positive integer period", 1), int),
    "members": (_int_list, list),
    "bound": (lambda v, path: _expect_int(v, path, "expected a nonnegative integer", 0), int),
}

# Each move op: its move class and its keys, in the order that output
# writes them and that the `MovePipeline` method named like the op
# takes them.
_MOVES = {
    "expand": (SymbolExpansion, ("symbol",)),
    "contract": (SymbolContraction, ("symbol", "removed")),
    "word_contract": (WordContraction, ("word",)),
    "recode": (Recode, ("table", "window")),
}

# Each gap-set kind: its class, its keys in the order that output writes
# them and the class takes them, and the name its missing-key message uses.
_GAP_KINDS = {
    "finite": (FiniteGaps, ("elements",), "a finite gap set"),
    "eventually_periodic": (EventuallyPeriodicGaps, ("R", "T", "N"), "an eventually periodic gap set"),
    "sampled": (SampledGaps, ("members", "bound"), "a sampled gap set"),
}


def _read_tagged(
    value: Any, path: str, tag: str, rows: dict, what: str, needs: Callable[[str, str], str]
) -> tuple[str, list]:
    """An object whose `tag` key names a row of `rows`: that name, and the
    values of the row's keys in row order.  Besides the tag the object
    holds only that row's keys; one that no row has is reported before
    the tag is read.  `needs(name, key)` is the message for a missing key."""
    pre = f"{path}." if path else ""
    obj = _expect_object(value, path, {tag}.union(*(row[1] for row in rows.values())))
    name = obj.get(tag)
    if not isinstance(name, str) or name not in rows:
        raise _fail(f"{pre}{tag}", f"unknown {what} {name!r}")
    keys = rows[name][1]
    _expect_object(obj, path, {tag, *keys})
    for key in keys:
        if key not in obj:
            raise _fail(path, needs(name, key))
    return name, [_KEYS[key][0](obj[key], f"{pre}{key}") for key in keys]


def _write_tagged(value: Any, tag: str, rows: dict) -> dict:
    """The JSON object of a move or gap set: its row name under `tag`, then its keys."""
    name = {row[0]: name for name, row in rows.items()}[type(value)]
    return {tag: name, **{key: _KEYS[key][1](getattr(value, key)) for key in rows[name][1]}}


def parse_pipeline(doc: Any) -> MovePipeline:
    """A pipeline document: a source SFT plus a list of move commands.

    Moves are replayed in order against the source, so the result
    carries every intermediate shift and each move's fresh symbols.  A
    move that the shift before it refuses is reported at its path.
    """
    obj = _expect_object(doc, "", {"source", "moves"})
    if "source" not in obj:
        raise _fail("", "a pipeline needs a \"source\" shift to act on")
    if "moves" not in obj:
        raise _fail("", "a pipeline needs a \"moves\" array")
    pipe = MovePipeline.start(parse_sft(obj["source"], "source"))
    for i, mv in enumerate(_expect_list(obj["moves"], "moves")):
        path = f"moves[{i}]"
        op, values = _read_tagged(mv, path, "op", _MOVES, "move", lambda op, key: f'{op} needs a "{key}"')
        try:
            pipe = getattr(pipe, op)(*values)
        except ShiftSpaceError as exc:
            raise _fail(path, str(exc)) from exc
    return pipe


def pipeline_json(pipe: MovePipeline) -> dict:
    return {"source": sft_json(pipe.source), "moves": [_write_tagged(mv, "op", _MOVES) for mv in pipe.moves]}


def parse_sgap(doc: Any) -> SGapSet:
    """A gap-set document; a check across its keys that the gap-set class
    makes is reported at the document."""
    kind, values = _read_tagged(
        doc, "", "kind", _GAP_KINDS, "kind", lambda kind, key: f'{_GAP_KINDS[kind][2]} needs "{key}"'
    )
    try:
        return _GAP_KINDS[kind][0](*values)
    except ShiftSpaceError as exc:
        raise _fail("", str(exc)) from exc


def sgap_json(s: SGapSet) -> dict:
    return _write_tagged(s, "kind", _GAP_KINDS)


def bf_json(group: SignedBFGroup) -> dict:
    return {"sign": group.sign, "divisors": list(group.divisors)}


def entropy_json(est: EntropyEstimate) -> dict:
    out: dict[str, Any] = {"value": est.value, "method": est.method}
    if est.n_used is not None:
        out["n_used"] = est.n_used
    if est.empty:
        out["empty"] = True
    return out


def classification_json(c: Classification) -> dict:
    out: dict[str, Any] = {"type": c.kind}
    if c.bound is not None:
        out["bound"] = c.bound
    return out


def verdict_json(v: FEVerdict) -> dict:
    out: dict[str, Any] = {"outcome": v.outcome}
    if v.witness is not None:
        out["witness"] = {"n": v.witness[0], "r": v.witness[1]}
    if v.reason is not None:
        out["reason"] = v.reason
    if v.bound is not None:
        out["bound"] = v.bound
    return out


# Each input format in detection order: the keys that mark an object as
# that format (None: a top-level array), and its parser.
_PARSERS = {
    "adjacency": (None, parse_adjacency),
    "sgap": ({"kind"}, parse_sgap),
    "pipeline": ({"moves", "source"}, parse_pipeline),
    "sft": ({"alphabet", "forbidden"}, parse_sft),
    "graph": ({"vertices", "edges"}, parse_graph),
}


def detect_kind(doc: Any) -> str:
    """Which format a decoded JSON document is shaped like."""
    for kind, (keys, _) in _PARSERS.items():
        if isinstance(doc, list) if keys is None else isinstance(doc, dict) and not keys.isdisjoint(doc):
            return kind
    raise InvalidInput("document matches no known input format")


def parse_any(doc: Any) -> tuple[str, Any]:
    kind = detect_kind(doc)
    parsed = _PARSERS[kind][1](doc)
    if kind == "graph" and isinstance(parsed, LabeledGraph):
        return "labeled_graph", parsed
    return kind, parsed


def dumps(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
