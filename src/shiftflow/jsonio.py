"""JSON parsing and serialization for every file format the CLI speaks.

Parsers validate as they go and raise InvalidInput with a path into the
document (like `edges[3].to`), so command-line users get exact error
locations.  Serializers are deterministic: fixed key order, compact
separators, no ASCII escaping.
"""

from __future__ import annotations

import json
from typing import Any

from .entropy import EntropyEstimate
from .errors import InvalidInput
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
        entries: list[int] = []
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise _fail(f"[{i}][{j}]", "expected an integer entry")
            entries.append(v)
        out.append(entries)
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


def parse_pipeline(doc: Any) -> MovePipeline:
    """A pipeline document: a source SFT plus a list of move commands.

    Moves are replayed in order against the source, so the result
    carries every intermediate shift and each move's fresh symbols.
    """
    obj = _expect_object(doc, "", {"source", "moves"})
    if "source" not in obj:
        raise _fail("", "a pipeline needs a \"source\" shift to act on")
    if "moves" not in obj:
        raise _fail("", "a pipeline needs a \"moves\" array")
    pipe = MovePipeline.start(parse_sft(obj["source"], "source"))
    for i, mv in enumerate(_expect_list(obj["moves"], "moves")):
        mpath = f"moves[{i}]"
        move = _expect_object(mv, mpath, {"op", "symbol", "removed", "word", "table", "window"})
        op = move.get("op")
        if op == "expand":
            pipe = pipe.expand(_expect_symbol(move.get("symbol"), f"{mpath}.symbol"))
        elif op == "contract":
            pipe = pipe.contract(
                _expect_symbol(move.get("symbol"), f"{mpath}.symbol"),
                _expect_symbol(move.get("removed"), f"{mpath}.removed"),
            )
        elif op == "word_contract":
            if "word" not in move:
                raise _fail(mpath, "word_contract needs a \"word\"")
            pipe = pipe.word_contract(parse_word(move["word"], f"{mpath}.word"))
        elif op == "recode":
            if "table" not in move or "window" not in move:
                raise _fail(mpath, "recode needs \"table\" and \"window\"")
            window = move["window"]
            if not isinstance(window, int) or isinstance(window, bool) or window < 1:
                raise _fail(f"{mpath}.window", "expected a positive integer")
            pipe = pipe.recode(_parse_block_table(move["table"], f"{mpath}.table"), window)
        else:
            raise _fail(f"{mpath}.op", f"unknown move {op!r}")
    return pipe


def pipeline_json(pipe: MovePipeline) -> dict:
    moves = []
    for mv in pipe.moves:
        if isinstance(mv, SymbolExpansion):
            moves.append({"op": "expand", "symbol": mv.symbol})
        elif isinstance(mv, SymbolContraction):
            moves.append({"op": "contract", "symbol": mv.symbol, "removed": mv.removed})
        elif isinstance(mv, WordContraction):
            moves.append({"op": "word_contract", "word": word_json(mv.word)})
        elif isinstance(mv, Recode):
            moves.append(
                {
                    "op": "recode",
                    "table": [[word_json(u), s] for u, s in mv.table],
                    "window": mv.window,
                }
            )
        else:
            raise InvalidInput(f"unknown move {mv!r}")
    return {"source": sft_json(pipe.source), "moves": moves}


def _int_list(value: Any, path: str) -> list[int]:
    out: list[int] = []
    for i, v in enumerate(_expect_list(value, path)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise _fail(f"{path}[{i}]", "expected an integer")
        if v < 0:
            raise _fail(f"{path}[{i}]", f"negative value {v}")
        out.append(v)
    if out != sorted(set(out)):
        raise _fail(path, "must be strictly increasing")
    return out


def parse_sgap(doc: Any) -> SGapSet:
    obj = _expect_object(doc, "", {"kind", "elements", "R", "T", "N", "members", "bound"})
    kind = obj.get("kind")
    if kind == "finite":
        if "elements" not in obj:
            raise _fail("", "a finite gap set needs \"elements\"")
        return FiniteGaps(tuple(_int_list(obj["elements"], "elements")))
    if kind == "eventually_periodic":
        for key in ("R", "T", "N"):
            if key not in obj:
                raise _fail("", f"an eventually periodic gap set needs \"{key}\"")
        n = obj["N"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise _fail("N", "expected a positive integer period")
        return EventuallyPeriodicGaps(
            tuple(_int_list(obj["R"], "R")),
            tuple(_int_list(obj["T"], "T")),
            n,
        )
    if kind == "sampled":
        for key in ("members", "bound"):
            if key not in obj:
                raise _fail("", f"a sampled gap set needs \"{key}\"")
        bound = obj["bound"]
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise _fail("bound", "expected a nonnegative integer")
        return SampledGaps(tuple(_int_list(obj["members"], "members")), bound)
    raise _fail("kind", f"unknown kind {kind!r}")


def sgap_json(s: SGapSet) -> dict:
    if isinstance(s, FiniteGaps):
        return {"kind": "finite", "elements": list(s.elements)}
    if isinstance(s, EventuallyPeriodicGaps):
        return {"kind": "eventually_periodic", "R": list(s.R), "T": list(s.T), "N": s.N}
    return {"kind": "sampled", "members": list(s.members), "bound": s.bound}


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


_PARSERS = {
    "sft": parse_sft,
    "graph": parse_graph,
    "adjacency": parse_adjacency,
    "pipeline": parse_pipeline,
    "sgap": parse_sgap,
}


def detect_kind(doc: Any) -> str:
    """Which format a decoded JSON document is shaped like."""
    if isinstance(doc, list):
        return "adjacency"
    if isinstance(doc, dict):
        if "kind" in doc:
            return "sgap"
        if "moves" in doc or "source" in doc:
            return "pipeline"
        if "alphabet" in doc or "forbidden" in doc:
            return "sft"
        if "vertices" in doc or "edges" in doc:
            return "graph"
    raise InvalidInput("document matches no known input format")


def parse_any(doc: Any) -> tuple[str, Any]:
    kind = detect_kind(doc)
    parsed = _PARSERS[kind](doc)
    if kind == "graph" and isinstance(parsed, LabeledGraph):
        return "labeled_graph", parsed
    return kind, parsed


def dumps(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
