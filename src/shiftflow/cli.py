"""Command-line front end.

Every command reads JSON (a file path or an inline document), writes
one JSON object to standard output, and reserves standard error for
diagnostics.  Exit codes: 0 success, 2 bad input or failed
precondition, 3 verdicts that are only valid up to a stated bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from . import jsonio
from .entropy import (
    boost_entropy_pipeline,
    entropy_word_count,
    perron_entropy,
    scale_entropy_construction,
    sofic_entropy,
)
from .errors import NonConvergenceError, ShiftSpaceError
from .invariants import bowen_franks, franks_decide
from .moves import MovePipeline, pipeline_apply_word
from .presentations import LabeledGraph, minimal_right_resolving
from .sft import enumerate_language, sft_to_edge_shift
from .sgap import classify_type, fe_equal
from .words import Word


def _load_document(arg: str) -> Any:
    """File path, or an inline JSON document for arguments that start
    like one."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except OSError as exc:
            raise ShiftSpaceError(f"cannot read {arg}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShiftSpaceError(f"malformed JSON in {arg!r}: {exc}") from exc


def _load_word(arg: str) -> Word:
    if arg.lstrip().startswith("["):
        return jsonio.parse_word(_load_document(arg))
    return Word(arg)


def _emit(payload: Any) -> None:
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _cmd_invariant_bf(args: argparse.Namespace) -> int:
    matrix = jsonio.parse_adjacency(_load_document(args.matrix))
    _emit(jsonio.bf_json(bowen_franks(matrix)))
    return 0


def _cmd_fe_decide_sft(args: argparse.Namespace) -> int:
    a = jsonio.parse_adjacency(_load_document(args.a))
    b = jsonio.parse_adjacency(_load_document(args.b))
    _emit({"flow_equivalent": franks_decide(a, b)})
    return 0


def _cmd_language_enum(args: argparse.Namespace) -> int:
    x = jsonio.parse_sft(_load_document(args.sft))
    words = enumerate_language(x, args.n)
    _emit({"n": args.n, "count": len(words), "words": [jsonio.word_json(w) for w in words]})
    return 0


def _check_names(words: Iterable[Word], what: str) -> None:
    """Refuse two different blocks that would print as one name."""
    seen: dict[str, Word] = {}
    for w in words:
        other = seen.setdefault(w.text(), w)
        if other != w:
            a, b = (jsonio.dumps(jsonio.word_json(v)) for v in (other, w))
            raise ShiftSpaceError(f"{what} clash: blocks {a} and {b} both print as {jsonio.dumps(w.text())}")


def _cmd_graph_edge_shift(args: argparse.Namespace) -> int:
    x = jsonio.parse_sft(_load_document(args.sft))
    graph, edge_words = sft_to_edge_shift(x)
    _check_names(graph.vertices, "vertex name")
    _check_names(edge_words.values(), "edge label")
    _emit(jsonio.graph_json(graph, {eid: w.text() for eid, w in edge_words.items()}))
    return 0


def _cmd_presentation_minimize(args: argparse.Namespace) -> int:
    doc = _load_document(args.presentation)
    lg = jsonio.parse_graph(doc)
    if not isinstance(lg, LabeledGraph):
        raise ShiftSpaceError("minimization needs a labeled graph")
    _emit(jsonio.labeled_graph_json(minimal_right_resolving(lg)))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    kind, obj = jsonio.parse_any(_load_document(args.input))
    if kind == "pipeline" or kind == "sgap":
        raise ShiftSpaceError(f"entropy does not accept {kind} input")
    if args.method == "wordcount":
        est = entropy_word_count(obj, args.n)
    elif kind == "labeled_graph":
        est = sofic_entropy(obj)
    else:
        est = perron_entropy(obj)
    _emit(jsonio.entropy_json(est))
    return 0


def _cmd_construct_scale(args: argparse.Namespace) -> int:
    kind, obj = jsonio.parse_any(_load_document(args.input))
    if kind == "pipeline" or kind == "sgap":
        raise ShiftSpaceError(f"scale does not accept {kind} input")
    _emit(jsonio.graph_json(scale_entropy_construction(obj, args.n)))
    return 0


def _cmd_construct_boost(args: argparse.Namespace) -> int:
    x = jsonio.parse_sft(_load_document(args.sft))
    if args.symbols:
        parts = args.symbols.split(",")
        if len(parts) != 2 or not all(parts):
            raise ShiftSpaceError("--symbols wants two comma-separated symbols")
        a, b = parts
    else:
        if len(x.alphabet.symbols) < 2:
            raise ShiftSpaceError("boost needs at least two symbols")
        a, b = x.alphabet.symbols[0], x.alphabet.symbols[1]
    pipe = boost_entropy_pipeline(x, a, b, args.target)
    doc = jsonio.pipeline_json(pipe)
    _emit({"result": jsonio.sft_json(pipe.result), "moves": doc["moves"]})
    return 0


def _print_trace(pipe: MovePipeline) -> None:
    for i, stage in enumerate(pipe.stages):
        words = ",".join(w.text() for w in stage.sorted_forbidden())
        sys.stderr.write(f"stage {i}: alphabet={{{','.join(stage.alphabet.symbols)}}} forbidden={{{words}}}\n")


def _cmd_moves_apply(args: argparse.Namespace) -> int:
    pipe = jsonio.parse_pipeline(_load_document(args.pipeline))
    word = _load_word(args.word)
    if args.trace:
        _print_trace(pipe)
    image = pipeline_apply_word(pipe, word)
    _emit(
        {
            "word": jsonio.word_json(word),
            "image": jsonio.word_json(image),
            "decided": bool(image),
        }
    )
    return 0


def _cmd_sgap_classify(args: argparse.Namespace) -> int:
    s = jsonio.parse_sgap(_load_document(args.set))
    result = classify_type(s)
    _emit(jsonio.classification_json(result))
    return 3 if result.bound is not None else 0


def _cmd_sgap_fe_equal(args: argparse.Namespace) -> int:
    s1 = jsonio.parse_sgap(_load_document(args.s1))
    s2 = jsonio.parse_sgap(_load_document(args.s2))
    verdict = fe_equal(s1, s2, search_bound=args.bound)
    _emit(jsonio.verdict_json(verdict))
    return 3 if verdict.outcome in ("not_equivalent_up_to", "unknown_up_to") else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    kind, _ = jsonio.parse_any(_load_document(args.input))
    _emit({"valid": True, "kind": kind})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftflow",
        description="Shift spaces, flow-equivalence invariants and moves.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    invariant = top.add_parser("invariant", help="matrix invariants").add_subparsers(
        dest="sub", required=True
    )
    p = invariant.add_parser("bf", help="signed Bowen-Franks group of I - A")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_invariant_bf)

    fe = top.add_parser("fe", help="flow-equivalence decisions").add_subparsers(
        dest="sub", required=True
    )
    p = fe.add_parser("decide-sft", help="decide two irreducible edge shifts")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_fe_decide_sft)

    language = top.add_parser("language", help="language queries").add_subparsers(
        dest="sub", required=True
    )
    p = language.add_parser("enum", help="enumerate words of one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("sft")
    p.set_defaults(fn=_cmd_language_enum)

    graph = top.add_parser("graph", help="graph constructions").add_subparsers(
        dest="sub", required=True
    )
    p = graph.add_parser("edge-shift", help="edge-shift graph of an SFT")
    p.add_argument("sft")
    p.set_defaults(fn=_cmd_graph_edge_shift)

    pres = top.add_parser("presentation", help="sofic presentations").add_subparsers(
        dest="sub", required=True
    )
    p = pres.add_parser("minimize", help="minimal right-resolving presentation")
    p.add_argument("presentation")
    p.set_defaults(fn=_cmd_presentation_minimize)

    p = top.add_parser("entropy", help="entropy of a shift, graph, or matrix")
    p.add_argument("--method", choices=("wordcount", "perron"), default="perron")
    p.add_argument("--n", type=int, default=16, help="word length for --method wordcount")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_entropy)

    construct = top.add_parser("construct", help="entropy constructions").add_subparsers(
        dest="sub", required=True
    )
    p = construct.add_parser("scale", help="divide entropy by n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("input")
    p.set_defaults(fn=_cmd_construct_scale)
    p = construct.add_parser("boost", help="raise entropy to at least the target")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--symbols", help="two comma-separated symbols, e.g. 'a,b'")
    p.add_argument("sft")
    p.set_defaults(fn=_cmd_construct_boost)

    moves = top.add_parser("moves", help="flow-move pipelines").add_subparsers(
        dest="sub", required=True
    )
    p = moves.add_parser("apply", help="push a word through a pipeline")
    p.add_argument("--trace", action="store_true", help="print per-stage forbidden sets")
    p.add_argument("pipeline")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_moves_apply)

    sgap = top.add_parser("sgap", help="gap-shift classification").add_subparsers(
        dest="sub", required=True
    )
    p = sgap.add_parser("classify", help="finite type / strictly sofic / unknown")
    p.add_argument("set")
    p.set_defaults(fn=_cmd_sgap_classify)
    p = sgap.add_parser("fe-equal", help="decide flow equivalence of two gap shifts")
    p.add_argument("--bound", type=int, default=200)
    p.add_argument("s1")
    p.add_argument("s2")
    p.set_defaults(fn=_cmd_sgap_fe_equal)

    p = top.add_parser("validate", help="check a JSON input file")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ShiftSpaceError, NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
