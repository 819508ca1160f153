"""Command-line front end.

Every command reads JSON (a file path or an inline document), writes
one JSON object to standard output, and reserves standard error for
diagnostics.  Exit codes: 0 success, 2 bad input or failed
precondition, 3 exactly when the answer carries a "bound" key: a
verdict that is only valid up to that bound.

Each command is declared once, in `_COMMANDS`.  `main` loads and parses
its JSON documents, calls its handler and writes the answer the handler
returns.
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


def _load_word(arg: str) -> Word | str:
    """A JSON array names its symbols; a plain string is left to
    `pipeline_apply_word`, which refuses it when it is ambiguous."""
    if arg.lstrip().startswith("["):
        return jsonio.parse_word(_load_document(arg))
    return arg


def _cmd_invariant_bf(args: argparse.Namespace) -> dict:
    return jsonio.bf_json(bowen_franks(args.matrix))


def _cmd_fe_decide_sft(args: argparse.Namespace) -> dict:
    return {"flow_equivalent": franks_decide(args.a, args.b)}


def _cmd_language_enum(args: argparse.Namespace) -> dict:
    words = enumerate_language(args.sft, args.n)
    return {"n": args.n, "count": len(words), "words": [jsonio.word_json(w) for w in words]}


def _check_names(words: Iterable[Word], what: str) -> None:
    """Refuse two different blocks that would print as one name."""
    seen: dict[str, Word] = {}
    for w in words:
        other = seen.setdefault(w.text(), w)
        if other != w:
            a, b = (jsonio.dumps(jsonio.word_json(v)) for v in (other, w))
            raise ShiftSpaceError(f"{what} clash: blocks {a} and {b} both print as {jsonio.dumps(w.text())}")


def _cmd_graph_edge_shift(args: argparse.Namespace) -> dict:
    graph, edge_words = sft_to_edge_shift(args.sft)
    _check_names(graph.vertices, "vertex name")
    _check_names(edge_words.values(), "edge label")
    return jsonio.graph_json(graph, {eid: w.text() for eid, w in edge_words.items()})


def _cmd_presentation_minimize(args: argparse.Namespace) -> dict:
    if not isinstance(args.presentation, LabeledGraph):
        raise ShiftSpaceError("minimization needs a labeled graph")
    return jsonio.labeled_graph_json(minimal_right_resolving(args.presentation))


def _shift_or_graph(parsed: tuple[str, Any], command: str) -> tuple[str, Any]:
    """The (kind, object) of `jsonio.parse_any`, refusing pipelines and gap sets."""
    kind = parsed[0]
    if kind == "pipeline" or kind == "sgap":
        raise ShiftSpaceError(f"{command} does not accept {kind} input")
    return parsed


def _cmd_entropy(args: argparse.Namespace) -> dict:
    kind, obj = _shift_or_graph(args.input, "entropy")
    if args.method == "wordcount":
        est = entropy_word_count(obj, args.n)
    elif kind == "labeled_graph":
        est = sofic_entropy(obj)
    else:
        est = perron_entropy(obj)
    return jsonio.entropy_json(est)


def _cmd_construct_scale(args: argparse.Namespace) -> dict:
    _, obj = _shift_or_graph(args.input, "scale")
    return jsonio.graph_json(scale_entropy_construction(obj, args.n))


def _cmd_construct_boost(args: argparse.Namespace) -> dict:
    x = args.sft
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
    return {"result": jsonio.sft_json(pipe.result), "moves": jsonio.pipeline_json(pipe)["moves"]}


def _print_trace(pipe: MovePipeline) -> None:
    for i, stage in enumerate(pipe.stages):
        words = ",".join(w.text() for w in stage.sorted_forbidden())
        sys.stderr.write(f"stage {i}: alphabet={{{','.join(stage.alphabet.symbols)}}} forbidden={{{words}}}\n")


def _cmd_moves_apply(args: argparse.Namespace) -> dict:
    word = _load_word(args.word)
    if args.trace:
        _print_trace(args.pipeline)
    image = pipeline_apply_word(args.pipeline, word)
    return {"word": jsonio.word_json(Word(word)), "image": jsonio.word_json(image), "decided": bool(image)}


def _cmd_sgap_classify(args: argparse.Namespace) -> dict:
    return jsonio.classification_json(classify_type(args.set))


def _cmd_sgap_fe_equal(args: argparse.Namespace) -> dict:
    return jsonio.verdict_json(fe_equal(args.s1, args.s2, search_bound=args.bound))


def _cmd_validate(args: argparse.Namespace) -> dict:
    return {"valid": True, "kind": args.input[0]}


# (command words, help, handler, arguments), in help order.  A row with
# no handler is a group of commands.  An argument is (name, argparse
# keywords) or (name, the `jsonio` parser of its JSON document).
_COMMANDS = (
    (("invariant",), "matrix invariants", None, ()),
    (("invariant", "bf"), "signed Bowen-Franks group of I - A", _cmd_invariant_bf,
     (("matrix", jsonio.parse_adjacency),)),
    (("fe",), "flow-equivalence decisions", None, ()),
    (("fe", "decide-sft"), "decide two irreducible edge shifts", _cmd_fe_decide_sft,
     (("a", jsonio.parse_adjacency), ("b", jsonio.parse_adjacency))),
    (("language",), "language queries", None, ()),
    (("language", "enum"), "enumerate words of one length", _cmd_language_enum,
     (("--n", {"type": int, "required": True}), ("sft", jsonio.parse_sft))),
    (("graph",), "graph constructions", None, ()),
    (("graph", "edge-shift"), "edge-shift graph of an SFT", _cmd_graph_edge_shift,
     (("sft", jsonio.parse_sft),)),
    (("presentation",), "sofic presentations", None, ()),
    (("presentation", "minimize"), "minimal right-resolving presentation", _cmd_presentation_minimize,
     (("presentation", jsonio.parse_graph),)),
    (("entropy",), "entropy of a shift, graph, or matrix", _cmd_entropy,
     (("--method", {"choices": ("wordcount", "perron"), "default": "perron"}),
      ("--n", {"type": int, "default": 16, "help": "word length for --method wordcount"}),
      ("input", jsonio.parse_any))),
    (("construct",), "entropy constructions", None, ()),
    (("construct", "scale"), "divide entropy by n", _cmd_construct_scale,
     (("--n", {"type": int, "required": True}), ("input", jsonio.parse_any))),
    (("construct", "boost"), "raise entropy to at least the target", _cmd_construct_boost,
     (("--target", {"type": int, "required": True}),
      ("--symbols", {"help": "two comma-separated symbols, e.g. 'a,b'"}),
      ("sft", jsonio.parse_sft))),
    (("moves",), "flow-move pipelines", None, ()),
    (("moves", "apply"), "push a word through a pipeline", _cmd_moves_apply,
     (("--trace", {"action": "store_true", "help": "print per-stage forbidden sets"}),
      ("pipeline", jsonio.parse_pipeline), ("word", {}))),
    (("sgap",), "gap-shift classification", None, ()),
    (("sgap", "classify"), "finite type / strictly sofic / unknown", _cmd_sgap_classify,
     (("set", jsonio.parse_sgap),)),
    (("sgap", "fe-equal"), "decide flow equivalence of two gap shifts", _cmd_sgap_fe_equal,
     (("--bound", {"type": int, "default": 200}), ("s1", jsonio.parse_sgap), ("s2", jsonio.parse_sgap))),
    (("validate",), "check a JSON input file", _cmd_validate, (("input", jsonio.parse_any),)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftflow",
        description="Shift spaces, flow-equivalence invariants and moves.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, summary, handler, arguments in _COMMANDS:
        p = subparsers[words[:-1]].add_parser(words[-1], help=summary)
        if handler is None:
            subparsers[words] = p.add_subparsers(dest="sub", required=True)
            continue
        for name, spec in arguments:
            p.add_argument(name, **(spec if isinstance(spec, dict) else {}))
        p.set_defaults(handler=handler, arguments=arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, spec in args.arguments:
            if callable(spec):
                setattr(args, name, spec(_load_document(getattr(args, name))))
        answer = args.handler(args)
    except (ShiftSpaceError, NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(jsonio.dumps(answer) + "\n")
    return 3 if "bound" in answer else 0


if __name__ == "__main__":
    sys.exit(main())
