"""Pieces shared by the four workloads.

An `Op` is one closed-loop operation: `run` is the only part that is
timed; `check` and `canon` run afterwards, outside the timed region.
Inputs are generated here from a seeded `random.Random`; the library
only ever sees the generated objects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import shiftflow as sf


class CheckFailed(Exception):
    """An operation returned an output that its check rejects.

    `code` names the kind of failure, so known defects can be listed.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Extra size counters for the traced run, read from the output.
    count: Callable[[Any], dict[str, float]] | None = None


@dataclass(frozen=True)
class Rejected:
    """An expected, documented refusal (a `PreconditionError`)."""

    error: str


def expect(cond: bool, message: str, code: str | None = None) -> None:
    if not cond:
        raise CheckFailed(message, code)


WORD_IMAGE = "word_image_outside_language"


def expect_image_in_language(pipe: sf.MovePipeline, word: sf.Word) -> None:
    """The image of a source-language word must be a result-language word."""
    try:
        image = sf.pipeline_apply_word(pipe, word)
    except sf.PartialBlockMapError as exc:
        raise CheckFailed(f"an intermediate image of a length-{len(word)} word left a stage language: {exc}", WORD_IMAGE)
    expect(sf.contains_word(pipe.result, image), f"image of a length-{len(word)} word is not in the result language", WORD_IMAGE)


def plain(obj: Any) -> Any:
    """JSON-ready form of a library value, independent of jsonio.

    Floats are rounded to 1e-9, the tolerance the library states for
    them, so digests survive a change of numerical method.
    """
    if isinstance(obj, float):
        return f"{obj:.9f}"
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, (frozenset, set)):
        items = [plain(x) for x in obj]
        return sorted(items, key=lambda v: json.dumps(v, ensure_ascii=False))
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if hasattr(obj, "_asdict"):
        return plain(dict(obj._asdict()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"type": type(obj).__name__, **{f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, (tuple, list)):
        return [plain(x) for x in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj: Any) -> str:
    text = json.dumps(plain(obj), ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def walk_word(x: sf.ForbiddenSetSFT, length: int, rng) -> sf.Word:
    """A random word of the language of x, built symbol by symbol.

    It is a walk on the essential edge shift, so every prefix extends
    both ways inside the shift.
    """
    graph, edge_words = sf.sft_to_edge_shift(sf.to_m_step(x))
    out: dict = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.src].append(e)
    edge = graph.edges[rng.randrange(len(graph.edges))]
    symbols = list(edge_words[edge.eid])
    while len(symbols) < length:
        edge = rng.choice(out[edge.dst])
        symbols.append(edge_words[edge.eid][-1])
    return sf.Word(symbols[:length])


def edge_shift_size(x: sf.ForbiddenSetSFT) -> tuple[int, int]:
    graph, _ = sf.sft_to_edge_shift(sf.to_m_step(x))
    return len(graph.vertices), len(graph.edges)
