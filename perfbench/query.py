"""`query`: the read side of flow moves.

Pipelines are built during set-up, so their cost lands in `setup_s`:
chained word contractions with 2 to 10 elementary stages (deciding
lengths 28 to 41,984) and a few pipelines from `build`'s generator.
Operations transport periodic orbits of period 1 to 6, push language
words of length 10^2 to 10^4 through a pipeline, and ask
`contains_word`, `language_count` and `enumerate_language` of pipeline
stages.  The `_edge_shift` cache stays warm across operations.
"""

from __future__ import annotations

import random

import shiftflow as sf

from build import HEAVY, SHAPES, _bases, build_pipeline, random_plan
from common import WORD_IMAGE, Op, Rejected, edge_shift_size, expect, walk_word

COLD_CACHE = False

# Lengths of the contracted words in each chain; the last chain has 10
# elementary stages with memory 3, the deciding length 41,984.
CHAINS = ((2,), (3,), (2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2), (3, 3, 2, 2))
# Chains of 5 and more elementary stages, and the orbits transported
# through them, are drawn from a fixed generator: their transports are
# the top of the latency distribution, and a seed-dependent choice of
# contracted words would move p95 and throughput by itself.  The shorter
# chains start from the bases in turn, so every seed finds the same
# number of orbits.
ANCHOR_STAGES = 5


def _chain(base: sf.ForbiddenSetSFT, lengths, rng: random.Random) -> sf.MovePipeline:
    """Contract a random contractible language word of each length in turn."""
    pipe = sf.MovePipeline.start(base)
    for n in lengths:
        words = sf.enumerate_language(pipe.result, n)
        rng.shuffle(words)
        for w in words:
            try:
                pipe = pipe.word_contract(w)
                break
            except sf.PreconditionError:
                continue
        else:
            raise RuntimeError(f"no contractible word of length {n}")
    return pipe


def _cycles(x: sf.ForbiddenSetSFT, rng: random.Random) -> list[sf.Word]:
    """One primitive cycle of each period 1..6 whose orbit lies in x."""
    out = []
    for p in range(1, 7):
        reps = (x.step + 2) // p + 2
        found = [
            w
            for w in sf.enumerate_language(x, p)
            if sf.PeriodicOrbit(w).cycle == w and sf.contains_word(x, w * reps)
        ]
        if found:
            out.append(rng.choice(found))
    return out


def _single_cycle_insertion(short: sf.Word, long: sf.Word, cycle: sf.Word) -> bool:
    p = len(cycle)
    rotations = {cycle[r:] + cycle[:r] for r in range(p)}
    return any(
        long[pos : pos + p] in rotations and long[:pos] + long[pos + p :] == short
        for pos in range(len(long) - p + 1)
    )


def _periodic_op(pipe: sf.MovePipeline, cycle: sf.Word) -> Op:
    def check(orbit) -> None:
        k = -(-sf.deciding_length_bound(pipe) // len(cycle))
        img_k = sf.pipeline_apply_word(pipe, cycle * k)
        img_k1 = sf.pipeline_apply_word(pipe, cycle * (k + 1))
        expect(len(img_k1) == len(img_k) + orbit.period, f"orbit of {cycle!r}: period {orbit.period} does not match growth")
        expect(_single_cycle_insertion(img_k, img_k1, orbit.cycle), f"orbit of {cycle!r}: not a single cycle insertion")

    def count(_orbit) -> dict[str, float]:
        return {
            "moves.deciding_length": float(sf.deciding_length_bound(pipe)),
            "moves.elementary_stages": float(sum(len(mv.word) for mv in pipe.moves)),
        }

    return Op("periodic", lambda: sf.pipeline_apply_periodic(pipe, sf.PeriodicOrbit(cycle)), check, count)


def _word_op(pipe: sf.MovePipeline, word: sf.Word) -> Op:
    def check(image) -> None:
        expect(sf.contains_word(pipe.result, image), f"image of a length-{len(word)} word is not in the result language", WORD_IMAGE)

    def count(image) -> dict[str, float]:
        return {"moves.image_symbols": float(len(image))}

    return Op("apply_word", lambda: sf.pipeline_apply_word(pipe, word), check, count)


def _stage_counts(stage: sf.ForbiddenSetSFT) -> dict[str, float]:
    vertices, edges = edge_shift_size(stage)
    return {
        "sft.edge_shift_vertices": float(vertices),
        "sft.edge_shift_edges": float(edges),
        "sft.forbidden_words": float(len(stage.forbidden)),
    }


def _contains_op(stage: sf.ForbiddenSetSFT, word: sf.Word) -> Op:
    m = stage.step

    def check(found) -> None:
        blocks = set(sf.enumerate_language(stage, m + 1))
        expected = all(s in stage.alphabet for s in word) and all(f in blocks for f in word.factors(m + 1))
        expect(found == expected, f"contains_word gave {found} for a length-{len(word)} word")

    return Op("contains_word", lambda: sf.contains_word(stage, word), check, lambda _: _stage_counts(stage))


def _count_op(stage: sf.ForbiddenSetSFT, n: int) -> Op:
    def check(total) -> None:
        expect(total == len(sf.enumerate_language(stage, n)), f"language_count({n}) disagrees with the enumeration")

    return Op("language_count", lambda: sf.language_count(stage, n), check, lambda _: _stage_counts(stage))


def _enum_op(stage: sf.ForbiddenSetSFT, n: int, rng_seed: int) -> Op:
    def check(words) -> None:
        expect(all(a < b for a, b in zip(words, words[1:])), "enumeration is not strictly sorted")
        expect(len(words) == sf.language_count(stage, n), f"enumerate_language({n}) disagrees with the count")
        sample = random.Random(rng_seed).sample(words, min(20, len(words)))
        expect(all(len(w) == n and sf.contains_word(stage, w) for w in sample), "enumerated word outside the language")

    def count(words) -> dict[str, float]:
        return {"sft.language_words": float(len(words)), **_stage_counts(stage)}

    return Op("enumerate_language", lambda: sf.enumerate_language(stage, n), check, count)


def _flip(word: sf.Word, alphabet, rng: random.Random) -> sf.Word:
    i = rng.randrange(len(word))
    return sf.Word(list(word[:i]) + [rng.choice(alphabet.symbols)] + list(word[i + 1 :]))


def _largest_n(stage: sf.ForbiddenSetSFT, limit: int, cap: int) -> int:
    n = 1
    while n < cap and sf.language_count(stage, n + 1) <= limit:
        n += 1
    return n


def setup(seed: int) -> list[Op]:
    """Sizes follow fixed schedules (word lengths, which pipeline or stage
    an operation uses); the seed draws the contracted words, the orbits and
    the words themselves.  Cheap language-count and membership queries are
    sized so that p50 falls among the membership queries."""
    rng = random.Random(f"query/{seed}")
    fixed = random.Random("query/anchors")
    bases = _bases()[:3]
    light = [shape for shape in SHAPES if shape not in HEAVY]
    short = [lengths for lengths in CHAINS if sum(lengths) < ANCHOR_STAGES]
    chains = [_chain(bases[i % len(bases)], lengths, rng) for i, lengths in enumerate(short)]
    anchors = [_chain(fixed.choice(bases), lengths, fixed) for lengths in CHAINS if sum(lengths) >= ANCHOR_STAGES]
    built = []
    while len(built) < 4:
        pipe = build_pipeline(rng.choice(bases), random_plan(rng.choice(light), rng))
        if not isinstance(pipe, Rejected) and len(pipe.moves) > 1:
            built.append(pipe)
    ops: list[Op] = []
    for pipe in chains:
        ops += [_periodic_op(pipe, c) for c in _cycles(pipe.source, rng)]
    for pipe in anchors:
        ops += [_periodic_op(pipe, c) for c in _cycles(pipe.source, fixed)]
    pipes = chains + anchors + built
    for k in range(40):
        pipe = pipes[k % len(pipes)]
        ops.append(_word_op(pipe, walk_word(pipe.source, int(10 ** (2 + 2 * k / 39)), rng)))
    stages = [st for pipe in pipes for st in pipe.stages[1:]]
    largest = {id(st): (_largest_n(st, 4000, 24), _largest_n(st, 1500, 16)) for st in stages}
    # Membership queries, where p50 falls, ask the fixed anchor stages.
    anchor_stages = [st for pipe in anchors for st in pipe.stages[1:]]
    for k in range(100):
        stage = anchor_stages[k % len(anchor_stages)]
        word = walk_word(stage, 50 + k, rng)
        ops.append(_contains_op(stage, word if rng.random() < 0.7 else _flip(word, stage.alphabet, rng)))
    for k in range(120):
        stage = stages[k % len(stages)]
        ops.append(_count_op(stage, 2 + k % (largest[id(stage)][0] - 1)))
    for k in range(40):
        stage = stages[k % len(stages)]
        ops.append(_enum_op(stage, largest[id(stage)][1], rng.randrange(1 << 30)))
    rng.shuffle(ops)
    return ops
