"""`build`: the write side of flow moves.

Each operation builds one move pipeline from a seeded plan: one to four
moves (symbol expansion, symbol contraction right after an expansion,
word contraction of a language word, 2-block recoding) on a small
irreducible SFT over two or three symbols.  A round also runs the
entropy boost at target 1 on the full 2- and 3-shifts and one boost
iterated on the fresh symbols of the first.  The `_edge_shift` cache is
cleared before every operation, so each build pays for its own
edge-shift constructions.
"""

from __future__ import annotations

import random

import shiftflow as sf

from common import Op, Rejected, edge_shift_size, expect, expect_image_in_language, walk_word

# Move shapes of one to four moves: E expand, C contract the symbol the
# previous expansion added, WCn contract a length-n language word, R
# recode by 2-blocks.
SHAPES = (
    "WC2", "WC3", "E", "R",
    "E C", "WC2 WC2", "E WC2", "R WC2", "WC2 R",
    "E C WC2", "WC2 WC2 WC2", "WC3 WC2",
    "E E C WC2", "WC2 E C WC2", "R E C",
)
# After a recode every symbol has a multi-codepoint name such as "0.1",
# so "R E C" expands and contracts one.  On three symbols it costs
# seconds, so it runs on the two-symbol bases only.
TWO_SYMBOL_ONLY = {"R E C"}
# Fixed plans (shape, base index, random draws) for the shapes and bases
# that can cost more than ~40 ms, each picked to cost 50-300 ms here.
# They are the same for every seed: with the boosts they form the top
# 7% of the latency distribution, so p95 and throughput do not depend on
# which words a seed happens to contract.  Every other shape and base
# gets seeded plans.
ANCHORS = (
    ("WC3", 3, (740581630,)),
    ("WC3", 4, (191326758,)),
    ("WC3 WC2", 0, (428835382, 1052480872)),
    ("WC3 WC2", 3, (906215730, 195697240)),
    ("WC3 WC2", 4, (1038540801, 941626013)),
    ("WC3 WC2", 5, (932390754, 441708692)),
    ("E E C WC2", 3, (869946881, 10148591, 527433249, 393301143)),
    ("E E C WC2", 4, (32090380, 977542227, 844411070, 986190791)),
    ("E E C WC2", 5, (337548673, 971726057, 482978992, 773492614)),
    ("WC2 E C WC2", 3, (659712494, 825316508, 892872908, 706523151)),
    ("WC2 E C WC2", 4, (692903064, 653141676, 126044508, 450166238)),
    ("WC2 E C WC2", 5, (148604914, 599675608, 914767202, 699160433)),
    ("E C", 4, (442645716, 819726788)),
    ("E C WC2", 4, (143232345, 48284619, 1041215574)),
    ("WC3 WC2", 4, (194742841, 856359187)),
    ("WC3 WC2", 5, (1009403914, 305828638)),
    ("E E C WC2", 3, (1008041781, 539032311, 863460907, 660624554)),
    ("WC2 E C WC2", 3, (838393310, 318979278, 422403830, 807467143)),
    ("WC2 E C WC2", 5, (168918519, 822884261, 654787659, 402006330)),
    ("WC3 WC2", 4, (913632563, 1054480422)),
    ("WC3 WC2", 5, (901870436, 1029052623)),
    ("WC2 E C WC2", 5, (738876063, 375154558, 565741015, 996250416)),
    ("WC2 E C WC2", 5, (380023600, 699627121, 1035200467, 954734504)),
    ("WC2 E C WC2", 5, (257924853, 588051181, 203079029, 460272292)),
)
HEAVY = {shape for shape, _, _ in ANCHORS}
# Seeded plans per shape, by alphabet size.  The two-symbol bases, whose
# builds cost a few milliseconds, get more: p50 falls among them, and
# more of them make it depend less on which words a seed contracts.
PLANS = {2: 6, 3: 3}


def _bases() -> list[sf.ForbiddenSetSFT]:
    """Small irreducible SFTs over two and three symbols."""
    W = sf.Word
    two = sf.Alphabet(("0", "1"))
    three = sf.Alphabet(("0", "1", "2"))
    return [
        sf.ForbiddenSetSFT(two, frozenset()),
        sf.ForbiddenSetSFT(two, frozenset({W(["1", "1"])})),
        sf.ForbiddenSetSFT(two, frozenset({W(["1", "1"]), W(["0", "0", "0"])})),
        sf.ForbiddenSetSFT(three, frozenset()),
        sf.ForbiddenSetSFT(three, frozenset({W(["0", "0"]), W(["1", "2"])})),
        sf.ForbiddenSetSFT(three, frozenset({W(["0", "0"]), W(["1", "1"]), W(["2", "2"])})),
    ]


def _plan(shape: str, draws) -> list[tuple[str, int, int]]:
    """A plan is (move kind, random draw, word length) per move; the draw
    picks the symbol or word when the move runs."""
    plan = []
    for move, r in zip(shape.split(), draws):
        kind = {"E": "expand", "C": "contract", "R": "recode"}.get(move, "word_contract")
        length = int(move[2:]) if kind == "word_contract" else 2
        plan.append((kind, r, length))
    return plan


def random_plan(shape: str, rng: random.Random) -> list[tuple[str, int, int]]:
    return _plan(shape, [rng.randrange(1 << 30) for _ in shape.split()])


def build_pipeline(base: sf.ForbiddenSetSFT, plan) -> sf.MovePipeline | Rejected:
    """Apply the plan move by move through the exported move functions."""
    stages = [base]
    moves: list = []
    try:
        for kind, r, length in plan:
            x = stages[-1]
            if kind == "expand":
                symbols = x.alphabet.symbols
                y, mv = sf.symbol_expand(x, symbols[r % len(symbols)])
            elif kind == "contract":
                y, mv = sf.symbol_contract(x, moves[-1].symbol, moves[-1].fresh)
            elif kind == "word_contract":
                words = sf.enumerate_language(x, length)
                y, mv = sf.word_contract(x, words[r % len(words)])
            else:
                table = {u: f"{u[0]}.{u[1]}" for u in sf.enumerate_language(x, 2)}
                y, mv = sf.recode(x, table, 2)
            stages.append(y)
            moves.append(mv)
    except sf.PreconditionError:
        return Rejected("PreconditionError")
    return sf.MovePipeline(tuple(stages), tuple(moves))


def boost_twice(x: sf.ForbiddenSetSFT) -> sf.MovePipeline:
    """Boost to target 1, then boost the result again on its fresh symbols."""
    first = sf.boost_entropy_pipeline(x, "a", "b", 1)
    return sf.boost_entropy_pipeline(first.result, "◇2", "◇", 1)


def _check_pipeline(pipe, check_rng: random.Random) -> None:
    if isinstance(pipe, Rejected):
        return
    expect(len(pipe.stages) == len(pipe.moves) + 1, "stage count")
    for _ in range(2):
        expect_image_in_language(pipe, walk_word(pipe.source, check_rng.randint(8, 40), check_rng))


def _check_boost(pipe, check_rng: random.Random) -> None:
    _check_pipeline(pipe, check_rng)
    h = sf.perron_entropy(pipe.result).value
    expect(h >= 1.0 - 1e-9, f"boosted entropy {h} is below the target 1")


def _count(pipe) -> dict[str, float]:
    if isinstance(pipe, Rejected):
        return {"moves.build_success": 0.0}
    vertices, edges = edge_shift_size(pipe.result)
    stages = sum(len(mv.word) if isinstance(mv, sf.WordContraction) else 1 for mv in pipe.moves)
    return {
        "moves.build_success": 1.0,
        "moves.moves_applied": float(len(pipe.moves)),
        "moves.elementary_stages": float(stages),
        "moves.deciding_length": float(sf.deciding_length_bound(pipe)),
        "sft.edge_shift_vertices": float(vertices),
        "sft.edge_shift_edges": float(edges),
        "sft.forbidden_words": float(len(pipe.result.forbidden)),
    }


def _op(kind: str, run, checker, check_seed: int) -> Op:
    return Op(kind, run, lambda out: checker(out, random.Random(check_seed)), _count)


def setup(seed: int) -> list[Op]:
    rng = random.Random(f"build/{seed}")
    bases = _bases()
    full2 = sf.full_shift(["a", "b"])
    full3 = sf.full_shift(["a", "b", "c"])
    jobs = [(bases[i], _plan(shape, draws)) for shape, i, draws in ANCHORS]
    anchored = {(shape, i) for shape, i, _ in ANCHORS}
    for i, base in enumerate(bases):
        for shape in SHAPES:
            if (shape, i) not in anchored and (len(base.alphabet) == 2 or shape not in TWO_SYMBOL_ONLY):
                # Consecutive draws pick different symbols and words, which
                # spreads the plans over the choices a move offers.
                draws = [rng.randrange(1 << 30) for _ in shape.split()]
                jobs += [(base, _plan(shape, [r + k for r in draws])) for k in range(PLANS[len(base.alphabet)])]
    ops = [_op("pipeline", lambda b=b, p=p: build_pipeline(b, p), _check_pipeline, rng.randrange(1 << 30)) for b, p in jobs]
    ops += [
        _op("boost2", lambda: sf.boost_entropy_pipeline(full2, "a", "b", 1), _check_boost, rng.randrange(1 << 30)),
        _op("boost3", lambda: sf.boost_entropy_pipeline(full3, "a", "b", 1), _check_boost, rng.randrange(1 << 30)),
        _op("boost_iterated", lambda: boost_twice(full2), _check_boost, rng.randrange(1 << 30)),
    ]
    rng.shuffle(ops)
    return ops
