"""End-to-end command tests, run in process through main(argv)."""

from __future__ import annotations

import json
import math
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from shiftflow import to_m_step
from shiftflow.cli import _COMMANDS, main
from shiftflow.jsonio import dumps, graph_json, parse_sft, sft_json, sgap_json
from shiftflow.sft import _edge_shift

from .oracles import edge_shift_by_words
from .test_perron_paths import _underflowing_cycle
from .test_sgap import _partner, _random_gaps

README = Path(__file__).resolve().parents[1] / "README.md"
GM = '{"alphabet":["0","1"],"forbidden":["11"]}'
FULL2 = '{"alphabet":["a","b"],"forbidden":[]}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_bf(capsys):
    code, out, err = run(capsys, ["invariant", "bf", "[[2]]"])
    assert code == 0
    assert out == '{"sign":-1,"divisors":[]}\n'
    assert err == ""


def test_fe_decide_sft(capsys):
    code, out, _ = run(capsys, ["fe", "decide-sft", "[[2]]", "[[1,1],[1,1]]"])
    assert code == 0
    assert out == '{"flow_equivalent":true}\n'
    code, out, _ = run(capsys, ["fe", "decide-sft", "[[2]]", "[[3]]"])
    assert code == 0
    assert out == '{"flow_equivalent":false}\n'


def test_fe_decide_rejects_reducible(capsys):
    code, out, err = run(capsys, ["fe", "decide-sft", "[[1,1],[0,1]]", "[[2]]"])
    assert code == 2
    assert out == ""
    assert "irreducible" in err


def test_language_enum(capsys):
    code, out, _ = run(capsys, ["language", "enum", "--n", "4", GM])
    assert code == 0
    assert out == (
        '{"n":4,"count":8,"words":'
        '["0000","0001","0010","0100","0101","1000","1001","1010"]}\n'
    )


def _forbidding_c(length: int) -> str:
    return json.dumps({"alphabet": ["a", "b", "c"], "forbidden": ["c" * length]})


TOO_MANY = "error: words of length 13 have 1594323 candidates, above the limit 1048576\n"
FAR = '{"kind":"eventually_periodic","R":[],"T":[%d],"N":2}'

# Hard inputs: each answers, or exits 2 with its message, within a second.
# Forbidding c^13 over {a, b, c} asks for the 3^13 candidate words of
# length 13: without the limit, `language enum` took 32 s to list 9 words
# and c^15 ran out of memory.  Scaling [[2]] by n builds 2n - 1 vertices:
# n = 10^5 took 0.9 s and 116 MiB, so n = 10^7 would need about 11 GiB.
# The translation by one of an offset at
# 100,000 scanned every translation up to the span and took 6 to 9 s.
# A cycle through 121 indices with 1000 at [0][0] has a Perron vector whose
# entry at index 1 underflows to zero; its ratio raised `ZeroDivisionError`.
# Evens against odds built masks as wide as the search bound allows,
# though the witness is r = 1: a bound of 10^8 took 0.7 s and 194 MiB,
# and both grow linearly with the bound.
HARD_INPUTS = {
    "language-enum-c13": (["language", "enum", "--n", "2", _forbidding_c(13)], 2, "", TOO_MANY),
    "language-enum-c15": (["language", "enum", "--n", "2", _forbidding_c(15)], 2, "", TOO_MANY),
    "graph-edge-shift-c13": (["graph", "edge-shift", _forbidding_c(13)], 2, "", TOO_MANY),
    "entropy-c13": (["entropy", _forbidding_c(13)], 2, "", TOO_MANY),
    "construct-boost-c13": (["construct", "boost", "--target", "1", _forbidding_c(13)], 2, "", TOO_MANY),
    "construct-scale-n10000000": (
        ["construct", "scale", "--n", "10000000", "[[2]]"],
        2,
        "",
        "error: scaling by 10000000 gives 19999999 vertices, above the limit 1048576\n",
    ),
    "entropy-underflow-121": (
        ["entropy", json.dumps(_underflowing_cycle(121))],
        2,
        "",
        "error: power iteration underflowed after 120 iterations: "
        "an entry of the Perron vector fell below the smallest float\n",
    ),
    "sgap-fe-equal-far-100000": (
        ["sgap", "fe-equal", FAR % 100_000, FAR % 100_001],
        0,
        '{"outcome":"equivalent","witness":{"n":0,"r":1}}\n',
        "",
    ),
    "sgap-fe-equal-bound-1e9": (
        ["sgap", "fe-equal", "--bound", str(10**9), FAR % 0, FAR % 1],
        0,
        '{"outcome":"equivalent","witness":{"n":0,"r":1}}\n',
        "",
    ),
}


@pytest.mark.parametrize("name", HARD_INPUTS)
def test_hard_inputs_answer_or_exit_2_within_a_second(capsys, name):
    argv, code, out, err = HARD_INPUTS[name]
    start = time.perf_counter()
    got = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert got == (code, out, err)


def test_language_enum_from_file(capsys, tmp_path):
    path = tmp_path / "gm.json"
    path.write_text(GM, encoding="utf-8")
    code, out, _ = run(capsys, ["language", "enum", "--n", "2", str(path)])
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": 3, "words": ["00", "01", "10"]}


def test_graph_edge_shift(capsys):
    code, out, _ = run(capsys, ["graph", "edge-shift", GM])
    assert code == 0
    assert out == (
        '{"vertices":["0","1"],"edges":['
        '{"from":"0","to":"0","label":"00"},'
        '{"from":"0","to":"1","label":"01"},'
        '{"from":"1","to":"0","label":"10"}]}\n'
    )


def test_graph_edge_shift_of_mixed_lengths_is_that_of_to_m_step(capsys):
    doc = '{"alphabet":["0","1"],"forbidden":["11","000"]}'
    code, out, err = run(capsys, ["graph", "edge-shift", doc])
    assert (code, err) == (0, "")
    normal = dumps(sft_json(to_m_step(parse_sft(json.loads(doc)))))
    assert '"11"' not in normal
    assert run(capsys, ["graph", "edge-shift", normal]) == (0, out, "")


def test_graph_edge_shift_refuses_clashing_names(capsys):
    code, out, err = run(capsys, ["graph", "edge-shift", '{"alphabet":["a","aa"],"forbidden":[["a","a","a"]]}'])
    assert (code, out) == (2, "")
    assert err == 'error: vertex name clash: blocks ["a","aa"] and ["aa","a"] both print as "aaa"\n'
    code, out, err = run(capsys, ["graph", "edge-shift", '{"alphabet":["a","aa"],"forbidden":[["a","a"]]}'])
    assert (code, out) == (2, "")
    assert err == 'error: edge label clash: blocks ["a","aa"] and ["aa","a"] both print as "aaa"\n'
    code, out, _ = run(capsys, ["graph", "edge-shift", '{"alphabet":["◇2","0"],"forbidden":[["◇2","◇2"]]}'])
    assert code == 0
    assert json.loads(out)["vertices"] == ["0", "◇2"]


def test_graph_edge_shift_bytes_match_the_rescanning_trim(capsys):
    """`graph edge-shift` prints the bytes of the edge shift trimmed by
    the oracle that recounted every edge in each round: vertex order and
    edge ids survive the queue trim, with multi-codepoint symbols and
    with dead chains of several rounds."""
    docs = [
        GM,
        '{"alphabet":["◇2","0"],"forbidden":[["◇2","◇2"]]}',
        # ◇3 only leads to ◇2, which leads nowhere: a two-round dead chain.
        '{"alphabet":["a","◇2","◇3"],"forbidden":[["◇2","a"],["◇2","◇2"],["◇2","◇3"],["◇3","a"],["◇3","◇3"]]}',
        '{"alphabet":["0","1","◇2"],"forbidden":[["1","1"],["0","◇2","0"],["◇2","◇2","1"],["1","0","◇2"]]}',
        '{"alphabet":["a","b","c"],"forbidden":["cc","ca","cbb","bcb","acb"]}',
        '{"alphabet":["x","yé"],"forbidden":[["yé","x","x"],["x","yé","yé"],["yé","yé","yé"]]}',
    ]
    trimmed = 0
    for doc in docs:
        x = parse_sft(json.loads(doc))
        _edge_shift.cache_clear()
        _, graph, words = edge_shift_by_words(x)
        labels = {e.eid: words[e.eid].text() for e in graph.edges}
        assert run(capsys, ["graph", "edge-shift", doc]) == (0, dumps(graph_json(graph, labels)) + "\n", ""), doc
        trimmed += len(graph.edges) < len(words)
    assert trimmed >= 3


def test_presentation_minimize(capsys):
    fat = json.dumps(
        {
            "vertices": ["e", "o", "e2"],
            "edges": [
                {"from": "e", "to": "e2", "label": "1"},
                {"from": "e", "to": "o", "label": "0"},
                {"from": "o", "to": "e", "label": "0"},
                {"from": "e2", "to": "e2", "label": "1"},
                {"from": "e2", "to": "o", "label": "0"},
            ],
        }
    )
    code, out, _ = run(capsys, ["presentation", "minimize", fat])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 2
    assert len(doc["edges"]) == 3


def test_presentation_minimize_ignores_a_dead_end(capsys):
    """A vertex on no bi-infinite path leaves the printed cover as it is."""
    edges = [("w", "x", "0"), ("w", "y", "0"), ("x", "w", "1"), ("y", "z", "0"), ("z", "w", "1"), ("z", "z", "0")]

    def doc(vertices, arcs):
        return json.dumps({"vertices": vertices, "edges": [{"from": s, "to": d, "label": a} for s, d, a in arcs]})

    code, want, _ = run(capsys, ["presentation", "minimize", doc(list("wxyz"), edges)])
    assert code == 0
    code, out, _ = run(capsys, ["presentation", "minimize", doc(list("wxyzd"), edges + [("w", "d", "1")])])
    assert code == 0
    assert out == want


def test_entropy_perron(capsys):
    code, out, _ = run(capsys, ["entropy", GM])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "perron"
    assert abs(doc["value"] - math.log2((1 + 5**0.5) / 2)) < 1e-9
    assert set(doc) == {"value", "method"}


def test_entropy_wordcount(capsys):
    code, out, _ = run(capsys, ["entropy", "--method", "wordcount", "--n", "24", GM])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "word_count"
    assert doc["n_used"] == 24
    assert abs(doc["value"] - math.log2((1 + 5**0.5) / 2)) < 0.05


def test_entropy_of_matrix_and_graph(capsys):
    code, out, _ = run(capsys, ["entropy", "[[2]]"])
    assert code == 0
    assert json.loads(out) == {"value": 1.0, "method": "perron"}
    code, out, _ = run(capsys, ["entropy", '{"vertices":["a"],"edges":[{"from":"a","to":"a"}]}'])
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_entropy_of_a_labeled_graph_is_sofic(capsys):
    """A labeled graph's entropy is that of the sofic shift it presents;
    this one is not right-resolving (two a-edges leave p) and presents
    the golden mean shift."""
    doc = ('{"vertices":["p","q"],"edges":[{"from":"p","to":"q","label":"a"},'
           '{"from":"q","to":"p","label":"b"},{"from":"p","to":"p","label":"a"}]}')
    assert run(capsys, ["entropy", doc]) == (0, '{"value":0.6942419136301513,"method":"perron"}\n', "")


def test_entropy_rejects_gap_sets(capsys):
    code, out, err = run(capsys, ["entropy", '{"kind":"finite","elements":[0]}'])
    assert code == 2
    assert err == "error: entropy does not accept sgap input\n"


def test_construct_scale(capsys):
    code, out, _ = run(capsys, ["construct", "scale", "--n", "2", "[[2]]"])
    assert code == 0
    assert out == (
        '{"vertices":["0","e0.1","e1.1"],"edges":['
        '{"from":"0","to":"e0.1"},{"from":"e0.1","to":"0"},'
        '{"from":"0","to":"e1.1"},{"from":"e1.1","to":"0"}]}\n'
    )
    # halved entropy: check through the entropy command
    code, out, _ = run(capsys, ["entropy", out.strip()])
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) < 1e-9


def test_construct_scale_of_an_sft_scales_its_edge_shift(capsys):
    """An SFT is scaled through its edge-shift graph: vertices the
    1-blocks, edge ids the positions of the 2-blocks 00, 01, 10."""
    assert run(capsys, ["construct", "scale", "--n", "2", GM]) == (
        0,
        '{"vertices":["0","1","e0.1","e1.1","e2.1"],"edges":['
        '{"from":"0","to":"e0.1"},{"from":"e0.1","to":"0"},'
        '{"from":"0","to":"e1.1"},{"from":"e1.1","to":"1"},'
        '{"from":"1","to":"e2.1"},{"from":"e2.1","to":"0"}]}\n',
        "",
    )


def test_construct_boost(capsys):
    code, out, _ = run(capsys, ["construct", "boost", "--target", "1", FULL2])
    assert code == 0
    doc = json.loads(out)
    assert "◇" in doc["result"]["alphabet"]
    assert [mv["op"] for mv in doc["moves"]] == ["word_contract", "word_contract"]
    code, _, err = run(capsys, ["construct", "boost", "--target", "1", GM])
    assert code == 2
    assert err == "error: not every {'0', '1'}-word of length 6 occurs\n"


def test_construct_boost_symbols_flag(capsys):
    code, out, _ = run(
        capsys, ["construct", "boost", "--target", "1", "--symbols", "b,a", FULL2]
    )
    assert code == 0
    code, _, err = run(
        capsys, ["construct", "boost", "--target", "1", "--symbols", "b", FULL2]
    )
    assert code == 2
    assert "two comma-separated symbols" in err


def test_moves_apply_with_trace(capsys):
    pipe = '{"source":' + GM + ',"moves":[{"op":"word_contract","word":"10"}]}'
    code, out, err = run(capsys, ["moves", "apply", "--trace", pipe, "10101"])
    assert code == 0
    assert out == '{"word":"10101","image":"◇◇","decided":true}\n'
    assert err == (
        "stage 0: alphabet={0,1} forbidden={11}\n"
        "stage 1: alphabet={0,◇} forbidden={}\n"
    )


def test_moves_apply_undecided_word(capsys):
    pipe = '{"source":' + GM + ',"moves":[{"op":"word_contract","word":"10"}]}'
    code, out, _ = run(capsys, ["moves", "apply", pipe, "1"])
    assert code == 0
    assert json.loads(out) == {"word": "1", "image": "", "decided": False}


def test_moves_apply_rejects_foreign_word(capsys):
    pipe = '{"source":' + GM + ',"moves":[{"op":"expand","symbol":"1"}]}'
    code, out, err = run(capsys, ["moves", "apply", pipe, "0110"])
    assert code == 2
    assert "is not in the source language" in err


def test_moves_apply_refuses_an_ambiguous_plain_word(capsys):
    """Over an alphabet with a multi-character symbol a plain string could
    name more than one word; a JSON array names its symbols."""
    pipe = '{"source":{"alphabet":["a","b","ab"],"forbidden":[]},"moves":[]}'
    ambiguous = ("error: 'ab' is ambiguous over an alphabet with multi-character symbols; pass a Word, "
                 """or on the command line a JSON array of its symbols such as '["ab"]'\n""")
    assert run(capsys, ["moves", "apply", pipe, "ab"]) == (2, "", ambiguous)
    assert run(capsys, ["moves", "apply", pipe, '["ab"]']) == (0, '{"word":["ab"],"image":["ab"],"decided":true}\n', "")
    assert run(capsys, ["moves", "apply", pipe, '["a","b"]']) == (0, '{"word":"ab","image":"ab","decided":true}\n', "")


def test_sgap_classify(capsys):
    code, out, _ = run(capsys, ["sgap", "classify", '{"kind":"finite","elements":[0,2]}'])
    assert code == 0
    assert out == '{"type":"finite_type"}\n'
    evens = json.dumps({"kind": "sampled", "members": list(range(0, 101, 2)), "bound": 100})
    code, out, _ = run(capsys, ["sgap", "classify", evens])
    assert code == 3
    assert out == '{"type":"strictly_sofic","bound":100}\n'
    empty = '{"kind":"eventually_periodic","R":[],"T":[],"N":3}'
    assert run(capsys, ["sgap", "classify", empty]) == (2, "", "error: empty gap set\n")


def test_sgap_fe_equal(capsys):
    evens = '{"kind":"eventually_periodic","R":[],"T":[0],"N":2}'
    odds = '{"kind":"eventually_periodic","R":[],"T":[1],"N":2}'
    code, out, _ = run(capsys, ["sgap", "fe-equal", evens, odds])
    assert code == 0
    assert out == '{"outcome":"equivalent","witness":{"n":0,"r":1}}\n'


def test_sgap_fe_equal_reports_window_bound(capsys):
    primes = [p for p in range(90) if p > 1 and all(p % d for d in range(2, p))]
    squares = [k * k for k in range(11)]
    s1 = json.dumps({"kind": "sampled", "members": primes, "bound": 90})
    s2 = json.dumps({"kind": "sampled", "members": squares, "bound": 100})
    code, out, _ = run(capsys, ["sgap", "fe-equal", s1, s2])
    assert code == 3
    doc = json.loads(out)
    assert doc["outcome"] == "not_equivalent_up_to"
    assert doc["bound"] == 90


def test_sgap_fe_equal_of_an_empty_window(capsys):
    empty = '{"kind":"sampled","members":[],"bound":10}'
    code, out, err = run(capsys, ["sgap", "fe-equal", empty, '{"kind":"finite","elements":[1]}'])
    assert (code, out, err) == (3, '{"outcome":"unknown_up_to","bound":10}\n', "")
    evens = '{"kind":"eventually_periodic","R":[],"T":[0],"N":2}'
    code, out, err = run(capsys, ["sgap", "fe-equal", "--bound", "2", empty, evens])
    assert (code, out, err) == (3, '{"outcome":"unknown_up_to","bound":10}\n', "")
    code, out, err = run(capsys, ["sgap", "fe-equal", empty, '{"kind":"eventually_periodic","R":[],"T":[],"N":3}'])
    assert (code, out, err) == (2, "", "error: empty gap set\n")


def test_validate(capsys):
    code, out, _ = run(capsys, ["validate", GM])
    assert code == 0
    assert out == '{"valid":true,"kind":"sft"}\n'
    code, out, _ = run(capsys, ["validate", "[[1,1],[1,0]]"])
    assert code == 0
    assert json.loads(out) == {"valid": True, "kind": "adjacency"}


def test_validate_reports_bad_documents(capsys):
    code, out, err = run(capsys, ["validate", "[[0,-1],[1,0]]"])
    assert code == 2
    assert out == ""
    assert err == "error: [0][1]: negative entry -1\n"
    bad = '{"kind":"sampled","members":[3,2],"bound":10}'
    code, _, err = run(capsys, ["validate", bad])
    assert code == 2
    assert err == "error: members: must be strictly increasing\n"
    code, _, err = run(capsys, ["validate", "{}"])
    assert code == 2
    assert err == "error: document matches no known input format\n"


def test_bad_json_and_missing_files(capsys):
    code, _, err = run(capsys, ["validate", "{not json"])
    assert code == 2
    assert err.startswith("error: malformed JSON in")
    code, _, err = run(capsys, ["validate", "no_such_file.json"])
    assert code == 2
    assert err.startswith("error: cannot read no_such_file.json")


def test_exit_3_exactly_when_the_answer_carries_a_bound(capsys):
    """Seeded exact and sampled gap sets: `sgap fe-equal` and `sgap
    classify` exit 3 when the printed answer has a `bound` key, 0 when it
    has none; for `fe-equal` that is when the outcome is one of the two
    verdicts up to a bound."""
    rng = random.Random(71)
    codes = {0: 0, 3: 0}
    for _ in range(300):
        s1 = _random_gaps(rng)
        s2 = _partner(rng, s1)
        bound = str(rng.choice((1, 2, 5, 50, 200)))
        first, second = (json.dumps(sgap_json(s)) for s in (s1, s2))
        for argv in (["sgap", "fe-equal", "--bound", bound, first, second], ["sgap", "classify", first]):
            code, out, err = run(capsys, argv)
            doc = json.loads(out)
            assert (code, err) == (3 if "bound" in doc else 0, ""), argv
            codes[code] += 1
            if argv[1] == "fe-equal":
                assert (code == 3) == (doc["outcome"] in ("not_equivalent_up_to", "unknown_up_to")), argv
    assert min(codes[0], codes[3]) > 100, codes


# What `--help` lists, in order: top-level entries, then each group's
# commands, then each command's arguments as its usage line names them.
HELP_TREE = {
    "invariant": {"bf": ["matrix"]},
    "fe": {"decide-sft": ["a", "b"]},
    "language": {"enum": ["--n", "sft"]},
    "graph": {"edge-shift": ["sft"]},
    "presentation": {"minimize": ["presentation"]},
    "entropy": ["--method", "--n", "input"],
    "construct": {"scale": ["--n", "input"], "boost": ["--target", "--symbols", "sft"]},
    "moves": {"apply": ["--trace", "pipeline", "word"]},
    "sgap": {"classify": ["set"], "fe-equal": ["--bound", "s1", "s2"]},
    "validate": ["input"],
}


def _help(capsys, words: list[str]) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, ""), words
    return out


def _listed(help_text: str) -> list[str]:
    """The subcommands a help text lists, in order."""
    return re.findall(r"^    (\S+)", help_text, re.M)


def _usage_arguments(help_text: str, words: list[str]) -> list[str]:
    """The option and positional names of a usage line, metavars and
    choices left out.  Wrapped usage lines only add white space."""
    tokens = help_text.split("\n\n")[0].split()
    assert tokens[: 2 + len(words)] == ["usage:", "shiftflow", *words], tokens
    tokens = [t.strip("[]") for t in tokens[2 + len(words) :]]
    return [t for t in tokens if t != "-h" and not t.isupper() and not t.startswith("{")]


def test_help_lists_every_command_in_order(capsys):
    commands = [(list(words), [name for name, _ in arguments]) for words, _, handler, arguments in _COMMANDS if handler]
    expected = []
    for top, entry in HELP_TREE.items():
        expected += [([top, sub], args) for sub, args in entry.items()] if isinstance(entry, dict) else [([top], entry)]
    assert commands == expected
    assert _listed(_help(capsys, [])) == list(HELP_TREE)
    for top, entry in HELP_TREE.items():
        if isinstance(entry, dict):
            assert _listed(_help(capsys, [top])) == list(entry), top
    for words, args in expected:
        assert _usage_arguments(_help(capsys, words), words) == args, words


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, ["entropy", GM])
    second = run(capsys, ["entropy", GM])
    assert first == second


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ python3 -m shiftflow ...` line of the README's sh blocks,
    with the lines listed under it."""
    examples: list[tuple[str, list[str]]] = []
    in_sh = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("$ python3 -m shiftflow "):
            examples.append((line, []))
        elif in_sh and examples and not line.startswith("$"):
            examples[-1][1].append(line)
    return examples


def _expand_progression(arg: str) -> str:
    """Write `a,b,...,z` out as the arithmetic progression it stands for."""

    def spell(m: re.Match) -> str:
        a, b, z = (int(g) for g in m.groups())
        step = b - a
        return ",".join(str(v) for v in range(a, z + step // abs(step), step))

    return re.sub(r"(-?\d+),(-?\d+),\.\.\.,(-?\d+)", spell, arg)


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 13
    for command, listed in examples:
        argv = [_expand_progression(a) for a in shlex.split(command)[4:]]
        code, out, err = run(capsys, argv)
        assert (err + out).splitlines() == listed, command
        if listed[0].startswith("error:"):
            assert code == 2, command
        elif "bound" in json.loads(listed[-1]):
            assert code == 3, command
        else:
            assert code == 0, command
