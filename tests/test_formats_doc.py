"""Every line of the fenced blocks of docs/formats.md, run through the CLI.

Each output document and each `error:` line there is what some command
prints, byte for byte.  `RUNS` gives each command that prints them, with
the files it reads, and the lines it prints: JSON documents on stdout,
every other line on stderr.  The rest of the block lines are input
illustrations, listed in `ILLUSTRATIONS`; those that are whole documents
must validate as the kind given there.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from shiftflow.cli import main

from .test_perron_paths import _underflowing_cycle

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
GM = '{"alphabet":["0","1"],"forbidden":["11"]}'
PIPELINE = '{"source":' + GM + ',"moves":[{"op":"word_contract","word":"10"}]}'
PRIMES = [p for p in range(90) if p > 1 and all(p % d for d in range(2, p))]

# (argv, {file name: contents}, the lines printed)
RUNS = [
    (["validate", "no_such_file.json"], {}, ["error: cannot read no_such_file.json: No such file or directory"]),
    (["validate", "..."], {"...": "nope"},
     ["error: malformed JSON in '...': Expecting value: line 1 column 1 (char 0)"]),
    (["language", "enum", "--n", "2", '{"alphabet":["a","b","c"],"forbidden":["ccccccccccccc"]}'], {},
     ["error: words of length 13 have 1594323 candidates, above the limit 1048576"]),
    (["language", "enum", "--n", "30", '{"alphabet":["a","b"],"forbidden":[]}'], {},
     ["error: words of length 30 number at least 2097152, above the limit 1048576"]),
    (["validate", '{"alphabet":["0","0"],"forbidden":[]}'], {}, ["error: alphabet: symbols repeat"]),
    (["validate", '{"alphabet":["0"],"forbidden":["01"]}'], {},
     ["error: forbidden[0]: symbol '1' is not in the alphabet"]),
    (["validate", '{"alphabet":["0"]}'], {}, ['error: document: an SFT needs both "alphabet" and "forbidden"']),
    (["validate", '{"alphabet":["0"],"forbidden":[],"extra":1}'], {}, ["error: document: unknown key 'extra'"]),
    (["validate", "[]"], {}, ["error: document: matrix has no rows"]),
    (["validate", "[[1,2],[3]]"], {}, ["error: document: matrix must be square"]),
    (["validate", "[[true]]"], {}, ["error: [0][0]: expected an integer entry"]),
    (["validate", "[[0,-1],[1,0]]"], {}, ["error: [0][1]: negative entry -1"]),
    (["validate", '{"vertices":["a","a"],"edges":[]}'], {}, ["error: vertices: vertex names repeat"]),
    (["validate", '{"vertices":["a"],"edges":[{"from":"a","to":"z"}]}'], {},
     ["error: edges[0].to: unknown vertex 'z'"]),
    (["validate", '{"vertices":["a"],"edges":[{"from":"a","to":"a","label":"x"},{"from":"a","to":"a"}]}'], {},
     ["error: edges: either every edge is labeled or none is"]),
    (["validate", '{"moves":[]}'], {}, ['error: document: a pipeline needs a "source" shift to act on']),
    (["validate", '{"source":' + GM + ',"moves":[{"op":"zap"}]}'], {}, ["error: moves[0].op: unknown move 'zap'"]),
    (["validate", '{"source":' + GM + ',"moves":[{"op":"word_contract"}]}'], {},
     ['error: moves[0]: word_contract needs a "word"']),
    (["validate", '{"source":' + GM + ',"moves":[{"op":"recode","table":{},"window":0}]}'], {},
     ["error: moves[0].window: expected a positive integer"]),
    (["validate", '{"source":{"alphabet":["0"],"forbidden":[]},"moves":[{"op":"expand","symbol":"x"}]}'], {},
     ["error: moves[0]: 'x' is not in the alphabet"]),
    (["validate", '{"kind":"sampled","members":[3,2],"bound":10}'], {}, ["error: members: must be strictly increasing"]),
    (["validate", '{"kind":"eventually_periodic","R":[-2],"T":[0],"N":2}'], {}, ["error: R[0]: negative value -2"]),
    (["validate", '{"kind":"weird"}'], {}, ["error: kind: unknown kind 'weird'"]),
    (["validate", '{"kind":"eventually_periodic","R":[],"T":[0],"N":0}'], {},
     ["error: N: expected a positive integer period"]),
    (["validate", '{"kind":"finite","elements":[]}'], {},
     ["error: document: a finite gap set needs at least one element"]),
    (["validate", '{"kind":"sampled","members":[0,2,4],"bound":3}'], {},
     ["error: document: member 4 exceeds the bound 3"]),
    (["sgap", "classify", '{"kind":"finite","elements":[0,2],"T":[1],"N":2}'], {}, ["error: document: unknown key 'N'"]),
    (["validate", "{}"], {}, ["error: document matches no known input format"]),
    (["validate", GM], {}, ['{"valid":true,"kind":"sft"}']),
    (["validate", '{"vertices":["a"],"edges":[{"from":"a","to":"a","label":"x"}]}'], {},
     ['{"valid":true,"kind":"labeled_graph"}']),
    (["invariant", "bf", "[[2]]"], {}, ['{"sign":-1,"divisors":[]}']),
    (["fe", "decide-sft", "[[2]]", "[[1,1],[1,1]]"], {}, ['{"flow_equivalent":true}']),
    (["language", "enum", "--n", "3", GM], {}, ['{"n":3,"count":5,"words":["000","001","010","100","101"]}']),
    (["graph", "edge-shift", GM], {},
     ['{"vertices":["0","1"],"edges":[{"from":"0","to":"0","label":"00"},{"from":"0","to":"1","label":"01"},'
      '{"from":"1","to":"0","label":"10"}]}']),
    (["presentation", "minimize",
      '{"vertices":["p","q"],"edges":[{"from":"p","to":"p","label":"0"},{"from":"p","to":"q","label":"1"},'
      '{"from":"q","to":"p","label":"0"}]}'], {},
     ['{"vertices":["0","1"],"edges":[{"from":"0","to":"0","label":"0"},{"from":"0","to":"1","label":"1"},'
      '{"from":"1","to":"0","label":"0"}]}']),
    (["entropy", "[[1,1],[1,0]]"], {}, ['{"value":0.6942419136301513,"method":"perron"}']),
    (["entropy", "cycle121.json"], {"cycle121.json": json.dumps(_underflowing_cycle(121))},
     ["error: power iteration underflowed after 120 iterations: an entry of the Perron vector fell below the smallest float"]),
    (["entropy", "--method", "wordcount", "--n", "24", GM], {},
     ['{"value":0.7037219044555328,"method":"word_count","n_used":24}']),
    (["entropy", "--method", "wordcount", "--n", "8", '{"alphabet":["0"],"forbidden":["0"]}'], {},
     ['{"value":0.0,"method":"word_count","n_used":8,"empty":true}']),
    (["construct", "scale", "--n", "2", "[[2]]"], {},
     ['{"vertices":["0","e0.1","e1.1"],"edges":[{"from":"0","to":"e0.1"},{"from":"e0.1","to":"0"},'
      '{"from":"0","to":"e1.1"},{"from":"e1.1","to":"0"}]}']),
    (["construct", "scale", "--n", "524289", "[[2]]"], {},
     ["error: scaling by 524289 gives 1048577 vertices, above the limit 1048576"]),
    (["construct", "boost", "--target", "1", '{"alphabet":["a","b"],"forbidden":[]}'], {},
     ['{"result":{"alphabet":["a","b","◇","◇2"],"forbidden":["ba",["◇2","a"]]},'
      '"moves":[{"op":"word_contract","word":"baa"},{"op":"word_contract","word":"ba"}]}']),
    (["moves", "apply", "--trace", PIPELINE, "10101"], {},
     ["stage 0: alphabet={0,1} forbidden={11}", "stage 1: alphabet={0,◇} forbidden={}",
      '{"word":"10101","image":"◇◇","decided":true}']),
    (["sgap", "classify", '{"kind":"finite","elements":[0,2]}'], {}, ['{"type":"finite_type"}']),
    (["sgap", "classify", json.dumps({"kind": "sampled", "members": list(range(0, 101, 2)), "bound": 100})], {},
     ['{"type":"strictly_sofic","bound":100}']),
    (["sgap", "fe-equal", '{"kind":"eventually_periodic","R":[],"T":[0],"N":2}',
      '{"kind":"eventually_periodic","R":[],"T":[1],"N":2}'], {},
     ['{"outcome":"equivalent","witness":{"n":0,"r":1}}']),
    (["sgap", "fe-equal", '{"kind":"finite","elements":[0]}', '{"kind":"finite","elements":[0,1]}'], {},
     ['{"outcome":"not_equivalent","reason":"full shifts on different symbol counts"}']),
    (["sgap", "fe-equal", json.dumps({"kind": "sampled", "members": PRIMES, "bound": 90}),
      json.dumps({"kind": "sampled", "members": [k * k for k in range(11)], "bound": 100})], {},
     ['{"outcome":"not_equivalent_up_to","bound":90}']),
    (["sgap", "fe-equal", "--bound", "3", '{"kind":"sampled","members":[0,2],"bound":3}',
      '{"kind":"sampled","members":[1,3],"bound":3}'], {},
     ['{"outcome":"unknown_up_to","bound":3}']),
]

# Block lines that show an input, with the kind `validate` reports for
# each whole document (None for the word forms and the error template).
ILLUSTRATIONS = {
    "error: <path>: <message>": None,
    '"0110"': None,
    '["aa", "ab", "aa"]': None,
    '{"alphabet":["0","1"],"forbidden":["11","000"]}': "sft",
    "[[1,1],[1,0]]": "adjacency",
    '{"vertices":["p","q"],"edges":[{"from":"p","to":"q","label":"a"},{"from":"q","to":"p","label":"b"}]}':
        "labeled_graph",
    '{"source":{"alphabet":["0","1"],"forbidden":["11"]},"moves":[{"op":"word_contract","word":"10"}]}': "pipeline",
    '{"source":{"alphabet":["0","1"],"forbidden":[]},"moves":[{"op":"recode","table":[["00","a"],["01","b"],'
    '["10","c"],["11","d"]],"window":2}]}': "pipeline",
    '{"kind":"finite","elements":[0,2]}': "sgap",
    '{"kind":"eventually_periodic","R":[1],"T":[0],"N":2}': "sgap",
    '{"kind":"sampled","members":[0,2,4,6],"bound":7}': "sgap",
}


def _block_lines() -> list[str]:
    """The non-blank lines inside the fenced blocks, in document order."""
    lines: list[str] = []
    fenced = False
    for line in FORMATS.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.strip():
            lines.append(line)
    return lines


def test_every_block_line_is_run_or_illustrates_an_input():
    documented = _block_lines()
    printed = [line for _, _, lines in RUNS for line in lines]
    assert len(printed) == len(set(printed))
    assert [line for line in documented if line not in printed and line not in ILLUSTRATIONS] == []
    assert [line for line in [*printed, *ILLUSTRATIONS] if line not in documented] == []


@pytest.mark.parametrize("argv, files, lines", RUNS, ids=[" ".join(argv[:2]) for argv, _, _ in RUNS])
def test_each_documented_line_is_what_its_command_prints(capsys, monkeypatch, tmp_path, argv, files, lines):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = "".join(f"{line}\n" for line in lines if line.startswith("{"))
    err = "".join(f"{line}\n" for line in lines if not line.startswith("{"))
    code = 2 if err.startswith("error: ") else 3 if out and "bound" in json.loads(out) else 0
    got = main(argv)
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


@pytest.mark.parametrize("line", [line for line, kind in ILLUSTRATIONS.items() if kind])
def test_each_illustrated_document_validates_as_its_kind(capsys, line):
    assert main(["validate", line]) == 0
    assert capsys.readouterr().out == json.dumps({"valid": True, "kind": ILLUSTRATIONS[line]}, separators=(",", ":")) + "\n"
