"""Round trips and error paths for every document format."""

from __future__ import annotations

import json

import pytest

from shiftflow import (
    Classification,
    EventuallyPeriodicGaps,
    FEVerdict,
    FiniteGaps,
    InvalidInput,
    MovePipeline,
    SampledGaps,
    SignedBFGroup,
    Word,
    full_shift,
    sft,
)
from shiftflow.entropy import EntropyEstimate
from shiftflow.jsonio import (
    bf_json,
    classification_json,
    detect_kind,
    dumps,
    entropy_json,
    graph_json,
    labeled_graph_json,
    parse_adjacency,
    parse_any,
    parse_graph,
    parse_matrix,
    parse_pipeline,
    parse_sft,
    parse_sgap,
    parse_word,
    pipeline_json,
    sft_json,
    sgap_json,
    verdict_json,
    word_json,
)
from shiftflow.presentations import LabeledGraph


def test_word_forms():
    assert parse_word("011") == Word("011")
    assert parse_word(["aa", "b"]) == Word(["aa", "b"])
    assert word_json(Word("011")) == "011"
    assert word_json(Word(["aa", "b"])) == ["aa", "b"]
    with pytest.raises(InvalidInput) as err:
        parse_word(5)
    assert "word: expected a string or an array" in str(err.value)


def test_sft_round_trip():
    doc = {"alphabet": ["0", "1"], "forbidden": ["000", "11"]}
    assert sft_json(parse_sft(doc)) == doc
    wide = {"alphabet": ["aa", "b"], "forbidden": [["aa", "aa"]]}
    assert sft_json(parse_sft(wide)) == wide


def test_sft_errors():
    with pytest.raises(InvalidInput) as err:
        parse_sft({"alphabet": ["0", "0"], "forbidden": []})
    assert str(err.value) == "alphabet: symbols repeat"
    with pytest.raises(InvalidInput) as err:
        parse_sft({"alphabet": ["0"], "forbidden": ["01"]})
    assert str(err.value) == "forbidden[0]: symbol '1' is not in the alphabet"
    with pytest.raises(InvalidInput) as err:
        parse_sft({"alphabet": ["0"]})
    assert "needs both" in str(err.value)
    with pytest.raises(InvalidInput) as err:
        parse_sft({"alphabet": ["0"], "forbidden": [], "extra": 1})
    assert str(err.value) == "document: unknown key 'extra'"


def test_matrix_parsing():
    assert parse_matrix([[1, 2], [3, 4]]) == [[1, 2], [3, 4]]
    assert parse_adjacency([[2]]) == [[2]]
    with pytest.raises(InvalidInput) as err:
        parse_matrix([])
    assert "matrix has no rows" in str(err.value)
    with pytest.raises(InvalidInput) as err:
        parse_matrix([[1, 2], [3]])
    assert "matrix must be square" in str(err.value)
    with pytest.raises(InvalidInput) as err:
        parse_matrix([[True]])
    assert str(err.value) == "[0][0]: expected an integer entry"
    with pytest.raises(InvalidInput) as err:
        parse_adjacency([[0, -1], [1, 0]])
    assert str(err.value) == "[0][1]: negative entry -1"


def test_graph_round_trip():
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
    }
    g = parse_graph(doc)
    assert graph_json(g) == doc
    labeled = {
        "vertices": ["e", "o"],
        "edges": [
            {"from": "e", "to": "e", "label": "1"},
            {"from": "e", "to": "o", "label": "0"},
            {"from": "o", "to": "e", "label": "0"},
        ],
    }
    lg = parse_graph(labeled)
    assert isinstance(lg, LabeledGraph)
    assert labeled_graph_json(lg) == labeled


def test_graph_errors():
    with pytest.raises(InvalidInput) as err:
        parse_graph({"vertices": ["a", "a"], "edges": []})
    assert str(err.value) == "vertices: vertex names repeat"
    with pytest.raises(InvalidInput) as err:
        parse_graph({"vertices": ["a"], "edges": [{"from": "a", "to": "z"}]})
    assert str(err.value) == "edges[0].to: unknown vertex 'z'"
    with pytest.raises(InvalidInput) as err:
        parse_graph(
            {
                "vertices": ["a"],
                "edges": [{"from": "a", "to": "a", "label": "x"}, {"from": "a", "to": "a"}],
            }
        )
    assert "either every edge is labeled or none is" in str(err.value)


def test_pipeline_round_trip():
    doc = {
        "source": {"alphabet": ["0", "1"], "forbidden": ["11"]},
        "moves": [{"op": "expand", "symbol": "1"}, {"op": "word_contract", "word": "1◇"}],
    }
    pipe = parse_pipeline(doc)
    assert len(pipe.moves) == 2
    assert pipeline_json(pipe) == doc


def test_pipeline_recode_round_trip():
    src = full_shift(["a", "b"])
    table = {Word("aa"): "p", Word("ab"): "q", Word("ba"): "r", Word("bb"): "s"}
    pipe = MovePipeline.start(src).recode(table, 2)
    doc = pipeline_json(pipe)
    assert doc["moves"][0]["op"] == "recode"
    assert doc["moves"][0]["window"] == 2
    again = parse_pipeline(doc)
    assert pipeline_json(again) == doc
    # the object form of the table parses too
    doc2 = {
        "source": doc["source"],
        "moves": [{"op": "recode", "table": {"aa": "p", "ab": "q", "ba": "r", "bb": "s"}, "window": 2}],
    }
    assert pipeline_json(parse_pipeline(doc2)) == doc


def test_pipeline_errors():
    with pytest.raises(InvalidInput) as err:
        parse_pipeline({"moves": []})
    assert str(err.value) == 'document: a pipeline needs a "source" shift to act on'
    with pytest.raises(InvalidInput) as err:
        parse_pipeline(
            {"source": {"alphabet": ["0"], "forbidden": []}, "moves": [{"op": "zap"}]}
        )
    assert str(err.value) == "moves[0].op: unknown move 'zap'"
    # Each op allows only its own keys: another op's key is refused, not
    # dropped, and a key no op has is reported before the op is read.
    source = {"alphabet": ["0", "1"], "forbidden": []}
    for moves, message in [
        ([{"op": "expand", "symbol": "0", "word": "01"}], "moves[0]: unknown key 'word'"),
        ([{"op": "expand", "symbol": "0"}, {"op": "recode", "table": {}, "window": 1, "symbol": "0"}],
         "moves[1]: unknown key 'symbol'"),
        ([{"op": "zap", "color": 1}], "moves[0]: unknown key 'color'"),
        ([{"op": ["x"]}], "moves[0].op: unknown move ['x']"),
    ]:
        with pytest.raises(InvalidInput) as err:
            parse_pipeline({"source": source, "moves": moves})
        assert str(err.value) == message


def test_sgap_round_trips():
    docs = [
        {"kind": "finite", "elements": [0, 2]},
        {"kind": "eventually_periodic", "R": [1], "T": [0], "N": 2},
        {"kind": "sampled", "members": [2, 3, 5, 7], "bound": 10},
    ]
    types = [FiniteGaps, EventuallyPeriodicGaps, SampledGaps]
    for doc, cls in zip(docs, types):
        parsed = parse_sgap(doc)
        assert isinstance(parsed, cls)
        assert sgap_json(parsed) == doc


def test_sgap_errors():
    with pytest.raises(InvalidInput) as err:
        parse_sgap({"kind": "sampled", "members": [3, 2], "bound": 10})
    assert str(err.value) == "members: must be strictly increasing"
    with pytest.raises(InvalidInput) as err:
        parse_sgap({"kind": "eventually_periodic", "R": [-2], "T": [0], "N": 2})
    assert str(err.value) == "R[0]: negative value -2"
    with pytest.raises(InvalidInput) as err:
        parse_sgap({"kind": "weird"})
    assert str(err.value) == "kind: unknown kind 'weird'"
    for doc, message in [
        ({"kind": "finite", "elements": [0, 2], "T": [1], "N": 2}, "document: unknown key 'N'"),
        ({"kind": "eventually_periodic", "R": [], "T": [0], "N": 2, "bound": 9}, "document: unknown key 'bound'"),
        ({"kind": "sampled", "members": [0], "bound": 3, "elements": [0]}, "document: unknown key 'elements'"),
        ({"kind": "weird", "color": 1}, "document: unknown key 'color'"),
    ]:
        with pytest.raises(InvalidInput) as err:
            parse_sgap(doc)
        assert str(err.value) == message


def test_result_payloads():
    assert bf_json(SignedBFGroup(-1, ())) == {"sign": -1, "divisors": []}
    assert bf_json(SignedBFGroup(1, (2, 0))) == {"sign": 1, "divisors": [2, 0]}
    assert entropy_json(EntropyEstimate(1.0, "perron")) == {"value": 1.0, "method": "perron"}
    assert entropy_json(EntropyEstimate(0.5, "word_count", n_used=24)) == {
        "value": 0.5,
        "method": "word_count",
        "n_used": 24,
    }
    assert entropy_json(EntropyEstimate(0.0, "perron", empty=True)) == {
        "value": 0.0,
        "method": "perron",
        "empty": True,
    }
    assert classification_json(Classification("finite_type")) == {"type": "finite_type"}
    assert classification_json(
        Classification("not_eventually_periodic_up_to_bound", bound=10)
    ) == {"type": "not_eventually_periodic_up_to_bound", "bound": 10}
    assert verdict_json(FEVerdict("equivalent", witness=(0, 1))) == {
        "outcome": "equivalent",
        "witness": {"n": 0, "r": 1},
    }
    assert verdict_json(FEVerdict("not_equivalent", reason="why")) == {
        "outcome": "not_equivalent",
        "reason": "why",
    }
    assert verdict_json(FEVerdict("unknown_up_to", bound=7)) == {
        "outcome": "unknown_up_to",
        "bound": 7,
    }


def test_detect_kind_dispatch():
    assert detect_kind([[1]]) == "adjacency"
    assert detect_kind({"kind": "finite", "elements": [0]}) == "sgap"
    assert detect_kind({"source": {}, "moves": []}) == "pipeline"
    assert detect_kind({"alphabet": [], "forbidden": []}) == "sft"
    assert detect_kind({"vertices": [], "edges": []}) == "graph"
    with pytest.raises(InvalidInput) as err:
        detect_kind({})
    assert str(err.value) == "document matches no known input format"
    with pytest.raises(InvalidInput):
        detect_kind("plain string")


def test_parse_any_distinguishes_labeled_graphs():
    plain = {"vertices": ["a"], "edges": [{"from": "a", "to": "a"}]}
    kind, _ = parse_any(plain)
    assert kind == "graph"
    labeled = {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "label": "x"}]}
    kind, parsed = parse_any(labeled)
    assert kind == "labeled_graph"
    assert isinstance(parsed, LabeledGraph)
    kind, mat = parse_any([[3]])
    assert kind == "adjacency" and mat == [[3]]


def test_dumps_is_compact_and_unescaped():
    assert dumps({"a": 1, "b": [1, 2]}) == '{"a":1,"b":[1,2]}'
    assert dumps({"w": "◇"}) == '{"w":"◇"}'
    x = sft(["0", "1"], ["11", "000"])
    assert dumps(sft_json(x)) == dumps(sft_json(x))
    assert json.loads(dumps(sft_json(x))) == sft_json(x)
