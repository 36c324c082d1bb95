"""Graph and witness documents: byte-exact serialisation and schema errors."""

import json
import random

import pytest

import helpers
from sgraph import (
    GraphDocument,
    KSwitching,
    SignedGraph,
    WitnessDocument,
    bdim_search,
    null_graph,
    pair_labels,
    product,
    unbalanced_cycle,
)
from sgraph.core import (
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    SignError,
    VertexRangeError,
)
from sgraph.documents import DocumentError, _dumps
from sgraph.products import PRODUCT_KINDS

AWKWARD_TEXT = ('a"b', "back\\slash", "new\nline", "ünïcødé ☃", "],\n   [", "[", "]", "")


def _graph_documents():
    rng = random.Random(2024)
    for _ in range(12):
        g1 = helpers.random_signed_graph(rng, max_n=6)
        g2 = helpers.random_signed_graph(rng, max_n=6)
        for kind in PRODUCT_KINDS:
            prod = product(kind, g1, g2)
            yield GraphDocument(prod)
            yield GraphDocument(prod, name=kind, vertex_labels=pair_labels(g1.n, g2.n))
    yield GraphDocument(null_graph(0))
    yield GraphDocument(null_graph(0), name="", vertex_labels=())
    yield GraphDocument(null_graph(3), vertex_labels=("a", "b", "c"))
    for text in AWKWARD_TEXT:
        yield GraphDocument(unbalanced_cycle(3), name=text, vertex_labels=(text, "x", text))


def _witness_documents():
    rng = random.Random(7)
    for _ in range(20):
        g = helpers.random_signed_graph(rng, max_n=6)
        yield WitnessDocument(bdim_search(g).witness)
    yield WitnessDocument(KSwitching(1, ()))
    yield WitnessDocument(KSwitching(2, ((True, 0.0), (-1, False))))
    yield WitnessDocument(KSwitching(3, ((1, 0, -1),)))


def test_graph_documents_match_json_indent_byte_for_byte():
    for doc in _graph_documents():
        text = doc.to_json()
        assert text == helpers.reference_graph_json(doc)
        assert GraphDocument.from_json(text) == doc


def test_every_sign_a_graph_keeps_reads_back_from_its_document():
    # a graph keeps only the exact int signs, so each graph document reads
    # back as written: a bool or float sign would be written as `true` or
    # `1.0`, which reading refuses
    kept = []
    for sign in (True, False, 1.0, -1.0, 0.5, "1", None, 0, 2, 1, -1):
        try:
            doc = GraphDocument(SignedGraph(2, ((1, 0, sign),)))
        except SignError:
            continue
        assert GraphDocument.from_json(doc.to_json()) == doc
        kept.append(sign)
    assert [(type(s), s) for s in kept] == [(int, 1), (int, -1)]


def test_witness_documents_match_json_indent_byte_for_byte():
    for doc in _witness_documents():
        assert doc.to_json() == helpers.reference_witness_json(doc)


def test_odd_names_and_labels_serialise_as_json_would():
    # Documents keep whatever the caller passed; only reading one checks types.
    for odd in ({}, (), (1, "a"), {"a": [1]}, [[]], ["a"], 1.5, 7):
        for doc in (
            GraphDocument(null_graph(2), name=odd),
            GraphDocument(null_graph(2), vertex_labels=(odd, "b")),
        ):
            assert doc.to_json() == helpers.reference_graph_json(doc)
    doc = GraphDocument(null_graph(2), vertex_labels=({1}, "b"))
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        doc.to_json()


def test_dumps_writes_tuples_as_json_does():
    # json writes tuples and lists alike, so documents can hand over the
    # graph's edge tuples and the switching's vectors as they are
    for value in (
        (), ((),), ((), ()), (1, "a", None), ((0, 1, -1), (1, 2, 1)), ((1,), [2, 3]),
        [(0, 1, 1), [1, 2, -1]], ((1, ()),), (((1,),),), ((True, 0.0), (-1, False)),
        tuple(AWKWARD_TEXT), tuple((text,) for text in AWKWARD_TEXT),
    ):
        for doc in ({"v": value}, {"n": 2, "v": value, "w": ()}):
            assert _dumps(doc) == json.dumps(doc, indent=1), doc


# (document text, error type, message), recorded from the single-loop checks.
MALFORMED = [
    ('{"n": 3, "edges": [[0, 1, 1], [1, 2], [0, 2, true]]}', DocumentError, "bad edge entry [1, 2]"),
    ('{"n": 3, "edges": [[0, 1, 1], [0, 2, true], [1, 2]]}', DocumentError, "bad edge entry [0, 2, True]"),
    ('{"n": 3, "edges": [[0, 1, 1.0]]}', DocumentError, "bad edge entry [0, 1, 1.0]"),
    ('{"n": 3, "edges": [[0, 1, 1, 1]]}', DocumentError, "bad edge entry [0, 1, 1, 1]"),
    ('{"n": 3, "edges": [[0, [1], 1]]}', DocumentError, "bad edge entry [0, [1], 1]"),
    ('{"n": 3, "edges": [{"u": 0}]}', DocumentError, "bad edge entry {'u': 0}"),
    ('{"n": 3, "edges": ["abc"]}', DocumentError, "bad edge entry 'abc'"),
    ('{"n": 3, "edges": [null]}', DocumentError, "bad edge entry None"),
    ('{"n": 3, "edges": [[0, 1, 1], [1, 2, -1], [0, 2, "1"]]}', DocumentError, "bad edge entry [0, 2, '1']"),
    ('{"n": 3, "edges": [[], [0, 1, 1]]}', DocumentError, "bad edge entry []"),
    ('{"n": 3, "edges": [0, 1, 1]}', DocumentError, "bad edge entry 0"),
    ('{"n": 3, "edges": [[false, 1, 1]]}', DocumentError, "bad edge entry [False, 1, 1]"),
    ('{"n": 3, "edges": [[0, 1, 1]], "name": 5}', DocumentError, '"name" must be a string'),
    ('{"n": 3, "edges": [[0, 1]], "name": 5}', DocumentError, "bad edge entry [0, 1]"),
    ('{"n": 3, "edges": [[0, 1, 1]], "vertex_labels": ["a", 1, "c"]}', DocumentError, '"vertex_labels" must be a list of strings'),
    ('{"n": 3, "edges": [[0, 1, 1]], "vertex_labels": "abc"}', DocumentError, '"vertex_labels" must be a list of strings'),
    ('{"n": 3, "edges": [[0, 1, 1]], "vertex_labels": ["a"]}', DocumentError, "1 vertex labels for 3 vertices"),
    ('{"n": 3.0, "edges": []}', DocumentError, '"n" must be an integer'),
    ('{"n": true, "edges": []}', DocumentError, '"n" must be an integer'),
    ('{"n": 3, "edges": {"0": [1, 1]}}', DocumentError, '"edges" must be a list of [u, v, sign] triples'),
    ('{"n": 3}', DocumentError, '"edges" must be a list of [u, v, sign] triples'),
    ('{"edges": []}', DocumentError, '"n" must be an integer'),
    ('{"n": 3, "edges": [], "extra": 1}', DocumentError, "unknown graph document keys: ['extra']"),
    ("[1, 2]", DocumentError, "graph document must be a JSON object"),
    ('{"n": -1, "edges": []}', GraphError, "vertex count must be >= 0, got -1"),
    ('{"n": 3, "edges": [[0, 0, 1]]}', LoopEdgeError, "loop edge at vertex 0"),
    ('{"n": 3, "edges": [[0, 3, 1]]}', VertexRangeError, "edge (0,3) outside vertex range 0..2"),
    ('{"n": 3, "edges": [[-1, 2, 1]]}', VertexRangeError, "edge (-1,2) outside vertex range 0..2"),
    ('{"n": 3, "edges": [[0, 1, 2]]}', SignError, "edge (0,1) has sign 2, expected -1 or +1"),
    ('{"n": 3, "edges": [[0, 1, 0]]}', SignError, "edge (0,1) has sign 0, expected -1 or +1"),
    ('{"n": 3, "edges": [[0, 1, 1], [1, 0, -1]]}', DuplicateEdgeError, "duplicate edge (0,1)"),
    ('{"n": 3, "edges": [[2, 1, 1], [0, 2, -1], [1, 2, 1]]}', DuplicateEdgeError, "duplicate edge (1,2)"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED)
def test_malformed_graph_documents_keep_their_errors(text, error, message):
    with pytest.raises(error) as info:
        GraphDocument.from_json(text)
    assert type(info.value) is error
    assert str(info.value) == message


# (witness text, error type, message), recorded from the per-entry loop.
MALFORMED_WITNESSES = [
    ('{"k": 1, "zeta": [[1], 1, [1]]}', DocumentError, "bad vector entry 1"),
    ('{"k": 1, "zeta": [[1], {"a": 1}]}', DocumentError, "bad vector entry {'a': 1}"),
    ('{"k": 1, "zeta": [null]}', DocumentError, "bad vector entry None"),
    ('{"k": 2, "zeta": [[1, 0], [true, 0]]}', DocumentError, "bad vector entry [True, 0]"),
    ('{"k": 1, "zeta": [[1], [false]]}', DocumentError, "bad vector entry [False]"),
    ('{"k": 2, "zeta": [[1, 0], [0, 1.0]]}', DocumentError, "bad vector entry [0, 1.0]"),
    ('{"k": 2, "zeta": [[1, [0]]]}', DocumentError, "bad vector entry [1, [0]]"),
    ('{"k": 2, "zeta": [[1, 0], "10"]}', DocumentError, "bad vector entry '10'"),
    ('{"k": 2, "zeta": [[1, 0], [0, "1"]]}', DocumentError, "bad vector entry [0, '1']"),
    ('{"k": 1, "zeta": [[]]}', DocumentError, "vector at vertex 0 has length 0, expected 1"),
    ('{"k": 2, "zeta": [[1, 0], []]}', DocumentError, "vector at vertex 1 has length 0, expected 2"),
    ('{"k": 2, "zeta": [[1, 0], [1, 0, 0]]}', DocumentError, "vector at vertex 1 has length 3, expected 2"),
    ('{"k": 2, "zeta": [[1, 0], [1]]}', DocumentError, "vector at vertex 1 has length 1, expected 2"),
    ('{"k": 1, "zeta": [[2]]}', DocumentError, "vector at vertex 0 has entries outside -1/0/1"),
    ('{"k": 0, "zeta": []}', DocumentError, "dimension must be >= 1, got 0"),
    ('{"k": true, "zeta": []}', DocumentError, '"k" must be an integer'),
    ('{"k": 1, "zeta": {"0": [1]}}', DocumentError, '"zeta" must be a list of vectors'),
    ('{"k": 1, "zeta": [[1]], "extra": 0}', DocumentError, "unknown witness document keys: ['extra']"),
    ("[1]", DocumentError, "witness document must be a JSON object"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_WITNESSES)
def test_malformed_witness_documents_keep_their_errors(text, error, message):
    with pytest.raises(error) as info:
        WitnessDocument.from_json(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_parsed_edges_match_build_graph():
    rng = random.Random(11)
    for _ in range(50):
        g = helpers.random_signed_graph(rng, max_n=7)
        edges = [[v, u, s] if rng.random() < 0.5 else [u, v, s] for u, v, s in g.edges]
        rng.shuffle(edges)
        doc = GraphDocument.from_json(json.dumps({"n": g.n, "edges": edges}))
        assert doc.graph == g
        assert all(type(x) is int for e in doc.graph.edges for x in e)
