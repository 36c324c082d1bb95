"""JSON document formats for graphs and switchings, plus DOT export.

Graph documents carry {"n", "edges", optional "name", optional "vertex_labels"};
witness documents carry {"k", "zeta"}. Serialization is deterministic so that
identical inputs produce identical bytes.
"""

import json
from dataclasses import dataclass
from itertools import chain

from .bdim import KSwitching
from .core import SignedGraph


class DocumentError(ValueError):
    """Document text does not match the expected schema."""


def _load_object(text: str, what: str) -> dict:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must be a JSON object")
    return raw


_SCALARS = {int, float, bool, str, type(None)}
_ARRAYS = {list, tuple}


def _dumps(doc: dict, int_rows: str | None = None) -> str:
    """Exactly json.dumps(doc, indent=1), without json's pure-Python encoder.

    json's indented output always runs the pure-Python encoder. A document
    whose values are scalars, flat arrays or arrays of equal-width rows of
    exact ints (an array being a list or a tuple, which json writes alike)
    is written here instead: scalars and flat arrays by json's C encoder
    with newline separators, and the rows by one `%d` format over their
    flattened cells, since `%d` writes an exact int as json does. The value
    under the key `int_rows` is taken to be such rows without a look at its
    cells. Any other value falls back to json.dumps(doc, indent=1).
    """
    items = []
    for key, value in doc.items():
        if type(value) not in _ARRAYS:
            if type(value) not in _SCALARS:
                return json.dumps(doc, indent=1)
            text = json.dumps(value)
        elif not value:
            text = "[]"
        elif key == int_rows or (
            set(map(type, value)) <= _ARRAYS
            and len(set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            row = "[\n   " + ",\n   ".join(["%d"] * len(value[0])) + "\n  ]"
            text = "[\n  " + ",\n  ".join([row] * len(value)) + "\n ]"
            text %= tuple(chain.from_iterable(value))
        elif set(map(type, value)) <= _SCALARS:
            text = "[\n  " + json.dumps(value, separators=(",\n  ", ": "))[1:-1] + "\n ]"
        else:
            return json.dumps(doc, indent=1)
        items.append(json.dumps(key) + ": " + text)
    return "{\n " + ",\n ".join(items) + "\n}"


def _int_rows(rows: list, width: int | None = None) -> bool:
    """Whether every entry of a parsed list is a list of ints, each of
    `width` ints when given. Parsed JSON holds only exact types, so an exact
    int is never a bool."""
    return (
        set(map(type, rows)) <= {list}
        and (width is None or set(map(len, rows)) <= {width})
        and set(map(type, chain.from_iterable(rows))) <= {int}
    )


@dataclass(frozen=True)
class GraphDocument:
    graph: SignedGraph
    name: str | None = None
    vertex_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.vertex_labels is not None and len(self.vertex_labels) != self.graph.n:
            raise DocumentError(
                f"{len(self.vertex_labels)} vertex labels for {self.graph.n} vertices"
            )

    def to_json(self) -> str:
        doc: dict = {
            "n": self.graph.n,
            "edges": self.graph.edges,
        }
        if self.name is not None:
            doc["name"] = self.name
        if self.vertex_labels is not None:
            doc["vertex_labels"] = self.vertex_labels
        # a graph's edges are exact-int (u, v, sign) tuples by construction
        return _dumps(doc, int_rows="edges")

    @classmethod
    def from_json(cls, text: str) -> "GraphDocument":
        raw = _load_object(text, "graph document")
        unknown = set(raw) - {"n", "edges", "name", "vertex_labels"}
        if unknown:
            raise DocumentError(f"unknown graph document keys: {sorted(unknown)}")
        n = raw.get("n")
        edges = raw.get("edges")
        if not isinstance(n, int) or isinstance(n, bool):
            raise DocumentError('"n" must be an integer')
        if not isinstance(edges, list):
            raise DocumentError('"edges" must be a list of [u, v, sign] triples')
        # SignedGraph takes only exact-int triples, so the rows go to it as
        # parsed and are looked at only when it refuses them: a bad row is
        # named at once, and a graph error waits for the name and labels
        failure = None
        try:
            graph = SignedGraph(n, edges)
        except (TypeError, ValueError) as exc:
            if not _int_rows(edges, 3):
                bad = next(e for e in edges if not _int_rows([e], 3))
                raise DocumentError(f"bad edge entry {bad!r}") from None
            failure = exc
        name = raw.get("name")
        if name is not None and not isinstance(name, str):
            raise DocumentError('"name" must be a string')
        labels = raw.get("vertex_labels")
        if labels is not None:
            if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                raise DocumentError('"vertex_labels" must be a list of strings')
            labels = tuple(labels)
        if failure is not None:
            raise failure
        return cls(graph, name, labels)


@dataclass(frozen=True)
class WitnessDocument:
    switching: KSwitching

    def to_json(self) -> str:
        doc = {
            "k": self.switching.k,
            "zeta": self.switching.vectors,
        }
        return _dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "WitnessDocument":
        raw = _load_object(text, "witness document")
        unknown = set(raw) - {"k", "zeta"}
        if unknown:
            raise DocumentError(f"unknown witness document keys: {sorted(unknown)}")
        k = raw.get("k")
        zeta = raw.get("zeta")
        if not isinstance(k, int) or isinstance(k, bool):
            raise DocumentError('"k" must be an integer')
        if not isinstance(zeta, list):
            raise DocumentError('"zeta" must be a list of vectors')
        if not _int_rows(zeta):
            bad = next(vec for vec in zeta if not _int_rows([vec]))
            raise DocumentError(f"bad vector entry {bad!r}")
        try:
            switching = KSwitching(k, tuple(tuple(vec) for vec in zeta))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
        return cls(switching)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(doc: GraphDocument) -> str:
    """DOT rendering: positive edges solid, negative edges dashed.

    Output is byte-deterministic for a given document (stable ordering).
    """
    g = doc.graph
    lines = [f"graph {_quote(doc.name or 'signed-graph')} {{"]
    for v in range(g.n):
        if doc.vertex_labels is not None:
            lines.append(f"  {v} [label={_quote(doc.vertex_labels[v])}];")
        else:
            lines.append(f"  {v};")
    for u, v, s in g.edges:
        style = "solid" if s == 1 else "dashed"
        lines.append(f"  {u} -- {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
