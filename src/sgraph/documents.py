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


def _rows_json(rows) -> str:
    """Equal-width rows of exact ints as json.dumps(doc, indent=1) writes
    them under a top-level key: one `%d` format over the flattened cells,
    since `%d` writes an exact int as json does."""
    if not rows:
        return "[]"
    row = "[\n   " + ",\n   ".join(["%d"] * len(rows[0])) + "\n  ]"
    text = "[\n  " + ",\n  ".join([row] * len(rows)) + "\n ]"
    return text % tuple(chain.from_iterable(rows))


def _int_rows(rows: list, width: int | None = None) -> bool:
    """Whether every entry of a parsed list is a list of ints, each of
    `width` ints when given. Parsed JSON holds only exact types, so an exact
    int is never a bool."""
    return (
        set(map(type, rows)) <= {list}
        and (width is None or set(map(len, rows)) <= {width})
        and set(map(type, chain.from_iterable(rows))) <= {int}
    )


def _checked_fields(name, labels) -> tuple[str, ...] | None:
    """The labels as a tuple, once the name is checked to be a string or
    None and the labels a list or tuple of strings or None."""
    if name is not None and not isinstance(name, str):
        raise DocumentError('"name" must be a string')
    if labels is None:
        return None
    if not (isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)):
        raise DocumentError('"vertex_labels" must be a list of strings')
    return tuple(labels)


@dataclass(frozen=True)
class GraphDocument:
    graph: SignedGraph
    name: str | None = None
    vertex_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        labels = _checked_fields(self.name, self.vertex_labels)
        object.__setattr__(self, "vertex_labels", labels)
        if labels is not None and len(labels) != self.graph.n:
            raise DocumentError(f"{len(labels)} vertex labels for {self.graph.n} vertices")

    def to_json(self) -> str:
        """Exactly json.dumps of the document with indent=1, without json's
        pure-Python indenting encoder."""
        text = '{\n "n": %d,\n "edges": %s' % (self.graph.n, _rows_json(self.graph.edges))
        if self.name is not None:
            text += ',\n "name": ' + json.dumps(self.name)
        if self.vertex_labels is not None:
            text += ',\n "vertex_labels": '
            if self.vertex_labels:
                labels = json.dumps(self.vertex_labels, separators=(",\n  ", ": "))
                text += "[\n  " + labels[1:-1] + "\n ]"
            else:
                text += "[]"
        return text + "\n}"

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
        try:
            graph = SignedGraph(n, edges)
        except (TypeError, ValueError):
            if not _int_rows(edges, 3):
                bad = next(e for e in edges if not _int_rows([e], 3))
                raise DocumentError(f"bad edge entry {bad!r}") from None
            _checked_fields(raw.get("name"), raw.get("vertex_labels"))
            raise
        return cls(graph, raw.get("name"), raw.get("vertex_labels"))


@dataclass(frozen=True)
class WitnessDocument:
    switching: KSwitching

    def to_json(self) -> str:
        """Exactly json.dumps of the document with indent=1."""
        return '{\n "k": %d,\n "zeta": %s\n}' % (
            self.switching.k,
            _rows_json(self.switching.vectors),
        )

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
        # as for graph rows: the vectors are looked at only when refused
        try:
            switching = KSwitching(k, zeta)
        except (TypeError, ValueError) as exc:
            if not _int_rows(zeta):
                bad = next(vec for vec in zeta if not _int_rows([vec]))
                raise DocumentError(f"bad vector entry {bad!r}") from None
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
