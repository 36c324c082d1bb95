"""Signed graphs: immutable representation, named generators, scalar switching,
and the balance / antibalance / switching-equivalence decision procedures."""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Edge = tuple[int, int, int]


class _cached:
    """functools.cached_property without its lock (Python 3.10 and 3.11 take
    an RLock on each instance's first read): the first read stores the value
    in the instance __dict__, where every later read finds it as a plain
    attribute. Two threads may both compute it and store equal values."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class GraphError(ValueError):
    """Malformed signed graph."""


class LoopEdgeError(GraphError):
    """Edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """More than one edge on the same vertex pair."""


class VertexRangeError(GraphError):
    """Edge endpoint that is not an int in 0..n-1."""


class SignError(GraphError):
    """Edge sign other than the exact int -1 or +1."""


class SwitchingError(ValueError):
    """Switching function does not cover the graph or has values outside {-1,+1}."""


class NotACycleError(ValueError):
    """Vertex sequence is not a simple cycle of the graph."""


@dataclass(frozen=True)
class SignedGraph:
    """Simple undirected graph on vertices 0..n-1 with edges labeled -1 or +1.

    Edges are normalized on construction: endpoints ordered u < v, stored
    sorted lexicographically. Loops, duplicate pairs, out-of-range endpoints
    and signs other than the exact ints -1 and +1 are rejected, each with its
    own error type. Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        n = self.n
        _check_int("vertex count", n, GraphError, least=0)
        normalized = []
        append = normalized.append
        for edge in self.edges:
            u, v, s = edge
            try:
                if (s == 1 or s == -1) and type(u) is int and type(v) is int and type(s) is int:
                    if 0 <= u < v < n:
                        # an exact tuple is immutable and already in form
                        append(edge if type(edge) is tuple else (u, v, s))
                        continue
                    if 0 <= v < u < n:
                        append((v, u, s))
                        continue
            except (TypeError, ValueError):
                pass  # an odd type: _checked_edge raises the specific error
            append(_checked_edge(n, u, v, s))
        normalized.sort()
        for a, b in zip(normalized, normalized[1:]):
            # sorted neighbours mostly share u, so v settles it sooner
            if a[1] == b[1] and a[0] == b[0]:
                raise DuplicateEdgeError(f"duplicate edge ({a[0]},{a[1]})")
        object.__setattr__(self, "edges", tuple(normalized))

    @_cached
    def _adjacency(self) -> tuple[dict[int, int], ...]:
        """Per vertex, each neighbour mapped to the index of their edge, in
        ascending neighbour order because the edges are sorted with u < v."""
        adj = tuple({} for _ in range(self.n))
        for i, (u, v, _) in enumerate(self.edges):
            adj[u][v] = i
            adj[v][u] = i
        return adj

    @_cached
    def _bfs(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
        """One BFS pass: the component orders, a spanning-tree switching and
        each vertex's tree-edge index (-1 at a root).

        Each component is searched from its smallest vertex, neighbours in
        ascending order. The root gets +1 and every other vertex the value of
        its tree parent times the sign of the tree edge, so the switching makes
        every tree edge positive.
        """
        edges = self.edges
        adj = self._adjacency
        zeta = [0] * self.n
        tree = [-1] * self.n
        orders = []
        for root in range(self.n):
            if zeta[root]:
                continue
            zeta[root] = 1
            order = [root]
            for u in order:
                zu = zeta[u]
                for v, i in adj[u].items():
                    if not zeta[v]:
                        zeta[v] = zu * edges[i][2]
                        tree[v] = i
                        order.append(v)
            orders.append(tuple(order))
        return tuple(orders), tuple(zeta), tuple(tree)

    def neighbors(self, u: int) -> tuple[int, ...]:
        if not _is_vertex(self.n, u):
            raise GraphError(f"vertex {u!r} outside vertex range 0..{self.n - 1}")
        return tuple(self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        return _is_vertex(n, u) and _is_vertex(n, v) and v in self._adjacency[u]

    def sign(self, u: int, v: int) -> int:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u},{v})")
        return self.edges[self._adjacency[u][v]][2]


def _check_int(name: str, value, error: type[ValueError] = ValueError, least: int = 1) -> None:
    """Reject a count, dimension or cap that is not an exact int >= least."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def _is_vertex(n: int, v) -> bool:
    """True for an exact int in 0..n-1: a float, bool or None is no vertex."""
    return type(v) is int and 0 <= v < n


def _checked_edge(n: int, u, v, s) -> Edge:
    """Check one edge in order (loop, range, sign) and raise the first
    failure's error; an edge that passes comes back as its u < v triple."""
    if u == v:
        raise LoopEdgeError(f"loop edge at vertex {u}")
    if not (_is_vertex(n, u) and _is_vertex(n, v)):
        raise VertexRangeError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
    if type(s) is not int or s not in (-1, 1):
        raise SignError(f"edge ({u},{v}) has sign {s!r}, expected -1 or +1")
    return (u, v, s) if u < v else (v, u, s)


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> SignedGraph:
    """Validate an edge list of (u, v, sign) triples into a SignedGraph."""
    return SignedGraph(n, tuple(edge_list))


def all_positive_complete(n: int) -> SignedGraph:
    """Complete graph on n vertices, every edge positive."""
    return SignedGraph(
        n, tuple((u, v, 1) for u in range(n) for v in range(u + 1, n))
    )


def all_negative_complete(n: int) -> SignedGraph:
    """Complete graph on n vertices, every edge negative."""
    return SignedGraph(
        n, tuple((u, v, -1) for u in range(n) for v in range(u + 1, n))
    )


def antibalanced_complete(n: int) -> SignedGraph:
    """Canonical antibalanced complete graph: the all-negative one.

    Every antibalanced complete signed graph switches to this form, so it
    serves as the family representative.
    """
    return all_negative_complete(n)


def unbalanced_cycle(n: int) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0 with exactly the edge (0,1) negative."""
    if n < 3:
        raise GraphError(f"unbalanced_cycle needs order >= 3, got {n}")
    edges = [(0, 1, -1)]
    edges.extend((i, i + 1, 1) for i in range(1, n - 1))
    edges.append((0, n - 1, 1))
    return SignedGraph(n, tuple(edges))


def path_graph(n: int) -> SignedGraph:
    """All-positive path 0-1-...-(n-1)."""
    return SignedGraph(n, tuple((i, i + 1, 1) for i in range(n - 1)))


def null_graph(n: int) -> SignedGraph:
    """n vertices, no edges."""
    return SignedGraph(n, ())


def negate(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign. Involutive."""
    return SignedGraph(g.n, tuple((u, v, -s) for u, v, s in g.edges))


def is_all_positive(g: SignedGraph) -> bool:
    return all(s == 1 for _, _, s in g.edges)


def cycle_sign(g: SignedGraph, cycle: Sequence[int]) -> int:
    """Product of edge signs along a simple cycle given as a vertex sequence.

    The sequence must list distinct vertices whose consecutive pairs (wrapping
    around) are all edges of g.
    """
    if len(cycle) < 3:
        raise NotACycleError("a cycle needs at least 3 vertices")
    if len(set(cycle)) != len(cycle):
        raise NotACycleError("repeated vertex in cycle")
    sign = 1
    closed = tuple(cycle) + (cycle[0],)
    for a, b in zip(closed, closed[1:]):
        if not g.has_edge(a, b):
            raise NotACycleError(f"({a},{b}) is not an edge of the graph")
        sign *= g.sign(a, b)
    return sign


def apply_switching(g: SignedGraph, zeta: Sequence[int]) -> SignedGraph:
    """Multiply each edge sign by zeta(u)*zeta(v) for a vertex map into {-1,+1}."""
    if len(zeta) != g.n:
        raise SwitchingError(f"switching covers {len(zeta)} vertices, graph has {g.n}")
    for v, x in enumerate(zeta):
        if type(x) is not int or x not in (-1, 1):
            raise SwitchingError(f"switching value at vertex {v} is {x!r}")
    return SignedGraph(
        g.n, tuple((u, v, s * zeta[u] * zeta[v]) for u, v, s in g.edges)
    )


def is_balanced(g: SignedGraph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide balance; if balanced, also return a switching to all-positive.

    Balanced means no cycle has negative sign, which holds exactly when the
    spanning-tree switching of the BFS pass makes every edge positive.
    """
    zeta = g._bfs[1]
    for u, v, s in g.edges:
        if zeta[u] * s * zeta[v] != 1:
            return False, None
    return True, zeta


def is_antibalanced(g: SignedGraph) -> bool:
    """True when the sign-flipped graph is balanced: when the switching that
    makes g's BFS forest negative makes every edge negative."""
    zeta = _forest_switching(g, g.edges, -1)
    for u, v, s in g.edges:
        if zeta[u] * s * zeta[v] != -1:
            return False
    return True


def _forest_switching(g: SignedGraph, edges: Sequence[Edge], sign: int) -> list[int]:
    """The switching, +1 at each root of g's BFS forest, that gives every
    forest edge `sign` when it is signed as in `edges` (on g's vertex pairs)."""
    orders, _, tree = g._bfs
    zeta = [1] * g.n
    for order in orders:
        for v in order[1:]:
            # the tree edge's other end is v's parent, earlier in the order;
            # on a pair mismatch zeta is meaningless but the caller's check fails
            a, b, s = edges[tree[v]]
            zeta[v] = zeta[a if b == v else b] * s * sign
    return zeta


def is_switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Same underlying graph and related by some scalar switching.

    Walking g2's BFS forest in BFS order, g1's signs on the forest edges give
    g1 a switching that makes those edges positive, as g2's spanning-tree
    switching does for g2. When the two have the same sorted vertex pairs,
    the forest is one of g1 too, so they are equivalent exactly when their
    edge pairs agree and the two switched signs agree on every edge. Only
    g2 is searched, and not at all once its BFS pass is cached.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    z1 = _forest_switching(g2, g1.edges, 1)
    z2 = g2._bfs[1]
    for (u, v, s), (x, y, t) in zip(g1.edges, g2.edges):
        if u != x or v != y or s * z1[u] * z1[v] != t * z2[u] * z2[v]:
            return False
    return True


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components, each as a BFS order rooted at its smallest vertex."""
    return [list(order) for order in g._bfs[0]]


def induced_subgraph(g: SignedGraph, vertices: Sequence[int]) -> SignedGraph:
    """Subgraph on the given distinct vertices, relabeled 0..len(vertices)-1 in order.

    Its edges are read from the given vertices' neighbour maps, so the cost
    follows their degrees and not the size of g."""
    relabel = {}
    for i, v in enumerate(vertices):
        if not _is_vertex(g.n, v):
            raise VertexRangeError(f"vertex {v!r} outside vertex range 0..{g.n - 1}")
        if relabel.setdefault(v, i) != i:
            raise GraphError(f"repeated vertex {v} in induced subgraph")
    edges = g.edges
    adj = g._adjacency
    sub = tuple(
        (j, k, edges[i][2])
        for u, j in relabel.items()
        for v, i in adj[u].items()
        if (k := relabel.get(v, -1)) > j  # each edge once, from its lower new label
    )
    return SignedGraph(len(vertices), sub)
