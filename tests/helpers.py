"""Shared test oracles, independent of the library's own algorithms."""

import json
import random
from collections import deque
from itertools import product as iproduct

from sgraph import SignedGraph, apply_switching, build_graph
from sgraph.core import (
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    SignError,
    VertexRangeError,
)


def all_signatures(g: SignedGraph):
    """Every re-signing of g's underlying graph."""
    pairs = [(u, v) for u, v, _ in g.edges]
    for signs in iproduct((-1, 1), repeat=len(pairs)):
        yield build_graph(g.n, [(u, v, s) for (u, v), s in zip(pairs, signs)])


def brute_balanced(g: SignedGraph) -> bool:
    """Balance by trying all 2^n scalar switchings."""
    return any(
        all(s == 1 for _, _, s in apply_switching(g, zeta).edges)
        for zeta in iproduct((-1, 1), repeat=g.n)
    )


def reference_bfs(g: SignedGraph):
    """The BFS pass by its definition: (component orders, switching, tree-edge
    index per vertex, -1 at a root).

    Each unvisited vertex in turn roots a search over a deque and sorted
    neighbour lists; a reached vertex takes its parent's value times the tree
    edge's sign. Shares no code with sgraph.core.
    """
    nbrs = [[] for _ in range(g.n)]
    for i, (u, v, _) in enumerate(g.edges):
        nbrs[u].append((v, i))
        nbrs[v].append((u, i))
    zeta, tree, orders = [0] * g.n, [-1] * g.n, []
    for root in range(g.n):
        if zeta[root]:
            continue
        zeta[root] = 1
        order, queue = [root], deque([root])
        while queue:
            u = queue.popleft()
            for v, i in sorted(nbrs[u]):
                if not zeta[v]:
                    zeta[v] = zeta[u] * g.edges[i][2]
                    tree[v] = i
                    order.append(v)
                    queue.append(v)
        orders.append(tuple(order))
    return tuple(orders), tuple(zeta), tuple(tree)


def brute_switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Switching equivalence by trying all 2^n scalar switchings."""
    if g1.n != g2.n:
        return False
    if [(u, v) for u, v, _ in g1.edges] != [(u, v) for u, v, _ in g2.edges]:
        return False
    return any(
        apply_switching(g1, zeta).edges == g2.edges
        for zeta in iproduct((-1, 1), repeat=g1.n)
    )


def simple_cycles(g: SignedGraph) -> list[tuple[int, ...]]:
    """All simple cycles, one canonical tuple each.

    Canonical form: starts at the cycle's smallest vertex and runs toward the
    smaller of its two neighbors on the cycle.
    """
    cycles = set()

    def extend(path, visited):
        u = path[-1]
        for v in g.neighbors(u):
            if v == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.add(tuple(path))
            elif v not in visited and v > path[0]:
                extend(path + [v], visited | {v})

    for root in range(g.n):
        extend([root], {root})
    return sorted(cycles)


def _cartesian_rule(i, j, k, l, s1, s2):
    return s2 if i == k else s1 if j == l else None


def _tensor_rule(i, j, k, l, s1, s2):
    return s1 * s2 if s1 and s2 else None


# Sign of the product edge (i,j)(k,l), or None for no edge, given the factor
# signs s1 of (i,k) and s2 of (j,l), each None when that pair is no edge.
PRODUCT_RULES = {
    "cartesian": _cartesian_rule,
    "hg_lex": lambda i, j, k, l, s1, s2: s2 if i == k else s1,
    "bcd_lex": lambda i, j, k, l, s1, s2: s2 if i == k else s1 and s1 * (s2 or 1),
    "tensor": _tensor_rule,
    "strong": lambda *pair: _cartesian_rule(*pair) or _tensor_rule(*pair),
}


def reference_product(kind: str, g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """The product by its definition: every pair of vertices (i,j), (k,l) is
    tested against the kind's rule in PRODUCT_RULES. Shares no code with
    sgraph.products; the vertex (i,j) is numbered i*n2 + j."""
    sign1 = {frozenset((u, v)): s for u, v, s in g1.edges}
    sign2 = {frozenset((u, v)): s for u, v, s in g2.edges}
    rule = PRODUCT_RULES[kind]
    pairs = [(i, j) for i in range(g1.n) for j in range(g2.n)]
    edges = []
    for a, (i, j) in enumerate(pairs):
        for b in range(a + 1, len(pairs)):
            k, l = pairs[b]
            s1 = sign1.get(frozenset((i, k)))
            s2 = sign2.get(frozenset((j, l)))
            sign = rule(i, j, k, l, s1, s2)
            if sign is not None:
                edges.append((a, b, sign))
    return build_graph(len(pairs), edges)


def random_signed_graph(rng: random.Random, max_n: int = 5) -> SignedGraph:
    """Each vertex pair independently present with probability 1/2."""
    n = rng.randint(1, max_n)
    edges = [
        (u, v, rng.choice((-1, 1)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return build_graph(n, edges)


# Seed for the 200-graph oracle-equivalence corpus. Chosen once and frozen:
# every graph it yields stays within the brute-force enumeration guard.
CORPUS_SEED = 1729


def oracle_corpus(count: int = 200, max_n: int = 5) -> list[SignedGraph]:
    rng = random.Random(CORPUS_SEED)
    return [random_signed_graph(rng, max_n) for _ in range(count)]


def brute_k_positive(g: SignedGraph, k: int) -> bool:
    """Whether some map from vertices to {-1,0,1}^k switches g all-positive.

    Tries all 3^(n*k) maps in pure Python: an edge (u, v, s) is positive when
    s times the plain inner product of its end vectors is positive, which also
    rules out orthogonal ends. Shares no code with sgraph.bdim.
    """
    vecs = list(iproduct((-1, 0, 1), repeat=k))
    return any(
        all(s * sum(a * b for a, b in zip(phi[u], phi[v])) > 0 for u, v, s in g.edges)
        for phi in iproduct(vecs, repeat=g.n)
    )


def max_pairwise_negative_set(k: int) -> int:
    """Largest set of nonzero vectors in {-1,0,1}^k with pairwise negative
    inner products.

    Branch-and-bound maximum clique on the pairwise-negativity graph; a
    second, search-free route to lower bounds on the dimension of all-negative
    complete graphs (n vectors fit exactly when the set size reaches n).
    """
    vecs = [v for v in iproduct((-1, 0, 1), repeat=k) if any(v)]
    n = len(vecs)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sum(a * b for a, b in zip(vecs[i], vecs[j])) < 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best = 0

    def expand(size: int, cand: int):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(size + 1, cand & adj[v])

    expand(0, (1 << n) - 1)
    return best


def reference_normalized_edges(n, edges) -> tuple:
    """SignedGraph's edge validation as a single checking loop: the sorted
    u < v edges, or the first error, with the library's types and messages."""
    if type(n) is not int:
        raise GraphError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    normalized = []
    for u, v, s in edges:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(
                f"edge ({u},{v}) outside vertex range 0..{n - 1}"
            )
        if type(s) is not int or s not in (-1, 1):
            raise SignError(f"edge ({u},{v}) has sign {s!r}, expected -1 or +1")
        normalized.append((u, v, s) if u < v else (v, u, s))
    normalized.sort()
    for a, b in zip(normalized, normalized[1:]):
        if a[:2] == b[:2]:
            raise DuplicateEdgeError(f"duplicate edge ({a[0]},{a[1]})")
    return tuple(normalized)


def reference_graph_json(doc) -> str:
    """A GraphDocument serialised by json's own indented encoder."""
    raw: dict = {
        "n": doc.graph.n,
        "edges": [[u, v, s] for u, v, s in doc.graph.edges],
    }
    if doc.name is not None:
        raw["name"] = doc.name
    if doc.vertex_labels is not None:
        raw["vertex_labels"] = list(doc.vertex_labels)
    return json.dumps(raw, indent=1)


def reference_witness_json(doc) -> str:
    """A WitnessDocument serialised by json's own indented encoder."""
    raw = {
        "k": doc.switching.k,
        "zeta": [list(vec) for vec in doc.switching.vectors],
    }
    return json.dumps(raw, indent=1)


def bfs_relabelled(g: SignedGraph) -> SignedGraph:
    """Connected g with each vertex renamed to its place in reference_bfs's
    order, so every vertex after 0 has an earlier neighbour."""
    (order,) = reference_bfs(g)[0]
    label = {v: i for i, v in enumerate(order)}
    return build_graph(g.n, [(label[u], label[v], s) for u, v, s in g.edges])


def reference_first_switching(g: SignedGraph, k: int):
    """The first k-positive assignment of plain backtracking, or None.

    g is connected and labelled in BFS order from vertex 0. Vertices are
    assigned in label order, candidates in lexicographic order (-1 < 0 < 1);
    the root takes only the vectors (1^t, 0^(k-t)), and each candidate is
    checked against the edges back to earlier vertices. No forward checking
    and no symmetry rule: shares no code with sgraph.bdim.
    """
    cands = [v for v in iproduct((-1, 0, 1), repeat=k) if any(v)]
    roots = sorted((1,) * t + (0,) * (k - t) for t in range(1, k + 1))
    back = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        back[v].append((u, s))
    vecs = []

    def extend(p):
        if p == g.n:
            return True
        for c in roots if p == 0 else cands:
            if all(s * sum(a * b for a, b in zip(vecs[u], c)) > 0 for u, s in back[p]):
                vecs.append(c)
                if extend(p + 1):
                    return True
                vecs.pop()
        return False

    return list(vecs) if extend(0) else None
