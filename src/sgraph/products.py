"""Five products of signed graphs sharing one vertex-pair flattening convention.

A product of factors on n1 and n2 vertices lives on n1*n2 vertices; the pair
(i, j) maps to the flat id i*n2 + j. The five constructions differ in which
pairs are adjacent and in how factor signs combine.
"""

from .core import SignedGraph


def pair_to_flat(i: int, j: int, n2: int) -> int:
    return i * n2 + j


def flat_to_pair(flat: int, n2: int) -> tuple[int, int]:
    return divmod(flat, n2)


def pair_labels(n1: int, n2: int) -> tuple[str, ...]:
    """Labels "i,j" for product vertices in flat order."""
    return tuple(f"{i},{j}" for i in range(n1) for j in range(n2))


def _layers(g1: SignedGraph, g2: SignedGraph) -> list:
    """g1's edges copied onto every second coordinate j: (i,j) ~ (k,j)."""
    n2 = g2.n
    return [(u * n2 + j, v * n2 + j, s) for j in range(n2) for u, v, s in g1.edges]


def _fibres(g1: SignedGraph, g2: SignedGraph) -> list:
    """g2's edges copied onto every first coordinate i: (i,j) ~ (i,l)."""
    n2 = g2.n
    return [(i * n2 + u, i * n2 + v, s) for i in range(g1.n) for u, v, s in g2.edges]


def _cross(g1: SignedGraph, g2: SignedGraph) -> list:
    """(i,j) ~ (k,l) and (i,l) ~ (k,j) for i ~ k and j ~ l, signed s1 * s2."""
    n2 = g2.n
    edges = []
    for i, k, s1 in g1.edges:
        for j, l, s2 in g2.edges:
            edges.append((i * n2 + j, k * n2 + l, s1 * s2))
            edges.append((i * n2 + l, k * n2 + j, s1 * s2))
    return edges


def _lex(g1: SignedGraph, g2: SignedGraph, table: list[list[int]]) -> SignedGraph:
    """Lexicographic product: the fibres, plus (i,j) ~ (k,l) for every i ~ k
    with sign s(i,k) * table[j][l]."""
    n2 = g2.n
    edges = [
        (ij, kl, s * t)
        for i, k, s in g1.edges
        for ij, row in enumerate(table, i * n2)
        for kl, t in enumerate(row, k * n2)
    ]
    return SignedGraph(g1.n * n2, tuple(edges + _fibres(g1, g2)))


def cartesian(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) when the pairs agree in one coordinate and are adjacent
    in the other; the sign comes from the factor providing the edge."""
    return SignedGraph(g1.n * g2.n, tuple(_layers(g1, g2) + _fibres(g1, g2)))


def hg_lex(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Lexicographic product, first signature convention.

    (i,j) ~ (k,l) when i ~ k, or i = k and j ~ l. Cross edges (i != k) carry
    the first factor's sign; fiber edges carry the second factor's sign.
    """
    return _lex(g1, g2, [[1] * g2.n] * g2.n)


def bcd_lex(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Lexicographic product, second signature convention.

    Same underlying graph as hg_lex. A cross edge multiplies in the second
    factor's sign when the second coordinates are adjacent; fiber edges are
    unchanged. Equal second coordinates count as non-adjacent (no loops).
    """
    table = [[1] * g2.n for _ in range(g2.n)]
    for u, v, s in g2.edges:
        table[u][v] = table[v][u] = s
    return _lex(g1, g2, table)


def tensor(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) when i ~ k and j ~ l; signs multiply."""
    return SignedGraph(g1.n * g2.n, tuple(_cross(g1, g2)))


def strong(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Union of the cartesian and tensor edge sets with their respective signs."""
    edges = _layers(g1, g2) + _fibres(g1, g2) + _cross(g1, g2)
    return SignedGraph(g1.n * g2.n, tuple(edges))


PRODUCT_KINDS = {
    "cartesian": cartesian,
    "hg_lex": hg_lex,
    "bcd_lex": bcd_lex,
    "tensor": tensor,
    "strong": strong,
}


def product(kind: str, g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Dispatch by product kind name."""
    try:
        fn = PRODUCT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown product kind {kind!r}") from None
    return fn(g1, g2)
