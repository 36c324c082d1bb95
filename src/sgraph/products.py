"""Five products of signed graphs, each a sum of terms.

Over factors on n1 and n2 vertices the pair (i, j) is the flat vertex i*n2 + j.
A term pairs relations on g1 and g2, lists of (a, b, sign) triples; it joins
(i,j) to (k,l) with sign s * t for each (i, k, s) on g1 and (j, l, t) on g2.
"""

from .core import SignedGraph


def pair_to_flat(i: int, j: int, n2: int) -> int:
    return i * n2 + j


def flat_to_pair(flat: int, n2: int) -> tuple[int, int]:
    return divmod(flat, n2)


def pair_labels(n1: int, n2: int) -> tuple[str, ...]:
    """Labels "i,j" for product vertices in flat order."""
    return tuple(f"{i},{j}" for i in range(n1) for j in range(n2))


def _same(g: SignedGraph) -> list:
    """Each vertex related to itself, sign +1."""
    return [(v, v, 1) for v in range(g.n)]


def _both_ways(g: SignedGraph) -> list:
    """Each edge in both directions, with its sign."""
    return [*g.edges, *((v, u, s) for u, v, s in g.edges)]


def _full(g: SignedGraph, signs=()) -> list:
    """Every ordered vertex pair, equal pairs too, with its sign in `signs` or +1."""
    sign = {(a, b): s for a, b, s in signs}
    return [(a, b, sign.get((a, b), 1)) for a in range(g.n) for b in range(g.n)]


def _product(g1: SignedGraph, g2: SignedGraph, *terms) -> SignedGraph:
    """The sum of the terms, each a (g1 relation, g2 relation) pair."""
    n2 = g2.n
    edges = [
        (a + j, b + l, s * t)
        for left, right in terms
        for i, k, s in left
        for a, b in ((i * n2, k * n2),)  # multiply once per left pair, not per entry
        for j, l, t in right
    ]
    return SignedGraph(g1.n * n2, edges)


def cartesian(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) when the pairs agree in one coordinate and are adjacent
    in the other; the sign comes from the factor providing the edge."""
    return _product(g1, g2, (g1.edges, _same(g2)), (_same(g1), g2.edges))


def hg_lex(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Lexicographic product, first signature convention.

    (i,j) ~ (k,l) when i ~ k, or i = k and j ~ l. Cross edges (i != k) carry
    the first factor's sign; fiber edges carry the second factor's sign.
    """
    return _product(g1, g2, (g1.edges, _full(g2)), (_same(g1), g2.edges))


def bcd_lex(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Lexicographic product, second signature convention.

    Same underlying graph as hg_lex. A cross edge multiplies in the second
    factor's sign when the second coordinates are adjacent; fiber edges are
    unchanged. Equal second coordinates count as non-adjacent (no loops).
    """
    table = _full(g2, _both_ways(g2))
    return _product(g1, g2, (g1.edges, table), (_same(g1), g2.edges))


def tensor(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) when i ~ k and j ~ l; signs multiply."""
    return _product(g1, g2, (g1.edges, _both_ways(g2)))


def strong(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """Union of the cartesian and tensor edge sets with their respective signs."""
    right = _same(g2) + _both_ways(g2)
    return _product(g1, g2, (g1.edges, right), (_same(g1), g2.edges))


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
