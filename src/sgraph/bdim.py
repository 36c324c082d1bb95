"""Vector-valued switching and exact balancing dimension.

A k-switching assigns each vertex a vector over {-1,0,1}^k; it is valid when
no edge joins orthogonal vectors, and it switches an edge by the sign of the
endpoint vectors' inner product. The balancing dimension of a signed graph is
the least k for which some k-switching makes every edge positive.

Two independent routes compute it: a pruned backtracking search with symmetry
reduction (bdim_search) and a plain brute-force enumeration (bdim_oracle).
They must agree wherever both run; tests enforce this.
"""

import functools
from dataclasses import dataclass
from itertools import chain, product as iproduct
from operator import mul, or_

from .core import SignedGraph, _check_int, components, induced_subgraph

OMEGA = (-1, 0, 1)

# Enumeration ceiling for the brute-force route: at most this many maps per k.
ORACLE_GUARD = 10**8


class DimensionMismatchError(ValueError):
    """Vectors of different dimensions were combined."""


class InvalidSwitchingError(ValueError):
    """Switching misses vertices or assigns orthogonal vectors across an edge."""

    def __init__(self, message: str, edge: tuple[int, int] | None = None):
        super().__init__(message)
        self.edge = edge


class BdimCapExceededError(RuntimeError):
    """No positive switching exists at any dimension up to the cap.

    Distinct from a computed value: the dimension is > max_k, not = max_k.
    """

    def __init__(self, max_k: int):
        super().__init__(f"no positive switching found for any k <= {max_k}")
        self.max_k = max_k


class OracleGuardError(RuntimeError):
    """Brute-force enumeration would exceed ORACLE_GUARD maps."""


def sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def inner_sign(a, b) -> int:
    """Sign of the standard inner product of two switching vectors."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sgn(sum(map(mul, a, b)))


@dataclass(frozen=True)
class KSwitching:
    """One vector over {-1,0,1}^k per vertex, indexed by vertex id, stored
    as a tuple of tuples whatever sequences it is built from."""

    k: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.k
        _check_int("dimension", k, DimensionMismatchError)
        vectors = tuple(map(tuple, self.vectors))
        object.__setattr__(self, "vectors", vectors)
        # entry types first, over every vector: a set of the vectors merges
        # (True, 0) and (1.0, 0) into (1, 0), and an unhashable entry breaks it
        if set(map(type, chain.from_iterable(vectors))) <= {int}:
            distinct = set(vectors)  # a witness repeats a few vectors many times
            if set(map(len, distinct)) <= {k} and all(
                map(OMEGA.__contains__, chain.from_iterable(distinct))
            ):
                return
        for i, vec in enumerate(vectors):  # name the first bad vector
            if len(vec) != k:
                raise DimensionMismatchError(
                    f"vector at vertex {i} has length {len(vec)}, expected {k}"
                )
            if not all(map(OMEGA.__contains__, vec)):
                raise InvalidSwitchingError(f"vector at vertex {i} has entries outside -1/0/1")
            if not set(map(type, vec)) <= {int}:
                raise InvalidSwitchingError(f"vector at vertex {i} has entries that are not ints")

    @classmethod
    def from_scalar(cls, zeta) -> "KSwitching":
        """Lift a scalar switching to dimension 1."""
        return cls(1, tuple((z,) for z in zeta))

    def is_valid_for(self, g: SignedGraph) -> bool:
        """True when no edge of g joins orthogonal vectors."""
        if len(self.vectors) != g.n:
            return False
        vecs = self.vectors
        return all(sum(map(mul, vecs[u], vecs[v])) for u, v, _ in g.edges)


def apply_k_switching(g: SignedGraph, z: KSwitching) -> SignedGraph:
    """Multiply each edge sign by the sign of its endpoint vectors' inner product."""
    if len(z.vectors) != g.n:
        raise InvalidSwitchingError(
            f"switching covers {len(z.vectors)} vertices, graph has {g.n}"
        )
    vecs = z.vectors
    edges = []
    for u, v, s in g.edges:
        t = sum(map(mul, vecs[u], vecs[v]))
        if t == 0:
            raise InvalidSwitchingError(
                f"orthogonal vectors across edge ({u},{v})", edge=(u, v)
            )
        edges.append((u, v, s * sgn(t)))
    return SignedGraph(g.n, tuple(edges))


def is_k_positive(g: SignedGraph, z: KSwitching) -> bool:
    """True when z is valid for g and switches every edge positive."""
    if len(z.vectors) != g.n:
        return False
    vecs = z.vectors
    return all(s * sum(map(mul, vecs[u], vecs[v])) > 0 for u, v, s in g.edges)


@dataclass(frozen=True)
class BdimResult:
    """Computed balancing dimension with a validating witness.

    `explored` counts candidate vector assignments tried; candidates that
    the search prunes before trying them are not counted. Diagnostic only.
    """

    dimension: int
    witness: KSwitching
    explored: int


@functools.cache
def _sign_masks(
    k: int,
) -> tuple[
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[int, ...],
    int,
    tuple[int, ...],
    tuple[int, ...],
]:
    """Candidates for dimension k and their per-k search tables.

    Returns (cands, neg, pos, root, zeros, allowed): all of {-1,0,1}^k in
    lexicographic order (-1 < 0 < 1), so a candidate's index is its base-3
    rank and the zero vector is one of them; for each candidate j,
    the bitsets (bit i stands for cands[i]) of candidates whose inner product
    with it is negative and positive; the bitset of the root's canonical
    vectors; for each candidate, the bitset of its zero coordinates (bit j for
    coordinate j); and for each bitset Z of coordinates, the bitset of
    candidates with no +1 in Z.
    """
    # rows[y][d + j] is the bitset, over all 3^j vectors x of {-1,0,1}^j in
    # lexicographic order, of those with <x, y> = d; prepending a coordinate
    # a to x and b to y shifts x by (a + 1) * 3^j and adds a*b to d
    rows = [[1]]
    for j in range(k):
        size = 3**j
        grown = []
        for b in OMEGA:
            for row in rows:
                out = [0] * (len(row) + 2)
                for a in OMEGA:
                    shift, ab = (a + 1) * size, a * b
                    for t, bits in enumerate(row):
                        if bits:
                            out[t + ab + 1] |= bits << shift
                grown.append(out)
        rows = grown
    # tuples: the cache hands the same result to every caller
    cands = tuple(iproduct(OMEGA, repeat=k))
    neg = tuple(functools.reduce(or_, row[:k]) for row in rows)
    # negating y reverses its rank and <x, -y> = -<x, y>
    pos = neg[::-1]
    # t ones then zeros; exhaustive for a component root up to coordinate
    # permutations and per-coordinate sign flips, which preserve inner products
    root = sum(1 << cands.index((1,) * t + (0,) * (k - t)) for t in range(1, k + 1))
    zeros = tuple(sum(1 << j for j, x in enumerate(v) if not x) for v in cands)
    notplus = [sum(1 << i for i, v in enumerate(cands) if v[j] != 1) for j in range(k)]
    allowed = [(1 << len(cands)) - 1]
    for z in range(1, 1 << k):
        low = z & -z
        allowed.append(allowed[z ^ low] & notplus[low.bit_length() - 1])
    return cands, neg, pos, root, zeros, tuple(allowed)


def _search_component(
    g: SignedGraph, k: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """First (lex-least) k-positive assignment, or None.

    g's components are consecutive, each in BFS order from its root, the one
    vertex with no earlier neighbour. Vertices are assigned in label order from
    the vectors of {-1,0,1}^k, candidates tried in lexicographic order
    (-1 < 0 < 1). A root takes only canonical vectors; components share no
    edge, so the search never backtracks past a root but ends with None. Each
    vertex keeps a bitset domain of the candidates that give every edge back
    to an assigned vertex a positive switched sign. Assigning a candidate
    narrows the domains of later neighbours (undone through a trail on
    backtrack), and the candidate is rejected as soon as one of them empties.
    This cuts only branches without a completion, so the first full
    assignment is the same lex-least one a plain backtracking search finds.
    The zero vector is a candidate too, in no sign mask and not canonical, so
    BFS labelling is also what keeps it out: every vertex but a root loses
    it from its domain when its earlier neighbour is assigned.
    A vertex p that is no root also skips candidates with +1 in a coordinate of
    Z, those zero on every earlier vertex of p's own component. Flipping that
    coordinate on the component fixes its root's canonical vector and every
    vector before p, keeps every inner product, so maps a positive assignment to
    a positive one, and makes p's vector lex-smaller: the lex-least assignment
    never has such a +1, and the rule cuts nothing a plain search would return.
    Arrival rule: when p is reached, each later neighbour q whose domain is
    one candidate j keeps p's candidates to masks[j], those whose sign with
    j fits the edge. Inner products are symmetric, so these are exactly the
    candidates that would not empty q's domain; forward checking would try
    and reject every other one, so the rule changes only the count tried.
    An unassigned vertex's domain is never empty there, since a candidate
    that empties one is rejected and the trail restores it, so a domain d
    with d & (d - 1) == 0 holds exactly one candidate.
    Returns (vectors indexed by vertex, candidates tried).
    """
    cands, neg, pos, root, zeros, allowed = _sign_masks(k)
    nvert = g.n
    ahead = [[] for _ in range(nvert)]  # (later neighbour, masks) in label order
    first = [True] * nvert  # no earlier neighbour: a component root
    for u, v, s in g.edges:  # sorted, u < v
        ahead[u].append((v, neg if s < 0 else pos))
        first[v] = False
    domain = [(1 << len(cands)) - 1] * nvert
    untried = [root if f else 0 for f in first]  # not yet tried at p; a root is reached once
    marks = [0] * nvert  # trail length when p was reached
    zero = [(1 << k) - 1] * nvert  # coordinates zero on p's component before p
    assign = [0] * nvert
    trail: list[tuple[int, int]] = []
    tried = 0
    p = 0
    while True:
        while len(trail) > marks[p]:
            q, before = trail.pop()
            domain[q] = before
        bits = untried[p]
        if not bits:
            if first[p]:  # earlier components share no edge with this one
                return None, tried
            p -= 1
            continue
        lowest = bits & -bits
        untried[p] = bits ^ lowest
        i = lowest.bit_length() - 1
        tried += 1
        for q, masks in ahead[p]:
            before = domain[q]
            narrowed = before & masks[i]
            if narrowed != before:
                trail.append((q, before))
                domain[q] = narrowed
                if not narrowed:
                    break
        else:
            assign[p] = i
            p += 1
            if p == nvert:
                return [cands[i] for i in assign], tried
            marks[p] = len(trail)
            if first[p]:  # its candidates and a full Z were set up front
                continue
            zero[p] = z = zero[p - 1] & zeros[i]
            bits = domain[p] & allowed[z]
            for q, masks in ahead[p]:
                d = domain[q]
                if not d & (d - 1):  # one candidate j left at q
                    bits &= masks[d.bit_length() - 1]
            untried[p] = bits


def _cap(g: SignedGraph, max_k: int | None) -> int:
    if max_k is None:
        return max(len(g.edges), 1)
    _check_int("max_k", max_k)
    return max_k


def bdim_search(g: SignedGraph, max_k: int | None = None) -> BdimResult:
    """Least k admitting a k-positive switching, with a witness.

    A graph that the BFS pass's spanning-forest switching leaves all-positive
    is balanced and answered at k = 1 with it. Otherwise one relabelled copy
    holds the components with an edge end to end, each in BFS order, and
    each k = 2, 3, ... is one search of it, ended by the first component
    with no k-switching. Components that switching leaves all-positive are
    balanced, so they come last and are reached only at the final k.
    Isolated vertices get the canonical vector (1,0,...,0).
    Raises BdimCapExceededError when no dimension up to max_k works. The
    default, the edge count, is a true cap: one private coordinate per edge
    always yields a positive switching.
    """
    cap = _cap(g, max_k)
    zeta = g._bfs[1]
    frustrated = {u for u, v, s in g.edges if zeta[u] * s != zeta[v]}
    if not frustrated:
        return BdimResult(1, KSwitching.from_scalar(zeta), g.n)
    parts = sorted(components(g), key=frustrated.isdisjoint)
    order = [v for part in parts if len(part) > 1 for v in part]
    sub = induced_subgraph(g, order)
    explored = g.n
    for k in range(2, cap + 1):
        vecs, tried = _search_component(sub, k)
        explored += tried
        if vecs is not None:
            vectors = [(1,) + (0,) * (k - 1)] * g.n  # kept by isolated vertices
            for v, vec in zip(order, vecs):
                vectors[v] = vec
            return BdimResult(k, KSwitching(k, vectors), explored)
    raise BdimCapExceededError(cap)


def has_k_positive_bruteforce(g: SignedGraph, k: int) -> bool:
    """Whether any map from vertices to {-1,0,1}^k switches g all-positive.

    Plain enumeration of every one of the 3**(n*k) maps, with no pruning,
    no symmetry reduction and no early exit; the independent cross-check for
    bdim_search. Each map is one bit. With m = 3**k choices per vertex, a
    table holds one byte per map of vertices 0..n-2, and every edge among
    them is ANDed into every byte in place as its sign table on the two
    vertices' axes. An edge that spans just one of the table's last two axes
    is widened over both when that copy is at most 1/m of the table, so
    numpy's inner loops run over m*m bytes instead of m. The last vertex's
    m choices are packed 8 to a byte into words spanning only its
    neighbours' axes; its edges are ANDed into them as packed rows, and each
    byte keeps whether some choice is left. The words are built in blocks of
    about 256 KiB along one neighbour's axis, so no array of words spans the
    whole table.
    """
    _check_int("k", k)
    if 3 ** (g.n * k) > ORACLE_GUARD:
        raise OracleGuardError(
            f"3^({g.n}*{k}) assignments exceed the enumeration guard"
        )
    if not g.edges:
        return True
    import numpy as np  # the only numpy user; deferred so `import sgraph` stays light

    # sig[x, y]: the sign of <x, y> over {-1,0,1}^k in lexicographic order,
    # grown one coordinate at a time: prepending a to x and b to y adds a*b
    # and moves the entry to block (a, b). Inner products lie in [-k, k],
    # and the guard keeps k <= 16: int8 holds them.
    omega = np.array(OMEGA, dtype=np.int8)
    ab = sig = np.multiply.outer(omega, omega)
    for _ in range(k - 1):
        sig = (ab[:, None, :, None] + sig[None, :, None, :]).reshape(3 * len(sig), -1)
    np.sign(sig, out=sig)
    m = len(sig)
    nw = -(-m // 8)  # bytes of one packed row of the last vertex's choices
    last = g.n - 1

    def onto(x, *at):
        """x with its trailing axes of size m laid on the table axes at."""
        return x.reshape(x.shape[: -len(at)] + tuple(m if w in at else 1 for w in range(last)))

    def packed(s):
        """Byte b of column j: which of the last vertex's choices 8b..8b+7
        fit the neighbour's choice j. Packed in blocks of about 256 KiB of
        sig's rows, so no bool mask as large as sig is ever alive."""
        out = np.empty((m, nw), dtype=np.uint8)
        step = max(1, (1 << 18) // m)
        for i in range(0, m, step):
            out[i : i + step] = np.packbits(sig[i : i + step] == s, axis=1, bitorder="little")
        return out.T

    near = [(u, onto(packed(s), u)) for u, v, s in g.edges if v == last]
    # 1 while the map is left, else 0; with a neighbour, the words write every byte
    table = (np.empty if near else np.ones)((m,) * last, dtype=np.uint8)
    if near:
        (a, head), *rest = near  # blocks run along the first neighbour's axis
        step = max(1, (1 << 18) // (nw * m ** len(rest)))
        for i in range(0, m, step):
            cut = (slice(None),) * a + (slice(i, i + step),)
            first = head[(slice(None),) + cut]
            shape = np.broadcast_shapes(first.shape, *(r.shape for _, r in rest))
            words = np.empty(shape, dtype=np.uint8)
            words[...] = first
            for _, row in rest:
                np.bitwise_and(words, row, out=words)
            table[cut] = words.any(axis=0)
    for u, v, s in g.edges:
        if v >= last:
            continue
        rows, at = (sig == s).view(np.uint8), (u, v)
        if u < last - 2 <= v and m**4 <= table.size:
            # spanning one of the last two axes and broadcast over the other
            # would give numpy inner loops of m bytes; a copy spanning both
            # (m**3 bytes, at most 1/m of the table) gives loops of m*m
            wide = np.empty((m, m, m), dtype=np.uint8)
            wide[...] = rows[:, :, None] if v == last - 2 else rows[:, None, :]
            rows, at = wide, (u, last - 2, last - 1)
        np.bitwise_and(table, onto(rows, *at), out=table)
    return bool(np.count_nonzero(table))


def bdim_oracle(g: SignedGraph, max_k: int | None = None) -> int:
    """Least k with a positive switching, by brute enumeration at each k.

    max_k defaults to the edge count, as in bdim_search, and must be >= 1.
    """
    cap = _cap(g, max_k)
    for k in range(1, cap + 1):
        if has_k_positive_bruteforce(g, k):
            return k
    raise BdimCapExceededError(cap)

