"""Closed-form positive switchings for two product families.

Tables 1-4 cover Cartesian products of one-negative cycles (canonical form:
negative edge between vertices 0 and 1). Each table is a small grid of vectors
over row and column classes; expansion repeats the class vector across its
vertex range. Table 5 covers Cartesian products of all-negative complete
graphs by cyclically shifting a positive switching of the larger factor.
"""

import functools

from .bdim import KSwitching, bdim_search, is_k_positive
from .core import all_negative_complete


class TableParameterError(ValueError):
    """Table id and orders do not match."""


# Rows/columns: vertex 0, vertex 1, the run 2..size-2, vertex size-1.
_GRID_2 = (
    ((-1, 1), (1, 0), (1, 1), (0, 1)),
    ((1, 0), (-1, -1), (0, -1), (1, -1)),
    ((1, 1), (0, -1), (1, -1), (1, 0)),
    ((0, 1), (1, -1), (1, 0), (1, 1)),
)

# Rows/columns: vertex 0, the run 1..size-2 (or the middle vertex), vertex size-1.
_GRID_3 = (
    ((-1, -1, 1), (1, -1, -1), (-1, -1, -1)),
    ((1, -1, -1), (1, 1, 1), (1, 0, 0)),
    ((-1, -1, -1), (1, 0, 0), (1, -1, -1)),
)


def _classes(size: int, count: int) -> list:
    """The `count` row or column classes of a grid over `size` vertices: the
    single vertices 0..count-3, the run up to size-2, then vertex size-1."""
    return [[v] for v in range(count - 2)] + [range(count - 2, size - 1), [size - 1]]


# what each cycle table needs of the orders, in the words of its refusal
_CYCLE_NEEDS = {1: "m,n > 3", 2: "m = 3 and n > 3", 3: "m > 3 and n = 3", 4: "m = n = 3"}


# cached for the process: table 5's default base and every K_n⁻ dimension a
# claim needs come from this one search; the dimension exceeds m from m = 6
# (7 at m = 6), so this relies on bdim_search's default cap, the edge count
@functools.cache
def _clique_witness(m: int) -> KSwitching:
    """The lex-least positive switching of the all-negative complete graph
    on m vertices; its k is that graph's dimension."""
    return bdim_search(all_negative_complete(m)).witness


def _expand(grid, m: int, n: int) -> KSwitching:
    vectors: list[tuple[int, ...] | None] = [None] * (m * n)
    col_classes = _classes(n, len(grid))
    for row_vecs, rows in zip(grid, _classes(m, len(grid))):
        for vec, cols in zip(row_vecs, col_classes):
            for i in rows:
                for j in cols:
                    vectors[i * n + j] = vec
    return KSwitching(len(grid[0][0]), vectors)


def table_witness(
    table_id: int, m: int, n: int, base: KSwitching | None = None
) -> KSwitching:
    """Expand one of the tabulated positive switchings to an explicit vertex map.

    Ids 1-4 target the product of one-negative cycles of orders m and n, and
    the orders pick the one that fits, which the id must name: 1 for m,n > 3
    (dimension 2); 2 for m = 3, n > 3; 3 for m > 3, n = 3; 4 for m = n = 3
    (dimension 3 each). Id 5 targets the product of all-negative complete
    graphs and needs m >= n >= 1; the entry at (i, j) is `base`'s vector at
    (i + j) mod m, where `base` is a positive switching for the all-negative
    complete graph on m vertices, by default the lex-least one that
    `bdim_search` finds, once per process. The id and orders are exact ints.
    """
    if type(table_id) is not int:
        raise TableParameterError(f"table id must be an int, got {table_id!r}")
    if type(m) is not int or type(n) is not int:
        raise TableParameterError(f"table orders must be ints, got ({m!r},{n!r})")
    if table_id in _CYCLE_NEEDS:
        fits = (1 if m > 3 and n > 3 else 2 if m == 3 < n else 3 if n == 3 < m
                else 4 if m == n == 3 else None)
        if table_id != fits:
            raise TableParameterError(
                f"table {table_id} needs {_CYCLE_NEEDS[table_id]}, got ({m},{n})"
            )
        return _expand(_GRID_2 if fits == 1 else _GRID_3, m, n)
    if table_id != 5:
        raise TableParameterError(f"unknown table id {table_id}")
    if not (1 <= n <= m):
        raise TableParameterError(f"table 5 needs m >= n >= 1, got ({m},{n})")
    if base is None:
        base = _clique_witness(m)
    elif not is_k_positive(all_negative_complete(m), base):
        raise TableParameterError(
            "table 5 base must be a positive switching for the "
            f"all-negative complete graph on {m} vertices"
        )
    vectors = tuple(base.vectors[(i + j) % m] for i in range(m) for j in range(n))
    return KSwitching(base.k, vectors)
