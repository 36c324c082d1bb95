"""Closed-form positive switchings for two product families.

Tables 1-4 cover Cartesian products of one-negative cycles (canonical form:
negative edge between vertices 0 and 1). Each table is a small grid of vectors
over row and column classes; expansion repeats the class vector across its
vertex range. Table 5 covers Cartesian products of all-negative complete
graphs by cyclically shifting a positive switching of the larger factor.
"""

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


def _four_classes(size: int) -> list[list[int]]:
    return [[0], [1], list(range(2, size - 1)), [size - 1]]


def _three_classes(size: int) -> list[list[int]]:
    return [[0], list(range(1, size - 1)), [size - 1]]


def _expand(grid, row_classes, col_classes, m: int, n: int, k: int) -> KSwitching:
    vectors: list[tuple[int, ...] | None] = [None] * (m * n)
    for row_vecs, rows in zip(grid, row_classes):
        for vec, cols in zip(row_vecs, col_classes):
            for i in rows:
                for j in cols:
                    vectors[i * n + j] = vec
    return KSwitching(k, vectors)


def table_witness(
    table_id: int, m: int, n: int, base: KSwitching | None = None
) -> KSwitching:
    """Expand one of the tabulated positive switchings to an explicit vertex map.

    Ids 1-4 target the product of one-negative cycles of orders m and n:
    1 needs m,n > 3 (dimension 2); 2 needs m = 3, n > 3; 3 needs m > 3, n = 3;
    4 needs m = n = 3 (dimension 3 each). Id 5 targets the product of
    all-negative complete graphs and needs m >= n >= 1; the entry at (i, j)
    is `base`'s vector at (i + j) mod m, where `base` is a positive switching
    for the all-negative complete graph on m vertices, by default the
    lex-least one that `bdim_search` finds. The orders are exact ints.
    """
    if type(m) is not int or type(n) is not int:
        raise TableParameterError(f"table orders must be ints, got ({m!r},{n!r})")
    if table_id == 1:
        if not (m > 3 and n > 3):
            raise TableParameterError(f"table 1 needs m,n > 3, got ({m},{n})")
        return _expand(_GRID_2, _four_classes(m), _four_classes(n), m, n, 2)
    if table_id == 2:
        if not (m == 3 and n > 3):
            raise TableParameterError(f"table 2 needs m = 3 and n > 3, got ({m},{n})")
        return _expand(_GRID_3, _three_classes(3), _three_classes(n), m, n, 3)
    if table_id == 3:
        if not (m > 3 and n == 3):
            raise TableParameterError(f"table 3 needs m > 3 and n = 3, got ({m},{n})")
        return _expand(_GRID_3, _three_classes(m), _three_classes(3), m, n, 3)
    if table_id == 4:
        if not (m == 3 and n == 3):
            raise TableParameterError(f"table 4 needs m = n = 3, got ({m},{n})")
        return _expand(_GRID_3, _three_classes(3), _three_classes(3), m, n, 3)
    if table_id == 5:
        if not (1 <= n <= m):
            raise TableParameterError(f"table 5 needs m >= n >= 1, got ({m},{n})")
        if base is None:
            base = bdim_search(all_negative_complete(m)).witness
        elif len(base.vectors) != m or not is_k_positive(
            all_negative_complete(m), base
        ):
            raise TableParameterError(
                "table 5 base must be a positive switching for the "
                f"all-negative complete graph on {m} vertices"
            )
        vectors = tuple(
            base.vectors[(i + j) % m] for i in range(m) for j in range(n)
        )
        return KSwitching(base.k, vectors)
    raise TableParameterError(f"unknown table id {table_id}")
