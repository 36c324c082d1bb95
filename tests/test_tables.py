"""Tabulated positive switchings and their expansion to explicit vertex maps."""

import pytest

from sgraph import (
    KSwitching,
    TableParameterError,
    all_negative_complete,
    bdim_search,
    cartesian,
    is_k_positive,
    table_witness,
    unbalanced_cycle,
)


def cycle_product(m, n):
    return cartesian(unbalanced_cycle(m), unbalanced_cycle(n))


def complete_product(m, n):
    return cartesian(all_negative_complete(m), all_negative_complete(n))


def test_table_one_example():
    w = table_witness(1, 5, 4)
    assert w.k == 2
    assert is_k_positive(cycle_product(5, 4), w)


def test_table_four_example():
    w = table_witness(4, 3, 3)
    assert w.k == 3
    assert is_k_positive(cycle_product(3, 3), w)


def test_all_cycle_tables_up_to_order_six():
    cases = [(1, m, n) for m in (4, 5, 6) for n in (4, 5, 6)]
    cases += [(2, 3, n) for n in (4, 5, 6)]
    cases += [(3, m, 3) for m in (4, 5, 6)]
    cases += [(4, 3, 3)]
    for tid, m, n in cases:
        w = table_witness(tid, m, n)
        assert is_k_positive(cycle_product(m, n), w), (tid, m, n)


def test_expansion_repeats_class_vectors():
    w = table_witness(1, 6, 5)
    # row 0 of the grid: vertex 0's row reads the four column classes
    assert w.vectors[0] == (-1, 1)  # column 0
    assert w.vectors[1] == (1, 0)  # column 1
    assert w.vectors[2] == w.vectors[3] == (1, 1)  # the middle run
    assert w.vectors[4] == (0, 1)  # last column
    # the middle row run shares one vector per column class
    assert w.vectors[2 * 5 + 0] == w.vectors[3 * 5 + 0] == w.vectors[4 * 5 + 0] == (1, 1)


def test_table_five_cyclic_assignment():
    # order 6 for the first factor is exact but needs minutes of base search
    # (its dimension is 7), so the sweep stops at order 5
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5)):
        base = bdim_search(all_negative_complete(m)).witness
        w = table_witness(5, m, n, base=base)
        assert w.k == base.k
        assert is_k_positive(complete_product(m, n), w), (m, n)
        for i in range(m):
            for j in range(n):
                assert w.vectors[i * n + j] == base.vectors[(i + j) % m]


def test_parameter_mismatches():
    with pytest.raises(TableParameterError):
        table_witness(1, 3, 4)
    with pytest.raises(TableParameterError):
        table_witness(2, 4, 5)
    with pytest.raises(TableParameterError):
        table_witness(2, 3, 3)
    with pytest.raises(TableParameterError):
        table_witness(3, 4, 4)
    with pytest.raises(TableParameterError):
        table_witness(4, 3, 4)
    with pytest.raises(TableParameterError):
        table_witness(6, 3, 3)
    with pytest.raises(TableParameterError):
        table_witness(0, 4, 4)
    # orders are exact ints: a float or bool is refused, not used as a number
    for m, n in ((4.0, 4), (4, 4.0), (True, True), (5, True)):
        for table_id in (1, 5):
            with pytest.raises(TableParameterError, match="must be ints"):
                table_witness(table_id, m, n)


def test_table_five_rejects_bad_base():
    good = bdim_search(all_negative_complete(3)).witness
    with pytest.raises(TableParameterError):
        table_witness(5, 2, 3, base=good)  # m < n
    # no base: the cyclic shift of the lex-least search witness
    w = table_witness(5, 3, 2)
    assert w == table_witness(5, 3, 2, base=good)
    assert w.vectors == tuple(good.vectors[(i + j) % 3] for i in range(3) for j in range(2))
    with pytest.raises(TableParameterError):
        table_witness(5, 4, 2, base=good)  # base covers the wrong order
    not_positive = KSwitching(1, ((1,), (1,), (1,)))
    with pytest.raises(TableParameterError):
        table_witness(5, 3, 2, base=not_positive)
