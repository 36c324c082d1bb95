"""The five product constructions: edge sets, signs, and transport laws."""

import random

import pytest

import helpers
from sgraph import (
    all_negative_complete,
    all_positive_complete,
    apply_switching,
    bcd_lex,
    build_graph,
    cartesian,
    cycle_sign,
    flat_to_pair,
    hg_lex,
    is_all_positive,
    is_antibalanced,
    is_balanced,
    is_switching_equivalent,
    negate,
    null_graph,
    pair_labels,
    pair_to_flat,
    path_graph,
    product,
    strong,
    tensor,
    unbalanced_cycle,
)

K2 = all_positive_complete(2)
NEG_K2 = all_negative_complete(2)
P3 = path_graph(3)
C3 = unbalanced_cycle(3)
C4 = unbalanced_cycle(4)

FAMILIES = [K2, P3, C3, C4, all_positive_complete(4), path_graph(4), null_graph(3)]


def random_signature(rng, g):
    return build_graph(g.n, [(u, v, rng.choice((-1, 1))) for u, v, _ in g.edges])


def test_pair_index_bijection():
    n1, n2 = 4, 5
    flats = [pair_to_flat(i, j, n2) for i in range(n1) for j in range(n2)]
    assert flats == list(range(n1 * n2))
    assert [flat_to_pair(f, n2) for f in flats] == [
        (i, j) for i in range(n1) for j in range(n2)
    ]
    assert pair_labels(2, 2) == ("0,0", "0,1", "1,0", "1,1")


def test_cartesian_square_of_k2():
    g = cartesian(K2, K2)
    assert g.n == 4 and len(g.edges) == 4
    assert is_all_positive(g)
    assert is_balanced(g)[0]


def test_cartesian_fibers_are_sign_preserving_copies():
    g = cartesian(C3, C4)
    for j in range(4):  # columns carry the first factor
        for u, v, s in C3.edges:
            assert g.sign(u * 4 + j, v * 4 + j) == s
    for i in range(3):  # rows carry the second factor
        for u, v, s in C4.edges:
            assert g.sign(i * 4 + u, i * 4 + v) == s


def test_cartesian_of_unbalanced_triangles_has_negative_triangle():
    g = cartesian(C3, C3)
    assert cycle_sign(g, (0 * 3 + 0, 1 * 3 + 0, 2 * 3 + 0)) == -1


def test_cartesian_counts():
    g = cartesian(C4, C4)
    assert g.n == 16 and len(g.edges) == 32


def test_hg_lex_of_k2s_is_antibalanced_k4():
    g = hg_lex(K2, NEG_K2)
    assert g.n == 4 and len(g.edges) == 6
    negatives = [(u, v) for u, v, s in g.edges if s == -1]
    assert negatives == [(0, 1), (2, 3)]  # exactly the two fiber edges
    assert is_antibalanced(g)


def test_hg_lex_with_edgeless_left_factor_gives_disjoint_copies():
    g = hg_lex(null_graph(2), C3)
    assert g.n == 6
    for offset in (0, 3):
        for u, v, s in C3.edges:
            assert g.sign(u + offset, v + offset) == s
    assert not any(u < 3 <= v for u, v, _ in g.edges)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
def test_hg_lex_of_completes_is_complete(m, n):
    g = hg_lex(all_negative_complete(m), all_positive_complete(n))
    assert all(g.has_edge(u, v) for u in range(m * n) for v in range(u + 1, m * n))


def test_bcd_lex_worked_example():
    # P3 with a negative first edge composed with the negative K2; the edge
    # list below is hand-derived from the three sign cases and frozen
    g1 = build_graph(3, [(0, 1, -1), (1, 2, 1)])
    g = bcd_lex(g1, NEG_K2)
    assert g.n == 6 and len(g.edges) == 11
    assert g.edges == (
        (0, 1, -1),
        (0, 2, -1),
        (0, 3, 1),
        (1, 2, 1),
        (1, 3, -1),
        (2, 3, -1),
        (2, 4, 1),
        (2, 5, -1),
        (3, 4, -1),
        (3, 5, 1),
        (4, 5, -1),
    )
    # the pair-coordinate edges named in the derivation
    assert g.sign(0, 3) == 1  # both coordinates adjacent: product of signs
    assert g.sign(0, 2) == -1  # equal second coordinate: first factor's sign
    # negating the product exposes a negative triangle on (0, 2, 3)
    assert cycle_sign(negate(g), (0, 2, 3)) == -1


def test_bcd_lex_collapses_to_hg_lex_when_right_factor_all_positive():
    rng = random.Random(5)
    for g1_base, g2_base in [(P3, K2), (C3, P3), (C4, K2)]:
        g1 = random_signature(rng, g1_base)
        g2 = build_graph(g2_base.n, [(u, v, 1) for u, v, _ in g2_base.edges])
        assert bcd_lex(g1, g2) == hg_lex(g1, g2)


def test_bcd_lex_square_of_negative_k2():
    g = bcd_lex(NEG_K2, NEG_K2)
    negatives = sorted((u, v) for u, v, s in g.edges if s == -1)
    assert negatives == [(0, 1), (0, 2), (1, 3), (2, 3)]  # a 4-cycle
    assert is_balanced(g)[0]


def test_tensor_of_k2s_is_two_disjoint_edges():
    g = tensor(K2, K2)
    assert g.n == 4
    assert g.edges == ((0, 3, 1), (1, 2, 1))


def test_tensor_balance_collapse():
    g = tensor(all_negative_complete(3), NEG_K2)
    assert is_balanced(g)[0]


def test_tensor_with_positive_complete_keeps_negative_triangle():
    g = tensor(all_negative_complete(3), all_positive_complete(3))
    assert cycle_sign(g, (0 * 3 + 0, 1 * 3 + 1, 2 * 3 + 2)) == -1


def test_strong_square_of_k2():
    assert strong(K2, K2) == all_positive_complete(4)


def test_strong_square_of_negative_k2():
    g = strong(NEG_K2, NEG_K2)
    assert len(g.edges) == 6
    negatives = sorted((u, v) for u, v, s in g.edges if s == -1)
    assert negatives == [(0, 1), (0, 2), (1, 3), (2, 3)]  # a 4-cycle
    assert is_balanced(g)[0]
    assert not is_antibalanced(g)


def test_edge_count_formulas():
    rng = random.Random(11)
    for base1 in FAMILIES:
        for base2 in FAMILIES:
            g1, g2 = random_signature(rng, base1), random_signature(rng, base2)
            e1, e2, n1, n2 = len(g1.edges), len(g2.edges), g1.n, g2.n
            assert len(cartesian(g1, g2).edges) == n1 * e2 + n2 * e1
            assert len(hg_lex(g1, g2).edges) == e1 * n2 * n2 + n1 * e2
            assert len(bcd_lex(g1, g2).edges) == e1 * n2 * n2 + n1 * e2
            assert len(tensor(g1, g2).edges) == 2 * e1 * e2
            assert len(strong(g1, g2).edges) == n1 * e2 + n2 * e1 + 2 * e1 * e2


@pytest.mark.parametrize("kind", ["cartesian", "hg_lex", "bcd_lex", "tensor", "strong"])
def test_products_match_definition(kind):
    # FAMILIES, then factors with no vertex, one vertex and irregular degrees
    # (seeds 1-4 draw graphs of at most two vertices; 10 has an isolated one)
    bases = FAMILIES + [null_graph(0), null_graph(1)]
    bases += [helpers.random_signed_graph(random.Random(s), 6) for s in (0, 5, 10)]
    rng = random.Random(19)
    for base1 in bases:
        for base2 in bases:
            g1, g2 = random_signature(rng, base1), random_signature(rng, base2)
            assert product(kind, g1, g2) == helpers.reference_product(kind, g1, g2)


@pytest.mark.parametrize("op", [cartesian, tensor, strong], ids=["cartesian", "tensor", "strong"])
def test_commutative_up_to_pair_swap(op):
    rng = random.Random(13)
    for base1, base2 in [(P3, C3), (C4, K2), (C3, C3)]:
        g1, g2 = random_signature(rng, base1), random_signature(rng, base2)
        forward = op(g1, g2)
        backward = op(g2, g1)
        relabeled = set()
        for u, v, s in forward.edges:
            i, j = flat_to_pair(u, g2.n)
            k, l = flat_to_pair(v, g2.n)
            a, b = pair_to_flat(j, i, g1.n), pair_to_flat(l, k, g1.n)
            relabeled.add((min(a, b), max(a, b), s))
        assert relabeled == set(backward.edges)


def test_strong_fibers_are_sign_preserving():
    g = strong(C3, C4)
    for j in range(4):
        for u, v, s in C3.edges:
            assert g.sign(u * 4 + j, v * 4 + j) == s
    for i in range(3):
        for u, v, s in C4.edges:
            assert g.sign(i * 4 + u, i * 4 + v) == s


def test_hg_lex_balance_criterion_exhaustive():
    for base1 in (P3, C3, C4):
        for base2 in (K2, P3):
            for g1 in helpers.all_signatures(base1):
                for g2 in helpers.all_signatures(base2):
                    expected = is_balanced(g1)[0] and is_all_positive(g2)
                    assert is_balanced(hg_lex(g1, g2))[0] == expected


def test_tensor_balance_criterion_exhaustive():
    for base1 in (K2, P3, C3):
        for base2 in (K2, P3, C3):
            for g1 in helpers.all_signatures(base1):
                for g2 in helpers.all_signatures(base2):
                    expected = (is_balanced(g1)[0] and is_balanced(g2)[0]) or (
                        is_antibalanced(g1) and is_antibalanced(g2)
                    )
                    assert is_balanced(tensor(g1, g2))[0] == expected


def test_balanced_factors_give_balanced_cartesian_and_strong():
    for base1 in (P3, C3):
        for base2 in (K2, C3):
            for g1 in helpers.all_signatures(base1):
                if not is_balanced(g1)[0]:
                    continue
                for g2 in helpers.all_signatures(base2):
                    if not is_balanced(g2)[0]:
                        continue
                    assert is_balanced(cartesian(g1, g2))[0]
                    assert is_balanced(strong(g1, g2))[0]


def test_switching_transport_randomized():
    rng = random.Random(17)
    bases = [K2, P3, C3, C4, all_positive_complete(4)]
    for _ in range(100):
        g1 = random_signature(rng, rng.choice(bases))
        g2 = random_signature(rng, rng.choice(bases))
        zeta1 = tuple(rng.choice((-1, 1)) for _ in range(g1.n))
        zeta2 = tuple(rng.choice((-1, 1)) for _ in range(g2.n))
        s1 = apply_switching(g1, zeta1)
        s2 = apply_switching(g2, zeta2)
        assert is_switching_equivalent(hg_lex(s1, g2), hg_lex(g1, g2))
        assert is_switching_equivalent(bcd_lex(s1, g2), bcd_lex(g1, g2))
        assert is_switching_equivalent(strong(s1, s2), strong(g1, g2))


def test_antibalance_transport_exhaustive():
    for base in (C3, C4):
        for g1 in helpers.all_signatures(base):
            if not is_antibalanced(g1):
                continue
            for g2 in (NEG_K2, negate(P3)):
                assert is_antibalanced(hg_lex(g1, g2))


def test_unknown_product_kind_is_refused():
    with pytest.raises(ValueError) as err:
        product("zigzag", C3, C3)
    assert str(err.value) == "unknown product kind 'zigzag'"
