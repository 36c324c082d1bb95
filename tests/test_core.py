"""Construction, generators, scalar switching, and balance decisions."""

import random
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from sgraph import (
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    NotACycleError,
    SignError,
    SignedGraph,
    SwitchingError,
    VertexRangeError,
    all_negative_complete,
    all_positive_complete,
    antibalanced_complete,
    apply_switching,
    build_graph,
    components,
    cycle_sign,
    induced_subgraph,
    is_antibalanced,
    is_balanced,
    is_switching_equivalent,
    negate,
    null_graph,
    path_graph,
    unbalanced_cycle,
)


@st.composite
def signed_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    edges = []
    for u, v in combinations(range(n), 2):
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from((-1, 1)))))
    return build_graph(n, edges)


def test_build_triangle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_build_normalizes_endpoint_order():
    g = build_graph(3, [(2, 0, -1), (1, 0, 1)])
    assert g.edges == ((0, 1, 1), (0, 2, -1))


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(0, 0, 1)])


def test_build_rejects_duplicate_even_reversed():
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1, 1), (1, 0, -1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1, 1), (0, 1, 1)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 2, 1)])
    with pytest.raises(VertexRangeError):
        build_graph(2, [(-1, 1, 1)])


@pytest.mark.parametrize(
    "n, edge", [(2, (0.0, 1.0, 1)), (3, (0, 1.5, 1)), (3, (None, 1, 1)), (3, (True, 2, 1))]
)
def test_endpoints_must_be_exact_ints(n, edge):
    u, v, _ = edge
    with pytest.raises(VertexRangeError, match=rf"^edge \({u},{v}\) outside vertex range 0\.\.{n - 1}$"):
        SignedGraph(n, (edge,))


def test_loop_check_precedes_endpoint_type_and_signs_are_exact_ints():
    with pytest.raises(LoopEdgeError, match="^loop edge at vertex 1.0$"):
        SignedGraph(3, ((1.0, 1, 1),))
    # a sign equal to 1 or -1 that is not an int would be written to JSON as
    # `true` or `1.0`, which no graph document reads back
    for sign in (True, False, 1.0, -1.0):
        with pytest.raises(SignError, match=rf"^edge \(1,0\) has sign {sign!r}, expected -1 or \+1$"):
            SignedGraph(2, ((1, 0, sign),))


@pytest.mark.parametrize(
    "n, edge, error",
    [(3, (0, 1.7, 1), VertexRangeError), (3, (0.0, 2, -1), VertexRangeError), (2, (0, 1, 1.5), SignError)],
)
def test_build_graph_does_not_truncate_entries(n, edge, error):
    # entries reach SignedGraph as given, so a float is refused, not truncated
    with pytest.raises(error):
        build_graph(n, [edge])


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_vertex_count_must_be_exact_int(n):
    with pytest.raises(GraphError, match=rf"^vertex count must be an int, got {n!r}$"):
        SignedGraph(n, ((0, 1, -1),))


def test_build_rejects_bad_sign():
    with pytest.raises(SignError):
        build_graph(2, [(0, 1, 0)])
    with pytest.raises(SignError):
        build_graph(2, [(0, 1, 2)])


def test_antibalanced_complete_is_all_negative():
    g = antibalanced_complete(3)
    assert g.edges == ((0, 1, -1), (0, 2, -1), (1, 2, -1))


def test_unbalanced_cycle_canonical_form():
    g = unbalanced_cycle(4)
    assert g.edges == ((0, 1, -1), (0, 3, 1), (1, 2, 1), (2, 3, 1))
    assert sum(1 for _, _, s in g.edges if s == -1) == 1


def test_null_graph_and_path():
    assert null_graph(2).edges == ()
    assert null_graph(2).n == 2
    assert path_graph(3).edges == ((0, 1, 1), (1, 2, 1))


def test_unbalanced_cycle_needs_order_three():
    with pytest.raises(GraphError, match="^unbalanced_cycle needs order >= 3, got 2$"):
        unbalanced_cycle(2)


def test_negate_examples():
    assert negate(all_positive_complete(3)) == all_negative_complete(3)
    c4 = negate(unbalanced_cycle(4))
    assert sum(1 for _, _, s in c4.edges if s == -1) == 3


@given(signed_graphs())
def test_negate_is_involution(g):
    assert negate(negate(g)) == g


def test_cycle_sign_examples():
    assert cycle_sign(all_positive_complete(3), (0, 1, 2)) == 1
    assert cycle_sign(unbalanced_cycle(4), (0, 1, 2, 3)) == -1
    assert cycle_sign(all_negative_complete(3), (0, 1, 2)) == -1


def test_cycle_sign_rejects_non_cycles():
    g = all_positive_complete(4)
    with pytest.raises(NotACycleError):
        cycle_sign(g, (0, 1))
    with pytest.raises(NotACycleError):
        cycle_sign(g, (0, 1, 1))
    with pytest.raises(NotACycleError):
        cycle_sign(path_graph(4), (0, 1, 2, 3))  # (3,0) is not an edge


def test_apply_switching_makes_triangle_positive():
    g = build_graph(3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)])
    assert apply_switching(g, (1, 1, -1)) == all_positive_complete(3)


def test_apply_switching_identity():
    g = unbalanced_cycle(5)
    assert apply_switching(g, (1,) * 5) == g


def test_apply_switching_relocates_negative_edge():
    # flip one endpoint of the negative edge of the one-negative 4-cycle:
    # edge (0,1) turns positive, edge (0,3) turns negative; the cycle sign
    # is unchanged (hand-evaluated from the edgewise formula)
    g = unbalanced_cycle(4)
    switched = apply_switching(g, (-1, 1, 1, 1))
    assert switched.edges == ((0, 1, 1), (0, 3, -1), (1, 2, 1), (2, 3, 1))
    assert cycle_sign(g, (0, 1, 2, 3)) == -1
    assert cycle_sign(switched, (0, 1, 2, 3)) == -1


@given(signed_graphs(), st.data())
def test_apply_switching_is_involution(g, data):
    zeta = tuple(
        data.draw(st.sampled_from((-1, 1)), label=f"zeta[{v}]") for v in range(g.n)
    )
    assert apply_switching(apply_switching(g, zeta), zeta) == g


def test_apply_switching_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(SwitchingError):
        apply_switching(g, (1, 1))
    with pytest.raises(SwitchingError):
        apply_switching(g, (1, 0, 1))


@pytest.mark.parametrize(
    "zeta", [(1.0, 1, -1), (1, -1.0, 1), (True, 1, 1), (1, 1, False), (1, 1, 2)]
)
def test_apply_switching_rejects_values_that_are_not_int_signs(zeta):
    with pytest.raises(SwitchingError, match="switching value at vertex"):
        apply_switching(path_graph(3), zeta)


def test_apply_switching_accepts_int_signs():
    switched = apply_switching(path_graph(3), (1, 1, -1))
    assert switched.edges == ((0, 1, 1), (1, 2, -1))
    assert {type(s) for _, _, s in switched.edges} == {int}


@pytest.mark.parametrize("u", [-1, -3, -4, 3, 4])
def test_vertices_outside_range_have_no_edges(u):
    g = path_graph(3)
    assert not g.has_edge(u, 1) and not g.has_edge(1, u)
    for a, b in ((u, 1), (1, u)):
        with pytest.raises(GraphError, match=rf"no edge \({a},{b}\)"):
            g.sign(a, b)
    with pytest.raises(GraphError, match="outside vertex range 0..2"):
        g.neighbors(u)
    assert g.sign(1, 2) == 1 and g.neighbors(1) == (0, 2)


def test_is_balanced_examples():
    balanced, witness = is_balanced(all_positive_complete(4))
    assert balanced and witness == (1, 1, 1, 1)

    assert is_balanced(unbalanced_cycle(3)) == (False, None)

    p3 = build_graph(3, [(0, 1, -1), (1, 2, 1)])
    balanced, witness = is_balanced(p3)
    assert balanced
    assert all(s == 1 for _, _, s in apply_switching(p3, witness).edges)


@pytest.mark.parametrize(
    "family",
    [unbalanced_cycle(3), unbalanced_cycle(4), unbalanced_cycle(5), all_positive_complete(4)],
    ids=["C3", "C4", "C5", "K4"],
)
def test_is_balanced_matches_bruteforce(family):
    for g in helpers.all_signatures(family):
        balanced, witness = is_balanced(g)
        assert balanced == helpers.brute_balanced(g)
        if balanced:
            assert all(s == 1 for _, _, s in apply_switching(g, witness).edges)
        else:
            assert witness is None


def test_is_antibalanced_examples():
    assert is_antibalanced(all_negative_complete(4))
    assert is_antibalanced(unbalanced_cycle(3))
    assert not is_antibalanced(unbalanced_cycle(4))


@given(signed_graphs())
def test_is_antibalanced_is_balance_of_negation(g):
    assert is_antibalanced(g) == is_balanced(negate(g))[0]


def test_switching_equivalence_basics():
    g = unbalanced_cycle(5)
    assert is_switching_equivalent(g, g)
    assert not is_switching_equivalent(
        all_positive_complete(3), build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    )
    assert not is_switching_equivalent(path_graph(3), path_graph(4))
    assert not is_switching_equivalent(path_graph(3), unbalanced_cycle(3))


def test_switching_equivalence_triangle_pairs():
    # expectations computed by the 2^n enumeration oracle below and frozen:
    # one negative edge pairs with any odd-negative signature, never with an
    # even-negative one
    one_neg = build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    two_neg = build_graph(3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)])
    other_one_neg = build_graph(3, [(0, 1, 1), (1, 2, -1), (0, 2, 1)])
    assert helpers.brute_switching_equivalent(one_neg, two_neg) is False
    assert helpers.brute_switching_equivalent(one_neg, other_one_neg) is True
    assert is_switching_equivalent(one_neg, two_neg) is False
    assert is_switching_equivalent(one_neg, other_one_neg) is True


def _pairs_graph(n, pairs):
    return build_graph(n, [(u, v, 1) for u, v in pairs])


# Underlying graphs whose signatures are compared pairwise: each entry is a
# tuple of graphs, and every signature of each is paired with every other.
SIGNATURE_CORPUS = pytest.mark.parametrize(
    "families",
    [
        (unbalanced_cycle(4),),
        (all_positive_complete(4),),
        # isolated vertices 0 and 4 around a triangle and an edge: one BFS
        # root per component
        (_pairs_graph(7, [(1, 2), (2, 3), (1, 3), (5, 6)]),),
        # same n and edge count, different vertex pairs: never equivalent
        (_pairs_graph(4, [(0, 1), (1, 2), (2, 3)]), _pairs_graph(4, [(0, 1), (0, 2), (0, 3)])),
        (
            _pairs_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            _pairs_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        ),
        (_pairs_graph(4, [(0, 1), (0, 2), (1, 2)]), _pairs_graph(4, [(0, 1), (0, 2), (0, 3)])),
        (_pairs_graph(5, [(0, 1), (2, 3)]), _pairs_graph(5, [(0, 1), (2, 4)])),
        (_pairs_graph(5, [(0, 1), (1, 2), (0, 2)]), _pairs_graph(5, [(0, 1), (1, 2), (3, 4)])),
        # three forest roots: an isolated vertex first, then an edge and a
        # triangle
        (_pairs_graph(6, [(1, 2), (3, 4), (3, 5), (4, 5)]),),
        # four roots each; the second graph moves one edge past an isolated
        # vertex, so the forests differ
        (
            _pairs_graph(8, [(0, 1), (1, 2), (3, 4), (6, 7)]),
            _pairs_graph(8, [(0, 1), (1, 2), (3, 4), (5, 7)]),
        ),
    ],
    ids=[
        "C4", "K4", "K3+K2+2K1", "P4|star", "C4|paw", "K3+K1|star", "last-pair", "K3|P3+K2",
        "K1+K2+K3", "P3+2K2+K1|moved-K2",
    ],
)


@SIGNATURE_CORPUS
def test_switching_equivalence_matches_bruteforce_on_all_pairs(families):
    sigs = [g for family in families for g in helpers.all_signatures(family)]
    for g1 in sigs:
        for g2 in sigs:
            assert is_switching_equivalent(g1, g2) == helpers.brute_switching_equivalent(g1, g2)


def _fresh(g: SignedGraph) -> SignedGraph:
    """An equal graph with no BFS pass cached yet."""
    return SignedGraph(g.n, g.edges)


@SIGNATURE_CORPUS
def test_switching_equivalence_is_symmetric_with_and_without_cached_forest(families):
    # the check walks the second graph's BFS forest, running its BFS only
    # when is_balanced has not cached it, so both orders and both cache
    # states must agree
    sigs = [g for family in families for g in helpers.all_signatures(family)]
    for a in sigs:
        for b in sigs:
            forward = is_switching_equivalent(_fresh(a), _fresh(b))
            assert is_switching_equivalent(_fresh(b), _fresh(a)) == forward
            searched = _fresh(b)
            is_balanced(searched)
            assert is_switching_equivalent(_fresh(a), searched) == forward
            assert is_switching_equivalent(searched, _fresh(a)) == forward


@SIGNATURE_CORPUS
def test_is_antibalanced_matches_bruteforce_with_and_without_cached_forest(families):
    for family in families:
        for g in helpers.all_signatures(family):
            expected = helpers.brute_balanced(negate(g))
            assert is_antibalanced(_fresh(g)) == expected
            searched = _fresh(g)
            is_balanced(searched)
            assert is_antibalanced(searched) == expected


def test_bfs_pass_matches_reference_bfs():
    # disconnected graphs with isolated vertices: one root per component,
    # including a root after a component whose vertices are not contiguous
    disconnected = [
        null_graph(3),
        build_graph(7, [(1, 2, -1), (2, 3, 1), (1, 3, -1), (5, 6, -1)]),
        build_graph(8, [(6, 7, -1), (0, 5, 1), (2, 5, -1), (3, 4, -1)]),
    ]
    for g in helpers.oracle_corpus() + disconnected:
        assert g._bfs == helpers.reference_bfs(g)


def test_switching_equivalence_criterion_vs_bruteforce_n8():
    # the edgewise-product criterion against plain enumeration of all 2^8
    # switchings on shared 8-vertex underlying graphs
    rng = random.Random(8)
    for _ in range(25):
        base = helpers.random_signed_graph(rng, max_n=8)
        pairs = [(u, v) for u, v, _ in base.edges]
        resigned = build_graph(
            base.n, [(u, v, rng.choice((-1, 1))) for u, v in pairs]
        )
        assert is_switching_equivalent(base, resigned) == helpers.brute_switching_equivalent(base, resigned)


def test_switching_equivalence_is_equivalence_relation():
    sigs = list(helpers.all_signatures(all_positive_complete(4)))
    rng = random.Random(3)
    sample = rng.sample(sigs, 10)
    for a in sample:
        assert is_switching_equivalent(a, a)
        for b in sample:
            assert is_switching_equivalent(a, b) == is_switching_equivalent(b, a)
            for c in sample:
                if is_switching_equivalent(a, b) and is_switching_equivalent(b, c):
                    assert is_switching_equivalent(a, c)


@pytest.mark.parametrize(
    "family",
    [
        unbalanced_cycle(3),
        unbalanced_cycle(5),
        all_positive_complete(4),
        unbalanced_cycle(6),
    ],
    ids=["C3", "C5", "K4", "C6"],
)
def test_cycle_signs_invariant_under_all_switchings(family):
    cycles = helpers.simple_cycles(family)
    assert cycles
    signs = [cycle_sign(family, c) for c in cycles]
    for zeta in iproduct((-1, 1), repeat=family.n):
        switched = apply_switching(family, zeta)
        assert [cycle_sign(switched, c) for c in cycles] == signs


def test_components_bfs_orders():
    g = build_graph(5, [(0, 2, 1), (2, 4, -1)])
    assert components(g) == [[0, 2, 4], [1], [3]]


def test_induced_subgraph_relabels():
    g = build_graph(5, [(0, 2, 1), (2, 4, -1), (1, 3, 1)])
    sub = induced_subgraph(g, [0, 2, 4])
    assert sub == build_graph(3, [(0, 1, 1), (1, 2, -1)])


@pytest.mark.parametrize("vertices", [[7], [0, 5], [-1], [True], [1.0], [None]])
def test_induced_subgraph_rejects_vertices_outside_the_graph(vertices):
    with pytest.raises(VertexRangeError):
        induced_subgraph(unbalanced_cycle(5), vertices)


def test_induced_subgraph_rejects_repeated_vertices():
    with pytest.raises(GraphError, match="repeated vertex 0"):
        induced_subgraph(unbalanced_cycle(3), [0, 0, 1])


def test_graphs_are_hashable_values():
    a = unbalanced_cycle(4)
    b = build_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


ODD_VALUES = (None, "1", "a", float("nan"), True, False, 1.0, -1.0, 0.5, 0, 2, -1, 3, 9)


def _fuzz_edges(rng: random.Random, n: int) -> list:
    """Valid edges in random orientation and order, then, most of the time,
    one duplicate pair or one malformed entry put in at a random place."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs[: rng.randrange(len(pairs) + 1)]:
        s = rng.choice((-1, 1))
        edges.append((u, v, s) if rng.random() < 0.5 else (v, u, s))
    roll = rng.random()
    if roll < 0.3:
        return edges
    if roll < 0.5 and edges:
        u, v, s = rng.choice(edges)
        extra = rng.choice(((u, v, s), (v, u, -s)))
    else:
        u, v, s = rng.choice(edges) if edges else (0, 1, 1)
        odd = rng.choice(ODD_VALUES)
        extra = rng.choice((
            (odd, v, s), (u, odd, s), (u, v, odd), (u, u, s),
            (u, v), (u, v, s, s), [u, v, s], None, "uvs",
        ))
    edges.insert(rng.randrange(len(edges) + 1), extra)
    return edges


def _outcome(build):
    try:
        edges = build()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return [tuple(type(x) for x in e) for e in edges], repr(edges)


def test_signed_graph_matches_single_loop_validation():
    rng = random.Random(31337)
    for _ in range(3000):
        n = rng.choice((0, 1, 2, 3, 4, 6, -1, 2.5, True))
        edges = _fuzz_edges(rng, int(n))
        edges = tuple(edges) if rng.random() < 0.8 else edges
        expected = _outcome(lambda: helpers.reference_normalized_edges(n, edges))
        assert _outcome(lambda: SignedGraph(n, edges).edges) == expected, (n, edges)


class _Triple(tuple):
    """A tuple subclass: SignedGraph must store a plain tuple in its place."""


def _reversed_pair(edge: tuple) -> tuple:
    return edge[1::-1] + edge[2:]


def test_signed_graph_keeps_edges_and_errors_across_edge_forms():
    # edges given as lists, as tuples in v < u form or as tuple subclasses
    # are normalised into new plain tuples, with the same first error
    rng = random.Random(4242)
    forms = (tuple, list, _Triple, _reversed_pair)
    for _ in range(2000):
        n = rng.choice((0, 1, 2, 3, 4, 6))
        edges = tuple(
            rng.choice(forms)(e) if type(e) is tuple else e for e in _fuzz_edges(rng, n)
        )
        expected = _outcome(lambda: helpers.reference_normalized_edges(n, edges))
        assert _outcome(lambda: SignedGraph(n, edges).edges) == expected, (n, edges)
        if isinstance(expected[0], list):
            assert {type(e) for e in SignedGraph(n, edges).edges} <= {tuple}


def test_signed_graph_reads_an_edge_iterator_once():
    edges = [(1, 0, 1), (2, 1, -1), (2, 2, 1)]
    with pytest.raises(LoopEdgeError, match="loop edge at vertex 2"):
        SignedGraph(3, iter(edges))
    assert SignedGraph(3, iter(edges[:2])).edges == ((0, 1, 1), (1, 2, -1))


def test_neighbors_ascend_and_components_are_fresh_lists():
    rng = random.Random(5)
    for _ in range(50):
        g = helpers.random_signed_graph(rng, max_n=8)
        for u in range(g.n):
            expected = sorted({v for a, b, _ in g.edges for v in (a, b) if u in (a, b)} - {u})
            assert g.neighbors(u) == tuple(expected)
        orders = components(g)
        snapshot = [list(order) for order in orders]
        orders[0].append(-1)
        orders.append([])
        assert components(g) == snapshot
