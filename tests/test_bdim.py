"""Vector switching, the dimension search, and its brute-force cross-check."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product as iproduct

import pytest

import helpers
import sgraph
from sgraph import (
    BdimCapExceededError,
    DimensionMismatchError,
    InvalidSwitchingError,
    KSwitching,
    OracleGuardError,
    all_negative_complete,
    all_positive_complete,
    apply_k_switching,
    apply_switching,
    bdim_oracle,
    bdim_search,
    build_graph,
    cartesian,
    has_k_positive_bruteforce,
    hg_lex,
    induced_subgraph,
    inner_sign,
    is_balanced,
    is_k_positive,
    null_graph,
    path_graph,
    table_witness,
    unbalanced_cycle,
)
from sgraph.bdim import ORACLE_GUARD

EXHAUSTIVE_FAMILIES = [
    unbalanced_cycle(3),
    unbalanced_cycle(4),
    unbalanced_cycle(5),
    path_graph(4),
    all_positive_complete(4),
]


def test_inner_sign_arithmetic():
    assert inner_sign((1, 0), (1, 1)) == 1
    assert inner_sign((1, -1), (1, 1)) == 0
    assert inner_sign((-1, -1, 1), (1, -1, -1)) == -1


def test_inner_sign_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_sign((1, 0), (1, 0, 1))


def test_kswitching_validation():
    with pytest.raises(DimensionMismatchError):
        KSwitching(0, ())
    with pytest.raises(DimensionMismatchError):
        KSwitching(2, ((1, 0), (1,)))
    with pytest.raises(InvalidSwitchingError):
        KSwitching(1, ((2,),))
    z = KSwitching.from_scalar((1, -1, 1))
    assert z.k == 1 and z.vectors == ((1,), (-1,), (1,))


def test_kswitching_stores_tuple_vectors():
    built = KSwitching(1, [[1], [-1]])
    assert built.vectors == ((1,), (-1,)) and type(built.vectors[0]) is tuple
    assert built == KSwitching(1, ((1,), (-1,)))
    assert hash(built) == hash(KSwitching(1, ((1,), (-1,))))


@pytest.mark.parametrize("k,vectors", [(True, ((1,),)), (2.0, ((1, 0),)), ("2", ())])
def test_kswitching_dimension_is_an_exact_int(k, vectors):
    # a bool or float k would write a witness document that reading refuses
    with pytest.raises(DimensionMismatchError, match=rf"^dimension must be an int, got {k!r}$"):
        KSwitching(k, vectors)


@pytest.mark.parametrize(
    "vectors, error, message",
    [
        (((1, 0), (True, 0)), InvalidSwitchingError, "vector at vertex 1 has entries that are not ints"),
        (((1, 0.0), (1, 0), (1, 0.0)), InvalidSwitchingError, "vector at vertex 0 has entries that are not ints"),
        (((1, 0),) * 5 + ((0, -1.0),), InvalidSwitchingError, "vector at vertex 5 has entries that are not ints"),
        (([1, 0], [0, False]), InvalidSwitchingError, "vector at vertex 1 has entries that are not ints"),
        (((1, 0), (1, 0.0), (2, 0)), InvalidSwitchingError, "vector at vertex 1 has entries that are not ints"),
        (((1, 0), (2, True), (1, 0.0)), InvalidSwitchingError, "vector at vertex 1 has entries outside -1/0/1"),
        (((1, [0]),), InvalidSwitchingError, "vector at vertex 0 has entries outside -1/0/1"),
        (((1, 0), (True,), (1, 0)), DimensionMismatchError, "vector at vertex 1 has length 1, expected 2"),
    ],
)
def test_kswitching_entries_are_exact_ints_and_the_first_bad_vertex_is_named(vectors, error, message):
    # repeated vectors are checked once, but (True, 0) and (1.0, 0) equal (1, 0)
    with pytest.raises(error) as info:
        KSwitching(2, vectors)
    assert type(info.value) is error and str(info.value) == message


def test_kswitching_validity_for_graph():
    g = path_graph(2)
    assert KSwitching(2, ((1, 0), (1, 1))).is_valid_for(g)
    assert not KSwitching(2, ((1, -1), (1, 1))).is_valid_for(g)
    assert not KSwitching(2, ((1, 0),)).is_valid_for(g)


def test_apply_k_switching_dimension_one_matches_scalar():
    rng = random.Random(23)
    for _ in range(20):
        g = helpers.random_signed_graph(rng, max_n=6)
        zeta = tuple(rng.choice((-1, 1)) for _ in range(g.n))
        assert apply_k_switching(g, KSwitching.from_scalar(zeta)) == apply_switching(g, zeta)


def test_apply_k_switching_identity_vector():
    g = unbalanced_cycle(4)
    z = KSwitching(3, ((1, 0, 0),) * 4)
    assert apply_k_switching(g, z) == g


def test_apply_k_switching_tabulated_assignment_positive():
    g = cartesian(unbalanced_cycle(3), unbalanced_cycle(3))
    switched = apply_k_switching(g, table_witness(4, 3, 3))
    assert all(s == 1 for _, _, s in switched.edges)


def test_apply_k_switching_reports_offending_edge():
    g = path_graph(3)
    z = KSwitching(2, ((1, 0), (0, 1), (1, 1)))
    with pytest.raises(InvalidSwitchingError) as err:
        apply_k_switching(g, z)
    assert err.value.edge == (0, 1)


def test_apply_k_switching_rejects_wrong_vertex_count():
    with pytest.raises(InvalidSwitchingError):
        apply_k_switching(path_graph(3), KSwitching(1, ((1,), (1,))))


def test_is_k_positive_examples():
    g = build_graph(3, [(0, 1, -1), (1, 2, 1)])
    balanced, witness = is_balanced(g)
    assert balanced
    assert is_k_positive(g, KSwitching.from_scalar(witness))

    prod = cartesian(unbalanced_cycle(4), unbalanced_cycle(4))
    assert is_k_positive(prod, table_witness(1, 4, 4))

    # no dimension-1 assignment fixes an unbalanced graph
    tri = unbalanced_cycle(3)
    for entries in iproduct((-1, 0, 1), repeat=3):
        assert not is_k_positive(tri, KSwitching(1, tuple((e,) for e in entries)))


def test_bdim_balanced_graph_is_one_with_scalar_witness():
    g = build_graph(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1)])
    result = bdim_search(g)
    assert result.dimension == 1
    assert result.witness == KSwitching.from_scalar(is_balanced(g)[1])
    assert is_k_positive(g, result.witness)


def test_bdim_all_negative_triangle():
    assert bdim_search(all_negative_complete(3)).dimension == 3


def test_bdim_antibalanced_k4_from_lex_product():
    g = hg_lex(all_positive_complete(2), all_negative_complete(2))
    assert bdim_search(g).dimension == 3


def test_bdim_one_negative_cycles_match_oracle():
    for n in (4, 5):
        g = unbalanced_cycle(n)
        assert bdim_oracle(g) == 2
        assert bdim_search(g).dimension == 2


def test_bdim_cap_exceeded_is_an_error_not_a_value():
    with pytest.raises(BdimCapExceededError) as err:
        bdim_search(all_negative_complete(3), max_k=2)
    assert err.value.max_k == 2
    with pytest.raises(ValueError):
        bdim_search(path_graph(2), max_k=0)


def test_bdim_disconnected_takes_component_maximum():
    # all-negative triangle next to a one-negative 4-cycle and an isolated vertex
    edges = [(0, 1, -1), (0, 2, -1), (1, 2, -1)]
    edges += [(3, 4, -1), (4, 5, 1), (5, 6, 1), (3, 6, 1)]
    g = build_graph(8, edges)
    result = bdim_search(g)
    assert result.dimension == 3
    assert is_k_positive(g, result.witness)
    assert result.witness.vectors[7] == (1, 0, 0)


def test_bdim_union_of_balanced_unbalanced_and_isolated_parts():
    # a balanced triangle with two negative edges on {0, 3, 5}, an
    # all-negative triangle on {1, 4, 6} and the isolated vertex 2
    g = build_graph(
        7, [(0, 3, -1), (3, 5, 1), (0, 5, -1), (1, 4, -1), (4, 6, -1), (1, 6, -1)]
    )
    result = bdim_search(g)
    assert result.dimension == 3
    assert result.witness.vectors == (
        (1, 0, 0),
        (1, 0, 0),
        (1, 0, 0),
        (-1, -1, -1),
        (-1, -1, -1),
        (-1, -1, -1),
        (-1, 1, 1),
    )
    with pytest.raises(BdimCapExceededError) as err:
        bdim_search(g, max_k=2)
    assert err.value.max_k == 2


def _record_searches(monkeypatch) -> list:
    """Record (sub.n, k, no switching, candidates tried) per search call."""
    searched = []
    search_component = sgraph.bdim._search_component

    def recording(sub, k):
        vectors, tried = search_component(sub, k)
        searched.append((sub.n, k, vectors is None, tried))
        return vectors, tried

    monkeypatch.setattr(sgraph.bdim, "_search_component", recording)
    return searched


def test_balanced_components_of_unbalanced_graphs_are_not_searched_at_k1(monkeypatch):
    # the triangle on {0, 3, 5} is balanced: its k = 1 comes from the balance
    # test's forest, and it sits after the all-negative triangle on {1, 4, 6}
    # in the one copy searched per k, so k = 2 ends at the latter and tries
    # exactly its candidates; only the final dimension reaches the former
    g = build_graph(
        7, [(0, 3, -1), (3, 5, 1), (0, 5, -1), (1, 4, -1), (4, 6, -1), (1, 6, -1)]
    )
    search_component = sgraph.bdim._search_component
    frustrated, balanced = (induced_subgraph(g, order) for order in ([1, 4, 6], [0, 3, 5]))
    own = {
        (sub, k): search_component(sub, k)[1] for sub in (frustrated, balanced) for k in (2, 3)
    }
    searched = _record_searches(monkeypatch)
    result = bdim_search(g)
    assert result.dimension == 3
    assert searched == [
        (6, 2, True, own[frustrated, 2]),
        (6, 3, False, own[frustrated, 3] + own[balanced, 3]),
    ]
    assert searched == [(6, 2, True, 7), (6, 3, False, 6)]
    assert result.explored == g.n + 7 + 6 == 20
    searched.clear()
    with pytest.raises(BdimCapExceededError) as err:
        bdim_search(g, max_k=1)
    assert err.value.max_k == 1
    assert searched == []


def test_one_rung_per_k_ends_at_the_first_component_without_a_switching(monkeypatch):
    # two copies of K4- (dimension 3) in one search per k: k = 2 ends at the
    # first copy with its own count, and k = 3 tries each copy's own count
    # once; the witness is the copy's own witness twice
    k4 = all_negative_complete(4)
    own = {k: sgraph.bdim._search_component(k4, k) for k in (2, 3)}
    searched = _record_searches(monkeypatch)
    result = bdim_search(hg_lex(null_graph(2), k4))
    assert result.dimension == 3
    assert searched == [(8, 2, True, own[2][1]), (8, 3, False, 2 * own[3][1])]
    assert searched == [(8, 2, True, 7), (8, 3, False, 36)]
    assert result.explored == 8 + 7 + 36 == 51
    assert list(result.witness.vectors) == 2 * own[3][0]


def test_search_component_on_consecutive_components():
    # components laid end to end, each in BFS order: every root takes only
    # canonical vectors and the search never backtracks into an earlier
    # component, so its answer is the parts' own ones joined, or None when
    # one part has none, and it tries each part's own count up to that part
    rng = random.Random(17)
    for i in range(200):
        parts = [
            helpers.bfs_relabelled(sgraph.verify._random_connected(rng, rng.randint(2, 6)))
            for _ in range(2 + i % 3)
        ]
        if i % 7 == 0:
            parts[rng.randrange(len(parts))] = all_negative_complete(4)
        edges, base = [], 0
        for part in parts:
            edges += [(base + u, base + v, s) for u, v, s in part.edges]
            base += part.n
        whole = build_graph(base, edges)
        for k in (1, 2, 3):
            expected = [helpers.reference_first_switching(part, k) for part in parts]
            joined = None if None in expected else [vec for vecs in expected for vec in vecs]
            reached = parts[: expected.index(None) + 1] if None in expected else parts
            own = sum(sgraph.bdim._search_component(part, k)[1] for part in reached)
            assert sgraph.bdim._search_component(whole, k) == (joined, own), (whole, k)


@pytest.mark.parametrize("route", [bdim_search, bdim_oracle], ids=["search", "oracle"])
@pytest.mark.parametrize("max_k", [0, -1])
def test_caps_below_one_are_rejected_by_both_routes(route, max_k):
    for g in (null_graph(3), path_graph(3), unbalanced_cycle(3)):
        with pytest.raises(ValueError, match=rf"^max_k must be >= 1, got {max_k}$") as err:
            route(g, max_k=max_k)
        assert type(err.value) is ValueError


@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_caps_and_k_must_be_exact_ints(value):
    g = unbalanced_cycle(4)
    calls = {
        "max_k": (lambda: bdim_search(g, max_k=value), lambda: bdim_oracle(g, max_k=value)),
        "k": (lambda: has_k_positive_bruteforce(g, value),),
    }
    for name, routes in calls.items():
        for route in routes:
            with pytest.raises(ValueError, match=rf"^{name} must be an int, got {value!r}$") as err:
                route()
            assert type(err.value) is ValueError


def test_bdim_cap_one_refuses_unbalanced_graph():
    with pytest.raises(BdimCapExceededError) as err:
        bdim_search(unbalanced_cycle(3), max_k=1)
    assert err.value.max_k == 1


def test_oracle_cap_one_refuses_unbalanced_graph():
    with pytest.raises(BdimCapExceededError) as err:
        bdim_oracle(unbalanced_cycle(3), max_k=1)
    assert err.value.max_k == 1


def test_bdim_witness_is_always_positive():
    rng = random.Random(29)
    for _ in range(40):
        g = helpers.random_signed_graph(rng, max_n=5)
        result = bdim_search(g)
        assert is_k_positive(g, result.witness)
        assert result.explored >= 0


def test_bdim_deterministic():
    g = cartesian(unbalanced_cycle(3), unbalanced_cycle(4))
    first = bdim_search(g)
    second = bdim_search(g)
    assert first == second


def test_bdim_empty_and_single_vertex():
    assert bdim_search(null_graph(1)).dimension == 1
    assert bdim_search(build_graph(0, [])).dimension == 1


def test_oracle_examples():
    assert bdim_oracle(unbalanced_cycle(3)) == 3
    assert bdim_oracle(path_graph(4)) == 1
    assert bdim_oracle(unbalanced_cycle(5)) == 2


def test_oracle_guard():
    with pytest.raises(OracleGuardError):
        has_k_positive_bruteforce(all_positive_complete(20), 2)
    big = cartesian(unbalanced_cycle(4), unbalanced_cycle(4))
    with pytest.raises(OracleGuardError):
        bdim_oracle(big)


# The oracle packs the last vertex's choices into words, so these cover the
# layouts that path can get wrong: no accumulator axes at all, an isolated
# last vertex, edges only at the last vertex, and n = 2 at k = 4 and 5, where
# the 81 and 243 choices span two and four 64-bit words.
ORACLE_EDGE_CASES = [
    build_graph(0, []),
    null_graph(1),
    null_graph(2),
    build_graph(2, [(0, 1, -1)]),
    build_graph(2, [(0, 1, 1)]),
    build_graph(4, [(0, 1, -1), (1, 2, -1), (0, 2, -1)]),
    build_graph(4, [(0, 3, -1), (1, 3, 1), (2, 3, -1)]),
    build_graph(4, [(0, 3, -1), (1, 3, -1), (2, 3, -1), (0, 1, 1)]),
    # the last vertex sees a strict subset of the others, with an edge among them
    build_graph(4, [(0, 3, -1), (2, 3, 1), (0, 2, -1), (0, 1, 1)]),
    build_graph(5, [(0, 4, -1), (2, 4, 1), (3, 4, -1), (0, 2, -1), (1, 3, -1)]),
    # mixed-sign K4: the last vertex is adjacent to every axis
    build_graph(4, [(0, 1, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, 1), (2, 3, -1)]),
    # an isolated vertex before the last, first or in the middle
    build_graph(4, [(1, 2, -1), (1, 3, 1), (2, 3, -1)]),
    build_graph(4, [(0, 1, -1), (0, 3, -1), (1, 3, -1)]),
    # n = 5: an edge spanning one of the table's last two axes, (0,2), (0,3),
    # (1,2) or (1,3), is ANDed as a copy widened over both, beside (0,1),
    # broadcast over both, and (2,3), spanning both
    build_graph(5, [(0, 1, -1), (0, 2, -1), (2, 3, 1), (1, 4, -1), (2, 4, 1)]),
    build_graph(5, [(0, 1, 1), (0, 3, -1), (2, 3, -1), (1, 4, -1), (3, 4, -1)]),
    build_graph(5, [(0, 1, -1), (1, 2, 1), (2, 3, -1), (0, 4, 1), (3, 4, -1)]),
    build_graph(5, [(0, 1, -1), (1, 3, -1), (2, 3, 1), (1, 4, 1), (2, 4, 1)]),
    # every table-axis edge, with the last vertex isolated and then adjacent to all
    build_graph(5, [(0, 1, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, 1), (2, 3, -1)]),
    build_graph(5, [(0, 1, -1), (0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -1), (2, 3, -1),
                    (0, 4, -1), (1, 4, -1), (2, 4, 1), (3, 4, -1)]),
]


def test_oracle_matches_pure_python_enumeration():
    checked = set()
    for g in helpers.oracle_corpus(count=200) + ORACLE_EDGE_CASES:
        for k in range(1, 11):
            if 3 ** (g.n * k) > 3**10:
                break
            assert has_k_positive_bruteforce(g, k) == helpers.brute_k_positive(g, k), (g, k)
            checked.add((g.n, k))
    assert {(2, 4), (2, 5), (5, 2)} <= checked


def test_oracle_word_blocks_match_search():
    # at n = 8, k = 2 a last vertex with six neighbours has its words built
    # in several blocks along vertex 1's axis, while axis 0 is not its own;
    # every other graph is signed by a 2-switching, so both answers occur
    rng = random.Random(8)
    vectors = [(1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1)]
    answers = set()
    for trial in range(4):
        z = [rng.choice(vectors) for _ in range(7)] + [(1, 0)]
        pairs = [(u, 7) for u in range(1, 7)]
        pairs += [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.5]
        if trial % 2:
            edges = [(u, v, inner_sign(z[u], z[v])) for u, v in pairs if inner_sign(z[u], z[v])]
        else:
            edges = [(u, v, rng.choice((-1, 1))) for u, v in pairs]
        g = build_graph(8, edges)
        dim = bdim_search(g).dimension
        for k in (1, 2):
            found = has_k_positive_bruteforce(g, k)
            answers.add(found)
            assert found == (dim <= k), (g, k)
    assert answers == {False, True}


def test_oracle_peak_at_k8_holds_one_sign_table():
    # at k = 8 the int8 sign table is 6561 x 6561 bytes (41 MiB); the last
    # vertex's rows are packed from blocks of it, so no bool mask as large
    # is alive beside it, which would take the peak past 80 MiB
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert has_k_positive_bruteforce(path_graph(2), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, peak


def test_oracle_on_all_negative_cliques_matches_clique_bound():
    # K_n^- is k-positive exactly when n pairwise-negative vectors exist in
    # {-1,0,1}^k; this reaches k = 4 and 5 with edges off the last vertex,
    # past what the pure-Python enumeration can afford
    for k in range(1, 6):
        fits = helpers.max_pairwise_negative_set(k)
        for n in range(2, 6):
            if 3 ** (n * k) <= ORACLE_GUARD:
                assert has_k_positive_bruteforce(all_negative_complete(n), k) == (fits >= n), (n, k)


@pytest.mark.parametrize("family", EXHAUSTIVE_FAMILIES, ids=["C3", "C4", "C5", "P4", "K4"])
def test_oracle_equivalence_exhaustive(family):
    for g in helpers.all_signatures(family):
        assert bdim_search(g).dimension == bdim_oracle(g)


def test_oracle_equivalence_random_corpus_sample():
    # the full 200-graph corpus runs in the acceptance suite
    for g in helpers.oracle_corpus(count=40):
        assert bdim_search(g).dimension == bdim_oracle(g)


def test_minimality_no_positive_function_below_dimension():
    graphs = [
        unbalanced_cycle(3),
        unbalanced_cycle(4),
        all_negative_complete(4),
        cartesian(unbalanced_cycle(3), path_graph(2)),
        hg_lex(all_positive_complete(2), all_negative_complete(2)),
    ]
    for g in graphs:
        d = bdim_search(g).dimension
        assert d >= 2
        assert not has_k_positive_bruteforce(g, d - 1)


def test_dimension_invariant_under_scalar_switching():
    rng = random.Random(31)
    for _ in range(50):
        g = helpers.random_signed_graph(rng, max_n=6)
        zeta = tuple(rng.choice((-1, 1)) for _ in range(g.n))
        cap = max(g.n, 6)
        assert (
            bdim_search(apply_switching(g, zeta), max_k=cap).dimension
            == bdim_search(g, max_k=cap).dimension
        )


@pytest.mark.parametrize(
    "family",
    [unbalanced_cycle(4), all_positive_complete(4)],
    ids=["C4", "K4"],
)
def test_single_edge_deletion_never_increases_dimension(family):
    for g in helpers.all_signatures(family):
        d = bdim_search(g).dimension
        for drop in range(len(g.edges)):
            sub = build_graph(g.n, [e for i, e in enumerate(g.edges) if i != drop])
            assert bdim_search(sub).dimension <= d


def _has_negative_triangle(g):
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        and g.sign(a, b) * g.sign(b, c) * g.sign(a, c) == -1
        for a in range(g.n)
        for b in range(a + 1, g.n)
        for c in range(b + 1, g.n)
    )


@pytest.mark.parametrize(
    "family",
    [all_positive_complete(3), all_positive_complete(4)],
    ids=["K3", "K4"],
)
def test_negative_triangle_forces_dimension_at_least_three(family):
    for g in helpers.all_signatures(family):
        if not _has_negative_triangle(g):
            continue
        with pytest.raises(BdimCapExceededError):
            bdim_search(g, max_k=2)


@pytest.mark.parametrize("family", EXHAUSTIVE_FAMILIES, ids=["C3", "C4", "C5", "P4", "K4"])
def test_dimension_one_iff_balanced(family):
    for g in helpers.all_signatures(family):
        assert (bdim_search(g).dimension == 1) == is_balanced(g)[0]


def _seeded_unbalanced_five():
    # seed 19 gives a connected unbalanced graph of dimension 2 whose BFS
    # order (0, 3, 4, 1, 2) is not the vertex order
    rng = random.Random(19)
    return build_graph(
        5,
        [
            (u, v, rng.choice((-1, 1)))
            for u in range(5)
            for v in range(u + 1, 5)
            if rng.random() < 0.6
        ],
    )


@pytest.mark.parametrize(
    "g, k, order",
    [
        (unbalanced_cycle(4), 2, [0, 1, 3, 2]),
        (all_negative_complete(3), 3, [0, 1, 2]),
        (unbalanced_cycle(5), 2, [0, 1, 4, 2, 3]),
        (_seeded_unbalanced_five(), 2, [0, 3, 4, 1, 2]),
    ],
    ids=["C4", "K3", "C5", "seeded5"],
)
def test_witness_is_lex_least_under_bfs_order(g, k, order):
    # enumerate every root-canonical assignment in lexicographic order over
    # the BFS vertex sequence and take the first positive one; the search
    # must return exactly that assignment
    result = bdim_search(g)
    assert result.dimension == k
    cands = [v for v in iproduct((-1, 0, 1), repeat=k) if any(v)]
    roots = [(1,) * t + (0,) * (k - t) for t in range(1, k + 1)]
    found = None
    for assignment in iproduct(roots, *[cands] * (g.n - 1)):
        z = [None] * g.n
        for vertex, vec in zip(order, assignment):
            z[vertex] = vec
        if is_k_positive(g, KSwitching(k, tuple(z))):
            found = tuple(z)
            break
    assert found is not None
    assert result.witness.vectors == found


def test_bdim_cycle_product_beyond_recursion_depth():
    # 1600 vertices in one component, more than a recursive search could
    # descend through under the default recursion limit
    g = cartesian(unbalanced_cycle(40), unbalanced_cycle(40))
    result = bdim_search(g)
    assert result.dimension == 2
    assert is_k_positive(g, result.witness)


def test_import_does_not_load_numpy():
    # numpy serves only the brute-force oracle, so importing the package
    # must not pay for it
    src = os.path.dirname(os.path.dirname(sgraph.__file__))
    code = "import sys, sgraph; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_antibalanced_complete_five_needs_dimension_five():
    # a set of pairwise-negative vectors in {-1,0,1}^k caps out at 4 members
    # for k in (2, 3, 4) (independent clique search), so five mutually
    # negative vertices force k = 5; the search agrees and its witness checks
    assert helpers.max_pairwise_negative_set(2) == 2
    assert helpers.max_pairwise_negative_set(3) == 4
    assert helpers.max_pairwise_negative_set(4) == 4
    result = bdim_search(all_negative_complete(5))
    assert result.dimension == 5
    assert is_k_positive(all_negative_complete(5), result.witness)


def test_literature_values_certified_by_clique_bound():
    # dimension 3 for the all-negative triangle: no three pairwise-negative
    # vectors exist in dimension 2, and an explicit dimension-3 witness exists
    assert helpers.max_pairwise_negative_set(2) == 2
    assert bdim_search(all_negative_complete(3)).dimension == 3
    # dimension 3 for the all-negative K4: four pairwise-negative vectors
    # exist in dimension 3 but not in dimension 2
    assert helpers.max_pairwise_negative_set(3) == 4
    assert bdim_search(all_negative_complete(4)).dimension == 3


PINNED_WITNESS_DIGEST = "bbf9054a093c9d4ab3fbb15067c49540138fb6d9249963fc54524245fb25169b"


def _pinned_answers() -> list:
    """bdim_search's answers on a fixed corpus of connected graphs."""
    rng = random.Random(7)
    graphs = [sgraph.verify._random_connected(rng, 3 + i % 7) for i in range(300)]
    graphs += [all_negative_complete(n) for n in range(2, 6)]
    graphs += [
        cartesian(unbalanced_cycle(m), unbalanced_cycle(n))
        for m in (3, 4, 6)
        for n in (3, 5, 16)
    ]
    return _answers(graphs)


def _answers(graphs) -> list:
    """bdim_search's answer on each graph at the default cap and at caps 2
    and 3: [dimension, witness vectors], or ["cap", max_k] on a refusal."""
    answers = []
    for g in graphs:
        for max_k in (None, 2, 3):
            try:
                result = bdim_search(g, max_k=max_k)
            except BdimCapExceededError as exc:
                answers.append(["cap", exc.max_k])
            else:
                answers.append([result.dimension, result.witness.vectors])
    return answers


def test_witnesses_pinned_on_seeded_corpus():
    # recorded before the search skipped the k = 1 rung on components that
    # the whole-graph balance test already showed unbalanced; any change to
    # a dimension, a lex-least witness or a refusal moves the digest
    text = json.dumps(_pinned_answers(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WITNESS_DIGEST


PINNED_UNION_DIGEST = "89d8968db3acf17e587eb6565d5cd9cfd428839f8f78d8b05f1e46b760190190"


def _disjoint_union(rng: random.Random, parts, isolated: int):
    """The parts side by side plus isolated vertices, labels shuffled."""
    labels = list(range(sum(g.n for g in parts) + isolated))
    rng.shuffle(labels)
    edges, base = [], 0
    for g in parts:
        edges += [(labels[base + u], labels[base + v], s) for u, v, s in g.edges]
        base += g.n
    return build_graph(len(labels), edges)


def test_witnesses_pinned_on_seeded_disjoint_unions():
    # recorded when each component still deepened on its own: balanced,
    # unbalanced and isolated parts in any label order, so the order in which
    # components are searched must not move a dimension, a witness or a refusal
    rng = random.Random(11)
    graphs = [
        _disjoint_union(
            rng,
            [sgraph.verify._random_connected(rng, rng.randint(2, 7)) for _ in range(2 + i % 3)],
            i % 3,
        )
        for i in range(600)
    ]
    text = json.dumps(_answers(graphs), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_UNION_DIGEST


def test_search_component_matches_plain_backtracking():
    # the forward checking, the sign-flip rule and the arrival rule cut only
    # branches that hold no lex-least assignment: a search without any of
    # them agrees everywhere
    rng = random.Random(5)
    graphs = [sgraph.verify._random_connected(rng, 2 + i % 6) for i in range(300)]
    cases = [(helpers.bfs_relabelled(g), k) for g in graphs for k in (1, 2, 3)]
    cases += [(all_negative_complete(n), k) for n in (3, 4, 5) for k in (1, 2, 3, 4)]
    # denser graphs at k = 2, where a later neighbour is often down to one
    # candidate before the search reaches it
    rng = random.Random(6)
    graphs = [sgraph.verify._random_connected(rng, 8 + i % 2) for i in range(200)]
    cases += [(helpers.bfs_relabelled(g), 2) for g in graphs]
    for g, k in cases:
        vecs, _ = sgraph.bdim._search_component(g, k)
        assert vecs == helpers.reference_first_switching(g, k), (g, k)


def test_sign_masks_match_pairwise_arithmetic():
    # the per-k search tables entry by entry: candidate i is the vector of
    # base-3 rank i, the zero vector included, and bit j of a row stands for
    # candidate j
    for k in range(1, 5):
        cands, neg, pos, root, zeros, allowed = sgraph.bdim._sign_masks(k)
        assert cands == tuple(iproduct((-1, 0, 1), repeat=k))
        assert len(neg) == len(pos) == len(zeros) == 3**k
        for i, x in enumerate(cands):
            dots = [sum(a * b for a, b in zip(x, y)) for y in cands]
            assert neg[i] == sum(1 << j for j, d in enumerate(dots) if d < 0), (k, x)
            assert pos[i] == sum(1 << j for j, d in enumerate(dots) if d > 0), (k, x)
            assert zeros[i] == sum(1 << c for c in range(k) if x[c] == 0), (k, x)
        ones_then_zeros = [(1,) * t + (0,) * (k - t) for t in range(1, k + 1)]
        assert root == sum(1 << cands.index(v) for v in ones_then_zeros)
        assert len(allowed) == 1 << k
        for z, bits in enumerate(allowed):
            coords = [c for c in range(k) if z >> c & 1]
            plus_free = [i for i, x in enumerate(cands) if 1 not in [x[c] for c in coords]]
            assert bits == sum(1 << i for i in plus_free), (k, z)


def test_sign_flip_rule_prunes_all_negative_k6():
    # 1,769,581 candidates without the rule
    assert bdim_search(all_negative_complete(6)).explored <= 400_000


def test_arrival_rule_prunes_search_family_k3():
    # 23,710 candidates without the rule; its outputs are the same, so only
    # the count of candidates tried shows it
    rng = random.Random(0)
    graphs = [sgraph.verify._random_connected(rng, 10 + i % 5) for i in range(25)]
    subs = [helpers.bfs_relabelled(g) for g in graphs]
    assert sum(sgraph.bdim._search_component(g, 3)[1] for g in subs) <= 16_500


K8_WITNESS_DIGEST = "64c448da5628c2c291c0a0104e0ee63dcac6c842df51c889a80985aab9b9207e"


@pytest.mark.slow
def test_all_negative_k8_dimension_seven_by_search():
    # the digest of [dimension, witness vectors] was recorded before the
    # sign-flip rule, when this search tried 34.6M candidates
    result = bdim_search(all_negative_complete(8))
    text = json.dumps([result.dimension, result.witness.vectors], separators=(",", ":"))
    assert result.dimension == 7
    assert hashlib.sha256(text.encode()).hexdigest() == K8_WITNESS_DIGEST
