"""Acceptance criteria: exact values, exhaustive sweeps, and runtime limits.

Each test covers one numbered criterion and prints one pass line on success
(run with `pytest -s` to see them; `-v` shows per-criterion pass/fail either
way). Failures surface as ordinary assertion errors.
"""

import random
import time

import helpers
from sgraph import (
    all_negative_complete,
    all_positive_complete,
    apply_switching,
    bcd_lex,
    bdim_oracle,
    bdim_search,
    build_graph,
    cartesian,
    has_k_positive_bruteforce,
    hg_lex,
    is_all_positive,
    is_antibalanced,
    is_balanced,
    is_k_positive,
    is_switching_equivalent,
    path_graph,
    run_claims,
    strong,
    table_witness,
    tensor,
    unbalanced_cycle,
)
from sgraph.bdim import ORACLE_GUARD
from sgraph.cli import main


def _report(number: int, detail: str, elapsed: float, limit: float):
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"criterion {number:2d}: PASS  {detail}  [{elapsed:.2f}s < {limit:g}s]")


def test_criterion_01_small_complete_dimensions():
    start = time.perf_counter()
    assert bdim_search(all_negative_complete(3)).dimension == 3
    first = time.perf_counter() - start
    assert first < 1.0

    start = time.perf_counter()
    k4 = hg_lex(all_positive_complete(2), all_negative_complete(2))
    assert bdim_search(k4).dimension == 3
    second = time.perf_counter() - start
    assert second < 1.0
    _report(1, "all-negative K3 and composed K4 both have dimension 3", first + second, 2.0)


def test_criterion_02_cycle_product_dimensions():
    start = time.perf_counter()
    for m, n, expected in [
        (4, 4, 2),
        (4, 5, 2),
        (5, 5, 2),
        (3, 3, 3),
        (3, 4, 3),
        (4, 3, 3),
    ]:
        prod = cartesian(unbalanced_cycle(m), unbalanced_cycle(n))
        assert bdim_search(prod).dimension == expected, (m, n)
    _report(2, "six one-negative cycle products match exactly", time.perf_counter() - start, 60.0)


def test_criterion_03_cycle_tables_all_sizes():
    start = time.perf_counter()
    cases = [(1, m, n) for m in (4, 5, 6) for n in (4, 5, 6)]
    cases += [(2, 3, n) for n in (4, 5, 6)]
    cases += [(3, m, 3) for m in (4, 5, 6)]
    cases += [(4, 3, 3)]
    for tid, m, n in cases:
        prod = cartesian(unbalanced_cycle(m), unbalanced_cycle(n))
        assert is_k_positive(prod, table_witness(tid, m, n)), (tid, m, n)
    _report(3, f"{len(cases)} tabulated cycle witnesses all positive", time.perf_counter() - start, 5.0)


def test_criterion_04_complete_table_witnesses():
    start = time.perf_counter()
    for m, n in ((3, 2), (3, 3), (4, 3), (4, 4)):
        base = bdim_search(all_negative_complete(m)).witness
        prod = cartesian(all_negative_complete(m), all_negative_complete(n))
        assert is_k_positive(prod, table_witness(5, m, n, base=base)), (m, n)
    _report(4, "cyclic complete-graph witnesses positive at all four sizes", time.perf_counter() - start, 10.0)


def test_criterion_05_lexicographic_balance_criterion():
    start = time.perf_counter()
    checked = 0
    pairs = [
        (path_graph(3), path_graph(2)),
        (unbalanced_cycle(3), path_graph(2)),
        (path_graph(3), path_graph(3)),
    ]
    for base1, base2 in pairs:
        for g1 in helpers.all_signatures(base1):
            for g2 in helpers.all_signatures(base2):
                expected = is_balanced(g1)[0] and is_all_positive(g2)
                assert is_balanced(hg_lex(g1, g2))[0] == expected
                checked += 1
    _report(5, f"lexicographic balance criterion, {checked} signature pairs", time.perf_counter() - start, 10.0)


def test_criterion_06_tensor_balance_criterion():
    start = time.perf_counter()
    bases = [path_graph(2), path_graph(3), unbalanced_cycle(3)]
    checked = 0
    for base1 in bases:
        for base2 in bases:
            for g1 in helpers.all_signatures(base1):
                for g2 in helpers.all_signatures(base2):
                    expected = (is_balanced(g1)[0] and is_balanced(g2)[0]) or (
                        is_antibalanced(g1) and is_antibalanced(g2)
                    )
                    assert is_balanced(tensor(g1, g2))[0] == expected
                    checked += 1
    _report(6, f"tensor balance criterion, {checked} signature pairs", time.perf_counter() - start, 10.0)


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    families = [
        unbalanced_cycle(3),
        unbalanced_cycle(4),
        unbalanced_cycle(5),
        path_graph(4),
        all_positive_complete(4),
    ]
    checked = 0
    for family in families:
        for g in helpers.all_signatures(family):
            assert bdim_search(g).dimension == bdim_oracle(g)
            checked += 1
    for g in helpers.oracle_corpus(count=200):
        assert bdim_search(g).dimension == bdim_oracle(g)
        checked += 1
    _report(7, f"search and brute force agree on {checked} graphs", time.perf_counter() - start, 120.0)


def test_criterion_08_negative_triangle_bound():
    start = time.perf_counter()
    triangles = [
        (a, b, c)
        for a in range(4)
        for b in range(a + 1, 4)
        for c in range(b + 1, 4)
    ]
    checked = 0
    for g in helpers.all_signatures(all_positive_complete(4)):
        has_neg = any(
            g.sign(a, b) * g.sign(b, c) * g.sign(a, c) == -1 for a, b, c in triangles
        )
        if not has_neg:
            continue
        assert bdim_search(g).dimension >= 3
        checked += 1
    assert checked == 56  # every unbalanced K4 signature carries one
    _report(8, f"{checked} negative-triangle signatures all need dimension >= 3", time.perf_counter() - start, 30.0)


def test_criterion_09_switching_transport_trials():
    start = time.perf_counter()
    rng = random.Random(97)
    bases = [
        path_graph(2),
        path_graph(3),
        unbalanced_cycle(3),
        unbalanced_cycle(4),
        all_positive_complete(4),
    ]

    def resign(base):
        return build_graph(
            base.n, [(u, v, rng.choice((-1, 1))) for u, v, _ in base.edges]
        )

    for _ in range(100):
        g1, g2 = resign(rng.choice(bases)), resign(rng.choice(bases))
        zeta1 = tuple(rng.choice((-1, 1)) for _ in range(g1.n))
        zeta2 = tuple(rng.choice((-1, 1)) for _ in range(g2.n))
        s1 = apply_switching(g1, zeta1)
        s2 = apply_switching(g2, zeta2)
        assert is_switching_equivalent(hg_lex(s1, g2), hg_lex(g1, g2))
        assert is_switching_equivalent(bcd_lex(s1, g2), bcd_lex(g1, g2))
        assert is_switching_equivalent(strong(s1, s2), strong(g1, g2))
    _report(9, "switching transport holds across 100 trials x 3 products", time.perf_counter() - start, 30.0)


def test_criterion_10_full_claim_suite():
    start = time.perf_counter()
    reports = run_claims("all", seed=0)
    failing = [r.claim_id for r in reports if r.status != "pass"]
    assert len(reports) == 19
    assert not failing, f"claims not passing: {failing}"
    assert main(["verify", "--claims", "all"]) == 0
    _report(10, "all 19 claims pass and the CLI verify run exits 0", time.perf_counter() - start, 600.0)


def test_criterion_11_all_negative_k6_dimension_seven():
    start = time.perf_counter()
    g = all_negative_complete(6)
    result = bdim_search(g)
    assert result.dimension == 7
    assert is_k_positive(g, result.witness)
    assert helpers.max_pairwise_negative_set(6) == 5
    _report(11, "all-negative K6 has dimension 7 with a positive witness", time.perf_counter() - start, 30.0)


def test_criterion_12_oracle_guard_boundary():
    start = time.perf_counter()
    # 3^16 maps are the most the guard admits; both cases sit exactly there
    assert 3**16 <= ORACLE_GUARD < 3**17
    assert not has_k_positive_bruteforce(unbalanced_cycle(16), 1)
    assert has_k_positive_bruteforce(all_negative_complete(4), 4)
    _report(12, "oracle decides both 3^16-map enumerations at its guard", time.perf_counter() - start, 10.0)


def test_criterion_13_all_negative_k7_dimension_seven():
    start = time.perf_counter()
    g = all_negative_complete(7)
    result = bdim_search(g)
    assert result.dimension == 7
    assert is_k_positive(g, result.witness)
    _report(13, "all-negative K7 has dimension 7 with a positive witness", time.perf_counter() - start, 30.0)
