"""Structural facts about signed-graph products, checked mechanically.

Each claim pairs an instance generator with a pure pass/fail predicate over
serializable instance payloads. Claims of one theorem shape share one instance
family and one relation that takes the product kind. A failing claim reports
the first failing payload, which can be re-checked standalone; a pass means
only that no counterexample was found among the generated instances at the
given trial count.
Runs are deterministic for a fixed seed.
"""

import json
import random
import time
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator

from .bdim import BdimCapExceededError, bdim_search, is_k_positive
from .core import (
    SignedGraph,
    all_negative_complete,
    all_positive_complete,
    apply_switching,
    build_graph,
    cycle_sign,
    is_all_positive,
    is_antibalanced,
    is_balanced,
    is_switching_equivalent,
    negate,
    null_graph,
    path_graph,
    unbalanced_cycle,
)
from .products import bcd_lex, cartesian, hg_lex, product, strong, tensor
from .tables import _clique_witness, table_witness

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class UnknownClaimError(ValueError):
    """Requested claim id does not exist."""


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    trials: int  # sizes the random instance families; 0 skips the claim
    instances: Callable[[int, random.Random], Iterable[dict]]
    holds: Callable[[dict], bool]


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    status: str
    instances_checked: int
    counterexample: dict | None
    elapsed: float


# -- payload helpers ---------------------------------------------------------
# Graphs embed in payloads as graph-document dicts ({"n", "edges"}) so that a
# counterexample serializes directly in the CLI document format.


def _gdoc(g: SignedGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, s] for u, v, s in g.edges]}


def _gfrom(doc: dict) -> SignedGraph:
    return SignedGraph(doc["n"], doc["edges"])


def _rand_sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _random_doc(rng: random.Random, n: int, balanced: int = 0) -> dict:
    """A random tree's pairs plus each other pair with probability 0.35, as a
    graph document. Each pair draws a random sign; balanced = 1 or -1 then
    signs every edge balanced * zeta[u] * zeta[v] for a random switching zeta.
    """
    signs = {}
    for v in range(1, n):
        u = rng.randrange(v)  # drawn before its sign, as the streams expect
        signs[(u, v)] = _rand_sign(rng)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in signs and rng.random() < 0.35:
                signs[(u, v)] = _rand_sign(rng)
    if balanced:
        zeta = [_rand_sign(rng) for _ in range(n)]
        for u, v in signs:
            signs[(u, v)] = balanced * zeta[u] * zeta[v]
    return {"n": n, "edges": [[u, v, s] for (u, v), s in sorted(signs.items())]}


def _random_connected(rng: random.Random, n: int) -> SignedGraph:
    return _gfrom(_random_doc(rng, n))


def _signatures(u: SignedGraph) -> Iterator[dict]:
    """Every signature of u's underlying graph, as a graph document."""
    for signs in iproduct((-1, 1), repeat=len(u.edges)):
        yield {"n": u.n, "edges": [[a, b, s] for (a, b, _), s in zip(u.edges, signs)]}


_SMALL = {
    "K2": path_graph(2),
    "P3": path_graph(3),
    "C3": unbalanced_cycle(3),
    "C4": unbalanced_cycle(4),
}
# C9's all-negative right factors, K2- and -P3
_NEGATED = (negate(_SMALL["K2"]), negate(_SMALL["P3"]))


def _bdim(g: SignedGraph) -> int:
    return bdim_search(g).dimension


def _exceeds(g: SignedGraph, cap: int) -> bool:
    """True when the balancing dimension is strictly greater than cap."""
    try:
        bdim_search(g, max_k=cap)
    except BdimCapExceededError:
        return True
    return False


# -- instance families and relations by product kind ------------------------


def _signed_pairs(lefts: tuple[str, ...], rights: tuple[str, ...]):
    """Every signature of each named left graph against each named right one."""
    for left, right in iproduct(lefts, rights):
        docs2 = list(_signatures(_SMALL[right]))
        for doc1 in _signatures(_SMALL[left]):
            for doc2 in docs2:
                yield {"g1": doc1, "g2": doc2}


def _balanced_factor_instances(trials: int, rng: random.Random, period: int):
    """Connected g1 against balanced connected g2, g2 on the left when swapped."""
    for t in range(trials):
        doc1 = _random_doc(rng, 2 + t % period)
        doc2 = _random_doc(rng, 2 + (t // period) % 2, balanced=1)
        yield {"g1": doc1, "g2": doc2, "swapped": t % 2 == 1}


def _transport_instances(trials: int, rng: random.Random):
    for t in range(trials):
        doc1 = _random_doc(rng, 2 + t % 3)
        doc2 = _random_doc(rng, 2 + (t // 2) % 2)
        zeta = [_rand_sign(rng) for _ in range(doc1["n"])]
        yield {"g1": doc1, "g2": doc2, "zeta": zeta}


def _allpos_factor_instances(trials: int, rng: random.Random):
    for t in range(trials):
        doc1 = _random_doc(rng, 2 + t % 3)
        yield {"g1": doc1, "g2": _gdoc(_SMALL["P3" if t % 2 else "K2"])}


def _left_and_product(kind: str, p: dict) -> tuple[SignedGraph, SignedGraph]:
    """g1 and its product with g2, g2 on the left when swapped."""
    g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
    if p.get("swapped"):
        return g1, product(kind, g2, g1)
    return g1, product(kind, g1, g2)


def _keeps_left_dimension(kind: str) -> Callable[[dict], bool]:
    """The product has g1's balancing dimension."""

    def holds(p: dict) -> bool:
        g1, prod = _left_and_product(kind, p)
        return _bdim(prod) == _bdim(g1)

    return holds


def _switch_left_factor(kind: str) -> Callable[[dict], bool]:
    """Switching g1 by zeta keeps the product in its switching class."""

    def holds(p: dict) -> bool:
        g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
        switched = apply_switching(g1, tuple(p["zeta"]))
        return is_switching_equivalent(
            product(kind, switched, g2), product(kind, g1, g2)
        )

    return holds


# -- claims ------------------------------------------------------------------


def _c2_instances(trials: int, rng: random.Random):
    for m in (3, 4, 5):
        for n in (3, 4, 5):
            expected = 2 if m > 3 and n > 3 else 3
            yield {"kind": "bdim", "m": m, "n": n, "expected": expected}
    for m in (4, 5, 6):
        for n in (4, 5, 6):
            yield {"kind": "table", "table": 1, "m": m, "n": n}
    for n in (4, 5, 6):
        yield {"kind": "table", "table": 2, "m": 3, "n": n}
    for m in (4, 5, 6):
        yield {"kind": "table", "table": 3, "m": m, "n": 3}
    yield {"kind": "table", "table": 4, "m": 3, "n": 3}


def _c2_holds(p: dict) -> bool:
    m, n = p["m"], p["n"]
    prod = cartesian(unbalanced_cycle(m), unbalanced_cycle(n))
    if p["kind"] == "bdim":
        return _bdim(prod) == p["expected"]
    return is_k_positive(prod, table_witness(p["table"], m, n))


def _c3_instances(trials: int, rng: random.Random):
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            yield {"kind": "bdim", "m": m, "n": n}
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
        yield {"kind": "table", "m": m, "n": n}


def _c3_holds(p: dict) -> bool:
    m, n = p["m"], p["n"]
    prod = cartesian(all_negative_complete(m), all_negative_complete(n))
    if p["kind"] == "bdim":
        return _bdim(prod) == _clique_witness(max(m, n)).k
    return is_k_positive(prod, table_witness(5, m, n))


def _c4_instances(trials: int, rng: random.Random):
    for t in range(trials):
        n = 2 + t % 3
        yield {"g": _random_doc(rng, n, balanced=-1), "n": n}


def _c4_holds(p: dict) -> bool:
    g, n = _gfrom(p["g"]), p["n"]
    return _bdim(cartesian(g, all_negative_complete(n))) == _clique_witness(n).k


def _c5_holds(p: dict) -> bool:
    g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
    expected = is_balanced(g1)[0] and is_all_positive(g2)
    return is_balanced(hg_lex(g1, g2))[0] == expected


def _c6_instances(trials: int, rng: random.Random):
    for p in _signed_pairs(("K2", "P3", "C3"), ("K2", "P3")):
        if any(s == -1 for _, _, s in p["g2"]["edges"]):
            yield p


def _c6_holds(p: dict) -> bool:
    return _exceeds(hg_lex(_gfrom(p["g1"]), _gfrom(p["g2"])), 2)


def _c7_instances(trials: int, rng: random.Random):
    for name in ("P3", "C3"):
        for doc in _signatures(_SMALL[name]):
            for k in (1, 2, 3):
                yield {"g": doc, "k": k}


def _c7_holds(p: dict) -> bool:
    g, k = _gfrom(p["g"]), p["k"]
    d = _bdim(g)
    nk = null_graph(k)
    return _bdim(hg_lex(nk, g)) == d and _bdim(hg_lex(g, nk)) == d


def _c9_instances(trials: int, rng: random.Random):
    for name in ("C3", "C4"):
        for doc1 in _signatures(_SMALL[name]):
            if is_antibalanced(_gfrom(doc1)):
                for g2 in _NEGATED:
                    yield {"g1": doc1, "g2": _gdoc(g2)}


def _c9_holds(p: dict) -> bool:
    return is_antibalanced(hg_lex(_gfrom(p["g1"]), _gfrom(p["g2"])))


def _c10_instances(trials: int, rng: random.Random):
    # the next orders, K2-[K3-] and K3-[K2-], are the all-negative complete
    # graph on 6 vertices (dimension 7): about 2 s of search each, too
    # slow for the default suite; larger orders wait for certificates
    yield {"m": 2, "n": 2}


def _c10_holds(p: dict) -> bool:
    m, n = p["m"], p["n"]
    prod = hg_lex(all_negative_complete(m), all_negative_complete(n))
    return _bdim(prod) == _clique_witness(m * n).k


def _c14_instances(trials: int, rng: random.Random):
    for t in range(trials):
        doc1 = _random_doc(rng, 2 + t % 2, balanced=1)
        n2 = 2 + (t // 2) % 2
        edges = [[u, v, _rand_sign(rng)] for u in range(n2) for v in range(u + 1, n2)]
        yield {"g1": doc1, "g2": {"n": n2, "edges": edges}}


def _c14_holds(p: dict) -> bool:
    g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
    return _bdim(bcd_lex(g1, g2)) == _bdim(g2)


def _c15_holds(p: dict) -> bool:
    g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
    both_balanced = is_balanced(g1)[0] and is_balanced(g2)[0]
    both_anti = is_antibalanced(g1) and is_antibalanced(g2)
    return is_balanced(tensor(g1, g2))[0] == (both_balanced or both_anti)


def _c16_instances(trials: int, rng: random.Random):
    yield {"kind": "strict"}
    yield {"kind": "equal"}
    for p in _balanced_factor_instances(trials, rng, 3):
        yield {"kind": "bound", **p}


def _c16_holds(p: dict) -> bool:
    if p["kind"] == "strict":
        return _c19_holds({"check": "tensor-collapse"}) and _clique_witness(3).k == 3
    if p["kind"] == "equal":
        prod = tensor(all_negative_complete(3), all_positive_complete(3))
        return _bdim(prod) == 3 == _clique_witness(3).k
    g1, prod = _left_and_product("tensor", p)
    return _bdim(prod) <= _bdim(g1)


def _c17_instances(trials: int, rng: random.Random):
    for t in range(trials):
        doc1 = _random_doc(rng, 2 + t % 2)
        doc2 = _random_doc(rng, 2 + (t // 2) % 2)
        z1 = [_rand_sign(rng) for _ in range(doc1["n"])]
        z2 = [_rand_sign(rng) for _ in range(doc2["n"])]
        yield {"g1": doc1, "g2": doc2, "z1": z1, "z2": z2}


def _c17_holds(p: dict) -> bool:
    g1, g2 = _gfrom(p["g1"]), _gfrom(p["g2"])
    s1 = apply_switching(g1, tuple(p["z1"]))
    s2 = apply_switching(g2, tuple(p["z2"]))
    return is_switching_equivalent(strong(s1, s2), strong(g1, g2))


def _c19_instances(trials: int, rng: random.Random):
    for check in (
        "lex-complete-embeds",
        "tensor-collapse",
        "strong-balanced",
        "lex-order-matters",
        "bcd-antibalance-gap",
    ):
        yield {"check": check}


def _c19_holds(p: dict) -> bool:
    check = p["check"]
    if check == "lex-complete-embeds":
        g = hg_lex(all_positive_complete(2), all_negative_complete(2))
        complete = all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))
        return (
            complete
            and is_antibalanced(g)
            and _bdim(g) == 3
            and _clique_witness(2).k == 1
        )
    if check == "tensor-collapse":
        prod = tensor(all_negative_complete(3), all_negative_complete(2))
        return is_balanced(prod)[0] and _bdim(prod) == 1
    if check == "strong-balanced":
        prod = strong(all_negative_complete(2), all_negative_complete(2))
        return is_balanced(prod)[0] and not is_antibalanced(prod)
    if check == "lex-order-matters":
        two_neg_triangle = build_graph(3, [(0, 1, -1), (1, 2, -1), (0, 2, 1)])
        k2 = all_positive_complete(2)
        return (
            is_balanced(two_neg_triangle)[0]
            and _bdim(hg_lex(two_neg_triangle, k2)) == 1
            and _exceeds(hg_lex(k2, two_neg_triangle), 2)
        )
    if check == "bcd-antibalance-gap":
        g1 = build_graph(3, [(0, 1, -1), (1, 2, 1)])
        g2 = all_negative_complete(2)
        prod = bcd_lex(g1, g2)
        triangle_in_negation = cycle_sign(negate(prod), (0, 2, 3)) == -1
        return (
            is_antibalanced(g1)
            and triangle_in_negation
            and not is_antibalanced(prod)
        )
    raise ValueError(f"unknown check {check!r}")


_CLAIMS = (
    Claim(
        "C1",
        "Cartesian product with a balanced factor keeps the unbalanced "
        "factor's balancing dimension",
        18,
        lambda trials, rng: _balanced_factor_instances(trials, rng, 3),
        _keeps_left_dimension("cartesian"),
    ),
    Claim(
        "C2",
        "Cartesian products of one-negative cycles have dimension 2 when "
        "both orders exceed 3, otherwise 3; the tabulated assignments "
        "witness both cases",
        1,
        _c2_instances,
        _c2_holds,
    ),
    Claim(
        "C3",
        "Cartesian products of all-negative complete graphs take the "
        "dimension of the larger factor; the cyclic shift of the larger "
        "factor's witness certifies it",
        1,
        _c3_instances,
        _c3_holds,
    ),
    Claim(
        "C4",
        "An antibalanced graph on n vertices times the all-negative "
        "complete graph on n vertices has that complete graph's dimension",
        9,
        _c4_instances,
        _c4_holds,
    ),
    Claim(
        "C5",
        "First-convention lexicographic product is balanced exactly when "
        "the left factor is balanced and the right factor is all-positive",
        1,
        lambda trials, rng: _signed_pairs(("P3", "C3", "C4"), ("K2", "P3")),
        _c5_holds,
    ),
    Claim(
        "C6",
        "A negative edge in the right factor forces first-convention "
        "lexicographic dimension at least 3",
        1,
        _c6_instances,
        _c6_holds,
    ),
    Claim(
        "C7",
        "Composing with an edgeless graph on either side preserves "
        "balancing dimension",
        1,
        _c7_instances,
        _c7_holds,
    ),
    Claim(
        "C8",
        "Switching the left factor keeps the first-convention "
        "lexicographic product in the same switching class",
        100,
        _transport_instances,
        _switch_left_factor("hg_lex"),
    ),
    Claim(
        "C9",
        "Antibalanced left factor and all-negative right factor give an "
        "antibalanced first-convention lexicographic product",
        1,
        _c9_instances,
        _c9_holds,
    ),
    Claim(
        "C10",
        "All-negative complete factors compose to the all-negative "
        "complete graph on the product order, with matching dimension",
        1,
        _c10_instances,
        _c10_holds,
    ),
    Claim(
        "C11",
        "All-positive right factor preserves the left factor's dimension "
        "under the first-convention lexicographic product",
        20,
        _allpos_factor_instances,
        _keeps_left_dimension("hg_lex"),
    ),
    Claim(
        "C12",
        "Switching the left factor keeps the second-convention "
        "lexicographic product in the same switching class",
        100,
        _transport_instances,
        _switch_left_factor("bcd_lex"),
    ),
    Claim(
        "C13",
        "All-positive right factor preserves the left factor's dimension "
        "under the second-convention lexicographic product",
        20,
        _allpos_factor_instances,
        _keeps_left_dimension("bcd_lex"),
    ),
    Claim(
        "C14",
        "Balanced left factor and complete right factor: the "
        "second-convention lexicographic product takes the right "
        "factor's dimension",
        12,
        _c14_instances,
        _c14_holds,
    ),
    Claim(
        "C15",
        "Tensor product of connected factors is balanced exactly when "
        "both are balanced or both are antibalanced",
        1,
        lambda trials, rng: _signed_pairs(("K2", "P3", "C3"), ("K2", "P3", "C3")),
        _c15_holds,
    ),
    Claim(
        "C16",
        "Tensor product with a balanced factor never exceeds the other "
        "factor's dimension; both strict drop and equality occur",
        16,
        _c16_instances,
        _c16_holds,
    ),
    Claim(
        "C17",
        "Switching either strong-product factor keeps the product in the "
        "same switching class",
        100,
        _c17_instances,
        _c17_holds,
    ),
    Claim(
        "C18",
        "Strong product with a balanced factor keeps the unbalanced "
        "factor's balancing dimension",
        12,
        lambda trials, rng: _balanced_factor_instances(trials, rng, 2),
        _keeps_left_dimension("strong"),
    ),
    Claim(
        "C19",
        "Worked examples: the 4-vertex antibalanced complete composition, "
        "a dimension-collapsing tensor, a balanced-but-not-antibalanced "
        "strong square, composition-order asymmetry, and the "
        "second-convention antibalance gap",
        1,
        _c19_instances,
        _c19_holds,
    ),
)
_REGISTRY = {claim.claim_id: claim for claim in _CLAIMS}
CLAIM_IDS = tuple(_REGISTRY)


def _claim(claim_id: str) -> Claim:
    try:
        return _REGISTRY[claim_id]
    except KeyError:
        raise UnknownClaimError(f"unknown claim id: {claim_id}") from None


def run_claims(
    selection: str | Iterable[str] = "all",
    seed: int = 0,
    trials: int | None = None,
) -> list[ClaimReport]:
    """Run the selected claims and return one report per claim.

    Selection is "all", one claim id or a non-empty iterable of ids. Reports
    come back in registry (claim-id) order whatever the selection order. A
    fixed seed, an exact int, gives identical instance streams across runs.
    Trials, an int >= 0, replaces each selected claim's trial count; 0 skips.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if trials is not None and (type(trials) is not int or trials < 0):
        raise ValueError(f"trial count must be an int >= 0, got {trials!r}")
    if selection == "all":
        ids = list(_REGISTRY)
    else:
        requested = [selection] if isinstance(selection, str) else list(selection)
        if not requested:
            raise UnknownClaimError("no claim ids selected")
        unknown = [cid for cid in requested if cid not in _REGISTRY]
        if unknown:
            raise UnknownClaimError(f"unknown claim ids: {unknown}")
        ids = [cid for cid in _REGISTRY if cid in requested]
    reports = []
    for cid in ids:
        claim = _REGISTRY[cid]
        count = claim.trials if trials is None else trials
        start = time.perf_counter()
        checked, counterexample, status = 0, None, SKIPPED
        if count != 0:
            status = PASS
            for payload in claim.instances(count, random.Random(f"{seed}:{cid}")):
                checked += 1
                if not claim.holds(payload):
                    counterexample, status = payload, FAIL
                    break
        elapsed = time.perf_counter() - start
        reports.append(ClaimReport(cid, status, checked, counterexample, elapsed))
    return reports


def recheck_counterexample(claim_id: str, payload: dict) -> bool:
    """Re-run one claim instance standalone; False reproduces the failure."""
    return _claim(claim_id).holds(payload)


def claim_description(claim_id: str) -> str:
    return _claim(claim_id).description


def format_report(report: ClaimReport) -> str:
    line = (
        f"{report.claim_id:<4} {report.status:<7} "
        f"{report.instances_checked:>5} instances  {report.elapsed:8.2f}s"
    )
    if report.counterexample is not None:
        line += f"\n     counterexample: {json.dumps(report.counterexample)}"
    return line


def report_record(report: ClaimReport) -> dict:
    """Machine-readable form of one report."""
    return {
        "id": report.claim_id,
        "status": report.status,
        "instances_checked": report.instances_checked,
        "elapsed": report.elapsed,
        "counterexample": report.counterexample,
        "description": claim_description(report.claim_id),
    }
