"""The claim engine: selection, determinism, budgets, and self-certifying
counterexamples."""

import dataclasses
import hashlib
import json
import random

import pytest

from sgraph import (
    UnknownClaimError,
    claim_description,
    format_report,
    recheck_counterexample,
    report_record,
    run_claims,
)
from sgraph import verify
from sgraph.verify import CLAIM_IDS


def test_registry_has_all_nineteen_claims():
    assert CLAIM_IDS == tuple(f"C{i}" for i in range(1, 20))
    for cid in CLAIM_IDS:
        assert claim_description(cid)


def test_single_claim_run():
    (report,) = run_claims(["C2"])
    assert report.claim_id == "C2"
    assert report.status == "pass"
    assert report.instances_checked == 25  # 9 dimension checks + 16 table checks
    assert report.counterexample is None


def test_cheap_claims_pass():
    reports = run_claims(["C5", "C9", "C15", "C19"])
    assert [r.claim_id for r in reports] == ["C5", "C9", "C15", "C19"]
    assert all(r.status == "pass" for r in reports)


def test_selection_returns_registry_order():
    reports = run_claims(["C15", "C5"])
    assert [r.claim_id for r in reports] == ["C5", "C15"]


def test_unknown_claim_id():
    with pytest.raises(UnknownClaimError):
        run_claims(["C99"])
    with pytest.raises(UnknownClaimError):
        recheck_counterexample("C99", {})
    with pytest.raises(UnknownClaimError):
        claim_description("nope")
    for empty in ([], (), iter([])):
        with pytest.raises(UnknownClaimError, match="^no claim ids selected$"):
            run_claims(empty)


def test_a_single_id_string_selects_one_claim():
    (report,) = run_claims("C2")
    assert (report.claim_id, report.instances_checked) == ("C2", 25)
    with pytest.raises(UnknownClaimError, match=r"\['C99'\]"):
        run_claims("C99")


def test_runs_are_deterministic_for_a_seed():
    first = run_claims(["C8", "C17"], seed=42)
    second = run_claims(["C8", "C17"], seed=42)
    for a, b in zip(first, second):
        assert (a.claim_id, a.status, a.instances_checked, a.counterexample) == (
            b.claim_id,
            b.status,
            b.instances_checked,
            b.counterexample,
        )


def test_trials_zero_skips():
    reports = run_claims(["C8", "C19"], trials=0)
    assert [r.status for r in reports] == ["skipped", "skipped"]
    assert [r.instances_checked for r in reports] == [0, 0]


def test_budget_override_limits_trials():
    (report,) = run_claims(["C8"], trials=5)
    assert report.status == "pass"
    assert report.instances_checked == 5


def test_negative_trial_override_is_rejected():
    # one count for every claim, so it must be an exact int: not a float,
    # bool or string that happens to compare as one
    for trials, shown in ((-2, "-2"), (1.0, r"1\.0"), (True, "True"), ("3", "'3'")):
        with pytest.raises(ValueError, match=rf"^trial count must be an int >= 0, got {shown}$"):
            run_claims(["C1"], trials=trials)


def test_seed_must_be_an_exact_int(monkeypatch):
    # streams are named f"{seed}:{cid}", so True, 1.0 and "1" would name other
    # streams than 1; each is refused before any claim draws an instance
    claim = verify._REGISTRY["C4"]
    drawn = []

    def instances(trials, rng):
        drawn.append(rng)
        return claim.instances(trials, rng)

    monkeypatch.setitem(verify._REGISTRY, "C4", dataclasses.replace(claim, instances=instances))
    for seed, shown in ((True, "True"), (1.0, r"1\.0"), ("1", "'1'"), (None, "None")):
        with pytest.raises(ValueError, match=rf"^seed must be an int, got {shown}$") as err:
            run_claims(["C4"], seed=seed)
        assert type(err.value) is ValueError
    assert drawn == []
    # negative seeds stay valid: the console takes --seed -1
    (report,) = run_claims(["C4"], seed=-1, trials=3)
    assert (report.status, report.instances_checked, len(drawn)) == ("pass", 3, 1)


def test_counterexamples_recheck_standalone():
    # a true instance passes, a doctored expectation reproduces its failure
    true_payload = {"kind": "bdim", "m": 3, "n": 3, "expected": 3}
    assert recheck_counterexample("C2", true_payload) is True
    broken_payload = {"kind": "bdim", "m": 3, "n": 3, "expected": 99}
    assert recheck_counterexample("C2", broken_payload) is False


def test_c6_recheck_fails_when_the_dimension_stays_within_the_cap():
    # with no negative edge in g2 the product stays balanced, so the bound fails
    payload = {
        "g1": {"n": 3, "edges": [[0, 1, 1], [1, 2, 1]]},
        "g2": {"n": 2, "edges": [[0, 1, 1]]},
    }
    assert recheck_counterexample("C6", payload) is False


def test_c19_recheck_refuses_an_unknown_check():
    with pytest.raises(ValueError) as err:
        recheck_counterexample("C19", {"check": "nope"})
    assert str(err.value) == "unknown check 'nope'"


def test_report_records_are_json_serializable():
    reports = run_claims(["C19"])
    records = [report_record(r) for r in reports]
    text = json.dumps(records)
    parsed = json.loads(text)
    assert parsed[0]["id"] == "C19"
    assert parsed[0]["status"] == "pass"
    assert parsed[0]["instances_checked"] == 5
    assert "description" in parsed[0]


def test_format_report_lines():
    (report,) = run_claims(["C10"])
    line = format_report(report)
    assert "C10" in line and "pass" in line and "1 instances" in line


# Instance count and sha256 (first 16 hex digits) of json.dumps of the whole
# payload list of each claim at its default budget, recorded before the claims
# were folded into shared instance families; payload contents and key order
# are part of the pinned stream.
_STREAMS = {
    0: {
        "C1": (18, "4aeab2e41939dfe1"),
        "C2": (25, "e80060574808e990"),
        "C3": (14, "b54c1e554e1b1865"),
        "C4": (9, "f45aca9e877422fb"),
        "C5": (168, "f83bb394b5c4758e"),
        "C6": (56, "9af838dd00c00847"),
        "C7": (36, "f59dffd3b3779470"),
        "C8": (100, "946a2b1743c0f7bf"),
        "C9": (24, "9fd7303138b026df"),
        "C10": (1, "fcb62bb1222804a6"),
        "C11": (20, "c4094828a5775c24"),
        "C12": (100, "0f2ebf342466dc48"),
        "C13": (20, "3fd2e9fa43a0c819"),
        "C14": (12, "27f4c0f9db30bbb3"),
        "C15": (196, "4946fc830a46abb7"),
        "C16": (18, "2687917493666e13"),
        "C17": (100, "a8c1e1c43f1a1a21"),
        "C18": (12, "462ca113b0d98fda"),
        "C19": (5, "6c221ebee6d1b11e"),
    },
    1: {
        "C1": (18, "c14a271f21233ef1"),
        "C2": (25, "e80060574808e990"),
        "C3": (14, "b54c1e554e1b1865"),
        "C4": (9, "924f7ec12610b12c"),
        "C5": (168, "f83bb394b5c4758e"),
        "C6": (56, "9af838dd00c00847"),
        "C7": (36, "f59dffd3b3779470"),
        "C8": (100, "bd39b81f255d55b8"),
        "C9": (24, "9fd7303138b026df"),
        "C10": (1, "fcb62bb1222804a6"),
        "C11": (20, "c4a4c68195493202"),
        "C12": (100, "12802e266b231a34"),
        "C13": (20, "7815866393e254aa"),
        "C14": (12, "e1073dda4ee87048"),
        "C15": (196, "4946fc830a46abb7"),
        "C16": (18, "e205e58fb22de28d"),
        "C17": (100, "541473b9b551c8ff"),
        "C18": (12, "e71303029ad4727f"),
        "C19": (5, "6c221ebee6d1b11e"),
    },
}
# sha256 of json.dumps of the report records of a full run, without elapsed
_RECORDS_DIGEST = "edf908823894f0b0"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(_STREAMS))
def test_claim_streams_and_records_are_pinned(seed):
    records = []
    for report in run_claims(seed=seed):
        cid = report.claim_id
        claim = verify._REGISTRY[cid]
        payloads = list(claim.instances(claim.trials, random.Random(f"{seed}:{cid}")))
        assert (len(payloads), _digest(payloads)) == _STREAMS[seed][cid], cid
        record = report_record(report)
        del record["elapsed"]
        assert record == {
            "id": cid,
            "status": "pass",
            "instances_checked": len(payloads),
            "counterexample": None,
            "description": claim_description(cid),
        }
        records.append(record)
    assert [r["id"] for r in records] == list(CLAIM_IDS)
    assert _digest(records) == _RECORDS_DIGEST


def _stream(cid: str, seed: int) -> list[dict]:
    claim = verify._REGISTRY[cid]
    return list(claim.instances(claim.trials, random.Random(f"{seed}:{cid}")))


def test_instance_families_build_payload_documents_without_graphs(monkeypatch):
    # payloads are documents from the start; only C9's antibalance filter
    # builds a graph, one per signature of C3 and C4 (24 per seed)
    built = []
    post_init = verify.SignedGraph.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(verify.SignedGraph, "__post_init__", counting)
    for seed in range(6):
        for cid in CLAIM_IDS:
            _stream(cid, seed)
    assert len(built) <= 144


@pytest.mark.parametrize("seed", [0, 1])
def test_parsed_payloads_recheck(seed):
    # a counterexample comes back from JSON with list rows
    for cid in CLAIM_IDS:
        for payload in _stream(cid, seed):
            assert recheck_counterexample(cid, json.loads(json.dumps(payload))) is True, cid


def test_mutated_payloads_leave_later_streams_unchanged():
    for cid in CLAIM_IDS:
        for payload in _stream(cid, 0):
            for key in ("g", "g1", "g2"):
                if key in payload:
                    for row in payload[key]["edges"]:
                        row[2] = -row[2]
                    payload[key]["edges"].append([0, 1, 1])
        payloads = _stream(cid, 0)
        assert (len(payloads), _digest(payloads)) == _STREAMS[0][cid], cid



def test_first_failing_payload_stops_its_claim(monkeypatch):
    # C2 fails on its third payload: the run checks no further C2 payload,
    # reports that one as the counterexample and still runs C5
    seen = []

    def holds(payload):
        seen.append(payload)
        return len(seen) != 3

    claim = dataclasses.replace(verify._REGISTRY["C2"], holds=holds)
    monkeypatch.setitem(verify._REGISTRY, "C2", claim)
    c2, c5 = run_claims(["C2", "C5"])
    assert (c2.status, c2.instances_checked, len(seen)) == ("fail", 3, 3)
    assert c2.counterexample == _stream("C2", 0)[2]
    assert "counterexample: " in format_report(c2)
    assert (c5.claim_id, c5.status) == ("C5", "pass")
