"""Command-line behavior: pipelines, documents, exit codes, DOT output."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from sgraph import (
    GraphDocument,
    WitnessDocument,
    all_negative_complete,
    bcd_lex,
    cartesian,
    hg_lex,
    is_k_positive,
    path_graph,
    strong,
    tensor,
    unbalanced_cycle,
)
from sgraph.cli import FAMILIES, main
from sgraph.verify import CLAIM_IDS, run_claims


def run_cli(args, monkeypatch=None, stdin=""):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    return main(args)


def test_gen_emits_graph_document(capsys):
    assert main(["gen", "antibalanced-complete", "3"]) == 0
    doc = GraphDocument.from_json(capsys.readouterr().out)
    assert doc.graph == all_negative_complete(3)
    assert doc.name == "antibalanced-complete-3"


def test_gen_unknown_family_is_input_error(capsys):
    assert main(["gen", "moebius", "5"]) == 2
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,order,edges,negatives",
    [
        ("all-positive-complete", 4, 6, 0),
        ("all-negative-complete", 4, 6, 6),
        ("antibalanced-complete", 3, 3, 3),
        ("unbalanced-cycle", 5, 5, 1),
        ("path-all-positive", 4, 3, 0),
        ("null-graph", 3, 0, 0),
    ],
)
def test_gen_all_families(capsys, family, order, edges, negatives):
    assert main(["gen", family, str(order)]) == 0
    doc = GraphDocument.from_json(capsys.readouterr().out)
    assert doc.graph.n == order
    assert len(doc.graph.edges) == edges
    assert sum(1 for _, _, s in doc.graph.edges if s == -1) == negatives


def test_gen_bad_order_is_input_error(capsys):
    assert main(["gen", "unbalanced-cycle", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_order_zero_is_input_error(capsys, family):
    assert main(["gen", family, "0"]) == 2
    assert capsys.readouterr().err == f"error: {family} needs order >= 1, got 0\n"


def test_bdim_of_antibalanced_triangle(capsys, monkeypatch):
    main(["gen", "antibalanced-complete", "3"])
    doc = capsys.readouterr().out
    assert run_cli(["bdim", "-"], monkeypatch, stdin=doc) == 0
    assert "bdim = 3" in capsys.readouterr().out


def test_cycle_product_pipeline(tmp_path, capsys):
    a = tmp_path / "a.json"
    main(["gen", "unbalanced-cycle", "4"])
    a.write_text(capsys.readouterr().out)
    prod = tmp_path / "prod.json"
    assert main(["product", "cartesian", str(a), str(a)]) == 0
    prod.write_text(capsys.readouterr().out)
    assert main(["bdim", str(prod)]) == 0
    assert "bdim = 2" in capsys.readouterr().out


def test_balance_output(capsys, monkeypatch):
    main(["gen", "path-all-positive", "3"])
    doc = capsys.readouterr().out
    assert run_cli(["balance", "-"], monkeypatch, stdin=doc) == 0
    out = capsys.readouterr().out
    assert "balanced: true" in out
    assert "antibalanced: true" in out  # forests are both
    assert "witness: [1, 1, 1]" in out


def test_balance_unbalanced_has_no_witness(capsys, monkeypatch):
    main(["gen", "unbalanced-cycle", "4"])
    doc = capsys.readouterr().out
    run_cli(["balance", "-"], monkeypatch, stdin=doc)
    out = capsys.readouterr().out
    assert "balanced: false" in out
    assert "witness" not in out


def test_bdim_witness_file_and_oracle(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "unbalanced-cycle", "5"])
    g.write_text(capsys.readouterr().out)
    wfile = tmp_path / "w.json"
    assert main(["bdim", str(g), "--witness", str(wfile), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "bdim = 2" in out
    assert "oracle = 2 (agrees)" in out
    text = wfile.read_text()
    witness = WitnessDocument.from_json(text)
    assert is_k_positive(unbalanced_cycle(5), witness.switching)
    # a written document ends as a printed one does
    assert text == witness.to_json() + "\n"


def test_unwritable_witness_path_is_input_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "unbalanced-cycle", "4"])
    g.write_text(capsys.readouterr().out)
    target = tmp_path / "missing" / "w.json"
    assert main(["bdim", str(g), "--witness", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "bdim = 2\n"
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_bdim_cap_exceeded_exits_one(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "antibalanced-complete", "3"])
    g.write_text(capsys.readouterr().out)
    assert main(["bdim", str(g), "--max-k", "2"]) == 1
    assert "no positive switching" in capsys.readouterr().err


def test_bdim_max_k_below_one_is_input_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "antibalanced-complete", "3"])
    g.write_text(capsys.readouterr().out)
    assert main(["bdim", str(g), "--max-k", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["bdim", str(g), "--max-k", "-3", "--oracle"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_fault_propagates(tmp_path, capsys, monkeypatch):
    import sgraph.cli as cli_module
    from sgraph.bdim import DimensionMismatchError

    g = tmp_path / "g.json"
    main(["gen", "antibalanced-complete", "3"])
    g.write_text(capsys.readouterr().out)

    def broken_search(graph, max_k=None):
        raise DimensionMismatchError("dimension mismatch: 2 vs 3")

    monkeypatch.setattr(cli_module, "bdim_search", broken_search)
    with pytest.raises(DimensionMismatchError):
        main(["bdim", str(g)])


def test_product_carries_pair_labels(tmp_path, capsys):
    a = tmp_path / "a.json"
    main(["gen", "unbalanced-cycle", "3"])
    a.write_text(capsys.readouterr().out)
    assert main(["product", "tensor", str(a), str(a)]) == 0
    doc = GraphDocument.from_json(capsys.readouterr().out)
    assert doc.vertex_labels == tuple(f"{i},{j}" for i in range(3) for j in range(3))
    assert doc.graph == tensor(unbalanced_cycle(3), unbalanced_cycle(3))


def test_product_unknown_kind(tmp_path, capsys):
    a = tmp_path / "a.json"
    main(["gen", "unbalanced-cycle", "3"])
    a.write_text(capsys.readouterr().out)
    assert main(["product", "zigzag", str(a), str(a)]) == 2


def test_switch_applies_witness(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "antibalanced-complete", "3"])
    g.write_text(capsys.readouterr().out)
    w = tmp_path / "w.json"
    assert main(["bdim", str(g), "--witness", str(w)]) == 0
    capsys.readouterr()
    assert main(["switch", str(g), str(w)]) == 0
    doc = GraphDocument.from_json(capsys.readouterr().out)
    assert all(s == 1 for _, _, s in doc.graph.edges)


def test_switch_scalar_witness(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "path-all-positive", "3"])
    g.write_text(capsys.readouterr().out)
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"k": 1, "zeta": [[1], [-1], [1]]}))
    assert main(["switch", str(g), str(w)]) == 0
    doc = GraphDocument.from_json(capsys.readouterr().out)
    assert doc.graph.edges == ((0, 1, -1), (1, 2, -1))


def test_witness_table_command(capsys):
    assert main(["witness-table", "1", "4", "4"]) == 0
    captured = capsys.readouterr()
    witness = WitnessDocument.from_json(captured.out)
    assert witness.switching.k == 2
    assert "k-positive: true" in captured.err

    assert main(["witness-table", "5", "4", "3"]) == 0
    captured = capsys.readouterr()
    assert WitnessDocument.from_json(captured.out).switching.k == 3
    assert "k-positive: true" in captured.err


def test_witness_table_bad_parameters(capsys):
    assert main(["witness-table", "1", "3", "3"]) == 2
    assert main(["witness-table", "9", "4", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("m, n", [(8, 9), (9, 10), (3, 0)])
def test_witness_table_five_checks_orders_before_searching(m, n, capsys, monkeypatch):
    import sgraph.cli as cli_module
    import sgraph.tables as tables_module

    def no_search(*args, **kwargs):
        raise AssertionError("bdim_search called")

    monkeypatch.setattr(tables_module, "bdim_search", no_search)
    monkeypatch.setattr(cli_module, "bdim_search", no_search)
    assert main(["witness-table", "5", str(m), str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: table 5 needs m >= n >= 1, got ({m},{n})\n"
    assert captured.out == ""


def test_export_dot_is_deterministic(capsys, monkeypatch):
    main(["gen", "unbalanced-cycle", "3"])
    doc = capsys.readouterr().out
    run_cli(["export-dot", "-"], monkeypatch, stdin=doc)
    first = capsys.readouterr().out
    run_cli(["export-dot", "-"], monkeypatch, stdin=doc)
    second = capsys.readouterr().out
    assert first == second
    assert "0 -- 1 [style=dashed];" in first
    assert "0 -- 2 [style=solid];" in first
    assert first.startswith('graph "unbalanced-cycle-3" {')


def test_verify_subcommand(tmp_path, capsys):
    records = tmp_path / "records.json"
    assert main(["verify", "--claims", "C15,C19", "--json", str(records)]) == 0
    out = capsys.readouterr().out
    assert "C15" in out and "C19" in out and "2/2 claims passed" in out
    text = records.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=1) + "\n"
    assert [r["id"] for r in data] == ["C15", "C19"]
    assert all(r["status"] == "pass" for r in data)


def test_unwritable_records_path_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "records.json"
    assert main(["verify", "--claims", "C19", "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert "C19" in captured.out
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_verify_unknown_claim(capsys):
    assert main(["verify", "--claims", "C99"]) == 2
    assert "unknown claim" in capsys.readouterr().err


@pytest.mark.parametrize("claims", [",", "", " , "])
def test_verify_empty_selection_is_input_error(claims, capsys):
    assert main(["verify", "--claims", claims]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no claim ids selected\n"
    assert captured.out == ""


def test_verify_exits_nonzero_on_failure(capsys, monkeypatch):
    import sgraph.cli as cli_module
    from sgraph.verify import ClaimReport

    def fake_run_claims(selection, seed=0, trials=None):
        return [ClaimReport("C1", "fail", 7, {"broken": True}, 0.01)]

    monkeypatch.setattr(cli_module, "run_claims", fake_run_claims)
    assert main(["verify", "--claims", "C1"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "counterexample" in out and "0/1 claims passed" in out


def test_verify_trials_override(capsys):
    assert main(["verify", "--claims", "C8", "--trials", "3"]) == 0
    assert "3 instances" in capsys.readouterr().out


def test_trials_help_names_the_claims_sized_by_the_count(capsys):
    counts = {}
    for trials in (1, 2):
        counts[trials] = [r.instances_checked for r in run_claims(trials=trials)]
    sized = [cid for cid, a, b in zip(CLAIM_IDS, counts[1], counts[2]) if a != b]
    assert main(["verify", "--help"]) == 0
    help_text = capsys.readouterr().out.split("--trials TRIALS")[-1]
    assert re.findall(r"\bC\d+\b", help_text) == sized


def test_verify_negative_trials_is_input_error(capsys):
    assert main(["verify", "--claims", "C8", "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be >= 0, got -3\n"
    assert captured.out == ""


def test_bdim_oracle_agrees_across_corpus(tmp_path, capsys):
    import helpers

    for i, g in enumerate(helpers.oracle_corpus(count=24)):
        path = tmp_path / f"g{i}.json"
        path.write_text(GraphDocument(g).to_json())
        assert main(["bdim", str(path), "--oracle"]) == 0
        assert "(agrees)" in capsys.readouterr().out


def test_malformed_document_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["balance", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 2, "edges": [[0, 0, 1]]}))
    assert main(["balance", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]], "bogus": 1}))
    assert main(["balance", str(bad)]) == 2
    assert main(["balance", str(tmp_path / "missing.json")]) == 2
    bad.write_bytes(b'\xff{"n": 1, "edges": []}')
    assert main(["balance", str(bad)]) == 2
    bad.write_text('{"n": 3, "edges": [[0, 1, ' + "1" * 5000 + "]]}")
    assert main(["balance", str(bad)]) == 2
    capsys.readouterr()


def test_malformed_witness_is_input_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "path-all-positive", "3"])
    g.write_text(capsys.readouterr().out)
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"k": 1, "zeta": [[1], [3], [1]]}))
    assert main(["switch", str(g), str(w)]) == 2
    w.write_text(json.dumps({"k": 2, "zeta": [[1], [1], [1]]}))
    assert main(["switch", str(g), str(w)]) == 2
    w.write_text(json.dumps({"k": 1, "zeta": [[1], [1]]}))
    assert main(["switch", str(g), str(w)]) == 2
    w.write_text(json.dumps({"k": 2, "zeta": [[1, 0], [0, 1], [1, 0]]}))
    assert main(["switch", str(g), str(w)]) == 2
    capsys.readouterr()


def test_deeply_nested_documents_are_input_errors(tmp_path, capsys):
    nested = "[" * 100_000 + "]" * 100_000
    g = tmp_path / "g.json"
    g.write_text('{"n": 1, "edges": ' + nested + "}")
    assert main(["balance", str(g)]) == 2
    assert capsys.readouterr().err.startswith("error: graph document is not valid JSON: ")
    main(["gen", "path-all-positive", "3"])
    g.write_text(capsys.readouterr().out)
    w = tmp_path / "w.json"
    w.write_text('{"k": 1, "zeta": ' + nested + "}")
    assert main(["switch", str(g), str(w)]) == 2
    assert capsys.readouterr().err.startswith("error: witness document is not valid JSON: ")


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_documents_round_trip_over_corpus():
    graphs = [
        all_negative_complete(4),
        unbalanced_cycle(5),
        path_graph(3),
        cartesian(unbalanced_cycle(3), unbalanced_cycle(4)),
        hg_lex(path_graph(3), all_negative_complete(2)),
        bcd_lex(path_graph(3), all_negative_complete(2)),
        tensor(unbalanced_cycle(3), path_graph(2)),
        strong(all_negative_complete(2), all_negative_complete(2)),
    ]
    for g in graphs:
        doc = GraphDocument(g, name="x", vertex_labels=tuple(str(v) for v in range(g.n)))
        assert GraphDocument.from_json(doc.to_json()) == doc
        bare = GraphDocument(g)
        assert GraphDocument.from_json(bare.to_json()) == bare
        assert GraphDocument.from_json(bare.to_json()).graph == g


def test_python_dash_m_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "sgraph", "gen", "unbalanced-cycle", "4"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert GraphDocument.from_json(proc.stdout).graph == unbalanced_cycle(4)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "all-negative-complete", "200"],  # larger than a pipe buffer
        ["witness-table", "5", "4", "3"],  # small: the pipe breaks on the flush
        ["verify", "--claims", "C8"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sgraph", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            check=False,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys):
    import sgraph.cli as cli_module

    records = tmp_path / "records.json"
    calls = [
        ["gen", "unbalanced-cycle", "4"],
        ["no-such-command"],
        ["gen", "path-all-positive"],
        ["verify", "--claims", "C15", "--json", str(records)],
        ["witness-table", "1", "4", "5"],
        ["gen", "null-graph", "2"],
    ]

    def run(argv):  # claim timings are the only part allowed to differ
        code = main(argv)
        out, err = capsys.readouterr()
        written = None
        if argv[0] == "verify":
            written = [{**r, "elapsed": None} for r in json.loads(records.read_text())]
        return code, re.sub(r"\d+\.\d+s\b", "<time>", out), err, written

    fresh = []
    for argv in calls:
        cli_module._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [result[0] for result in fresh] == [0, 2, 2, 0, 0, 0]
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
