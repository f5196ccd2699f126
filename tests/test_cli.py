from __future__ import annotations

import json
import os
import re
import textwrap
from pathlib import Path

import pytest

from cubesym import autgroup, cli
from cubesym.cli import main
from cubesym.graphio import from_graph6


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_graph6_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "gen", "folded", "-n", "4", "--format", "graph6")
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n_vertices == 16 and g.degree(0) == 5


def test_gen_edgelist_and_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "gen", "hamming", "-m", "3", "-n", "2",
                    "--format", "edgelist")
    assert code == 0
    assert len(out.strip().splitlines()) == 18
    code, out = run(capsys, "gen", "enhanced", "-n", "3", "-k", "2")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 16


def test_param_reports(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, "param", "det", "augmented", "-n", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 2 and rep["parameter"] == "det"
    code, out = run(capsys, "param", "cost", "hypercube", "-n", "4")
    assert code == 0
    assert json.loads(out)["value"] == 5
    code, out = run(capsys, "param", "aut-order", "folded", "-n", "4")
    assert json.loads(out)["value"] == 1920
    code, out = run(capsys, "param", "transitivity", "augmented", "-n", "4")
    val = json.loads(out)["value"]
    assert val["vertex_transitive"] and not val["edge_transitive"]


def test_param_oracle_crosscheck(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, "param", "det", "locally-twisted", "-n", "4",
                    "--oracle", "--no-cache")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 1 and rep["oracle_agrees"] is True


def test_cache_hit_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code1, out1 = run(capsys, "param", "det", "folded", "-n", "4")
    code2, out2 = run(capsys, "param", "det", "folded", "-n", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    # cache off computes the same values and witnesses
    code3, out3 = run(capsys, "param", "det", "folded", "-n", "4",
                      "--no-cache", "--witness")
    code4, out4 = run(capsys, "param", "det", "folded", "-n", "4",
                      "--no-cache", "--witness")
    r3, r4 = json.loads(out3), json.loads(out4)
    r3.pop("elapsed_ms"), r4.pop("elapsed_ms")
    assert r3 == r4
    base = json.loads(out1)
    assert base["value"] == r3["value"]


def test_witness_verify_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    for args in (("param", "det", "folded", "-n", "5", "--witness"),
                 ("param", "dist", "augmented", "-n", "4", "--witness"),
                 ("param", "cost", "locally-twisted", "-n", "4", "--witness")):
        code, out = run(capsys, *args)
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(out)
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["verified"] is True


def test_verify_honours_max_vertices(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, "param", "det", "hypercube", "-n", "5", "--witness")
    assert code == 0
    path = tmp_path / "q5.json"
    path.write_text(out)
    assert main(["verify", "--max-vertices", "16", str(path)]) == 2
    assert "SizeGuard" in capsys.readouterr().err
    assert main(["verify", "--max-vertices", "32", str(path)]) == 0


def test_failed_candidate_construction_exits_3(capsys, tmp_path, monkeypatch):
    from cubesym import constructions

    def broken(n):
        raise AssertionError(f"the FQ_{n} distinguishing class is not determining")

    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(constructions, "fq_dist_class", broken)
    assert main(["param", "dist", "folded", "-n", "5", "--no-cache"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_verify_rejects_tampered_witness(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, "param", "det", "augmented", "-n", "4", "--witness",
                    "--no-cache")
    rep = json.loads(out)
    rep["witness"]["payload"] = rep["witness"]["payload"][:-1] + [
        rep["witness"]["payload"][-1] ^ 1]
    rep["value"] = len(rep["witness"]["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", str(path))
    # either the set fails or (if still determining by luck) stays verified;
    # tamper to an obviously bad one for the hard assertion
    rep["witness"]["payload"] = [0]
    rep["value"] = 1
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", str(path))
    assert code == 3
    assert json.loads(out)["verified"] is False


def test_tables_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "tables", "enhanced-dist", "--n-max", "4")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert cells["2,1"]["value"] == 4
    assert cells["3,1"]["value"] == 5
    assert cells["4,3"]["value"] == 2
    code, out = run(capsys, "tables", "transitivity", "--n", "3")
    rows = json.loads(out)["rows"]
    assert rows["hypercube"]["vertex_transitive"]
    assert rows["locally-twisted"]["status"] == "ok"
    code, out = run(capsys, "tables", "summary", "--n", "6")
    rows = json.loads(out)["rows"]
    assert rows["folded"]["det"] == 4
    assert rows["augmented"]["det"] == 2
    assert rows["locally-twisted"]["det"] == 1


def test_construct_commands(capsys):
    code, out = run(capsys, "construct", "fq-dist-class", "-n", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["verified"] is True and rep["size"] == 9
    code, out = run(capsys, "construct", "aq-cost-class", "-n", "5")
    assert json.loads(out)["witness"] == [0, 14, 17]
    code, out = run(capsys, "construct", "hamming-det", "-m", "3", "-n", "3")
    rep = json.loads(out)
    assert rep["value"] == 3 and rep["evidence"] == {"S(3,3)": 1, "S(3,2)": 3}


@pytest.mark.parametrize("name,n,method", [
    ("fq-det", 1, "structured"), ("fq-det", 2, "structured"), ("fq-det", 3, "structured"),
    ("fq-det", 4, "structured"), ("fq-dist-class", 4, "structured"),
    ("fq-dist-class", 5, "structured"), ("fq-dist-class", 6, "structured"),
    ("q2-witnesses", 5, "structured"),
])
def test_construct_labels_name_what_checked_it(capsys, name, n, method):
    # FQ_1..FQ_3 are K_2, K_4 and K_{4,4}: their det literals are checked on
    # the complete multipartite model; the FQ_4 and FQ_5 classes on theirs
    code, out = run(capsys, "construct", name, "-n", str(n))
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == method and rep["verified"] is True


@pytest.mark.parametrize("argv", [
    ["enhanced-det", "-n", "3"],
    ["hamming-det", "-n", "3"],
    ["fq-det", "-n", "0"],
    ["fq-det", "-n", "-1"],
    ["hamming-cost-bounds", "-m", "1", "-n", "3"],
    ["hamming-cost-bounds", "-m", "3", "-n", "0"],
])
def test_construct_input_errors_exit_1(capsys, argv):
    code = main(["construct", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_construct_q2_witnesses_reports_its_checks(capsys):
    # at n = 4 the class T keeps a swap of two vertices, so it is no class
    code, out = run(capsys, "construct", "q2-witnesses", "-n", "4")
    assert code == 0
    assert json.loads(out)["verified"] is False
    code, out = run(capsys, "construct", "q2-witnesses", "-n", "5")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_summary_q2_cost_matches_param_cost(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, "tables", "summary", "--n", "4")
    assert code == 0
    row = json.loads(out)["rows"]["hypercube-square"]
    code, out = run(capsys, "param", "cost", "power", "-n", "4", "-k", "2")
    assert code == 0
    report = json.loads(out)
    assert row["cost"] == report["value"] == 8
    assert row["cost_method"] == report["verified_by"] == "structured"


def test_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    assert main(["gen", "enhanced", "-n", "3", "-k", "9"]) == 1  # bad params
    monkeypatch.setenv("CUBE_SYM_MAX_VERTICES", "100")
    assert main(["gen", "hypercube", "-n", "10"]) == 2  # size guard
    monkeypatch.delenv("CUBE_SYM_MAX_VERTICES")
    capsys.readouterr()
    assert main(["param", "cost", "folded", "-n", "3", "--no-cache"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("family", [("hypercube", "-n", "3"), ("folded", "-n", "3"),
                                    ("enhanced", "-n", "4", "-k", "2"),
                                    ("hamming", "-n", "2", "-m", "3")])
def test_cost_of_a_graph_that_is_not_two_distinguishable(capsys, family):
    assert main(["param", "cost", *family, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NotTwoDistinguishable" in captured.err


def test_export(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    out_file = tmp_path / "bundle.json"
    code = main(["export", "locally-twisted", "-n", "4", "-o", str(out_file)])
    assert code == 0
    bundle = json.loads(out_file.read_text())
    assert bundle["parameters"]["det"]["value"] == 1
    assert bundle["parameters"]["cost"]["value"] == 1
    assert from_graph6(bundle["graph6"]).n_vertices == 16


def test_determinism_across_invocations(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    outs = []
    for _ in range(2):
        code, out = run(capsys, "param", "dist", "enhanced", "-n", "5", "-k", "3",
                        "--witness", "--no-cache")
        assert code == 0
        rep = json.loads(out)
        rep.pop("elapsed_ms")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def _verify_code(capsys, tmp_path, record) -> int:
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out = run(capsys, "verify", str(path))
    assert json.loads(out)["verified"] is (code == 0)
    return code


@pytest.mark.parametrize("payload", [
    [0, 1, 2, 5, 11, 99],  # 99 is no vertex of Q_5
    [0, 1, 2, 5, 11, 11],  # a repeated vertex
])
def test_verify_rejects_malformed_cost_class(capsys, tmp_path, payload):
    record = {"parameter": "cost", "value": 6, "params": {"kind": "hypercube", "n": 5},
              "witness": {"kind": "cost_class", "payload": payload,
                          "verified_by": "structured"}}
    assert _verify_code(capsys, tmp_path, record) == 3


def test_verify_rejects_partial_coloring(capsys, tmp_path):
    code, out = run(capsys, "param", "dist", "hypercube", "-n", "5", "--witness",
                    "--no-cache", "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    record = json.loads(out)
    assert _verify_code(capsys, tmp_path, record) == 0
    record["witness"]["payload"] = record["witness"]["payload"][:31]
    assert _verify_code(capsys, tmp_path, record) == 3


def test_verify_rejects_a_color_above_the_value(capsys, tmp_path):
    code, out = run(capsys, "param", "dist", "hypercube", "-n", "3", "--witness",
                    "--no-cache", "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    record = json.loads(out)
    assert record["value"] == 3 and _verify_code(capsys, tmp_path, record) == 0
    # still three colors used, but one of them lies outside 1..value
    payload = record["witness"]["payload"]
    record["witness"]["payload"] = [2**40 if c == 3 else c for c in payload]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and json.loads(captured.out)["verified"] is False
    assert "Traceback" not in captured.err


def test_verify_of_a_coloring_whose_group_table_is_too_large(capsys, tmp_path):
    """A 3-coloring of AQ_16 needs the group's element table, 524,288 rows
    of 65,536 vertices (128 GiB), which is refused by its bytes, or an
    asymmetric determining class, whose 65,534-vertex induced subgraph is
    above the search's vertex cap: the coloring is not checked, a budget
    stop (exit 2) with a detail that names the budget, not a wrong witness
    (exit 3), and no traceback."""
    payload = [1] * (1 << 16)
    payload[0], payload[1] = 2, 3
    record = {"parameter": "dist", "value": 3, "params": {"kind": "augmented", "n": 16},
              "witness": {"kind": "distinguishing_coloring", "payload": payload,
                          "verified_by": "structured"}}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2 and report["verified"] is False
    assert report["detail"].startswith("not checked") and "cap" in report["detail"]
    assert "Traceback" not in captured.err


_DET_RECORD = {"parameter": "det", "value": 4, "params": {"kind": "hypercube", "n": 5},
               "witness": {"kind": "determining_set", "payload": [0, 1, 6, 10],
                           "verified_by": "structured"}}


def _without(key):
    record = json.loads(json.dumps(_DET_RECORD))
    del record[key]
    return record


@pytest.mark.parametrize("record", [
    {**_DET_RECORD, "witness": {**_DET_RECORD["witness"], "payload": 7}},
    _without("value"),
    _without("params"),
    {**_DET_RECORD, "params": {"kind": "hypercube", "n": "5"}},
    ["not", "a", "record"],
])
def test_verify_rejects_malformed_record(capsys, tmp_path, record):
    assert _verify_code(capsys, tmp_path, _DET_RECORD) == 0
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(record))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed record")


def test_verify_reports_an_unreadable_file(capsys, tmp_path):
    code = main(["verify", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read")
    assert "missing.json" in lines[0]


def test_verify_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "record.json"
    path.write_bytes(b"\xff\xfe{}")
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "is not JSON" in lines[0]


def test_non_integer_vertex_cap_variable_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("CUBE_SYM_MAX_VERTICES", "abc")
    code = main(["gen", "hypercube", "-n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "CUBE_SYM_MAX_VERTICES" in lines[0]


def test_transitivity_table_labels_parameter_errors(capsys):
    code, out = run(capsys, "tables", "transitivity", "--n", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows["enhanced-k2"]["status"] == "not-applicable"
    assert rows["hypercube"]["status"] == "ok"


def test_cache_overwrite_is_atomic(tmp_path):
    from cubesym.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    cache.put("hypercube", {"n": 3}, "det", {"value": 1})
    text = cache.put("hypercube", {"n": 3}, "det", {"value": 3})
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    assert json.loads(files[0].read_text())["value"] == 3
    assert cache.get("hypercube", {"n": 3}, "det") == text


@pytest.mark.parametrize("content", [b"[1]", b"\xff\xfe"])
def test_unusable_cache_record_is_a_miss(capsys, tmp_path, monkeypatch, content):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("CUBE_SYM_CACHE", str(cache_dir))
    code, out = run(capsys, "param", "det", "hypercube", "-n", "4", "--witness")
    assert code == 0
    want = json.loads(out)
    (stored,) = cache_dir.iterdir()
    stored.write_bytes(content)
    code, out = run(capsys, "param", "det", "hypercube", "-n", "4", "--witness")
    assert code == 0
    got = json.loads(out)
    assert (got["value"], got["witness"]) == (want["value"], want["witness"])
    assert json.loads(stored.read_text()) == got


def test_dist_needing_a_table_above_the_cap_exits_2(capsys, monkeypatch):
    # without a constructed class, FQ_7 (order 2^7 * 8!, above the element
    # cap), which has no row-map model for the class scan, needs its table
    # for the greedy class
    from cubesym import params

    monkeypatch.setattr(params, "dist_class_candidates", lambda g: [])
    assert main(["param", "dist", "folded", "-n", "7", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "SearchBudgetExceeded" in err and "distinguishing number" in err


def test_det_of_hamming_n5_m3_needs_no_table(capsys, monkeypatch):
    # the group has 933,120 elements; the model's determining test needs none
    def no_table(self):
        raise AssertionError("element table")

    monkeypatch.setattr(autgroup.HammingModel, "enumerate", no_table)
    code, out = run(capsys, "param", "det", "hamming", "-n", "5", "-m", "3", "--witness",
                    "--no-cache")
    report = json.loads(out)
    assert code == 0 and report["verified_by"] == "structured"
    assert (report["value"], report["witness"]["payload"]) == (4, [0, 1, 39, 96])


def test_verify_of_the_hamming_dist_record_runs_no_closure(capsys, monkeypatch):
    """The stored H(4,3) dist record is checked on the Hamming model's
    element table, with no stabilizer chain."""
    def no_chain(*args):
        raise AssertionError("stabilizer chain")

    monkeypatch.setattr(autgroup, "transversals", no_chain)
    record = (Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "records"
              / "dist-hamming-n-4-m-3.json")
    code, out = run(capsys, "verify", str(record), "--no-cache")
    assert code == 0 and '"verified": true' in out


@pytest.fixture
def fresh_parser_cache():
    """Clear the parser `main` keeps, before and after the test."""
    kept = cli._parser
    kept.cache_clear()
    yield
    kept.cache_clear()


def _masked(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', text)


# (COLUMNS, argv) in the order `main` gets them: a flag, then its absence;
# a -k, then a family without one; usage errors, then valid calls
_SEQUENCE = [
    (None, ["param", "det", "hypercube", "-n", "4", "--witness"]),
    (None, ["param", "det", "hypercube", "-n", "4"]),
    (None, ["param", "det", "enhanced", "-n", "4", "-k", "2", "--witness"]),
    (None, ["param", "det", "folded", "-n", "4", "--witness"]),
    (None, ["param", "det", "nonsense", "-n", "4"]),
    (None, ["param", "det", "folded", "-n", "3"]),
    (None, ["param", "det", "hypercube"]),
    (None, ["param", "bogus", "hypercube", "-n", "3"]),
    (None, ["gen", "hypercube", "-n", "3", "--format", "graph6"]),
    (None, ["--version"]),
    ("60", ["param", "--help"]),
    ("120", ["param", "--help"]),
    (None, ["param", "det", "augmented", "-n", "4"]),
]


def test_the_kept_parser_answers_like_a_fresh_one(capsys, tmp_path, monkeypatch,
                                                 fresh_parser_cache):
    """Each call through the parser `main` keeps prints what the same call
    prints through a parser built for it alone: no flag, family argument or
    usage error carries over to the next call, and help is formatted at the
    width `COLUMNS` gives at the time."""
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    kept = cli._parser
    helps = []
    for columns, argv in _SEQUENCE:
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        runs = []
        for parser in (kept, cli.build_parser):
            monkeypatch.setattr(cli, "_parser", parser)
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, _masked(captured.out), captured.err))
        assert runs[0] == runs[1], argv
        if argv[-1] == "--help":
            helps.append(runs[0][1])
    assert kept.cache_info().currsize == 1
    assert helps[0] != helps[1]  # the width follows COLUMNS


def test_main_builds_its_parser_once(capsys, tmp_path, monkeypatch, fresh_parser_cache):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    real = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["param", "det", "hypercube", "-n", "3"], ["param", "det", "hypercube", "-n", "3"],
                 ["gen", "folded", "-n", "3"], ["nonsense"], ["--version"],
                 ["param", "transitivity", "augmented", "-n", "4", "--no-cache"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1
    assert real() is not real()  # a caller that asks for a parser gets a new one


def test_importing_the_cli_builds_no_parser():
    import subprocess
    import sys

    src = Path(cli.__file__).resolve().parent.parent
    code = "import cubesym.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_queries_do_not_import_numpy_ma(tmp_path):
    """The first `np.unique` call of a process imports `numpy.ma`, about
    15 ms; these queries answer without it.  They run in a fresh
    interpreter, so that no earlier test has imported it already."""
    import subprocess
    import sys

    src = Path(cli.__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import contextlib, io, sys
        from cubesym.cli import main
        for argv in (["param", "dist", "hypercube", "-n", "3"],
                     ["param", "transitivity", "hypercube", "-n", "5"],
                     ["param", "cost", "folded", "-n", "4"],
                     ["param", "dist", "power", "-n", "6", "-k", "2"],
                     ["param", "dist", "enhanced", "-n", "4", "-k", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--no-cache"])
            print(" ".join(argv), code, "numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "CUBE_SYM_CACHE": str(tmp_path / "cache")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and all(line.endswith(" 0 False") for line in lines), lines


def test_no_cache_computes_on_every_call(capsys, monkeypatch):
    """The kept parser is all that outlives a call: each `--no-cache` call
    builds the graph and the group again."""
    from cubesym import params

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_family", counted("build_family", cli.build_family))
    monkeypatch.setattr(params, "structured_group",
                        counted("structured_group", params.structured_group))
    argv = ["param", "det", "hypercube", "-n", "5", "--no-cache"]
    for _ in range(2):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 4
    assert calls == ["build_family", "structured_group"] * 2
