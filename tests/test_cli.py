"""Command-line behavior: golden outputs, pipelines, exit codes."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import dcograph.cli as cli
import make_golden
from dcograph.construct import evaluate, parse_expression
from dcograph.patterns import ANTICIRCUIT, PATTERNS, TWO_SWITCH
from dcograph.recognize import ClassId, RouteDisagreement
from dcograph.core import Digraph, format_edge_list

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERN = {name: os.path.join(REPO_ROOT, "patterns", f"{name}.edges") for name in ("D5", "D10", "K2bidir", "Q7")}


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "dcograph", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        # the subprocess does not see pytest's pythonpath setting
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
    )


def test_classify_expression_lists_memberships() -> None:
    proc = run_cli("classify", "--expr", "order(v, v, v)")
    assert proc.returncode == 0
    verdicts = dict(line.split("\t") for line in proc.stdout.splitlines())
    assert verdicts["TT"] == "member"
    assert verdicts["DC"] == "member"
    assert verdicts["EdgelessD"] == "non-member"
    assert len(verdicts) == 25


def test_classify_obstruction_certificates() -> None:
    proc = run_cli("classify", "--class", "DC", "--class", "OC", "--certificates", PATTERN["D5"])
    assert proc.returncode == 0
    assert proc.stdout == (
        "DC\tnon-member\tviolates D5 at 0,1,2\n"
        "OC\tnon-member\tviolates D5 at 0,1,2\n"
    )


def test_classify_witness_is_the_shrunk_obstruction() -> None:
    # deleting vertices from the last one down keeps witnesses on low ids:
    # the first occurrences in subset order were I2 at 2,3 and P3bidir at 2,0,3
    proc = run_cli("classify", "--class", "TT", "--class", "TwoBidirCliques", "--certificates", PATTERN["D10"])
    assert proc.returncode == 0
    assert proc.stdout == (
        "TT\tnon-member\tviolates K2bidir at 0,2\n"
        "TwoBidirCliques\tnon-member\tviolates P2arrow at 0,1\n"
    )


def test_classify_certificates_at_sixty_four_vertices() -> None:
    text = make_golden.expression(64)
    g = evaluate(parse_expression(text))
    assert g.n == 64
    proc = run_cli("classify", "--certificates", "--expr", text)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 25
    witnesses = 0
    for line in lines:
        _, verdict, detail = line.split("\t")
        if not detail.startswith("violates "):
            continue
        witnesses += 1
        assert verdict == "non-member"
        name, _, at = detail[len("violates "):].partition(" at ")
        w = [int(v) for v in at.split(",")]
        if name in PATTERNS:
            p = PATTERNS[name]
            assert len(set(w)) == p.n
            assert all(p.has_arc(a, b) == g.has_arc(w[a], w[b]) for a in range(p.n) for b in range(p.n) if a != b)
            continue
        # TD and FD may print the roles (p, q, r, s) of a partial pattern
        assert name in (TWO_SWITCH.name, ANTICIRCUIT.name)
        p, q, r, s = w
        assert g.has_arc(p, q) and g.has_arc(r, s)
        assert (s == p or not g.has_arc(p, s)) and (q == r or not g.has_arc(r, q))
        assert name != TWO_SWITCH.name or len(set(w)) == 4
    assert witnesses > 0


def test_tree_commands_match_the_golden_file() -> None:
    # classify --certificates, decompose and creation-seq on every pattern file and the 64-leaf expression
    assert make_golden.cli_trees() == (make_golden.GOLDEN / "cli_trees.txt").read_text(encoding="ascii")


def test_classify_membership_certificate_is_an_expression() -> None:
    proc = run_cli("classify", "--class", "DC", "--certificates", "--expr", "union(series(v, v), v)")
    assert proc.stdout == "DC\tmember\tunion(v, series(v, v))\n"


def test_classify_partial_pattern_certificate() -> None:
    proc = run_cli("classify", "--class", "FD", "--certificates", PATTERN["K2bidir"])
    assert proc.returncode == 0
    assert proc.stdout == "FD\tnon-member\tviolates K2bidir at 0,1\n"


def test_pipeline_gen_transform_classify() -> None:
    gen = run_cli("gen", "--family", "tt", "--n", "4")
    assert gen.returncode == 0
    conv = run_cli("transform", "--op", "converse", stdin=gen.stdout)
    assert conv.returncode == 0
    verdict = run_cli("classify", "--class", "TT", stdin=conv.stdout)
    assert verdict.returncode == 0
    assert verdict.stdout == "TT\tmember\n"


def test_pipeline_complement_golden() -> None:
    gen = run_cli("gen", "--family", "edgeless", "--n", "3")
    comp = run_cli("transform", "--op", "complement", stdin=gen.stdout)
    assert comp.stdout == "n 3\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n"


def test_transform_underlying_emits_symmetric_encoding() -> None:
    out = run_cli("transform", "--op", "underlying", stdin="n 2\n0 1\n")
    assert out.stdout == "n 2\n0 1\n1 0\n"
    sym = run_cli("transform", "--op", "sym", stdin="n 2\n0 1\n")
    assert sym.stdout == "n 2\n"
    asym = run_cli("transform", "--op", "asym", stdin="n 2\n0 1\n")
    assert asym.stdout == "n 2\n0 1\n"


def test_export_dot_golden() -> None:
    proc = run_cli("export-dot", PATTERN["K2bidir"])
    assert proc.stdout == "digraph G {\n  0;\n  1;\n  0 -> 1;\n  1 -> 0;\n}\n"


def test_decompose_golden() -> None:
    proc = run_cli("decompose", "--expr", "order(union(v, v), v)")
    assert proc.stdout == "op\torder\npart\t0,1\npart\t2\ntree\torder(union(v, v), v)\n"
    prime = run_cli("decompose", PATTERN["D5"])
    assert prime.stdout.startswith("op\tprime\n")
    assert prime.stdout.endswith("tree\t-\n")


def test_creation_seq_golden() -> None:
    proc = run_cli("creation-seq", "--expr", "order(v, v, series(v, v))")
    assert proc.stdout == "digits\t1311\norder\t3,2,1,0\n"
    none = run_cli("creation-seq", PATTERN["D5"])
    assert none.stdout == "none\n"
    oriented = run_cli("creation-seq", "--no-series", "--expr", "series(v, v)")
    assert oriented.stdout == "none\n"


def test_mine_golden_and_exit_zero() -> None:
    proc = run_cli("mine", "--class", "OC", "--nmax", "4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("class OC: 4 minimal obstructions at n <= 4")
    assert lines[1:] == [
        "OC\tconfirmed\t030060\tD1",
        "OC\tconfirmed\t030062\tD5",
        "OC\tconfirmed\t043200\tD8",
        "OC\tconfirmed\t0206\tK2bidir",
    ]


def test_verify_closures_exit_zero() -> None:
    proc = run_cli("verify", "--suite", "closures", "--nmax", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("suite closures: 7 checks, 0 failures")


def test_verify_projections_suite_is_reachable() -> None:
    proc = run_cli("verify", "--suite", "projections", "--nmax", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("suite projections:")


def test_verify_hierarchy_reports_missing_witnesses() -> None:
    proc = run_cli("verify", "--suite", "hierarchy", "--nmax", "3")
    assert proc.returncode == 1
    assert "\tfail\t" in proc.stdout


def test_verify_theorems_exit_tracks_first_counterexample() -> None:
    clean = run_cli("verify", "--suite", "theorems", "--nmax", "2")
    assert clean.returncode == 0
    dirty = run_cli("verify", "--suite", "theorems", "--nmax", "3")
    assert dirty.returncode == 1
    assert "two-pattern variant" in dirty.stdout


def test_outputs_are_byte_identical_across_runs() -> None:
    a = run_cli("classify", "--certificates", PATTERN["Q7"])
    b = run_cli("classify", "--certificates", PATTERN["Q7"])
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_classify_reads_a_formatted_list_like_an_annotated_one() -> None:
    text = format_edge_list(evaluate(parse_expression(make_golden.expression(64))))
    header, *body = text.splitlines()
    annotated = "# 64 vertices\r\n" + header + "\r\n" + "".join(f"{line}  # arc\r\n" for line in body)
    plain = run_cli("classify", stdin=text)
    assert plain.returncode == 0, plain.stderr
    assert len(plain.stdout.splitlines()) == 25
    assert run_cli("classify", stdin=annotated).stdout == plain.stdout
    duplicated = run_cli("classify", stdin=text + body[0] + "\n")
    u, v = body[0].split()
    assert duplicated.returncode == 2
    assert duplicated.stderr == f"error: line {len(body) + 2}: duplicate arc ({u}, {v})\n"
    assert duplicated.stdout == ""


def test_parse_error_exits_two() -> None:
    proc = run_cli("classify", stdin="garbage\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_two_input_sources_exit_two() -> None:
    proc = run_cli("classify", "--expr", "v", PATTERN["D5"])
    assert proc.returncode == 2


def test_missing_file_exits_two() -> None:
    proc = run_cli("classify", os.path.join(REPO_ROOT, "no-such-file.edges"))
    assert proc.returncode == 2


def test_unknown_family_exits_two() -> None:
    proc = run_cli("gen", "--family", "nosuch", "--n", "3")
    assert proc.returncode == 2


def test_bad_family_arity_exits_two() -> None:
    proc = run_cli("gen", "--family", "tt", "--n", "3", "--m", "2")
    assert proc.returncode == 2


def test_verify_nmax_out_of_range_exits_two() -> None:
    proc = run_cli("verify", "--suite", "closures", "--nmax", "6")
    assert proc.returncode == 2


def test_deeply_nested_expression_exits_two() -> None:
    deep = "union(v, " * 1500 + "v" + ")" * 1500
    proc = run_cli("classify", "--expr", deep)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


def test_removed_jobs_flag_is_a_usage_error() -> None:
    proc = run_cli("verify", "--suite", "closures", "--nmax", "2", "--jobs", "1")
    assert proc.returncode == 2


def test_removed_budget_flag_is_a_usage_error() -> None:
    proc = run_cli("mine", "--class", "OWQT", "--nmax", "6", "--budget", "1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --budget" in proc.stderr


def test_readme_exit_codes_match_the_cli() -> None:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    paragraph = text[text.index("\nExit codes:") :].split("\n\n", 1)[0]
    documented = sorted(int(code) for code in re.findall(r"`(\d+)`", paragraph))
    assert documented == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def test_route_disagreement_exits_three(monkeypatch, capsys) -> None:
    def explode(g, classes):  # noqa: ARG001 - signature mirrors the real call
        raise RouteDisagreement(ClassId.DC, Digraph(1), True, False)

    monkeypatch.setattr(cli, "classify", explode)
    rc = cli.main(["classify", "--expr", "v"])
    assert rc == 3
    assert "route disagreement" in capsys.readouterr().err


def test_member_without_certificate_fails_under_python_O() -> None:
    # `python -O` strips assert statements; the check must still stop the output
    code = (
        "if __debug__:\n"
        "    raise SystemExit('asserts are still on')\n"
        "cli.constructive_certificate = lambda g, x: None\n"
        "cli.main(['classify', '--certificates', '--class', 'DC', '--expr', 'order(v, v)'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from dcograph import cli\n" + code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "RuntimeError: DC member Digraph(2, [(0, 1)]) has no certificate" in proc.stderr


def test_in_process_main_matches_subprocess(capsys) -> None:
    rc = cli.main(["classify", "--class", "TT", "--expr", "order(v, v)"])
    assert rc == 0
    assert capsys.readouterr().out == "TT\tmember\n"
