from __future__ import annotations

import csv
import errno
import importlib
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import pytest

from padfd import (
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    SCHEMA_ID,
    Stage,
    add_node,
    compatibility_with_equivalences,
    emit_drawio,
    emit_json,
    load_data_records,
    load_equivalences,
    load_flow_metas,
    parse_drawio,
    parse_json,
    run_simulation,
    transform,
    typecheck,
)
from padfd.cli import main

from helpers import (
    build_diagram, build_excerpt, build_excerpt_raw, build_payment_raw, gadget_roles,
    repeat_first_policy_row,
)
from references import reference_report_json, to_canonical_dict

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

CLOCK = "2020-06-01"


def write_json(tmp_path, name, diagram):
    path = tmp_path / name
    path.write_bytes(emit_json(diagram))
    return path


def write_drawio(tmp_path, name, diagram):
    path = tmp_path / name
    path.write_bytes(emit_drawio(diagram))
    return path


# --- check -------------------------------------------------------------------


def test_check_clean_drawing(fixtures_dir, capsys):
    assert main(["check", str(fixtures_dir / "estore.drawio.xml")]) == 0
    assert capsys.readouterr().out == ""


def test_check_reports_findings(fixtures_dir, capsys):
    assert main(["check", str(fixtures_dir / "ext_pair.drawio.xml")]) == 1
    out = capsys.readouterr().out
    assert "error link pf-no-rule:" in out


def test_check_json_report(fixtures_dir, capsys):
    assert main(
        ["check", str(fixtures_dir / "ext_pair.drawio.xml"), "--report", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"] == "raw-bdfd"
    assert [d["rule"] for d in payload["diagnostics"]] == ["pf-no-rule"]
    assert payload["diagnostics"][0]["kind"] == "ill-formed-flow"
    assert payload["diagnostics"][0]["element"] == "link"


def test_findings_keep_one_line_for_an_id_that_does_not_print(tmp_path, capsys):
    """An id holding a line break or a tab is written with Python's
    escapes, so each finding keeps its one line: on stdout under `check`,
    on stderr under `transform`."""
    path = tmp_path / "raw.json"
    nodes = [{"id": "a\nb", "type": "proc"}, {"id": "c\td", "type": "ext"}]
    path.write_text(json.dumps({"schema": SCHEMA_ID, "stage": "raw-bdfd", "nodes": nodes}), encoding="utf-8")
    findings = (
        "error a\\nb proc-source-target: process 'a\\nb' has no incoming or outgoing flow\n"
        "error c\\td ext-connected: external entity 'c\\td' has no flows\n"
    )
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == (findings, "")
    assert main(["transform", str(path), "-o", str(tmp_path / "pa.json")]) == 1
    assert capsys.readouterr() == ("", findings)


def test_check_wellformed_json_diagram(fixtures_dir, tmp_path, capsys):
    wellformed, _ = typecheck(
        parse_drawio((fixtures_dir / "estore.drawio.xml").read_bytes())
    )
    path = write_json(tmp_path, "wf.json", wellformed)
    assert main(["check", str(path)]) == 0


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_unknown_style_is_a_read_error(fixtures_dir, capsys):
    assert main(["check", str(fixtures_dir / "unknown_style.drawio.xml")]) == 2
    assert "mystery" in capsys.readouterr().err


def test_check_truncated_file(fixtures_dir, capsys):
    assert main(["check", str(fixtures_dir / "truncated.drawio.xml")]) == 2


# --- transform -----------------------------------------------------------------


def test_transform_drawing_to_json(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "pa.json"
    assert main(
        ["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]
    ) == 0
    pa = parse_json(out.read_bytes())
    assert pa.stage is Stage.PA
    assert (len(pa.nodes), len(pa.flows)) == (34, 44)


def test_transform_drawio_output_fully_placed(fixtures_dir, tmp_path):
    out = tmp_path / "pa.drawio"
    assert main(
        ["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]
    ) == 0
    pa = parse_drawio(out.read_bytes())
    assert all(node.position is not None for node in pa.nodes.values())


def test_transform_reruns_are_byte_identical(fixtures_dir, tmp_path):
    first = tmp_path / "one.drawio"
    second = tmp_path / "two.drawio"
    for out in (first, second):
        assert main(
            ["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_transform_shared_log_store(fixtures_dir, tmp_path):
    out = tmp_path / "pa.json"
    assert main(
        [
            "transform",
            str(fixtures_dir / "estore.drawio.xml"),
            "-o",
            str(out),
            "--shared-log-store",
        ]
    ) == 0
    pa = parse_json(out.read_bytes())
    log_dbs = [n for n in pa.nodes.values() if n.node_type is NodeType.LOG_DB]
    assert len(log_dbs) == 1


def test_transform_excerpt_requires_escape_hatch(tmp_path, capsys):
    model = write_json(tmp_path, "excerpt.json", build_excerpt())
    out = tmp_path / "pa.json"
    assert main(["transform", str(model), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "proc-source-target" in err
    assert not out.exists()

    assert main(
        ["transform", str(model), "-o", str(out), "--allow-ill-formed"]
    ) == 0
    pa = parse_json(out.read_bytes())
    assert (len(pa.nodes), len(pa.flows)) == (13, 14)
    for flow in pa.flows.values():
        assert flow.source in pa.nodes and flow.target in pa.nodes


def test_transform_raw_excerpt_requires_escape_hatch(tmp_path, capsys):
    model = write_json(tmp_path, "raw-excerpt.json", build_excerpt_raw())
    out = tmp_path / "pa.json"
    assert main(["transform", str(model), "-o", str(out)]) == 1
    assert "proc-source-target" in capsys.readouterr().err
    assert not out.exists()

    assert main(["check", str(model), "--report", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"] == "raw-bdfd"
    assert [(d["rule"], d["kind"]) for d in payload["diagnostics"]] == [
        ("proc-source-target", "ill-formed-activator")
    ]

    assert main(
        ["transform", str(model), "-o", str(out), "--allow-ill-formed"]
    ) == 0
    pa = parse_json(out.read_bytes())
    assert (len(pa.nodes), len(pa.flows)) == (13, 14)

    # Typing the raw excerpt yields exactly the well-formed excerpt's rewrite.
    wellformed = write_json(tmp_path, "excerpt.json", build_excerpt())
    expected = tmp_path / "expected.json"
    assert main(
        ["transform", str(wellformed), "-o", str(expected), "--allow-ill-formed"]
    ) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_transform_shared_log_store_layout_is_pinned(fixtures_dir, tmp_path):
    # Edges in reversed document order: the one log store still hangs
    # below the log of the last logging flow (the gadget of f6).
    document = ET.fromstring((fixtures_dir / "estore.drawio.xml").read_bytes())
    cells = document.find(".//root")
    edges = [cell for cell in cells if cell.get("edge") == "1"]
    for edge in edges:
        cells.remove(edge)
    cells.extend(reversed(edges))
    model = tmp_path / "reversed.drawio.xml"
    model.write_bytes(ET.tostring(document))
    assert list(parse_drawio(model.read_bytes()).flows) == [
        "f6", "f5", "f4", "f3", "f2", "f1"
    ]
    out = tmp_path / "pa.drawio.xml"
    assert main(
        ["transform", str(model), "-o", str(out), "--shared-log-store"]
    ) == 0
    golden = fixtures_dir / "estore_reversed_shared_pa.drawio.xml"
    assert out.read_bytes() == golden.read_bytes()
    pa = parse_drawio(out.read_bytes())
    (log_db,) = [n for n in pa.nodes.values() if n.node_type is NodeType.LOG_DB]
    assert log_db.position == (280.0, 460.0)


def test_transform_refuses_coordinates_too_large_to_step(fixtures_dir, tmp_path):
    """Two parallel flows between nodes at y = 1e19, where adding a grid
    step leaves y unchanged: the second limit's spot is taken and there is
    no spot below it. The draw.io output, which needs the layout, is
    refused with exit 2 and nothing written; JSON output needs no layout.
    Run in a child process under a timeout, as the layout once looped
    forever here."""
    def transform_to(name):
        argv = ["transform", str(fixtures_dir / "far_away.json"), "--allow-ill-formed", "-o", name]
        return run_launcher("padfd.cli", "main", argv, tmp_path, timeout=60)

    drawio = transform_to("out.drawio.xml")
    assert drawio.returncode == 2, drawio.stderr
    assert "no free spot below (80, 1e+19)" in drawio.stderr
    assert list(tmp_path.iterdir()) == []
    assert transform_to("out.json").returncode == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("far_end", [0.0, -1.7e308], ids=["sum-overflows", "difference-overflows"])
def test_transform_places_a_hop_near_the_float_limit(tmp_path, capsys, far_end):
    """Nodes at x = 1.5e308 and 1.6e308: the limit between them is placed
    halfway, though the plain sum of their x overflows, and with the
    third node across the origin so does the request's hop direction."""
    raw = build_diagram(
        Stage.RAW,
        [
            Node("a", NodeType.EXT, position=(1.5e308, 0.0)),
            Node("b", NodeType.PROC, position=(1.6e308, 0.0)),
            Node("c", NodeType.EXT, position=(far_end, 0.0)),
        ],
        [Flow("f", "a", "b", FlowType.PF), Flow("g", "b", "c", FlowType.PF)],
    )
    model, out = write_json(tmp_path, "far.json", raw), tmp_path / "pa.drawio.xml"
    assert main(["transform", str(model), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    limits = [n for n in parse_drawio(out.read_bytes()).nodes.values() if n.node_type is NodeType.LIMIT]
    assert (1.55e308, 0.0) in [limit.position for limit in limits]


def test_transform_never_tolerates_flow_problems(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "pa.json"
    code = main(
        [
            "transform",
            str(fixtures_dir / "ext_pair.drawio.xml"),
            "-o",
            str(out),
            "--allow-ill-formed",
        ]
    )
    assert code == 1
    assert "pf-no-rule" in capsys.readouterr().err
    assert not out.exists()


def test_transform_rejects_privacy_aware_input(fixtures_dir, tmp_path, capsys):
    pa_path = tmp_path / "pa.json"
    assert main(
        ["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(pa_path)]
    ) == 0
    again = tmp_path / "again.json"
    assert main(["transform", str(pa_path), "-o", str(again)]) == 1
    assert "already privacy-aware" in capsys.readouterr().err
    assert not again.exists()


def test_transform_leaves_no_temp_files(fixtures_dir, tmp_path):
    out = tmp_path / "pa.json"
    assert main(
        ["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]
    ) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["pa.json"]


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "over-existing"])
@pytest.mark.parametrize("command", ["transform", "export"])
def test_output_files_get_the_mode_the_umask_gives(
    fixtures_dir, tmp_path, umask_022, command, existing
):
    outputs = [tmp_path / "out.json", tmp_path / "out.drawio"]
    for out in outputs:
        if existing:
            out.write_bytes(b"old")
            out.chmod(0o600)
        argv = [command, str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]
        if command == "export":
            argv += ["--out-format", out.suffix.lstrip(".")]
        assert main(argv) == 0
        assert out.stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.drawio", "out.json"]


@pytest.mark.parametrize("command", ["transform", "export"])
def test_output_onto_a_directory_is_a_write_error_and_leaves_no_temp_file(
    fixtures_dir, tmp_path, capsys, command
):
    target = tmp_path / "out"
    target.mkdir()
    argv = [command, str(fixtures_dir / "estore.drawio.xml"), "-o", str(target)]
    if command == "export":
        argv += ["--out-format", "json"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("kind", ["missing-parent", "directory"])
def test_a_write_error_names_the_output_not_its_temp_file(fixtures_dir, tmp_path, capsys, kind):
    if kind == "directory":
        out, code = tmp_path / "out", errno.EISDIR
        out.mkdir()
    else:
        out, code = tmp_path / "absent" / "out.json", errno.ENOENT
    assert main(["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == (["out"] if kind == "directory" else [])


@pytest.mark.parametrize("command", ["transform", "export"])
@pytest.mark.parametrize(
    "name, out_format",
    [("pa.gv", "dot"), ("pa.dot", "dot"), ("pa.XML", "drawio"), ("pa.data", "drawio"), ("pa.JSON", "json")],
)
def test_a_diagram_is_written_in_the_format_its_output_suffix_names(
    fixtures_dir, tmp_path, command, name, out_format
):
    source = str(fixtures_dir / "estore.drawio.xml")
    named, chosen = tmp_path / name, tmp_path / "chosen"
    assert main([command, source, "-o", str(named)]) == 0
    assert main([command, source, "-o", str(chosen), "--out-format", out_format]) == 0
    assert named.read_bytes() == chosen.read_bytes()


# --- export --------------------------------------------------------------------


def test_export_drawio_to_json(fixtures_dir, tmp_path):
    out = tmp_path / "estore.json"
    assert main(
        [
            "export",
            str(fixtures_dir / "estore.drawio.xml"),
            "-o",
            str(out),
            "--out-format",
            "json",
        ]
    ) == 0
    direct = parse_drawio((fixtures_dir / "estore.drawio.xml").read_bytes())
    assert to_canonical_dict(parse_json(out.read_bytes())) == to_canonical_dict(direct)


def test_export_json_to_drawio_and_back(fixtures_dir, tmp_path):
    as_json = tmp_path / "d.json"
    as_drawio = tmp_path / "d.drawio"
    back = tmp_path / "back.json"
    assert main(
        [
            "export",
            str(fixtures_dir / "estore.drawio.xml"),
            "-o",
            str(as_json),
            "--out-format",
            "json",
        ]
    ) == 0
    assert main(
        ["export", str(as_json), "-o", str(as_drawio), "--out-format", "drawio"]
    ) == 0
    assert main(
        ["export", str(as_drawio), "-o", str(back), "--out-format", "json"]
    ) == 0
    assert back.read_bytes() == as_json.read_bytes()


def test_export_rejects_flow_id_shared_with_node(tmp_path, capsys):
    # draw.io keeps nodes and flows in one id space, so such a file could
    # be written but never read back.
    source = tmp_path / "dup.json"
    source.write_text(
        json.dumps(
            {
                "schema": "padfd-canonical/1",
                "stage": "raw-bdfd",
                "nodes": [{"id": "x", "type": "ext"}, {"id": "p", "type": "proc"}],
                "flows": [{"id": "x", "source": "x", "target": "p", "type": "pf"}],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "dup.drawio.xml"
    assert main(["export", str(source), "-o", str(out), "--out-format", "drawio"]) == 2
    assert capsys.readouterr().err == f"error: {source}: flow id 'x' already in use\n"
    assert [p.name for p in tmp_path.iterdir()] == ["dup.json"]


def _single_node_document(node: dict) -> str:
    return json.dumps(
        {"schema": "padfd-canonical/1", "stage": "raw-bdfd", "nodes": [node], "flows": []}
    )


@pytest.mark.parametrize(
    "node, match",
    [
        ({"id": "a", "type": "ext", "extra": {"bad key": "v"}}, "extra key 'bad key' is not an XML"),
        ({"id": "a", "type": "ext", "label": "x\u0001y"}, "U+0001 is not an XML character"),
        ({"id": "a", "type": "ext", "label": "x\ud800"}, "node 'a': 'x\\ud800' holds a lone surrogate"),
    ],
    ids=["bad-key", "control-character", "lone-surrogate"],
)
def test_export_refuses_what_drawio_cannot_read_back(tmp_path, capsys, node, match):
    source = tmp_path / "in.json"
    source.write_text(_single_node_document(node), encoding="utf-8")
    out = tmp_path / "out.drawio.xml"
    assert main(["export", str(source), "-o", str(out), "--out-format", "drawio"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ") and match in err
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


@pytest.mark.parametrize("out_format", ["json", "dot"])
def test_export_refuses_lone_surrogates(tmp_path, capsys, monkeypatch, out_format):
    """Neither reader lets a lone surrogate in, so the diagram is built
    through the API; the writer refuses it, naming the node."""
    diagram = add_node(Diagram(), Node("a", NodeType.EXT, label="x\ud800"))
    monkeypatch.setattr("padfd.cli._read_diagram", lambda *args: diagram)
    source = tmp_path / "in.json"
    source.write_bytes(b"{}")
    out = tmp_path / f"out.{out_format}"
    assert main(["export", str(source), "-o", str(out), "--out-format", out_format]) == 2
    language = out_format.upper()
    assert (
        f"node 'a': cannot write 'x\\ud800' in {language}: U+D800 is a lone surrogate"
        in capsys.readouterr().err
    )
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


def test_export_dot(fixtures_dir, tmp_path):
    out = tmp_path / "estore.dot"
    assert main(
        [
            "export",
            str(fixtures_dir / "estore.drawio.xml"),
            "-o",
            str(out),
            "--out-format",
            "dot",
        ]
    ) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph ")
    assert '"customer"' in text


# A diagram is read by its content, whatever its name.
DEMO_DIAGRAMS = [DEMO_DATA / "estore.drawio.xml", DEMO_DATA.parent / "out" / "estore_pa.json"]


def command_results(source: Path, out_dir: Path, capsys) -> tuple[list, dict]:
    """Each command's exit code and stdout on `source`, and the files the
    commands wrote."""
    out_dir.mkdir()
    tables = [
        "--static", str(DEMO_DATA / "payment_static.csv"),
        "--dynamic", str(DEMO_DATA / "payment_dynamic.csv"),
        "--clock", CLOCK,
    ]
    runs = [
        ["check", str(source), "--report", "json"],
        ["transform", str(source), "-o", str(out_dir / "pa.json")],
        ["transform", str(source), "-o", str(out_dir / "pa.drawio.xml")],
        ["simulate", str(source), *tables, "--multi-hop"],
        *(["export", str(source), "-o", str(out_dir / f"out.{ext}")] for ext in ("json", "xml", "dot")),
    ]
    results = [(main(argv), capsys.readouterr().out) for argv in runs]
    return results, {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("source", DEMO_DIAGRAMS, ids=["drawing", "model"])
@pytest.mark.parametrize("suffix", [".json", ".xml", ".drawio", ".dot", ".txt", ""])
def test_a_diagram_reads_alike_under_any_name(tmp_path, capsys, source, suffix):
    renamed = tmp_path / f"diagram{suffix}"
    shutil.copyfile(source, renamed)
    named = command_results(source, tmp_path / "named", capsys)
    assert {"out.json", "out.xml", "out.dot"} <= named[1].keys()
    assert command_results(renamed, tmp_path / "renamed", capsys) == named


# --- style overrides -------------------------------------------------------------


STAR_CONFIG = {"node_rules": [["shape=star", "ext"]]}


def test_styles_flag(fixtures_dir, tmp_path):
    config = tmp_path / "house.json"
    config.write_text(json.dumps(STAR_CONFIG), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(
        [
            "export",
            str(fixtures_dir / "unknown_style.drawio.xml"),
            "-o",
            str(out),
            "--out-format",
            "json",
            "--styles",
            str(config),
        ]
    ) == 0
    assert parse_json(out.read_bytes()).nodes["mystery"].node_type is NodeType.EXT


def test_styles_environment_variable(fixtures_dir, tmp_path, monkeypatch):
    config = tmp_path / "house.json"
    config.write_text(json.dumps(STAR_CONFIG), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [
        "export",
        str(fixtures_dir / "unknown_style.drawio.xml"),
        "-o",
        str(out),
        "--out-format",
        "json",
    ]
    assert main(argv) == 2  # unknown style without the override
    monkeypatch.setenv("PADFD_STYLES", str(config))
    assert main(argv) == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_style_map_reads_back_what_it_writes(fixtures_dir, tmp_path, capsys):
    """The map README gives as its example: a drawing transformed with it
    checks clean with it, the privacy-aware kinds' markers included."""
    text = README.read_text(encoding="utf-8")
    config = tmp_path / "house.json"
    config.write_text(text.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert json.loads(config.read_text(encoding="utf-8"))["node_rules"][0] == ["shape=star", "proc"]
    out = tmp_path / "pa.drawio.xml"
    source = str(fixtures_dir / "unknown_style.drawio.xml")
    styles = ["--styles", str(config)]
    assert main(["transform", source, "--allow-ill-formed", *styles, "-o", str(out)]) == 0
    assert main(["check", str(out), *styles]) == 0
    assert b"shape=star;html=1;" in out.read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"node_styles": {"request": "rhombus;whiteSpace=wrap;html=1;"}},
            "node_styles 'request': style 'rhombus;whiteSpace=wrap;html=1;' reads back as 'limit'",
        ),
        (
            {"node_styles": {"request": "shape=parallelogram;\u0001"}},
            "node_styles 'request': cannot write 'shape=parallelogram;\\x01' in XML:"
            " U+0001 is not an XML character",
        ),
    ],
    ids=["request-as-rhombus", "control-character"],
)
def test_a_style_map_that_would_not_read_back_is_refused_by_name(tmp_path, capsys, config, message):
    path = tmp_path / "house.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "pa.drawio.xml"
    assert main(["transform", str(DEMO_DATA / "estore.drawio.xml"), "--styles", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: style config {path}: {message}\n")
    assert not out.exists()


# --- simulate ---------------------------------------------------------------------


def payment_model(tmp_path):
    return write_drawio(tmp_path, "payment.drawio", build_payment_raw())


def simulate_argv(fixtures_dir, model, *extra):
    return [
        "simulate",
        str(model),
        "--static",
        str(fixtures_dir / "payment_static.csv"),
        "--dynamic",
        str(fixtures_dir / "payment_dynamic.csv"),
        "--clock",
        CLOCK,
        "--compat",
        str(fixtures_dir / "compat.json"),
        *extra,
    ]


def test_simulate_business_drawing(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    assert main(simulate_argv(fixtures_dir, model)) == 0
    out = capsys.readouterr().out
    assert "log entries: 5 (violations: 1)" in out
    assert "v=true" in out
    assert "store db_project: d3" in out


def test_simulate_pretransformed_model(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    pa_path = tmp_path / "payment-pa.json"
    assert main(["transform", str(model), "-o", str(pa_path)]) == 0
    assert main(simulate_argv(fixtures_dir, pa_path)) == 0
    assert "log entries: 5 (violations: 1)" in capsys.readouterr().out


def test_simulate_gates_a_privacy_aware_model_as_check_does(fixtures_dir, tmp_path, capsys):
    """A privacy-aware model with findings is refused before any run: the
    findings go to stderr, as `check` prints them, and no report prints."""
    pa = transform(typecheck(build_payment_raw())[0])
    requests = sorted(n.id for n in pa.nodes.values() if n.node_type is NodeType.REQUEST)
    other_limit = pa.nodes[requests[1]].partner
    nodes = {**pa.nodes, requests[0]: Node(requests[0], NodeType.REQUEST, partner=other_limit)}
    model = write_json(tmp_path, "edited-pa.json", Diagram(pa.stage, nodes, pa.flows))
    assert main(["check", str(model)]) == 1
    findings = capsys.readouterr().out
    assert findings.count("partner-asymmetric") == 2
    assert main(simulate_argv(fixtures_dir, model)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == findings


def test_simulate_refuses_a_model_with_a_broken_gadget(fixtures_dir, tmp_path, capsys):
    """A model edited by hand loses one limlog flow: `check` names the
    guarded flow whose gadget lacks its log chain, and `simulate` refuses
    the model with the same findings instead of running it."""
    pa = transform(typecheck(build_payment_raw())[0])
    gadget = next(iter(gadget_roles(pa).values()))
    flows = {k: f for k, f in pa.flows.items() if k != gadget["limlog"]}
    model = write_json(tmp_path, "edited-pa.json", Diagram(pa.stage, pa.nodes, flows))
    assert main(["check", str(model)]) == 1
    findings = capsys.readouterr().out
    assert f"error {gadget['flow']} gadget-part: " in findings
    assert "log, log_db, limlog, logging missing" in findings
    assert main(simulate_argv(fixtures_dir, model)) == 1
    assert capsys.readouterr() == ("", findings)


def test_simulate_json_report(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    assert main(simulate_argv(fixtures_dir, model, "--report", "json")) == 0
    doc = json.loads(capsys.readouterr().out)
    forwarded = {d["d_id"]: d["forwarded_padfd"] for d in doc["decisions"]}
    assert forwarded == {"d1": True, "d2": True, "d3": True, "d4": True, "d5": False}


@pytest.mark.parametrize("extra", [[], ["--multi-hop"]], ids=["single-hop", "multi-hop"])
@pytest.mark.parametrize("rename", [{}, {"d1": "d1-\u00e9", "d3": "d3-\u2028\U0001f512"}], ids=["demo", "non-ascii"])
def test_simulate_json_report_is_the_reference(tmp_path, capsys, extra, rename):
    """The printed report is the test-side builder's dict through
    json.dumps(..., indent=2, sort_keys=True), plus a newline, for the demo
    tables and for a copy whose record ids need escaping."""
    tables = tmp_path / "tables"
    shutil.copytree(DEMO_DATA, tables)
    dynamic = tables / "payment_dynamic.csv"
    text = dynamic.read_text(encoding="utf-8")
    for old, new in rename.items():
        text = text.replace(f"\n{old},", f"\n{new},")
    dynamic.write_text(text, encoding="utf-8")
    model = payment_model(tmp_path)
    assert main(simulate_argv(tables, model, "--report", "json", *extra)) == 0
    wellformed, _ = typecheck(build_payment_raw())
    report = run_simulation(
        transform(wellformed),
        load_flow_metas(tables / "payment_static.csv"),
        load_data_records(dynamic),
        date.fromisoformat(CLOCK),
        compatible=compatibility_with_equivalences(load_equivalences(tables / "compat.json")),
        multi_hop=bool(extra),
    )
    assert {d.d_id for d in report.decisions} >= set(rename.values())
    out = capsys.readouterr().out
    assert out == reference_report_json(report) + "\n"
    assert out.isascii()


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_simulate_text_report_keeps_one_line_per_decision(tmp_path, capsys, suffix):
    """A record id holding a line break, as a quoted CSV field or a JSON
    string may, or a tab, is written with Python's escapes: each decision
    and each store keeps its one line, and the columns stay aligned."""
    tables = tmp_path / "tables"
    shutil.copytree(DEMO_DATA, tables)
    with open(tables / "payment_dynamic.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    renamed = {"d1": "d\n1", "d3": "d\t3"}
    for row in rows:
        row["D_id"] = renamed.get(row["D_id"], row["D_id"])
    dynamic = tables / f"records{suffix}"
    if suffix == ".csv":
        with open(dynamic, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        dynamic.write_text(json.dumps(rows), encoding="utf-8")
    argv = simulate_argv(tables, payment_model(tmp_path))
    argv[argv.index("--dynamic") + 1] = str(dynamic)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "clock: 2020-06-01",
        "D_id  F_id  B-DFD  PA-DFD  Violation",
        "d\\n1  f1    yes    yes     -",
        "d2    f2    yes    yes     -",
        "d\\t3  f3    yes    yes     -",
        "d4    f4    yes    yes     -",
        "d5    f1    yes    no      v=true",
        "log entries: 5 (violations: 1)",
        "store db_bim: -",
        "store db_project: d\\t3",
    ]


def test_simulate_fail_on_violation(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    assert main(simulate_argv(fixtures_dir, model, "--fail-on-violation")) == 1
    # The report still prints before the exit code signals the violation.
    assert "v=true" in capsys.readouterr().out


def test_simulate_without_compat_blocks_rewordings(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    argv = [
        "simulate",
        str(model),
        "--static",
        str(fixtures_dir / "payment_static.csv"),
        "--dynamic",
        str(fixtures_dir / "payment_dynamic.csv"),
        "--clock",
        CLOCK,
    ]
    assert main(argv) == 0
    assert "violations: 4" in capsys.readouterr().out


def test_simulate_multi_hop(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    assert main(simulate_argv(fixtures_dir, model, "--multi-hop")) == 0
    out = capsys.readouterr().out
    assert "f3 (hop)" in out
    assert "log entries: 7 (violations: 3)" in out


def test_simulate_multi_hop_text_report_is_the_golden(fixtures_dir, tmp_path, capsys):
    """The demo drawing, rewritten and run multi-hop on the payment tables,
    prints the committed table byte for byte; CI checks the same command
    run from the source tree without site-packages."""
    pa = tmp_path / "pa.json"
    assert main(["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(pa)]) == 0
    capsys.readouterr()
    assert main(simulate_argv(fixtures_dir, pa, "--multi-hop", "--report", "text")) == 0
    golden = (fixtures_dir / "payment_multihop_report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_simulate_rejects_ill_formed_model(fixtures_dir, tmp_path, capsys):
    assert main(
        simulate_argv(fixtures_dir, fixtures_dir / "ext_pair.drawio.xml")
    ) == 1
    assert "pf-no-rule" in capsys.readouterr().err


def test_simulate_unknown_flow_in_table(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "D_id,F_id,Dsub,Consent,Expiry,Content\n"
        "d9,f99,S,billing,2020-12-31,x\n",
        encoding="utf-8",
    )
    argv = [
        "simulate",
        str(model),
        "--static",
        str(fixtures_dir / "payment_static.csv"),
        "--dynamic",
        str(bad),
        "--clock",
        CLOCK,
    ]
    assert main(argv) == 1
    assert "f99" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, rows, message",
    [
        ("static", "", "record 'd1' names flow 'f1', which has no policy row"),
        (
            "dynamic",
            "d7,gen-11,S,billing,2020-12-31,x\n",
            "record 'd7' names flow 'gen-11', which is not a guarded data flow; records travel"
            " the flows of the original diagram",
        ),
    ],
    ids=["no-policy-row", "unguarded-flow"],
)
def test_simulate_refusals_name_the_record(tmp_path, capsys, table, rows, message):
    source = DEMO_DATA / f"payment_{table}.csv"
    edited = tmp_path / source.name
    edited.write_text(source.read_text(encoding="utf-8").splitlines()[0] + "\n" + rows, encoding="utf-8")
    argv = simulate_argv(DEMO_DATA, DEMO_DATA.parent / "out" / "estore_pa.json")
    argv[argv.index(f"--{table}") + 1] = str(edited)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_missing_table_file(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    argv = [
        "simulate",
        str(model),
        "--static",
        str(tmp_path / "absent.csv"),
        "--dynamic",
        str(fixtures_dir / "payment_dynamic.csv"),
        "--clock",
        CLOCK,
    ]
    assert main(argv) == 2


def test_simulate_bad_clock(fixtures_dir, tmp_path, capsys):
    model = payment_model(tmp_path)
    argv = [
        "simulate",
        str(model),
        "--static",
        str(fixtures_dir / "payment_static.csv"),
        "--dynamic",
        str(fixtures_dir / "payment_dynamic.csv"),
        "--clock",
        "soon",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --- unreadable inputs ------------------------------------------------------------


# Each error class of padfd.errors: its base, and the exit code `main`
# ends a command with when the command raises it.
ERROR_CLASSES = {
    "PadfdError": ("Exception", 1),
    "ParseError": ("PadfdError", 2),
    "SchemaError": ("ParseError", 2),
    "StageError": ("PadfdError", 1),
    "WellFormednessError": ("PadfdError", 1),
    "TransformError": ("PadfdError", 1),
    "SimulationError": ("PadfdError", 1),
}


@pytest.mark.parametrize("name", list(ERROR_CLASSES))
def test_each_error_class_has_its_base_and_exit_code(capsys, monkeypatch, name):
    import padfd
    from padfd import cli, errors

    defined = [n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)]
    assert sorted(defined) == sorted(ERROR_CLASSES)
    assert sorted(n for n in padfd.__all__ if n.endswith("Error")) == sorted(ERROR_CLASSES)
    error = getattr(errors, name)
    base, code = ERROR_CLASSES[name]
    assert [b.__name__ for b in error.__bases__] == [base]

    def refuse(args):
        raise error("refused")

    monkeypatch.setitem(cli.COMMANDS, "check", (refuse, *cli.COMMANDS["check"][1:]))
    assert main(["check", "model.json"]) == code
    assert capsys.readouterr() == ("", "error: refused\n")


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("what", ["static", "dynamic"])
def test_simulate_refuses_a_table_without_a_column_with_exit_2(
    fixtures_dir, tmp_path, capsys, what, suffix
):
    """A demo table without its last column breaks the schema alike as CSV
    and as JSON: exit 2, naming the column."""
    with open(fixtures_dir / f"payment_{what}.csv", newline="", encoding="utf-8") as handle:
        (*header, lost), *rows = csv.reader(handle)
    bad = tmp_path / f"table{suffix}"
    with open(bad, "w", newline="", encoding="utf-8") as handle:
        if suffix == ".csv":
            csv.writer(handle).writerows([header, *(row[:-1] for row in rows)])
        else:
            json.dump([dict(zip(header, row)) for row in rows], handle)
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path))
    argv[argv.index(f"--{what}") + 1] = str(bad)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    where = f"{what} table {bad}" if suffix == ".csv" else f"{what} table {bad} row 0"
    assert out == "" and err.startswith(f"error: {where}: missing columns [{lost!r}]")


NOT_UTF8 = {
    "--static": ("static table", b"F_id,Label,Purpose,PD,Data_type\n\xff,x,y,true,z\n", 32),
    "--dynamic": ("dynamic table", b"D_id,F_id,Consent,Expiry\nd1,f\xe9,,\n", 29),
    "--compat": ("equivalence file", b"\xff[]", 0),
    "--styles": ("style config", b"\xff{}", 0),
    "PADFD_STYLES": ("style config", b"\xff{}", 0),
}


@pytest.mark.parametrize("option", list(NOT_UTF8))
def test_simulate_refuses_inputs_that_are_not_utf8(fixtures_dir, tmp_path, capsys, monkeypatch, option):
    what, data, offset = NOT_UTF8[option]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path))
    if option == "PADFD_STYLES":
        monkeypatch.setenv(option, str(bad))
    elif option in argv:
        argv[argv.index(option) + 1] = str(bad)
    else:
        argv += [option, str(bad)]
    assert main(argv) == 2
    reason = "invalid continuation byte" if option == "--dynamic" else "invalid start byte"
    assert capsys.readouterr().err == f"error: {what} {bad}: not valid UTF-8 at byte {offset} ({reason})\n"


# JSON text every reader must refuse with exit 2, not a traceback: nesting
# deeper than the decoder's recursion limit, and an integer longer than the
# interpreter converts (CPython 3.10.7 on; an older one reads it as a
# number, which every reader's top-level check refuses).
HOSTILE_JSON = {"deep-nesting": b"[" * 200_000, "long-integer": b"1" + b"0" * 5000}
JSON_READERS = {
    "--static": "static table",
    "--dynamic": "dynamic table",
    "--compat": "equivalence file",
    "--styles": "style config",
    "PADFD_STYLES": "style config",
}


def assert_refused_as_json(err: str, where: str, kind: str) -> None:
    """`err` is one line refusing the `HOSTILE_JSON` document `kind` in the
    file named `where`. An over-long integer keeps Python's reason, in the
    words of the running version, but not its advice to raise the limit,
    which names a call no padfd user can make."""
    assert err.startswith("error: ") and err.count("\n") == 1
    if kind == "deep-nesting" or hasattr(sys, "get_int_max_str_digits"):
        reason = "Exceeds the limit" if kind == "long-integer" else ""
        assert err.startswith(f"error: {where}: not valid JSON: {reason}")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("kind", list(HOSTILE_JSON))
@pytest.mark.parametrize("option", list(JSON_READERS))
def test_simulate_refuses_hostile_json_inputs(fixtures_dir, tmp_path, capsys, monkeypatch, option, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(HOSTILE_JSON[kind])
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path))
    if option == "PADFD_STYLES":
        monkeypatch.setenv(option, str(bad))
    elif option in argv:
        argv[argv.index(option) + 1] = str(bad)
    else:
        argv += [option, str(bad)]
    assert main(argv) == 2
    assert_refused_as_json(capsys.readouterr().err, f"{JSON_READERS[option]} {bad}", kind)


@pytest.mark.parametrize("report", ["text", "json"])
def test_simulate_refuses_a_lone_surrogate_in_a_json_table(fixtures_dir, tmp_path, capsys, report):
    # Strict UTF-8 decoding leaves the \\udXXX escape as the only way in.
    dynamic = tmp_path / "dynamic.json"
    dynamic.write_text(
        '[{"D_id": "\\ud800", "F_id": "f1", "Dsub": "S", "Consent": "billing", '
        '"Expiry": "2020-12-31", "Content": ""}]',
        encoding="utf-8",
    )
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path), "--report", report)
    argv[argv.index("--dynamic") + 1] = str(dynamic)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: dynamic table {dynamic} row 0: D_id '\\ud800' holds a lone surrogate\n"


def test_simulate_refuses_a_non_boolean_pd_in_a_json_table(fixtures_dir, tmp_path, capsys):
    static = tmp_path / "static.json"
    static.write_text(
        '[{"F_id": "f1", "Label": "L", "Purpose": "p", "PD": null, "Data_type": "s"}]',
        encoding="utf-8",
    )
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path))
    argv[argv.index("--static") + 1] = str(static)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: static table {static} row 0: PD must be 'True' or 'False', found None\n"


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_simulate_refuses_a_second_policy_row_for_a_flow(fixtures_dir, tmp_path, capsys, suffix):
    static, first, second = repeat_first_policy_row(fixtures_dir / "payment_static.csv", tmp_path, suffix)
    argv = simulate_argv(fixtures_dir, payment_model(tmp_path))
    argv[argv.index("--static") + 1] = str(static)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"error: static table {static} row {second}: duplicate policy row for flow 'f1'"
        f" (first at row {first})\n",
    )


@pytest.mark.parametrize("kind", list(HOSTILE_JSON))
def test_check_refuses_a_hostile_json_diagram(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(HOSTILE_JSON[kind])
    assert main(["check", str(bad)]) == 2
    assert_refused_as_json(capsys.readouterr().err, str(bad), kind)


@pytest.mark.parametrize("writer", [write_json, write_drawio], ids=["json", "drawio"])
def test_check_reads_a_file_of_unknown_suffix_by_its_content(tmp_path, capsys, writer):
    raw = build_diagram(
        Stage.RAW, [Node("a", NodeType.EXT), Node("b", NodeType.EXT)], [Flow("ab", "a", "b", FlowType.PF)]
    )
    model = writer(tmp_path, "model.txt", raw)
    assert main(["check", str(model)]) == 1
    assert capsys.readouterr() == (
        "error ab pf-no-rule: plain flow 'ab' runs ext -> ext; no flow kind reads that\n", ""
    )


@pytest.mark.parametrize("name", ["model.gv", "model.dot"])
def test_check_reads_json_named_as_dot_by_its_content(tmp_path, capsys, name):
    raw = build_diagram(
        Stage.RAW, [Node("a", NodeType.EXT), Node("b", NodeType.EXT)], [Flow("ab", "a", "b", FlowType.PF)]
    )
    assert main(["check", str(write_json(tmp_path, name, raw))]) == 1
    assert capsys.readouterr() == (
        "error ab pf-no-rule: plain flow 'ab' runs ext -> ext; no flow kind reads that\n", ""
    )


def dot_refusal(path) -> str:
    return f"error: {path}: the input is Graphviz DOT, which padfd writes but does not read\n"


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_dot_golden_is_refused_as_dot(fixtures_dir, capsys, command):
    golden = str(DEMO_DATA.parent / "out" / "estore_pa.dot")
    argv = ["check", golden] if command == "check" else simulate_argv(fixtures_dir, golden)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", dot_refusal(golden))


@pytest.mark.parametrize(
    "text, refused",
    [
        (b"\n  strict digraph {}", True),
        (b"graph{}", True),
        (b"DiGraph G { a -> b }", True),
        (b"graphs", False),
        (b"subgraph {}", False),
    ],
)
def test_a_file_of_unknown_suffix_is_refused_as_dot_by_its_first_word(tmp_path, capsys, text, refused):
    model = tmp_path / "model.txt"
    model.write_bytes(text)
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert (err == dot_refusal(model)) is refused
    assert err.startswith(f"error: {model}: not well-formed XML") is not refused


@pytest.mark.parametrize("lead", [b"// c\n", b"/* c */ ", b"# c\n"], ids=["line-comment", "block-comment", "hash"])
@pytest.mark.parametrize("name", ["g.dot", "g.gv", "g.DOT", "g.xml"])
def test_a_dot_file_that_opens_with_a_comment_is_refused_as_dot(tmp_path, capsys, lead, name):
    """Only the name tells a DOT file whose first word is a comment: a
    `.dot` or `.gv` name gets the DOT refusal, any other the draw.io
    reader's."""
    model = tmp_path / name
    model.write_bytes(lead + b"digraph g { a -> b }\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    if name == "g.xml":
        assert err.startswith(f"error: {model}: not well-formed XML")
    else:
        assert err == dot_refusal(model)


def test_check_reads_a_json_suffix_in_any_case_as_json(tmp_path, capsys):
    # A list does not start as JSON objects do, so only the suffix says JSON.
    listed = tmp_path / "model.JSON"
    listed.write_bytes(b"[]")
    assert main(["check", str(listed)]) == 2
    assert capsys.readouterr().err == f"error: {listed}: top level must be an object\n"


def test_check_refuses_a_drawing_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.drawio.xml"
    bad.write_bytes(b"<mxfile>\xff</mxfile>")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 at byte 8 (invalid start byte)\n"


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("bad.json", b'{"x": ', "not valid JSON: Expecting value: line 1 column 7 (char 6)"),
        ("bad.json", b"\xff{}", "not valid UTF-8 at byte 0 (invalid start byte)"),
        ("bad.drawio", b"\xff<mxfile/>", "not valid UTF-8 at byte 0 (invalid start byte)"),
        ("bad.drawio", b"<mxfile>", "not well-formed XML: no element found: line 1, column 8"),
        ("bad.txt", b"{\xff}", "not valid UTF-8 at byte 1 (invalid start byte)"),
    ],
    ids=["json-syntax", "json-not-utf8", "drawio-not-utf8", "drawio-syntax", "sniffed-json-not-utf8"],
)
def test_a_diagram_that_does_not_decode_is_named(tmp_path, capsys, name, data, message):
    """As a table is, a diagram file that does not decode as UTF-8, JSON
    or XML is named in the message."""
    bad = tmp_path / name
    bad.write_bytes(data)
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("name", ["model.json", "model.txt", "model.drawio"])
@pytest.mark.parametrize("command", ["check", "export"])
def test_a_leading_byte_order_mark_on_a_diagram_is_dropped(tmp_path, capsys, name, command):
    """A diagram saved with a UTF-8 byte order mark reads as the same file
    without it, whether its suffix or its content names the format."""
    raw = build_payment_raw()
    model = (write_drawio if name.endswith(".drawio") else write_json)(tmp_path, name, raw)
    model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    out = tmp_path / "out.json"
    argv = ["check", str(model)]
    if command == "export":
        argv = ["export", str(model), "-o", str(out), "--out-format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    if command == "export":
        assert out.read_bytes() == emit_json(raw)


@pytest.mark.parametrize(
    "name, message",
    [
        ("model.json", "not valid JSON: Unexpected UTF-8 BOM: line 1 column 1 (char 0)\n"),
        # Past every mark the content starts with "{", so the JSON reader refuses it.
        ("model.txt", "not valid JSON: Unexpected UTF-8 BOM: line 1 column 1 (char 0)\n"),
        ("model.drawio.xml", "not well-formed XML: "),
    ],
)
def test_two_leading_byte_order_marks_on_a_diagram_are_refused(tmp_path, capsys, name, message):
    """Only the reader drops a mark, and only one: the command line looks
    past every mark to tell the format by content, but reads the file as
    it is."""
    raw = build_payment_raw()
    model = (write_drawio if ".drawio" in name else write_json)(tmp_path, name, raw)
    model.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + model.read_bytes())
    assert main(["check", str(model)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {model}: {message}")


def test_a_node_without_an_id_is_named_by_its_place(tmp_path, capsys):
    model = tmp_path / "model.json"
    doc = {"schema": "padfd-canonical/1", "stage": "raw-bdfd", "nodes": [{"label": 3}]}
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(model)]) == 2
    assert capsys.readouterr() == ("", f"error: {model}: nodes[0]: label must be a string\n")


def test_json_commands_still_read_a_named_style_map(tmp_path, capsys):
    """A JSON diagram needs no style map, but one that is named must read."""
    model = write_json(tmp_path, "payment.json", build_payment_raw())
    config = tmp_path / "house.json"
    config.write_text(json.dumps({"bogus": []}), encoding="utf-8")
    assert main(["check", str(model), "--styles", str(config)]) == 2
    assert capsys.readouterr().err == f"error: style config {config}: unknown keys ['bogus']\n"


# --- entry point -------------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_launcher(module, attr, argv, cwd, timeout=None):
    """Run `module:attr` the way a setuptools console-script launcher does."""
    package_root = Path(
        importlib.import_module(module.split(".")[0]).__file__
    ).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def test_console_script_is_wired(fixtures_dir, tmp_path, capsys):
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11 on
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["padfd"]
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))

    argv = ["check", str(fixtures_dir / "estore.drawio.xml")]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = run_launcher(module, attr, argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected

    missing = ["check", str(tmp_path / "absent.json")]
    proc = run_launcher(module, attr, missing, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def run_into_a_closed_pipe(argv, cwd, unbuffered):
    """Run ``python -m padfd.cli`` with a stdout pipe whose reader is gone
    before the command starts."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    package_root = Path(importlib.import_module("padfd").__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return subprocess.run(
            [sys.executable, "-m", "padfd.cli", *argv],
            stdout=writer, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env, timeout=60,
        )
    finally:
        os.close(writer)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check-json", "simulate-text", "simulate-json"])
def test_a_closed_stdout_exits_1_quietly(fixtures_dir, tmp_path, command, unbuffered):
    if command == "check-json":
        pa = write_json(tmp_path, "pa.json", transform(typecheck(build_payment_raw())[0]))
        argv = ["check", str(pa), "--report", "json"]
    else:
        argv = [
            "simulate", str(write_json(tmp_path, "raw.json", build_payment_raw())),
            "--static", str(fixtures_dir / "payment_static.csv"),
            "--dynamic", str(fixtures_dir / "payment_dynamic.csv"),
            "--clock", CLOCK, "--report", command.split("-")[1],
        ]
    proc = run_into_a_closed_pipe(argv, tmp_path, unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_an_unreadable_input_still_exits_2_with_a_closed_stdout(tmp_path, unbuffered):
    proc = run_into_a_closed_pipe(["check", "absent.json"], tmp_path, unbuffered)
    assert (proc.returncode, proc.stderr) == (
        2, "error: [Errno 2] No such file or directory: 'absent.json'\n"
    )


@pytest.mark.skipif(
    shutil.which("padfd") is None,
    reason="padfd launcher not on PATH (package not installed)",
)
def test_installed_console_script_runs(fixtures_dir):
    proc = subprocess.run(
        ["padfd", "check", str(fixtures_dir / "estore.drawio.xml")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
