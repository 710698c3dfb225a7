from __future__ import annotations

import base64
import json
import random
import urllib.parse
import zlib
from pathlib import Path

import pytest

from padfd import (
    DEFAULT_STYLE_MAP,
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    PadfdError,
    ParseError,
    SCHEMA_ID,
    SchemaError,
    Stage,
    StyleMap,
    add_flow,
    add_node,
    emit_dot,
    emit_drawio,
    emit_json,
    layout_generated,
    load_style_map,
    parse_drawio,
    parse_json,
    transform,
    typecheck,
)
from padfd.cli import main
from padfd.drawio import MAX_INFLATED_PAGE
from padfd.model import BDFD_NODE_TYPES, NODE_LOOKS

from references import reference_emit_drawio, reference_parse_json, to_canonical_dict

from helpers import (
    build_all_kinds,
    build_diagram,
    build_estore_raw,
    random_any_stage,
    replace,
    scatter_positions,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# --- draw.io parsing ---------------------------------------------------------


def test_parse_vanilla_drawing(fixtures_dir):
    d = parse_drawio((fixtures_dir / "estore.drawio.xml").read_bytes())
    assert d.stage is Stage.RAW
    types = {n.id: n.node_type for n in d.nodes.values()}
    assert types == {
        "customer": NodeType.EXT,
        "p_info": NodeType.PROC,
        "p_account": NodeType.PROC,
        "p_cart": NodeType.PROC,
        "db_customer": NodeType.DB,
    }
    assert {f.flow_type for f in d.flows.values()} == {FlowType.PF}
    assert d.nodes["customer"].position == (40.0, 240.0)
    assert d.flows["f1"].label == "Customer Info"
    assert d.flows["f3"].label is None
    # Attributes outside the model are kept verbatim.
    assert d.nodes["db_customer"].extra == {"owner": "ops"}


def test_parsed_vanilla_drawing_typechecks(fixtures_dir):
    d = parse_drawio((fixtures_dir / "estore.drawio.xml").read_text())
    wellformed, diagnostics = typecheck(d)
    assert diagnostics == []
    assert wellformed is not None


def test_parse_unknown_style_names_cell(fixtures_dir):
    with pytest.raises(ParseError) as exc:
        parse_drawio((fixtures_dir / "unknown_style.drawio.xml").read_bytes())
    assert "mystery" in str(exc.value)


def test_parse_multipage_rejected(fixtures_dir):
    with pytest.raises(ParseError):
        parse_drawio((fixtures_dir / "multipage.drawio.xml").read_bytes())


def test_parse_truncated_file(fixtures_dir):
    with pytest.raises(ParseError):
        parse_drawio((fixtures_dir / "truncated.drawio.xml").read_bytes())


@pytest.mark.parametrize(
    "document, error, message",
    [
        ("<mxfile/>", ParseError, "mxfile contains no diagram page"),
        ("<mxfile><diagram> </diagram></mxfile>", ParseError, "diagram page contains no mxGraphModel"),
        ("<svg/>", ParseError, "unexpected root element 'svg'"),
        ("<mxGraphModel/>", ParseError, "mxGraphModel has no root element"),
        (
            '<mxGraphModel><root><mxCell id="a" style="ellipse;" vertex="1"/>'
            '<mxCell edge="1" source="a" target="a"/></root></mxGraphModel>',
            SchemaError,
            "flow id must be a non-empty string",
        ),
        (
            '<mxGraphModel><root><mxCell id="a" style="ellipse;" vertex="1"/>'
            '<mxCell id="e" edge="1" source="a" target="ghost"/></root></mxGraphModel>',
            SchemaError,
            "flow 'e' references missing node 'ghost'",
        ),
        # A cell without an id is named by its place among the page's cells.
        (
            '<mxGraphModel><root><mxCell id="0"/><mxCell vertex="1" style="zzz"/></root></mxGraphModel>',
            ParseError,
            "cells[1]: no rule matches vertex style 'zzz'",
        ),
        (
            '<mxGraphModel><root><object label="x"><mxCell vertex="1" style="ellipse"/></object>'
            '<mxCell id="" vertex="1" style="zzz"/></root></mxGraphModel>',
            ParseError,
            "cells[1]: no rule matches vertex style 'zzz'",
        ),
        (
            '<mxGraphModel><root><mxCell vertex="1" style="ellipse">'
            '<mxGeometry x="abc" y="1" as="geometry"/></mxCell></root></mxGraphModel>',
            ParseError,
            "cells[0]: geometry coordinates are not numbers",
        ),
        # An object wrapper holds the id of the cell it wraps.
        (
            '<mxGraphModel><root><object id="o"><mxCell vertex="1" style="ellipse">'
            '<mxGeometry x="abc" y="1" as="geometry"/></mxCell></object></root></mxGraphModel>',
            ParseError,
            "cell 'o': geometry coordinates are not numbers",
        ),
    ],
    ids=[
        "no-page", "no-model", "unexpected-root", "no-root", "edge-without-id", "edge-to-ghost",
        "vertex-without-id", "vertex-with-empty-id", "geometry-without-id", "wrapped-geometry",
    ],
)
def test_parse_names_what_the_document_lacks(document, error, message):
    with pytest.raises(error) as exc:
        parse_drawio(document)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "text, index",
    [("<mxfile>\ud800</mxfile>", 8), ('<mxfile host="a\udfff"/>', 15)],
    ids=["in-text", "in-attribute"],
)
def test_parse_drawio_refuses_lone_surrogates_in_a_str(text, index):
    code = ord(text[index])
    with pytest.raises(ParseError, match=f"U\\+{code:04X} at index {index} is a lone surrogate"):
        parse_drawio(text)


def test_parse_missing_endpoint(fixtures_dir):
    with pytest.raises(SchemaError):
        parse_drawio((fixtures_dir / "missing_endpoint.drawio.xml").read_bytes())


def test_parse_object_wrapper(fixtures_dir):
    d = parse_drawio((fixtures_dir / "object_wrapper.drawio.xml").read_bytes())
    node = d.nodes["annotated"]
    assert node.label == "Annotated Entity"
    assert node.node_type is NodeType.EXT
    assert node.extra == {"department": "sales", "retention": "short"}
    assert d.flows["hop"].source == "annotated"


def test_parse_bare_graph_model():
    d = parse_drawio(
        '<mxGraphModel><root><mxCell id="0"/><mxCell id="1" parent="0"/>'
        '<mxCell id="n" value="N" style="rounded=0;" vertex="1" parent="1"/>'
        "</root></mxGraphModel>"
    )
    assert d.nodes["n"].node_type is NodeType.EXT
    assert d.nodes["n"].position is None


def test_parse_compressed_page():
    inner = (
        '<mxGraphModel><root><mxCell id="0"/><mxCell id="1" parent="0"/>'
        '<mxCell id="n" value="N" style="ellipse;" vertex="1" parent="1">'
        '<mxGeometry x="10" y="20" width="120" height="60" as="geometry"/>'
        "</mxCell></root></mxGraphModel>"
    )
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
    quoted = urllib.parse.quote(inner, safe="").encode("ascii")
    payload = base64.b64encode(compressor.compress(quoted) + compressor.flush())
    doc = (
        '<mxfile host="x"><diagram id="c" name="P">'
        + payload.decode("ascii")
        + "</diagram></mxfile>"
    )
    d = parse_drawio(doc)
    assert d.nodes["n"].node_type is NodeType.PROC
    assert d.nodes["n"].position == (10.0, 20.0)


def _compressed_page(chunks) -> str:
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
    body = b"".join(compressor.compress(chunk) for chunk in chunks)
    payload = base64.b64encode(body + compressor.flush()).decode("ascii")
    return f'<mxfile host="x"><diagram id="c" name="P">{payload}</diagram></mxfile>'


def test_parse_refuses_deflate_bomb(tmp_path, capsys):
    # About 100 kB of base64 that would inflate past the page limit.
    megabyte = b"0" * (1 << 20)
    chunks = [megabyte] * (MAX_INFLATED_PAGE // len(megabyte) + 1)
    doc = _compressed_page(chunks)
    assert len(doc) < 200_000
    with pytest.raises(ParseError, match="inflates beyond"):
        parse_drawio(doc)
    bomb = tmp_path / "bomb.drawio.xml"
    bomb.write_text(doc, encoding="ascii")
    assert main(["check", str(bomb)]) == 2
    assert "inflates beyond" in capsys.readouterr().err


def test_parse_rejects_truncated_compressed_page():
    doc = _compressed_page([urllib.parse.quote("<mxGraphModel/>" * 50).encode()])
    payload = doc.split('name="P">')[1].split("<")[0]
    truncated = base64.b64encode(base64.b64decode(payload)[:-8]).decode("ascii")
    with pytest.raises(ParseError, match="truncated"):
        parse_drawio(doc.replace(payload, truncated))


@pytest.mark.parametrize("x", ["abc", "NaN", "nan", "inf", "-Infinity", "1e400"])
def test_parse_rejects_non_numeric_geometry(x):
    doc = (
        '<mxGraphModel><root><mxCell id="0"/><mxCell id="1" parent="0"/>'
        '<mxCell id="n" value="N" style="ellipse;" vertex="1" parent="1">'
        f'<mxGeometry x="{x}" y="20" width="120" height="60" as="geometry"/>'
        "</mxCell></root></mxGraphModel>"
    )
    with pytest.raises(ParseError, match="cell 'n': geometry coordinates are not numbers"):
        parse_drawio(doc)


def test_parse_duplicate_cell_id():
    doc = (
        '<mxGraphModel><root><mxCell id="0"/>'
        '<mxCell id="n" style="rounded=0;" vertex="1"/>'
        '<mxCell id="n" style="ellipse;" vertex="1"/>'
        "</root></mxGraphModel>"
    )
    with pytest.raises(ParseError):
        parse_drawio(doc)


# Each defect of ids and flow ends: the node ids and the (id, source,
# target) flows that hold it, None standing for an end that is missing,
# and the one message every reader and builder refuses it with.
ID_DEFECTS = {
    "empty-node-id": (["a", ""], [], "node id must be a non-empty string"),
    "empty-flow-id": (["a", "b"], [("", "a", "b")], "flow id must be a non-empty string"),
    "node-node-duplicate": (["a", "a"], [], "node id 'a' already in use"),
    "flow-flow-duplicate": (
        ["a", "b"], [("f", "a", "b"), ("f", "b", "a")], "flow id 'f' already in use"
    ),
    "node-flow-clash": (["a", "b"], [("a", "a", "b")], "flow id 'a' already in use"),
    "missing-end": (["a"], [("f", "a", None)], "flow 'f' lacks a source or target"),
    "end-names-no-node": (
        ["a"], [("f", "a", "ghost")], "flow 'f' references missing node 'ghost'"
    ),
}


def _json_of(nodes, flows):
    flow_entries = [
        {key: value for key, value in zip(("id", "source", "target"), flow) if value is not None}
        for flow in flows
    ]
    doc = {"schema": SCHEMA_ID, "stage": "raw-bdfd", "nodes": [{"id": n} for n in nodes]}
    return parse_json(json.dumps({**doc, "flows": flow_entries}))


def _drawio_of(nodes, flows):
    cells = [f'<mxCell id="{n}" style="ellipse;" vertex="1"/>' for n in nodes]
    for flow in flows:
        ends = "".join(f' {k}="{v}"' for k, v in zip(("source", "target"), flow[1:]) if v is not None)
        cells.append(f'<mxCell id="{flow[0]}" edge="1"{ends}/>')
    return parse_drawio("<mxGraphModel><root>" + "".join(cells) + "</root></mxGraphModel>")


def _built_of(nodes, flows):
    diagram = Diagram()
    for node_id in nodes:
        diagram = add_node(diagram, Node(node_id, NodeType.EXT))
    for flow in flows:
        diagram = add_flow(diagram, Flow(*flow))
    return diagram


@pytest.mark.parametrize("read", [_json_of, _drawio_of, _built_of], ids=["json", "drawio", "built"])
@pytest.mark.parametrize("nodes, flows, message", list(ID_DEFECTS.values()), ids=list(ID_DEFECTS))
def test_an_id_defect_is_a_schema_error_wherever_it_is_met(read, nodes, flows, message):
    """parse_json, parse_drawio and add_node/add_flow refuse each defect
    with exactly SchemaError and one message, whichever of them meets it:
    the id space has one check, `graph.build`."""
    with pytest.raises(PadfdError) as exc:
        read(nodes, flows)
    assert type(exc.value) is SchemaError and str(exc.value) == message


def test_parse_stage_attribute_wins():
    doc = (
        '<mxGraphModel dfdStage="wellformed-bdfd"><root><mxCell id="0"/>'
        '<mxCell id="n" style="rounded=0;" vertex="1"/>'
        "</root></mxGraphModel>"
    )
    assert parse_drawio(doc).stage is Stage.WELLFORMED
    with pytest.raises(SchemaError):
        parse_drawio(doc.replace("wellformed-bdfd", "no-such-stage"))


def test_parse_infers_pa_stage():
    pa = transform(build_all_kinds())
    data = emit_drawio(pa)
    # Strip the explicit stage marker; content alone identifies the stage.
    stripped = data.decode("utf-8").replace(' dfdStage="pa-dfd"', "")
    assert parse_drawio(stripped).stage is Stage.PA


def test_parse_infers_wellformed_stage():
    data = emit_drawio(build_all_kinds()).decode("utf-8")
    # The dfd= markers of the typed data flows identify the stage.
    stripped = data.replace(' dfdStage="wellformed-bdfd"', "")
    assert stripped != data
    assert parse_drawio(stripped) == build_all_kinds()


def test_edge_typing_is_total():
    style_map = DEFAULT_STYLE_MAP
    assert style_map.flow_type_for(None) is FlowType.PF
    assert style_map.flow_type_for("edgeStyle=orthogonalEdgeStyle;html=1;") is FlowType.PF
    assert style_map.flow_type_for("html=1;dashed=1;") is FlowType.DF
    assert style_map.flow_type_for("dfd=reqlim;") is FlowType.REQLIM


# --- draw.io emission --------------------------------------------------------


def test_emit_requires_typed_elements():
    d = build_diagram(Stage.RAW, [Node("n")], [])
    with pytest.raises(ParseError):
        emit_drawio(d)


@pytest.mark.parametrize(
    "element, match",
    [
        (Node("a", NodeType.EXT, label="x\x01y"), r"cannot write 'x\\x01y' in XML: U\+0001"),
        (Node("a\x0b", NodeType.EXT), r"U\+000B is not an XML character"),
        (Node("a", NodeType.EXT, partner="\ufffe"), r"U\+FFFE is not an XML character"),
        (Node("a", NodeType.EXT, extra={"k": "\ud800"}), r"U\+D800 is not an XML character"),
        (Node("a", NodeType.EXT, label=""), "node 'a': an empty label reads back as no label"),
        (Node("a", NodeType.EXT, extra={"style": "x"}), "'style' is a cell attribute padfd writes"),
        (Node("a", NodeType.EXT, extra={"bad key": "x"}), "node 'a': extra key 'bad key' is not an XML"),
        (Node("a", NodeType.EXT, extra={"xml:lang": "en"}), "'xml:lang' is not an XML"),
        (Node("a", NodeType.EXT, extra={"p:k": "x"}), "'p:k' is not an XML"),
        (Node("a", NodeType.EXT, extra={"xmlns": "urn:x"}), "'xmlns' is not an XML"),
        (Node("a", NodeType.EXT, extra={"{}k": "x"}), r"'\{\}k' is not an XML"),
        (Node("a", NodeType.EXT, extra={"{urn:x}": "x"}), r"'\{urn:x\}' is not an XML"),
        (Node("a", NodeType.EXT, extra={"{urn:x": "x"}), r"'\{urn:x' is not an XML"),
        (Node("a", NodeType.EXT, extra={"{http://www.w3.org/2000/xmlns/}p": "x"}), "is not an XML"),
        (Flow("f", "a", "a", FlowType.PF, label=""), "flow 'f': an empty label"),
        (Flow("f", "a", "a", FlowType.PF, extra={"source": "b"}), "flow 'f': extra key 'source'"),
        (Flow("f", "a", "a"), "^flow 'f' is untyped; cannot emit$"),
    ],
)
def test_emit_refuses_what_would_not_read_back(element, match):
    if isinstance(element, Flow):
        d = build_diagram(Stage.RAW, [Node("a", NodeType.EXT)], [element])
    else:
        d = build_diagram(Stage.RAW, [element], [])
    with pytest.raises(SchemaError, match=match):
        emit_drawio(d)


def test_emit_declares_namespaces_in_prefix_order():
    extra = {f"{{urn:n{index}}}k": str(index) for index in range(12)}
    extra["{http://www.w3.org/XML/1998/namespace}lang"] = "en"
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT, extra=extra), Node("b", NodeType.PROC)],
        [Flow("f", "a", "b", FlowType.PF, extra={"{urn:late}k": "v", "{urn:n3}k": "w"})],
    )
    data = emit_drawio(d)
    assert data == reference_emit_drawio(d)
    header = data.decode("utf-8").splitlines()[1]
    prefixes = [part.split("=")[0] for part in header.split(" xmlns:")[1:]]
    assert prefixes == sorted(prefixes) and len(prefixes) == 13
    assert prefixes.index("ns10") < prefixes.index("ns2")
    assert header.endswith(' host="padfd">')
    text = data.decode("utf-8")
    assert ' xml:lang="en"' in text and "xmlns:xml" not in text
    assert parse_drawio(data) == d


def test_emit_escapes_custom_styles_like_the_reference():
    styles = StyleMap(
        node_rules=DEFAULT_STYLE_MAP.node_rules,
        edge_rules=DEFAULT_STYLE_MAP.edge_rules,
        node_styles={**DEFAULT_STYLE_MAP.node_styles, NodeType.EXT: 'label="a&b"<\t>;'},
        edge_styles={**DEFAULT_STYLE_MAP.edge_styles, FlowType.PF: "line\r\none;"},
    )
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT, label="A\tB"), Node("b", NodeType.PROC)],
        [Flow("f", "a", "b", FlowType.PF)],
    )
    assert emit_drawio(d, styles) == reference_emit_drawio(d, styles)


def test_emit_is_byte_deterministic():
    pa = layout_generated(transform(build_all_kinds()))
    assert emit_drawio(pa) == emit_drawio(pa)


def test_emit_structural_ids_avoid_collisions():
    d = build_diagram(
        Stage.RAW,
        [Node("0", NodeType.EXT, label="Zero"), Node("1", NodeType.PROC, label="One")],
        [Flow("f", "0", "1", FlowType.PF)],
    )
    back = parse_drawio(emit_drawio(d))
    assert back == d


def test_emit_structural_ids_step_past_taken_fallbacks():
    d = build_diagram(
        Stage.RAW,
        [Node("0", NodeType.EXT), Node("bg-0-0", NodeType.PROC), Node("1", NodeType.DB)],
        [Flow("f", "0", "bg-0-0", FlowType.PF)],
    )
    data = emit_drawio(d)
    assert b'<mxCell id="bg-0-1" />' in data
    assert b'<mxCell id="bg-1-0" parent="bg-0-1" />' in data
    assert parse_drawio(data) == d


def test_emit_generated_node_styles_distinct():
    styles = DEFAULT_STYLE_MAP
    emitted = [styles.node_styles[t] for t in NodeType]
    assert len(set(emitted)) == len(emitted)
    # Privacy node styles carry their marker so round trips never guess.
    for node_type in (
        NodeType.LIMIT,
        NodeType.REQUEST,
        NodeType.REASON,
        NodeType.POLICY_DB,
        NodeType.LOG,
        NodeType.LOG_DB,
        NodeType.CLEAN,
    ):
        assert f"dfd={node_type.value};" in styles.node_styles[node_type]


def test_each_node_kind_has_one_look():
    assert list(NODE_LOOKS) == list(NodeType)
    for kind, look in NODE_LOOKS.items():
        assert isinstance(look.drawio_style, str) and look.drawio_style
        assert isinstance(look.dot_shape, str) and look.dot_shape
        assert look.width > 0 and look.height > 0
        # The rewrite labels the kinds it generates; business kinds keep their own.
        if kind in BDFD_NODE_TYPES:
            assert look.label is None
        else:
            assert isinstance(look.label, str) and look.label


def test_drawio_round_trip_estore(fixtures_dir):
    d = parse_drawio((fixtures_dir / "estore.drawio.xml").read_bytes())
    assert parse_drawio(emit_drawio(d)) == d


def test_drawio_round_trip_pa_diagram():
    pa = layout_generated(transform(build_all_kinds()))
    back = parse_drawio(emit_drawio(pa))
    assert back == pa


def test_drawio_round_trip_awkward_labels():
    d = build_diagram(
        Stage.RAW,
        [
            Node("a", NodeType.EXT, label="line one\nline two"),
            Node("b", NodeType.PROC, label='a<b&c>"d\''),
        ],
        [Flow("f", "a", "b", FlowType.PF, label="  padded  ")],
    )
    assert parse_drawio(emit_drawio(d)) == d


def test_drawio_round_trip_random_diagrams():
    rng = random.Random(20201109)
    for _ in range(25):
        d = random_any_stage(rng)
        assert parse_drawio(emit_drawio(d)) == d


def test_emit_positions_only_when_set():
    d = build_diagram(
        Stage.RAW,
        [
            Node("placed", NodeType.EXT, position=(40.0, 60.5)),
            Node("floating", NodeType.PROC),
        ],
        [Flow("f", "placed", "floating", FlowType.PF)],
    )
    back = parse_drawio(emit_drawio(d))
    assert back.nodes["placed"].position == (40.0, 60.5)
    assert back.nodes["floating"].position is None


# --- style map overrides -----------------------------------------------------


def test_load_style_map_round_trip(tmp_path):
    config = {
        "node_rules": [
            ["kind=store", "db"],
            ["kind=actor", "ext"],
            ["kind=step", "proc"],
        ],
        "node_styles": {
            "db": "kind=store;fill=blue;",
            "ext": "kind=actor;",
            "proc": "kind=step;",
        },
    }
    path = tmp_path / "house.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    styles = load_style_map(path)
    assert styles.node_type_for("kind=store;fill=blue;") is NodeType.DB
    # Replaced rule list: the vanilla conventions no longer apply.
    assert styles.node_type_for("shape=datastore;") is None

    d = build_diagram(
        Stage.RAW,
        [Node("s", NodeType.DB, label="Store"), Node("p", NodeType.PROC)],
        [Flow("f", "s", "p", FlowType.PF)],
    )
    data = emit_drawio(d, styles=styles)
    assert b"kind=store;fill=blue;" in data
    assert parse_drawio(data, styles=styles) == d


def test_load_style_map_replaces_edge_rules(tmp_path):
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps({"edge_rules": [["dotted=1", "delete"]]}), encoding="utf-8")
    styles = load_style_map(path)
    assert styles.edge_rules == (("dotted=1", FlowType.DELETE),)
    assert styles.flow_type_for("dotted=1;") is FlowType.DELETE
    # Replaced rule list: the default markers no longer apply.
    assert styles.flow_type_for("dfd=reqlim;") is FlowType.PF
    assert styles.node_rules == DEFAULT_STYLE_MAP.node_rules
    assert styles.edge_styles == DEFAULT_STYLE_MAP.edge_styles


def test_load_style_map_merges_emit_styles(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"node_styles": {"limit": "myLimit;"}}), encoding="utf-8")
    styles = load_style_map(path)
    assert styles.node_styles[NodeType.LIMIT] == "myLimit;"
    assert styles.node_styles[NodeType.PROC] == DEFAULT_STYLE_MAP.node_styles[NodeType.PROC]
    assert styles.node_rules == DEFAULT_STYLE_MAP.node_rules


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"node_rules": [["x"]]}', "style config {path}: bad rule ['x'] in node_rules"),
        ('{"node_styles": []}', "style config {path}: node_styles must map type names to styles"),
        ('{"node_styles": {"ext": 1}}', "style config {path}: style for 'ext' must be a string"),
        ('{"node_styles": {"bogus": "x"}}', "style config {path}: unknown type 'bogus' in node_styles"),
        ("[]", "style config {path}: top level must be an object"),
    ],
    ids=["bad-rule", "styles-not-object", "style-not-string", "unknown-type", "top-level"],
)
def test_load_style_map_names_what_is_wrong(tmp_path, config, message):
    path = tmp_path / "bad.json"
    path.write_text(config, encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_style_map(path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize(
    "config",
    [
        '{"node_rules": [["x", "no-such-type"]]}',
        '{"mystery_key": []}',
        '{"node_rules": "not-a-list"}',
        "not json",
    ],
)
def test_load_style_map_rejects_bad_config(tmp_path, config):
    path = tmp_path / "bad.json"
    path.write_text(config, encoding="utf-8")
    with pytest.raises(SchemaError):
        load_style_map(path)


# --- canonical JSON ----------------------------------------------------------


def test_canonical_json_golden():
    d = build_diagram(
        Stage.WELLFORMED,
        [
            Node("b", NodeType.PROC, label="Work"),
            Node("a", NodeType.EXT, position=(40.0, 60.5)),
        ],
        [Flow("f", "a", "b", FlowType.IN, extra={"note": "kept"})],
    )
    expected = {
        "schema": SCHEMA_ID,
        "stage": "wellformed-bdfd",
        "nodes": [
            {"id": "a", "type": "ext", "position": [40, 60.5]},
            {"id": "b", "type": "proc", "label": "Work"},
        ],
        "flows": [
            {
                "id": "f",
                "source": "a",
                "target": "b",
                "type": "in",
                "extra": {"note": "kept"},
            }
        ],
    }
    assert to_canonical_dict(d) == expected
    data = emit_json(d)
    assert data.endswith(b"\n")
    assert json.loads(data) == expected


def test_canonical_json_sorted_and_deterministic():
    pa = transform(build_all_kinds())
    data = emit_json(pa)
    assert data == emit_json(pa)
    doc = json.loads(data)
    node_ids = [entry["id"] for entry in doc["nodes"]]
    flow_ids = [entry["id"] for entry in doc["flows"]]
    assert node_ids == sorted(node_ids)
    assert flow_ids == sorted(flow_ids)


def test_json_round_trip_random_diagrams():
    rng = random.Random(42)
    for _ in range(25):
        d = random_any_stage(rng)
        assert parse_json(emit_json(d)) == d


def test_json_integral_positions_collapse():
    d = build_diagram(Stage.RAW, [Node("n", NodeType.EXT, position=(100.0, -80.0))], [])
    doc = json.loads(emit_json(d))
    assert doc["nodes"][0]["position"] == [100, -80]
    assert parse_json(emit_json(d)).nodes["n"].position == (100.0, -80.0)


# Positional ids, as pytest names lambdas, keep each case's name stable as
# cases are appended.
_MALFORMED = [
    (
        lambda doc: doc.update(schema="other/1"),
        "schema must be 'padfd-canonical/1', found 'other/1'",
    ),
    (lambda doc: doc.pop("schema"), "schema must be 'padfd-canonical/1', found None"),
    (lambda doc: doc.update(stage="nope"), "unknown stage 'nope'"),
    (lambda doc: doc.update(surprise=1), r"unknown document keys \['surprise'\]"),
    (lambda doc: doc["nodes"].append({"id": "a", "type": "ext"}), "node id 'a' already in use"),
    (lambda doc: doc["nodes"][0].update(colour="red"), r"node has unknown keys \['colour'\]"),
    (
        lambda doc: doc["flows"][0].update(source="ghost"),
        "flow 'f' references missing node 'ghost'",
    ),
    (lambda doc: doc["flows"][0].pop("target"), "flow 'f' lacks a source or target"),
    (
        lambda doc: doc["nodes"][0].update(position=[1, 2, 3]),
        "node 'a': position must be a pair of numbers",
    ),
    (
        lambda doc: doc["nodes"][0].update(position=[True, False]),
        "node 'a': position must be a pair of numbers",
    ),
    (
        lambda doc: doc["nodes"][0].update(extra={"k": 5}),
        "node 'a': extra entries must map strings to strings",
    ),
    (
        lambda doc: doc["nodes"][0].update(position=[float("nan"), 0]),
        "not valid JSON: non-finite number NaN",
    ),
    (
        lambda doc: doc["nodes"][0].update(position=[float("inf"), 0]),
        "not valid JSON: non-finite number Infinity",
    ),
    (
        lambda doc: doc["nodes"][0].update(position=[0, float("-inf")]),
        "not valid JSON: non-finite number -Infinity",
    ),
    (
        lambda doc: doc["nodes"][0].update(position=[10**400, 0]),
        "node 'a': position coordinates must be finite",
    ),
    (lambda doc: doc["flows"][0].update(id="a"), "flow id 'a' already in use"),
    (lambda doc: doc.update(stage=["raw-bdfd"]), r"unknown stage \['raw-bdfd'\]"),
    (lambda doc: doc.update(nodes={}), "nodes must be a list"),
    (lambda doc: doc.update(flows=None), "flows must be a list"),
    (lambda doc: doc["nodes"].append("a"), "each node must be an object"),
    (lambda doc: doc["nodes"][0].update(id=""), "node id must be a non-empty string"),
    (lambda doc: doc["nodes"][0].update(type=7), "node 'a': type must be a string"),
    (lambda doc: doc["nodes"][0].update(type="limpro"), "node 'a': unknown type 'limpro'"),
    (lambda doc: doc["nodes"][0].update(label=["x"]), "node 'a': label must be a string"),
    (lambda doc: doc["nodes"][0].update(partner=1), "node 'a': partner must be a string"),
    (lambda doc: doc["nodes"][0].update(extra=None), "node 'a': extra must be an object"),
    (lambda doc: doc["flows"].append(["f"]), "each flow must be an object"),
    (lambda doc: doc["flows"][0].update(via="b"), r"flow has unknown keys \['via'\]"),
    (lambda doc: doc["flows"][0].update(id=3), "flow id must be a non-empty string"),
    (lambda doc: doc["flows"].append(dict(doc["flows"][0])), "flow id 'f' already in use"),
    (lambda doc: doc["flows"][0].update(source=0), "flow 'f': source must be a string"),
    (lambda doc: doc["flows"][0].update(target=None), "flow 'f' lacks a source or target"),
    (lambda doc: doc["flows"][0].update(type="ext"), "flow 'f': unknown type 'ext'"),
    (lambda doc: doc["flows"][0].update(extra=[]), "flow 'f': extra must be an object"),
    (lambda doc: doc["flows"][0].update(target=1), "^flow 'f': target must be a string$"),
    # An entry whose id is no usable string is named by its place in its list.
    (
        lambda doc: (doc["nodes"][1].pop("id"), doc["nodes"][1].update(label=3)),
        r"^nodes\[1\]: label must be a string$",
    ),
    (
        lambda doc: doc["nodes"][0].update(id=7, position=[1]),
        r"^nodes\[0\]: position must be a pair of numbers$",
    ),
    (lambda doc: doc["flows"][0].update(id="", source=1), r"^flows\[0\]: source must be a string$"),
    # A null id is a missing one, which `build` refuses.
    (lambda doc: doc["nodes"][0].update(id=None), "^node id must be a non-empty string$"),
    # A null elsewhere in the list does not hide an unknown key.
    (
        lambda doc: (doc["nodes"][0].update(label=None), doc["nodes"][1].update(colour="red")),
        r"^node has unknown keys \['colour'\]$",
    ),
]


@pytest.mark.parametrize(
    "mutate, match", _MALFORMED, ids=[f"<lambda>{i}" for i in range(len(_MALFORMED))]
)
def test_parse_json_rejects_malformed(mutate, match):
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT), Node("b", NodeType.PROC)],
        [Flow("f", "a", "b", FlowType.PF)],
    )
    doc = json.loads(emit_json(d))
    mutate(doc)
    with pytest.raises(SchemaError, match=match):
        parse_json(json.dumps(doc))


def _null_every_optional_key(doc: dict) -> None:
    for entry in doc["nodes"]:
        entry.update(dict.fromkeys(("type", "label", "partner", "position"), None))
    for entry in doc["flows"]:
        entry.update(dict.fromkeys(("type", "label", "partner"), None))


# Documents beyond `_MALFORMED` that `parse_json` must read as its
# entry-by-entry reference does: explicit nulls, which its column reader
# reads as absent keys, and values the columns check apart.
_EDGE_ENTRIES = [
    lambda doc: doc["nodes"][0].update(label=None, position=None),
    _null_every_optional_key,
    lambda doc: doc["nodes"][0].update(extra={}, position=[1, 2.5]),
    lambda doc: doc["nodes"][1].update(extra={"k": None}),
    lambda doc: doc["flows"][0].update(type=None, partner=None),
]


@pytest.mark.parametrize("mutate", [mutate for mutate, _ in _MALFORMED] + _EDGE_ENTRIES)
def test_parse_json_reads_each_document_as_its_reference_does(mutate):
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT), Node("b", NodeType.PROC)],
        [Flow("f", "a", "b", FlowType.PF)],
    )
    doc = json.loads(emit_json(d))
    mutate(doc)
    outcomes = []
    for read in (parse_json, reference_parse_json):
        try:
            outcomes.append(read(json.dumps(doc)))
        except SchemaError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_parse_json_reads_explicit_nulls_as_absent_keys():
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT, "A", "b", (1, 2)), Node("b", NodeType.PROC, partner="a")],
        [Flow("f", "a", "b", FlowType.PF, "x", "f")],
    )
    doc = json.loads(emit_json(d))
    _null_every_optional_key(doc)
    bare = build_diagram(Stage.RAW, [Node("a"), Node("b")], [Flow("f", "a", "b")])
    assert parse_json(json.dumps(doc)) == bare


def test_parse_json_rejects_non_json():
    with pytest.raises(SchemaError, match="not valid JSON: Expecting value"):
        parse_json(b"<xml/>")


@pytest.mark.parametrize(
    "data, match",
    [
        (b'\xff{"schema": 1}', "^not valid UTF-8 at byte 0 \\(invalid start byte\\)$"),
        (b'{"n": 1' + b"0" * 5000 + b"}", "not valid JSON: Exceeds the limit"),
        (b"[" * 200_000, "not valid JSON: maximum recursion depth exceeded"),
        (b"[1]", "top level must be an object"),
        (
            b'{"schema": "padfd-canonical/1", "stage": "raw-bdfd",'
            b' "nodes": [{"id": "n", "position": [1e400, 0]}]}',
            "node 'n': position coordinates must be finite",
        ),
    ],
    ids=["bad-utf8", "long-integer", "deep-nesting", "top-level-list", "float-overflow"],
)
def test_parse_json_rejects_bad_text(data, match):
    with pytest.raises(SchemaError, match=match):
        parse_json(data)


@pytest.mark.parametrize(
    "node",
    [
        {"id": "\ud800", "type": "ext"},
        {"id": "a", "type": "ext", "label": "x\udfffy"},
        {"id": "a", "type": "ext", "partner": "\udc00"},
        {"id": "a", "type": "ext", "extra": {"k\ud83d": "v"}},
        {"id": "a", "type": "ext", "extra": {"k": "\ude00\ud83d"}},
    ],
)
def test_parse_json_rejects_lone_surrogates(node):
    doc = {"schema": SCHEMA_ID, "stage": "raw-bdfd", "nodes": [node], "flows": []}
    # As \udXXX escapes in a file, and verbatim in a str argument.
    with pytest.raises(SchemaError, match="holds a lone surrogate"):
        parse_json(json.dumps(doc).encode("utf-8"))
    with pytest.raises(SchemaError, match="holds a lone surrogate"):
        parse_json(json.dumps(doc, ensure_ascii=False))


def test_parse_json_accepts_surrogate_pairs():
    doc = {"schema": SCHEMA_ID, "stage": "raw-bdfd", "flows": []}
    doc["nodes"] = [{"id": "a", "type": "ext", "label": "\U0001f512\ud7ff"}]
    d = parse_json(json.dumps(doc))  # written as the escapes \ud83d\udd12 and \ud7ff
    assert d.nodes["a"].label == "\U0001f512\ud7ff"


def test_parse_json_reads_one_leading_byte_order_mark_as_none(fixtures_dir):
    """In bytes and in text alike, as `parse_drawio` reads a drawing and
    `padfd check` a file."""
    data = emit_json(build_estore_raw())
    expected = parse_json(data)
    assert parse_json(b"\xef\xbb\xbf" + data) == expected
    assert parse_json("\ufeff" + data.decode("utf-8")) == expected
    drawing = (fixtures_dir / "estore.drawio.xml").read_bytes()
    assert parse_drawio(b"\xef\xbb\xbf" + drawing) == parse_drawio(drawing)
    assert parse_drawio("\ufeff" + drawing.decode("utf-8")) == parse_drawio(drawing)


def test_two_leading_byte_order_marks_are_refused(fixtures_dir):
    """Each reader reads one mark as none, so a second one is content:
    neither JSON nor XML starts with it, in bytes or in text."""
    data = emit_json(build_estore_raw())
    drawing = (fixtures_dir / "estore.drawio.xml").read_bytes()
    for read, doc, match in [
        (parse_json, data, "^not valid JSON: Unexpected UTF-8 BOM"),
        (parse_drawio, drawing, "^not well-formed XML: "),
    ]:
        for marked in (b"\xef\xbb\xbf\xef\xbb\xbf" + doc, "\ufeff\ufeff" + doc.decode("utf-8")):
            with pytest.raises(ParseError, match=match):
                read(marked)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_writers_refuse_non_finite_positions(bad):
    d = build_diagram(Stage.RAW, [Node("n", NodeType.EXT, position=(0.0, bad))], [])
    with pytest.raises(SchemaError, match="node 'n': position .* is not finite"):
        emit_json(d)
    with pytest.raises(SchemaError, match="node 'n': position .* is not finite"):
        emit_drawio(d)


@pytest.mark.parametrize(
    "node,flow,message",
    [
        (Node("a", NodeType.EXT, label="x\ud800"), None, "node 'a': cannot write 'x\\ud800' in {}: U+D800"),
        (Node("a\udfff", NodeType.EXT), None, "node 'a\\udfff': cannot write 'a\\udfff' in {}: U+DFFF"),
        (None, Flow("f", "a", "a", FlowType.PF, label="\ud83d"), "flow 'f': cannot write '\\ud83d' in {}: U+D83D"),
    ],
    ids=["node-label", "node-id", "flow-label"],
)
def test_json_and_dot_writers_refuse_lone_surrogates(node, flow, message):
    d = build_diagram(Stage.RAW, [node or Node("a", NodeType.EXT)], [flow] if flow else [])
    for writer, language in ((emit_json, "JSON"), (emit_dot, "DOT")):
        with pytest.raises(SchemaError) as exc:
            writer(d)
        assert str(exc.value) == message.format(language) + " is a lone surrogate"


def test_only_the_json_writer_refuses_surrogates_in_extras():
    """DOT does not write extra attributes, so only JSON meets the text."""
    d = build_diagram(Stage.RAW, [Node("a", NodeType.EXT, extra={"note": "\udc00"})], [])
    with pytest.raises(SchemaError, match="node 'a': cannot write '.+' in JSON: U\\+DC00"):
        emit_json(d)
    assert emit_dot(d).startswith(b"digraph")


def test_json_and_dot_writers_pass_surrogate_pairs():
    astral = "x\U0001f512"
    d = build_diagram(Stage.RAW, [Node("a", NodeType.EXT, label=astral)], [])
    assert parse_json(emit_json(d)) == d
    assert astral.encode("utf-8") in emit_dot(d)


def test_emit_json_escapes_like_the_reference_encoder():
    hostile = 'q"uote\\back\x01ctl\u2028sep\U0001f512astral\u00e9'
    d = build_diagram(
        Stage.RAW,
        [Node(hostile, NodeType.EXT, label=hostile, position=(-0.0, 1e16))],
        [Flow("f", hostile, hostile, FlowType.PF, label=hostile, extra={hostile: hostile})],
    )
    reference = json.dumps(to_canonical_dict(d), indent=2, sort_keys=True, ensure_ascii=False)
    assert emit_json(d) == (reference + "\n").encode("utf-8")
    assert parse_json(emit_json(d)) == d


# --- acceptance corpus -------------------------------------------------------


def test_transform_shop_demo_outputs_reproduce_byte_for_byte():
    """The demos/transform_shop.py pipeline rewrites the committed outputs exactly."""
    raw = parse_drawio((DEMOS / "data" / "estore.drawio.xml").read_bytes())
    wellformed, diagnostics = typecheck(raw)
    assert wellformed is not None, [d.render() for d in diagnostics]
    pa = transform(wellformed)
    out = DEMOS / "out"
    assert emit_json(pa) == (out / "estore_pa.json").read_bytes()
    assert emit_drawio(layout_generated(pa)) == (out / "estore_pa.drawio.xml").read_bytes()
    assert emit_dot(pa) == (out / "estore_pa.dot").read_bytes()


# --- cross-format agreement --------------------------------------------------


def test_formats_agree_on_canonical_form():
    rng = random.Random(7)
    for _ in range(10):
        d = random_any_stage(rng)
        via_drawio = parse_drawio(emit_drawio(d))
        via_json = parse_json(emit_json(d))
        assert to_canonical_dict(via_drawio) == to_canonical_dict(via_json)


# --- DOT export ----------------------------------------------------------------


def test_emit_dot_golden():
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("a", NodeType.EXT, label='Say "hi"'), Node("b", NodeType.PROC)],
        [Flow("f", "a", "b", FlowType.IN, label="Greeting")],
    )
    text = emit_dot(d).decode("utf-8")
    assert text.startswith("digraph ")
    assert '"a" [label="Say \\"hi\\"", shape=box]' in text
    assert '"b" [label="b", shape=ellipse]' in text
    assert '"a" -> "b" [label="in: Greeting"]' in text
    assert text.endswith("}\n")


def test_emit_dot_covers_all_node_shapes():
    pa = transform(build_all_kinds())
    text = emit_dot(pa).decode("utf-8")
    for shape in ("box", "ellipse", "cylinder", "diamond", "parallelogram",
                  "trapezium", "box3d", "note", "folder", "octagon"):
        assert f"shape={shape}" in text


# --- generated layout ----------------------------------------------------------


def test_layout_matches_worked_example():
    d = build_diagram(
        Stage.WELLFORMED,
        [
            Node("src", NodeType.EXT, label="Source", position=(0.0, 0.0)),
            Node("tgt", NodeType.PROC, label="Target", position=(200.0, 0.0)),
        ],
        [Flow("f", "src", "tgt", FlowType.IN)],
    )
    pa = layout_generated(transform(d, check=False))
    by_type = {}
    for node in pa.nodes.values():
        by_type.setdefault(node.node_type, node)
    assert by_type[NodeType.LIMIT].position == (100.0, 0.0)
    assert by_type[NodeType.REQUEST].position == (100.0, -80.0)
    assert by_type[NodeType.LOG].position == (100.0, 80.0)
    assert by_type[NodeType.LOG_DB].position == (100.0, 160.0)


def test_layout_positions_every_node_and_keeps_existing():
    rng = random.Random(11)
    pa = scatter_positions(transform(build_all_kinds()), rng)
    fixed = {
        node_id: node.position
        for node_id, node in pa.nodes.items()
        if node.position is not None
    }
    placed = layout_generated(pa)
    assert all(n.position is not None for n in placed.nodes.values())
    for node_id, position in fixed.items():
        assert placed.nodes[node_id].position == position
    # No two nodes share a spot.
    spots = [n.position for n in placed.nodes.values()]
    assert len(set(spots)) == len(spots)


def test_layout_refuses_spots_a_grid_step_cannot_leave(fixtures_dir):
    raw = parse_json((fixtures_dir / "far_away.json").read_bytes())
    wellformed, _ = typecheck(raw, tolerate_connectivity=True)
    with pytest.raises(SchemaError, match=r"no free spot below \(80, 1e\+19\)"):
        layout_generated(transform(wellformed, check=False))


def _without_gadget_parts(pa, drop_flow_type=None, unpartner_types=()):
    nodes = {
        node_id: replace(node, partner=None) if node.node_type in unpartner_types else node
        for node_id, node in pa.nodes.items()
    }
    flows = {k: f for k, f in pa.flows.items() if f.flow_type is not drop_flow_type}
    return Diagram(pa.stage, nodes, flows)


def test_layout_places_gadget_parts_without_anchors_from_the_origin():
    d = build_diagram(
        Stage.WELLFORMED,
        [
            Node("src", NodeType.EXT, position=(0.0, 0.0)),
            Node("tgt", NodeType.PROC, position=(200.0, 0.0)),
        ],
        [Flow("f", "src", "tgt", FlowType.IN)],
    )
    pa = transform(d, check=False)
    kinds = {node.node_type: node_id for node_id, node in pa.nodes.items()}
    limit, request = kinds[NodeType.LIMIT], kinds[NodeType.REQUEST]
    log, log_db = kinds[NodeType.LOG], kinds[NodeType.LOG_DB]

    # A limit without its data-in flow guards no hop: it goes to the origin
    # (taken, so one step below), and its request one step above it.
    placed = layout_generated(_without_gadget_parts(pa, drop_flow_type=FlowType.EXTLIM))
    spots = {node_id: placed.nodes[node_id].position for node_id in (limit, request, log, log_db)}
    assert spots == {
        limit: (0.0, 80.0), request: (0.0, 160.0), log: (0.0, 240.0), log_db: (0.0, 320.0)
    }

    # A request whose limit it cannot name has no anchor: the origin again.
    placed = layout_generated(_without_gadget_parts(pa, unpartner_types=(NodeType.REQUEST,)))
    spots = {node_id: placed.nodes[node_id].position for node_id in (limit, request, log, log_db)}
    assert spots == {
        limit: (100.0, 0.0), request: (0.0, 80.0), log: (100.0, 80.0), log_db: (100.0, 160.0)
    }

    # The same hop, then on into a store: each other kind that loses its
    # anchor goes to the first free spot from the origin down, in the
    # layout's kind order, and what hangs off it follows it there.
    d = build_diagram(
        Stage.WELLFORMED,
        [
            Node("src", NodeType.EXT, position=(0.0, 0.0)),
            Node("tgt", NodeType.PROC, position=(200.0, 0.0)),
            Node("db", NodeType.DB, position=(400.0, 0.0)),
        ],
        [Flow("f", "src", "tgt", FlowType.IN), Flow("g", "tgt", "db", FlowType.STORE)],
    )
    pa = transform(d, check=False)

    def spots_by_kind(diagram):
        placed = layout_generated(diagram)
        spots = {}
        for node_id in sorted(placed.nodes):
            node = placed.nodes[node_id]
            spots.setdefault(node.node_type, []).append(node.position)
        return spots

    anchored = spots_by_kind(pa)
    assert anchored[NodeType.REASON] == [(280.0, -80.0)]
    assert anchored[NodeType.POLICY_DB] == [(480.0, 80.0)]
    assert anchored[NodeType.CLEAN] == [(560.0, 80.0)]
    assert anchored[NodeType.LOG] == [(300.0, 80.0), (100.0, 80.0)]
    assert anchored[NodeType.LOG_DB] == [(300.0, 160.0), (100.0, 160.0)]

    def moved(diagram):
        spots = spots_by_kind(diagram)
        return {kind: spot for kind, spot in spots.items() if spot != anchored.get(kind)}

    # A reason and a policy store whose partner is cleared: the reason
    # first, then the policy store below it.
    unpartnered = _without_gadget_parts(
        pa, unpartner_types=(NodeType.REASON, NodeType.POLICY_DB)
    )
    assert moved(unpartnered) == {
        NodeType.REASON: [(0.0, 80.0)], NodeType.POLICY_DB: [(0.0, 160.0)]
    }

    # A cleaner without the deletion flow that names its store.
    assert moved(_without_gadget_parts(pa, drop_flow_type=FlowType.CLEDB_DEL)) == {
        NodeType.CLEAN: [(0.0, 80.0)]
    }

    # Logs without their limit's flow into them, in id order; each log
    # store still hangs below its log, stepping past the other log.
    assert moved(_without_gadget_parts(pa, drop_flow_type=FlowType.LIMLOG)) == {
        NodeType.LOG: [(0.0, 80.0), (0.0, 160.0)],
        NodeType.LOG_DB: [(0.0, 240.0), (0.0, 320.0)],
    }

    # Log stores without the flow from their log.
    assert moved(_without_gadget_parts(pa, drop_flow_type=FlowType.LOGGING)) == {
        NodeType.LOG_DB: [(0.0, 80.0), (0.0, 160.0)]
    }

    # An untyped node parks at the origin, placed last.
    untyped = Diagram(pa.stage, {**pa.nodes, "u": Node("u", None)}, pa.flows)
    assert moved(untyped) == {None: [(0.0, 80.0)]}


def test_layout_is_deterministic():
    pa = transform(build_all_kinds())
    assert layout_generated(pa) == layout_generated(pa)
