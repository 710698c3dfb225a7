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
    MissingEndpointError,
    MultiPageError,
    Node,
    NodeType,
    ParseError,
    SCHEMA_ID,
    SchemaError,
    Stage,
    StyleMap,
    UnknownStyleError,
    XmlSyntaxError,
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

from references import reference_emit_drawio, to_canonical_dict

from helpers import (
    build_all_kinds,
    build_diagram,
    build_estore_raw,
    random_any_stage,
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
    with pytest.raises(UnknownStyleError) as exc:
        parse_drawio((fixtures_dir / "unknown_style.drawio.xml").read_bytes())
    assert "mystery" in str(exc.value)


def test_parse_multipage_rejected(fixtures_dir):
    with pytest.raises(MultiPageError):
        parse_drawio((fixtures_dir / "multipage.drawio.xml").read_bytes())


def test_parse_truncated_file(fixtures_dir):
    with pytest.raises(XmlSyntaxError):
        parse_drawio((fixtures_dir / "truncated.drawio.xml").read_bytes())


@pytest.mark.parametrize(
    "text, index",
    [("<mxfile>\ud800</mxfile>", 8), ('<mxfile host="a\udfff"/>', 15)],
    ids=["in-text", "in-attribute"],
)
def test_parse_drawio_refuses_lone_surrogates_in_a_str(text, index):
    code = ord(text[index])
    with pytest.raises(XmlSyntaxError, match=f"U\\+{code:04X} at index {index} is a lone surrogate"):
        parse_drawio(text)


def test_parse_missing_endpoint(fixtures_dir):
    with pytest.raises(MissingEndpointError):
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
    with pytest.raises(XmlSyntaxError, match="inflates beyond"):
        parse_drawio(doc)
    bomb = tmp_path / "bomb.drawio.xml"
    bomb.write_text(doc, encoding="ascii")
    assert main(["check", str(bomb)]) == 2
    assert "inflates beyond" in capsys.readouterr().err


def test_parse_rejects_truncated_compressed_page():
    doc = _compressed_page([urllib.parse.quote("<mxGraphModel/>" * 50).encode()])
    payload = doc.split('name="P">')[1].split("<")[0]
    truncated = base64.b64encode(base64.b64decode(payload)[:-8]).decode("ascii")
    with pytest.raises(XmlSyntaxError, match="truncated"):
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


def test_emit_generated_node_styles_distinct():
    styles = DEFAULT_STYLE_MAP
    emitted = [styles.style_for_node(t) for t in NodeType]
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
        assert f"dfd={node_type.value};" in styles.style_for_node(node_type)


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


def test_load_style_map_merges_emit_styles(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"node_styles": {"limit": "myLimit;"}}), encoding="utf-8")
    styles = load_style_map(path)
    assert styles.style_for_node(NodeType.LIMIT) == "myLimit;"
    assert styles.style_for_node(NodeType.PROC) == DEFAULT_STYLE_MAP.style_for_node(
        NodeType.PROC
    )
    assert styles.node_rules == DEFAULT_STYLE_MAP.node_rules


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
    (lambda doc: doc["nodes"].append({"id": "a", "type": "ext"}), "duplicate node id 'a'"),
    (lambda doc: doc["nodes"][0].update(colour="red"), r"node has unknown keys \['colour'\]"),
    (
        lambda doc: doc["flows"][0].update(source="ghost"),
        "flow 'f': references missing node 'ghost'",
    ),
    (lambda doc: doc["flows"][0].pop("target"), "flow 'f': source and target are required"),
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
    (lambda doc: doc["flows"][0].update(id="a"), "flow id 'a' is also a node id"),
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
    (lambda doc: doc["flows"].append(dict(doc["flows"][0])), "duplicate flow id 'f'"),
    (lambda doc: doc["flows"][0].update(source=0), "flow 'f': source must be a string"),
    (lambda doc: doc["flows"][0].update(target=None), "flow 'f': source and target are required"),
    (lambda doc: doc["flows"][0].update(type="ext"), "flow 'f': unknown type 'ext'"),
    (lambda doc: doc["flows"][0].update(extra=[]), "flow 'f': extra must be an object"),
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


def test_parse_json_rejects_non_json():
    with pytest.raises(SchemaError, match="not valid JSON: Expecting value"):
        parse_json(b"<xml/>")


@pytest.mark.parametrize(
    "data, match",
    [
        (b'\xff{"schema": 1}', "not valid JSON: 'utf-8' codec can't decode"),
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


def test_layout_is_deterministic():
    pa = transform(build_all_kinds())
    assert layout_generated(pa) == layout_generated(pa)
