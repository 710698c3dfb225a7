"""draw.io (mxGraph) reader and writer.

A diagram maps onto one mxGraphModel page: vertices become nodes, edges
become flows, the style string encodes the element type, and a
``partner`` attribute carries the coupling the rewrite introduces. The
lifecycle stage travels in a ``dfdStage`` attribute on the model element
and is inferred from content for foreign files. Unrecognised cell
attributes are kept verbatim and echoed on output. Emission is pure and
byte-deterministic: elements are written in sorted id order and nothing
(timestamps, hashes) varies between runs.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

from . import model
from .errors import ParseError, SchemaError, decode_utf8
from .graph import Diagram, Flow, Node, build, format_position
from .model import NODE_LOOKS, FlowType, NodeType, Stage
from .styles import DEFAULT_STYLE_MAP, StyleMap

# Cell attributes with a modelled meaning; everything else is opaque extra.
_CONSUMED_ATTRS = frozenset(
    {"id", "value", "style", "vertex", "edge", "parent", "source", "target", "partner"}
)

# How each cell ends, after its attributes, in the two-space indented
# layout ET.indent gives the mxfile: the geometry line and the closing tag.
_GEOMETRY = {
    kind: f'width="{look.width}" height="{look.height}" as="geometry" />\n        </mxCell>'
    for kind, look in NODE_LOOKS.items()
}
_EDGE_GEOMETRY = '>\n          <mxGeometry relative="1" as="geometry" />\n        </mxCell>'


# Largest inflated page body read; real pages stay far below it. A page
# that inflates beyond it is refused before it can exhaust memory.
MAX_INFLATED_PAGE = 64 * 1024 * 1024


def _inflate_page(text: str) -> ET.Element:
    """Decode a compressed page body (base64, raw deflate, URI encoding).
    Only compressed pages reach here, so only they load the codecs."""
    import base64
    import urllib.parse
    import zlib

    try:
        inflater = zlib.decompressobj(-15)
        inflated = inflater.decompress(
            base64.b64decode(text, validate=True), MAX_INFLATED_PAGE + 1
        )
        if len(inflated) > MAX_INFLATED_PAGE:
            raise ValueError(f"page inflates beyond {MAX_INFLATED_PAGE} bytes")
        if not inflater.eof:
            raise ValueError("incomplete or truncated stream")
        return ET.fromstring(urllib.parse.unquote(inflated.decode("utf-8")))
    except Exception as exc:
        raise ParseError(f"cannot decode compressed diagram page: {exc}") from None


def _locate_model(root: ET.Element) -> ET.Element:
    if root.tag == "mxGraphModel":
        return root
    if root.tag == "mxfile":
        pages = root.findall("diagram")
        if len(pages) > 1:
            raise ParseError(f"file has {len(pages)} pages; split it into one diagram per file")
        if not pages:
            raise ParseError("mxfile contains no diagram page")
        page = pages[0]
        nested = page.find("mxGraphModel")
        if nested is not None:
            return nested
        body = (page.text or "").strip()
        if body:
            inflated = _inflate_page(body)
            if inflated.tag == "mxGraphModel":
                return inflated
        raise ParseError("diagram page contains no mxGraphModel")
    raise ParseError(f"unexpected root element {root.tag!r}")


def _cells(model_elem: ET.Element):
    """Yield each cell with its attribute map. A plain mxCell's own map is
    yielded as it is, to be read and never changed; an object wrapper,
    which holds the id, label and user-defined attributes of the cell it
    wraps, is merged into a copy of that cell's map."""
    container = model_elem.find("root")
    if container is None:
        raise ParseError("mxGraphModel has no root element")
    for child in container:
        if child.tag == "mxCell":
            yield child, child.attrib
        else:
            inner = child.find("mxCell")
            if inner is None:
                continue
            merged = dict(inner.attrib)
            for key, value in child.attrib.items():
                if key == "label":
                    merged.setdefault("value", value)
                else:
                    merged.setdefault(key, value)
            yield inner, merged


def _extra(attrs: dict[str, str]) -> dict[str, str] | None:
    """A cell's attributes without a modelled meaning, or None for the
    usual cell that has none."""
    if attrs.keys() <= _CONSUMED_ATTRS:
        return None
    return {k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS}


def _vertex_position(cell: ET.Element) -> tuple[float, float] | None:
    geometry = cell.find("mxGeometry")
    if geometry is None:
        return None
    if "x" not in geometry.attrib and "y" not in geometry.attrib:
        return None
    try:
        x, y = float(geometry.get("x", "0")), float(geometry.get("y", "0"))
    except ValueError:
        x = y = math.nan
    # float() also reads "nan" and "inf", which no writer can put back.
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError("geometry coordinates are not numbers")
    return x, y


def _cell_name(model_elem: ET.Element, cell: ET.Element, cell_id: str | None) -> str:
    """How a refusal names a cell: by its id, or by its place among the
    page's cells where it has none."""
    if cell_id:
        return f"cell {cell_id!r}"
    return f"cells[{[other for other, _ in _cells(model_elem)].index(cell)}]"


def _infer_stage(nodes: list[Node], flows: list[Flow]) -> Stage:
    node_types = {n.node_type for n in nodes} - {None}
    flow_types = {f.flow_type for f in flows} - {None}
    if node_types - model.BDFD_NODE_TYPES or flow_types & model.PA_FLOW_TYPES:
        return Stage.PA
    if flow_types & model.WELLFORMED_FLOW_TYPES:
        return Stage.WELLFORMED
    return Stage.RAW


def parse_drawio(data: bytes | str, styles: StyleMap | None = None) -> Diagram:
    """Read one draw.io page into a diagram.

    Vertices with styles no rule recognises are an error (silently
    guessing a type would corrupt the model); edges always type (solid
    means plain flow, dashed means deletion, markers override both).
    Cell ids and edge ends are checked by `graph.build`. One leading byte
    order mark is read as none: ElementTree drops it, so this reader does
    not, and a second one is not well-formed XML.
    """
    styles = styles or DEFAULT_STYLE_MAP
    text = decode_utf8(data) if isinstance(data, bytes) else data
    try:
        root = ET.fromstring(text)
    except UnicodeEncodeError as exc:  # ET.fromstring encodes str input as UTF-8
        code = ord(exc.object[exc.start])
        raise ParseError(
            f"not valid XML text: U+{code:04X} at index {exc.start} is a lone surrogate"
        ) from None
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from None
    model_elem = _locate_model(root)

    stage: Stage | None = None
    stage_attr = model_elem.get("dfdStage")
    if stage_attr is not None:
        try:
            stage = Stage(stage_attr)
        except ValueError:
            raise SchemaError(f"unknown dfdStage {stage_attr!r}") from None

    # Drawings reuse a handful of styles across all their cells, so each
    # distinct style string is typed once.
    node_types: dict[str | None, NodeType | None] = {}
    flow_types: dict[str | None, FlowType] = {}
    nodes: list[Node] = []
    flows: list[Flow] = []
    for cell, attrs in _cells(model_elem):
        get = attrs.get
        if get("vertex") == "1":
            style = get("style")
            try:
                node_type = node_types[style]
            except KeyError:
                node_type = node_types[style] = styles.node_type_for(style)
            if node_type is None:
                name = _cell_name(model_elem, cell, get("id"))
                raise ParseError(f"{name}: no rule matches vertex style {style!r}")
            try:
                position = _vertex_position(cell)
            except ParseError as exc:
                raise ParseError(f"{_cell_name(model_elem, cell, get('id'))}: {exc}") from None
            label = get("value") or None
            nodes.append(Node(get("id"), node_type, label, get("partner"), position, _extra(attrs)))
        elif get("edge") == "1":
            style = get("style")
            try:
                flow_type = flow_types[style]
            except KeyError:
                flow_type = flow_types[style] = styles.flow_type_for(style)
            edge = Flow(
                get("id"), get("source"), get("target"), flow_type, get("value") or None,
                get("partner"), _extra(attrs),
            )
            flows.append(edge)

    return build(stage if stage is not None else _infer_stage(nodes, flows), nodes, flows)


def _structural_id(want: str, taken: set[str]) -> str:
    if want not in taken:
        return want
    suffix = 0
    while f"bg-{want}-{suffix}" in taken:
        suffix += 1
    return f"bg-{want}-{suffix}"


# Characters XML 1.0 cannot carry, escaped or not. The pattern is left to
# re's cache, so that only a process that meets such text compiles it.
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _escape(text: str) -> str:
    """Attribute text escaped exactly as ElementTree escapes it. Text
    holding a character XML cannot carry is refused."""
    if not text.isprintable():  # printable text is all XML characters
        illegal = re.search(_NOT_XML_CHAR, text)
        if illegal:
            raise SchemaError(
                f"cannot write {text!r} in XML: U+{ord(illegal.group()):04X} is not an XML character"
            )
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


# Prefixes ElementTree gives well-known namespaces; any other namespace
# URI gets ns0, ns1, ... numbered by how many URIs were declared before it.
# The XML namespace is predeclared, so it is used but never declared.
_KNOWN_PREFIXES = {
    "http://www.w3.org/XML/1998/namespace": "xml",
    "http://www.w3.org/1999/xhtml": "html",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#": "rdf",
    "http://schemas.xmlsoap.org/wsdl/": "wsdl",
    "http://www.w3.org/2001/XMLSchema": "xs",
    "http://www.w3.org/2001/XMLSchema-instance": "xsi",
    "http://purl.org/dc/elements/1.1/": "dc",
}


def _attribute_name(key: str, prefixes: dict[str, str], kind: str, element_id: str) -> str:
    """The name an extra key is written under. A Clark-notation key
    ``{uri}local`` becomes ``prefix:local``, and a URI seen for the first
    time gets its prefix recorded in `prefixes`. A key whose written name
    would not read back as the same key is refused."""
    if key in _CONSUMED_ATTRS:
        raise SchemaError(
            f"{kind} {element_id!r}: extra key {key!r} is a cell attribute padfd writes itself"
        )
    name, declaration = key, ""
    if key[:1] == "{" and "}" in key:
        uri, local = key[1:].rsplit("}", 1)
        prefix = prefixes.get(uri) or _KNOWN_PREFIXES.get(uri) or f"ns{len(prefixes)}"
        if prefix != "xml":
            declaration = f' xmlns:{prefix}="{_escape(uri)}"'
        name = f"{prefix}:{local}"
    try:
        readable = ET.fromstring(f'<a{declaration} {name}="" />').attrib == {key: ""}
    except (ET.ParseError, ValueError):  # ValueError: text UTF-8 cannot encode
        readable = False
    if not readable:
        raise SchemaError(f"{kind} {element_id!r}: extra key {key!r} is not an XML attribute name")
    if declaration:
        prefixes[uri] = prefix
    return name


def _extra_attributes(element: Node | Flow, kind: str, names: dict, prefixes: dict) -> str:
    text = ""
    for key in sorted(element.extra):
        name = names.get(key)
        if name is None:
            name = names[key] = _attribute_name(key, prefixes, kind, element.id)
        text += " " + name + '="' + _escape(element.extra[key]) + '"'
    return text


def _value_attribute(element: Node | Flow, kind: str, values: dict[str, str]) -> str:
    """The value attribute of a cell, or "" for an element without a
    label. `values` maps each label met so far to its attribute text."""
    label = element.label
    if label is None:
        return ""
    text = values.get(label)
    if text is None:
        if not label:
            raise SchemaError(f"{kind} {element.id!r}: an empty label reads back as no label")
        text = values[label] = ' value="' + _escape(label) + '"'
    return text


def emit_drawio(diagram: Diagram, styles: StyleMap | None = None) -> bytes:
    """Write a diagram as a single-page draw.io file.

    Every element must be typed. Positions are written only for nodes
    that have one; pair with layout if fully placed output is wanted.
    The document is written directly, byte-identical to ElementTree
    serialising the same cells after ``ET.indent``. Extra keys that would
    not read back as themselves, empty labels, and text holding characters
    XML cannot carry are refused with SchemaError.
    """
    styles = styles or DEFAULT_STYLE_MAP
    taken = set(diagram.nodes) | set(diagram.flows)
    root_id = _escape(_structural_id("0", taken))
    layer_id = _escape(_structural_id("1", taken))
    names: dict[str, str] = {}
    prefixes: dict[str, str] = {}
    node_styles: dict[NodeType, str] = {}
    flow_styles: dict[FlowType, str] = {}
    # Element ids recur as flow endpoints and partners, and generated
    # elements share a few labels; each is escaped once. A partner written
    # before its own element keeps its escaped id for it.
    ids: dict[str, str] = {}
    values: dict[str, str] = {}
    # The first line is the header, filled in once the namespaces are known.
    lines = [
        "",
        '        <mxCell id="' + root_id + '" />',
        '        <mxCell id="' + layer_id + '" parent="' + root_id + '" />',
    ]

    for node_id in sorted(diagram.nodes):
        node = diagram.nodes[node_id]
        node_type = node.node_type
        if node_type is None:
            raise SchemaError(f"node {node_id!r} is untyped; cannot emit")
        style = node_styles.get(node_type)
        if style is None:
            style = node_styles[node_type] = (
                ' style="' + _escape(styles.node_styles[node_type])
                + '" vertex="1" parent="' + layer_id + '"'
            )
        ids[node_id] = escaped_id = ids.get(node_id) or _escape(node_id)
        value = _value_attribute(node, "node", values)
        partner = ""
        if node.partner is not None:
            escaped = ids.get(node.partner) or ids.setdefault(node.partner, _escape(node.partner))
            partner = ' partner="' + escaped + '"'
        extra = _extra_attributes(node, "node", names, prefixes) if node.extra else ""
        position = ""
        if node.position is not None:
            x, y = format_position(node)
            position = 'x="' + x + '" y="' + y + '" '
        lines.append(
            f'        <mxCell id="{escaped_id}"{value}{style}{partner}{extra}>\n'
            f"          <mxGeometry {position}{_GEOMETRY[node_type]}"
        )

    for flow_id in sorted(diagram.flows):
        flow = diagram.flows[flow_id]
        flow_type = flow.flow_type
        if flow_type is None:
            raise SchemaError(f"flow {flow_id!r} is untyped; cannot emit")
        style = flow_styles.get(flow_type)
        if style is None:
            style = flow_styles[flow_type] = (
                ' style="' + _escape(styles.edge_styles[flow_type])
                + '" edge="1" parent="' + layer_id + '"'
            )
        source = ids.get(flow.source) or _escape(flow.source)
        target = ids.get(flow.target) or _escape(flow.target)
        escaped_id = ids.get(flow_id) or _escape(flow_id)
        value = _value_attribute(flow, "flow", values)
        partner = ""
        if flow.partner is not None:
            ids[flow_id] = escaped_id  # for the partner, if it comes later
            escaped = ids.get(flow.partner) or ids.setdefault(flow.partner, _escape(flow.partner))
            partner = ' partner="' + escaped + '"'
        extra = _extra_attributes(flow, "flow", names, prefixes) if flow.extra else ""
        lines.append(
            f'        <mxCell id="{escaped_id}"{value}{style} source="{source}"'
            f' target="{target}"{partner}{extra}{_EDGE_GEOMETRY}'
        )

    declarations = "".join(
        f' xmlns:{prefix}="{_escape(uri)}"'
        for uri, prefix in sorted(prefixes.items(), key=lambda item: item[1])
    )
    lines[0] = (
        '<?xml version="1.0" encoding="UTF-8"?>\n<mxfile' + declarations + ' host="padfd">\n'
        '  <diagram id="page-0" name="Page-1">\n'
        '    <mxGraphModel dfdStage="' + diagram.stage.value + '" grid="1" gridSize="10"'
        ' page="1" pageWidth="1169" pageHeight="826">\n      <root>'
    )
    lines.append("      </root>\n    </mxGraphModel>\n  </diagram>\n</mxfile>\n")
    return "\n".join(lines).encode("utf-8")
