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

import base64
import math
import urllib.parse
import xml.etree.ElementTree as ET
import zlib

from dataclasses import replace

from . import model
from .canonical import format_position
from .errors import (
    MissingEndpointError,
    MultiPageError,
    ParseError,
    SchemaError,
    UnknownStyleError,
    XmlSyntaxError,
)
from .graph import Diagram, Flow, Node
from .model import NodeType, Stage
from .styles import DEFAULT_STYLE_MAP, StyleMap

# Cell attributes with a modelled meaning; everything else is opaque extra.
_CONSUMED_ATTRS = frozenset(
    {"id", "value", "style", "vertex", "edge", "parent", "source", "target", "partner"}
)

_NODE_SIZES: dict[NodeType, tuple[int, int]] = {
    NodeType.EXT: (120, 60),
    NodeType.PROC: (120, 60),
    NodeType.DB: (100, 60),
    NodeType.LIMIT: (80, 80),
    NodeType.REQUEST: (120, 60),
    NodeType.REASON: (120, 60),
    NodeType.POLICY_DB: (100, 60),
    NodeType.LOG: (120, 60),
    NodeType.LOG_DB: (80, 80),
    NodeType.CLEAN: (120, 60),
}


# Largest inflated page body read; real pages stay far below it. A page
# that inflates beyond it is refused before it can exhaust memory.
MAX_INFLATED_PAGE = 64 * 1024 * 1024


def _inflate_page(text: str) -> ET.Element:
    """Decode a compressed page body (base64, raw deflate, URI encoding)."""
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
        raise XmlSyntaxError(f"cannot decode compressed diagram page: {exc}") from None


def _locate_model(root: ET.Element) -> ET.Element:
    if root.tag == "mxGraphModel":
        return root
    if root.tag == "mxfile":
        pages = root.findall("diagram")
        if len(pages) > 1:
            raise MultiPageError(
                f"file has {len(pages)} pages; split it into one diagram per file"
            )
        if not pages:
            raise XmlSyntaxError("mxfile contains no diagram page")
        page = pages[0]
        nested = page.find("mxGraphModel")
        if nested is not None:
            return nested
        body = (page.text or "").strip()
        if body:
            inflated = _inflate_page(body)
            if inflated.tag == "mxGraphModel":
                return inflated
        raise XmlSyntaxError("diagram page contains no mxGraphModel")
    raise XmlSyntaxError(f"unexpected root element {root.tag!r}")


def _cells(model_elem: ET.Element):
    """Yield cell attribute maps, merging object wrappers that hold the id
    and label for cells with user-defined attributes."""
    container = model_elem.find("root")
    if container is None:
        raise XmlSyntaxError("mxGraphModel has no root element")
    for child in container:
        if child.tag == "mxCell":
            yield child, dict(child.attrib)
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
        raise ParseError(f"cell {cell.get('id')!r}: geometry coordinates are not numbers")
    return x, y


def _infer_stage(nodes: dict[str, Node], flows: dict[str, Flow]) -> Stage:
    node_types = {n.node_type for n in nodes.values()} - {None}
    flow_types = {f.flow_type for f in flows.values()} - {None}
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
    """
    styles = styles or DEFAULT_STYLE_MAP
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"not well-formed XML: {exc}") from None
    model_elem = _locate_model(root)

    stage: Stage | None = None
    stage_attr = model_elem.get("dfdStage")
    if stage_attr is not None:
        try:
            stage = Stage(stage_attr)
        except ValueError:
            raise SchemaError(f"unknown dfdStage {stage_attr!r}") from None

    nodes: dict[str, Node] = {}
    edges = []
    for cell, attrs in _cells(model_elem):
        if attrs.get("vertex") == "1":
            cell_id = attrs.get("id")
            if not cell_id:
                raise ParseError("vertex cell without an id")
            if cell_id in nodes:
                raise ParseError(f"duplicate cell id {cell_id!r}")
            style = attrs.get("style")
            node_type = styles.node_type_for(style)
            if node_type is None:
                raise UnknownStyleError(
                    f"cell {cell_id!r}: no rule matches vertex style {style!r}"
                )
            nodes[cell_id] = Node(
                id=cell_id,
                node_type=node_type,
                label=attrs.get("value") or None,
                partner=attrs.get("partner"),
                position=_vertex_position(cell),
                extra={
                    k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS
                },
            )
        elif attrs.get("edge") == "1":
            edges.append(attrs)

    flows: dict[str, Flow] = {}
    for attrs in edges:
        cell_id = attrs.get("id")
        if not cell_id:
            raise ParseError("edge cell without an id")
        if cell_id in flows or cell_id in nodes:
            raise ParseError(f"duplicate cell id {cell_id!r}")
        source = attrs.get("source")
        target = attrs.get("target")
        if not source or not target:
            raise MissingEndpointError(
                f"edge {cell_id!r} lacks a source or target reference"
            )
        for endpoint in (source, target):
            if endpoint not in nodes:
                raise MissingEndpointError(
                    f"edge {cell_id!r} references missing node {endpoint!r}"
                )
        flows[cell_id] = Flow(
            id=cell_id,
            source=source,
            target=target,
            flow_type=styles.flow_type_for(attrs.get("style")),
            label=attrs.get("value") or None,
            partner=attrs.get("partner"),
            extra={k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS},
        )

    return Diagram(
        stage=stage if stage is not None else _infer_stage(nodes, flows),
        nodes=nodes,
        flows=flows,
    )


def _structural_id(want: str, taken: set[str]) -> str:
    if want not in taken:
        return want
    suffix = 0
    while f"bg-{want}-{suffix}" in taken:
        suffix += 1
    return f"bg-{want}-{suffix}"


def emit_drawio(diagram: Diagram, styles: StyleMap | None = None) -> bytes:
    """Write a diagram as a single-page draw.io file.

    Every element must be typed. Positions are written only for nodes
    that have one; pair with layout if fully placed output is wanted.
    """
    styles = styles or DEFAULT_STYLE_MAP
    taken = set(diagram.nodes) | set(diagram.flows)
    root_id = _structural_id("0", taken)
    layer_id = _structural_id("1", taken)

    model_elem = ET.Element(
        "mxGraphModel",
        {
            "dfdStage": diagram.stage.value,
            "grid": "1",
            "gridSize": "10",
            "page": "1",
            "pageWidth": "1169",
            "pageHeight": "826",
        },
    )
    container = ET.SubElement(model_elem, "root")
    ET.SubElement(container, "mxCell", {"id": root_id})
    ET.SubElement(container, "mxCell", {"id": layer_id, "parent": root_id})

    for node_id in sorted(diagram.nodes):
        node = diagram.nodes[node_id]
        if node.node_type is None:
            raise ParseError(f"node {node_id!r} is untyped; cannot emit")
        attrs = {"id": node_id}
        if node.label is not None:
            attrs["value"] = node.label
        attrs["style"] = styles.style_for_node(node.node_type)
        attrs["vertex"] = "1"
        attrs["parent"] = layer_id
        if node.partner is not None:
            attrs["partner"] = node.partner
        for key in sorted(node.extra):
            if key not in _CONSUMED_ATTRS:
                attrs[key] = node.extra[key]
        cell = ET.SubElement(container, "mxCell", attrs)
        width, height = _NODE_SIZES[node.node_type]
        geometry = {"width": str(width), "height": str(height)}
        if node.position is not None:
            x, y = format_position(node)
            geometry = {"x": x, "y": y, **geometry}
        geometry["as"] = "geometry"
        ET.SubElement(cell, "mxGeometry", geometry)

    for flow_id in sorted(diagram.flows):
        flow = diagram.flows[flow_id]
        if flow.flow_type is None:
            raise ParseError(f"flow {flow_id!r} is untyped; cannot emit")
        attrs = {"id": flow_id}
        if flow.label is not None:
            attrs["value"] = flow.label
        attrs["style"] = styles.style_for_flow(flow.flow_type)
        attrs["edge"] = "1"
        attrs["parent"] = layer_id
        attrs["source"] = flow.source
        attrs["target"] = flow.target
        if flow.partner is not None:
            attrs["partner"] = flow.partner
        for key in sorted(flow.extra):
            if key not in _CONSUMED_ATTRS:
                attrs[key] = flow.extra[key]
        cell = ET.SubElement(container, "mxCell", attrs)
        ET.SubElement(cell, "mxGeometry", {"relative": "1", "as": "geometry"})

    file_elem = ET.Element("mxfile", {"host": "padfd"})
    page = ET.SubElement(file_elem, "diagram", {"id": "page-0", "name": "Page-1"})
    page.append(model_elem)
    ET.indent(file_elem, space="  ")
    text = ET.tostring(file_elem, encoding="unicode")
    return ('<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n").encode("utf-8")
