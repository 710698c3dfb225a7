"""Mapping between draw.io style strings and element types.

Parsing uses an ordered list of substring rules; the first match wins.
Emitted styles carry a ``dfd=<type>;`` marker token so that round trips
never depend on guessing, while the generic rules further down accept
vanilla draw.io drawings (plain rectangles, ellipses, datastore shapes,
dashed edges). The whole table can be replaced from a JSON file for
drawings that use other conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError, decode_json, read_utf8
from .model import FlowType, NodeType


@dataclass(frozen=True)
class StyleMap:
    """Ordered parse rules plus one emit style per element type."""

    node_rules: tuple[tuple[str, NodeType], ...]
    edge_rules: tuple[tuple[str, FlowType], ...]
    node_styles: dict[NodeType, str]
    edge_styles: dict[FlowType, str]

    def node_type_for(self, style: str | None) -> NodeType | None:
        """Type of a vertex style, or None when no rule matches.

        An absent or empty style is draw.io's plain rectangle.
        """
        if not style:
            return NodeType.EXT
        for pattern, node_type in self.node_rules:
            if pattern in style:
                return node_type
        return None

    def flow_type_for(self, style: str | None) -> FlowType:
        """Type of an edge style. Unmarked solid edges are plain flows,
        unmarked dashed edges deletion flows, so this is total."""
        if style:
            for pattern, flow_type in self.edge_rules:
                if pattern in style:
                    return flow_type
        return FlowType.PF

    def style_for_node(self, node_type: NodeType) -> str:
        return self.node_styles[node_type]

    def style_for_flow(self, flow_type: FlowType) -> str:
        return self.edge_styles[flow_type]


def _marker(type_value: str) -> str:
    return f"dfd={type_value};"


_NODE_BASE_STYLES: dict[NodeType, str] = {
    NodeType.EXT: "rounded=0;whiteSpace=wrap;html=1;",
    NodeType.PROC: "ellipse;whiteSpace=wrap;html=1;",
    NodeType.DB: "shape=datastore;whiteSpace=wrap;html=1;",
    NodeType.LIMIT: "rhombus;whiteSpace=wrap;html=1;",
    NodeType.REQUEST: "shape=parallelogram;perimeter=parallelogramPerimeter;whiteSpace=wrap;html=1;",
    NodeType.REASON: "shape=trapezoid;perimeter=trapezoidPerimeter;whiteSpace=wrap;html=1;",
    NodeType.POLICY_DB: "shape=datastore;whiteSpace=wrap;html=1;dashed=1;",
    NodeType.LOG: "shape=document;whiteSpace=wrap;html=1;",
    NodeType.LOG_DB: "shape=cylinder3;whiteSpace=wrap;html=1;",
    NodeType.CLEAN: "shape=hexagon;perimeter=hexagonPerimeter2;whiteSpace=wrap;html=1;",
}

_EDGE_BASE = "edgeStyle=orthogonalEdgeStyle;rounded=0;html=1;"
_POLICY_DECOR = "dashed=1;strokeColor=#0066CC;"
_ADMIN_DECOR = "dashed=1;dashPattern=1 4;strokeColor=#808080;"
_DELETION_FLOW_TYPES = frozenset(
    {FlowType.DF, FlowType.DELETE, FlowType.LIMDB_DEL, FlowType.CLEDB_DEL}
)


def _default_node_styles() -> dict[NodeType, str]:
    # Business shapes stay vanilla; privacy additions carry their marker.
    styles = {}
    for node_type, base in _NODE_BASE_STYLES.items():
        if node_type in (NodeType.EXT, NodeType.PROC, NodeType.DB):
            styles[node_type] = base
        else:
            styles[node_type] = base + _marker(node_type.value)
    return styles


def _default_edge_styles() -> dict[FlowType, str]:
    from . import model

    styles = {FlowType.PF: _EDGE_BASE, FlowType.DF: _EDGE_BASE + "dashed=1;"}
    for flow_type in FlowType:
        if flow_type in styles:
            continue
        decor = ""
        if flow_type in model.PA_POLICY_FLOW_TYPES:
            decor = _POLICY_DECOR
        elif flow_type in model.PA_ADMIN_FLOW_TYPES:
            decor = _ADMIN_DECOR
        elif flow_type in _DELETION_FLOW_TYPES:
            decor = "dashed=1;"
        styles[flow_type] = _EDGE_BASE + decor + _marker(flow_type.value)
    return styles


def _default_node_rules() -> tuple[tuple[str, NodeType], ...]:
    rules: list[tuple[str, NodeType]] = [
        (_marker(t.value), t) for t in NodeType
    ]
    rules += [
        ("shape=datastore", NodeType.DB),
        ("shape=cylinder", NodeType.DB),
        ("partialRectangle", NodeType.DB),
        ("doubleEllipse", NodeType.PROC),
        ("ellipse", NodeType.PROC),
        ("rhombus", NodeType.LIMIT),
        ("rounded=0", NodeType.EXT),
        ("rounded=1", NodeType.EXT),
    ]
    return tuple(rules)


def _default_edge_rules() -> tuple[tuple[str, FlowType], ...]:
    rules: list[tuple[str, FlowType]] = [
        (_marker(t.value), t)
        for t in FlowType
        if t not in (FlowType.PF, FlowType.DF)
    ]
    rules.append(("dashed=1", FlowType.DF))
    return tuple(rules)


DEFAULT_STYLE_MAP = StyleMap(
    node_rules=_default_node_rules(),
    edge_rules=_default_edge_rules(),
    node_styles=_default_node_styles(),
    edge_styles=_default_edge_styles(),
)


def _parse_rules(raw, enum_type, section: str):
    rules = []
    if not isinstance(raw, list):
        raise SchemaError(f"style config: {section} must be a list of [pattern, type] pairs")
    for entry in raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise SchemaError(f"style config: bad rule {entry!r} in {section}")
        pattern, type_name = entry
        try:
            rules.append((pattern, enum_type(type_name)))
        except ValueError:
            raise SchemaError(
                f"style config: unknown type {type_name!r} in {section}"
            ) from None
    return tuple(rules)


def _parse_styles(raw, enum_type, defaults: dict, section: str) -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(f"style config: {section} must map type names to styles")
    styles = dict(defaults)
    for type_name, style in raw.items():
        if not isinstance(style, str):
            raise SchemaError(f"style config: style for {type_name!r} must be a string")
        try:
            styles[enum_type(type_name)] = style
        except ValueError:
            raise SchemaError(
                f"style config: unknown type {type_name!r} in {section}"
            ) from None
    return styles


def load_style_map(path: str | Path) -> StyleMap:
    """Read a style map from a JSON file.

    Recognised keys: ``node_rules`` and ``edge_rules`` (ordered lists of
    ``[substring, type]`` pairs, replacing the default lists) and
    ``node_styles`` / ``edge_styles`` (per-type emit styles, merged over
    the defaults). Omitted keys keep their defaults.
    """
    doc = decode_json(read_utf8(path, "style config"), f"style config {path}")
    if not isinstance(doc, dict):
        raise SchemaError(f"style config {path}: top level must be an object")
    unknown = set(doc) - {"node_rules", "edge_rules", "node_styles", "edge_styles"}
    if unknown:
        raise SchemaError(f"style config {path}: unknown keys {sorted(unknown)}")
    default = DEFAULT_STYLE_MAP
    return StyleMap(
        node_rules=_parse_rules(doc["node_rules"], NodeType, "node_rules")
        if "node_rules" in doc
        else default.node_rules,
        edge_rules=_parse_rules(doc["edge_rules"], FlowType, "edge_rules")
        if "edge_rules" in doc
        else default.edge_rules,
        node_styles=_parse_styles(
            doc.get("node_styles", {}), NodeType, default.node_styles, "node_styles"
        ),
        edge_styles=_parse_styles(
            doc.get("edge_styles", {}), FlowType, default.edge_styles, "edge_styles"
        ),
    )
