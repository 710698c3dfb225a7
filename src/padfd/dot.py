"""Graphviz DOT export (one-way, for quick visual checks)."""

from __future__ import annotations

from .canonical import encode_output
from .graph import Diagram
from .model import NodeType

_SHAPES: dict[NodeType, str] = {
    NodeType.EXT: "box",
    NodeType.PROC: "ellipse",
    NodeType.DB: "cylinder",
    NodeType.LIMIT: "diamond",
    NodeType.REQUEST: "parallelogram",
    NodeType.REASON: "trapezium",
    NodeType.POLICY_DB: "box3d",
    NodeType.LOG: "note",
    NodeType.LOG_DB: "folder",
    NodeType.CLEAN: "octagon",
}


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def emit_dot(diagram: Diagram) -> bytes:
    """Render the diagram as DOT: node shape by type, edge labelled with
    the flow type plus the original label. Deterministic (sorted ids).
    Text holding a lone surrogate is refused with SchemaError."""
    lines = [
        "digraph dfd {",
        "  rankdir=LR;",
        '  node [fontsize=11, fontname="Helvetica"];',
        '  edge [fontsize=10, fontname="Helvetica"];',
    ]
    for node_id in sorted(diagram.nodes):
        node = diagram.nodes[node_id]
        shape = _SHAPES.get(node.node_type, "plaintext")
        label = node.label if node.label is not None else node_id
        lines.append(f"  {_quote(node_id)} [label={_quote(label)}, shape={shape}];")
    for flow_id in sorted(diagram.flows):
        flow = diagram.flows[flow_id]
        parts = []
        if flow.flow_type is not None:
            parts.append(flow.flow_type.value)
        if flow.label is not None:
            parts.append(flow.label)
        label = ": ".join(parts)
        lines.append(
            f"  {_quote(flow.source)} -> {_quote(flow.target)} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return encode_output("\n".join(lines) + "\n", diagram, "DOT")
