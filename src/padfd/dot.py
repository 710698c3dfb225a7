"""Graphviz DOT export (one-way, for quick visual checks)."""

from __future__ import annotations

from .graph import Diagram, encode_output
from .model import NODE_LOOKS


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def emit_dot(diagram: Diagram) -> bytes:
    """Render the diagram as DOT: node shape by type, edge labelled with
    the flow type plus the original label. Deterministic (sorted ids).
    Text holding a lone surrogate is refused with SchemaError."""
    nodes, flows = diagram.nodes, diagram.flows
    lines = [
        "digraph dfd {",
        "  rankdir=LR;",
        '  node [fontsize=11, fontname="Helvetica"];',
        '  edge [fontsize=10, fontname="Helvetica"];',
    ]
    # Node ids recur as flow endpoints and generated nodes share a few
    # labels, so each distinct text is quoted once; so is each distinct
    # (type, label) pair of a flow.
    quoted: dict[str, str] = {}
    for node_id in sorted(nodes):
        node = nodes[node_id]
        quoted[node_id] = name = _quote(node_id)
        label = node.label if node.label is not None else node_id
        text = quoted.get(label)
        if text is None:
            text = quoted[label] = _quote(label)
        shape = "plaintext" if node.node_type is None else NODE_LOOKS[node.node_type].dot_shape
        lines.append(f"  {name} [label={text}, shape={shape}];")
    flow_labels: dict[tuple, str] = {}
    for flow_id in sorted(flows):
        flow = flows[flow_id]
        key = (flow.flow_type, flow.label)
        label = flow_labels.get(key)
        if label is None:
            parts = [] if flow.flow_type is None else [flow.flow_type.value]
            if flow.label is not None:
                parts.append(flow.label)
            label = flow_labels[key] = _quote(": ".join(parts))
        source = quoted.get(flow.source) or _quote(flow.source)
        target = quoted.get(flow.target) or _quote(flow.target)
        lines.append(f"  {source} -> {target} [label={label}];")
    lines.append("}")
    return encode_output("\n".join(lines) + "\n", diagram, "DOT")
