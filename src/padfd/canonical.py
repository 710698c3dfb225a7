"""Canonical JSON form.

The canonical form is the package's reference serialization: elements
sorted by id, keys sorted, absent attributes omitted rather than null,
integral coordinates written as integers, UTF-8 with a trailing newline.
Two diagrams are interchangeable exactly when their canonical bytes are
equal. The document carries a schema id so readers can reject files from
a different convention:

    {
      "schema": "padfd-canonical/1",
      "stage": "raw-bdfd" | "wellformed-bdfd" | "pa-dfd",
      "nodes": [{"id", "type"?, "label"?, "partner"?, "position"?, "extra"?}],
      "flows": [{"id", "source", "target", "type"?, "label"?, "partner"?, "extra"?}]
    }

`emit_json` writes this layout directly, element by element, escaping
strings with the `json` module's C string encoder. Its reference, in the
tests, builds the document as a dict and passes it through
`json.dumps(..., indent=2, sort_keys=True, ensure_ascii=False)` plus a
newline; the tests hold the two byte-identical. Coordinates must be
finite: NaN and the infinities are not JSON, so the writers refuse them
and `parse_json` rejects the `NaN`/`Infinity`/`-Infinity` literals.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring as _quote

from .errors import SchemaError, decode_json, decode_utf8
from .graph import (
    Diagram, Flow, Node, _first_lone_surrogate, build, encode_output, format_position,
)
from .model import FlowType, NodeType, Stage

SCHEMA_ID = "padfd-canonical/1"

_DOC_KEYS = frozenset({"schema", "stage", "nodes", "flows"})
_NODE_KEYS = frozenset({"id", "type", "label", "partner", "position", "extra"})
_FLOW_KEYS = frozenset({"id", "source", "target", "type", "label", "partner", "extra"})

_STAGES = {stage.value: stage for stage in Stage}
_NODE_TYPES = {node_type.value: node_type for node_type in NodeType}
_FLOW_TYPES = {flow_type.value: flow_type for flow_type in FlowType}
_OPTIONAL_STR = (str, type(None))


# The writers below emit each entry's keys in sorted order: extra, id,
# label, partner, then position or source and target, then type. Entries
# sit at indent 4, their keys at 6, extra entries and coordinates at 8.


def _extra_text(extra: dict[str, str]) -> str:
    items = ",\n".join(
        ["        " + _quote(key) + ": " + _quote(value) for key, value in sorted(extra.items())]
    )
    return '      "extra": {\n' + items + "\n      }"


def _entry_text(element: Node | Flow, element_type, middle: list[str]) -> str:
    """One node or flow entry; `middle` holds the keys that sort between
    partner and type: position, or source and target."""
    fields = [_extra_text(element.extra)] if element.extra else []
    fields.append('      "id": ' + _quote(element.id))
    if element.label is not None:
        fields.append('      "label": ' + _quote(element.label))
    if element.partner is not None:
        fields.append('      "partner": ' + _quote(element.partner))
    fields += middle
    if element_type is not None:
        fields.append('      "type": ' + _quote(element_type.value))
    return "    {\n" + ",\n".join(fields) + "\n    }"


def _node_text(node: Node) -> str:
    middle = []
    if node.position is not None:
        x, y = format_position(node)
        middle.append('      "position": [\n        ' + x + ",\n        " + y + "\n      ]")
    return _entry_text(node, node.node_type, middle)


def _flow_text(flow: Flow) -> str:
    middle = ['      "source": ' + _quote(flow.source), '      "target": ' + _quote(flow.target)]
    return _entry_text(flow, flow.flow_type, middle)


def _add_list(parts: list[str], entries: list[str]) -> None:
    """Append a JSON list of `entries` to `parts`, one entry per line."""
    if not entries:
        parts.append("[]")
        return
    parts.append("[\n")
    for entry in entries:
        parts += (entry, ",\n")
    parts[-1] = "\n  ]"


def emit_json(diagram: Diagram) -> bytes:
    """Canonical JSON bytes: sorted keys, two-space indent, LF, newline at
    end. Text holding a lone surrogate is refused with SchemaError."""
    nodes, flows = diagram.nodes, diagram.flows
    # One flat list of parts and one join: the document is copied once.
    parts = ['{\n  "flows": ']
    _add_list(parts, [_flow_text(flows[k]) for k in sorted(flows)])
    parts.append(',\n  "nodes": ')
    _add_list(parts, [_node_text(nodes[k]) for k in sorted(nodes)])
    stage = diagram.stage.value
    parts += (',\n  "schema": ', _quote(SCHEMA_ID), ',\n  "stage": ', _quote(stage), "\n}\n")
    return encode_output("".join(parts), diagram, "JSON")


def _reject_constant(name: str):
    raise SchemaError(f"not valid JSON: non-finite number {name}")


def _element_error(kind: str, element_id: str, problem: str) -> SchemaError:
    return SchemaError(f"{kind} {element_id!r}: {problem}")


def _read_position(value, node_id: str) -> tuple[float, float]:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise _element_error("node", node_id, "position must be a pair of numbers")
    try:
        x, y = float(value[0]), float(value[1])
    except OverflowError:
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _element_error("node", node_id, "position coordinates must be finite")
    return x, y


def _shared_fields(entry: dict, types: dict, kind: str, element_id: str) -> tuple:
    """Type, label, partner and extra of a node or flow entry, checked in
    that order; error messages are formatted only on failure."""
    value = entry.get("type")
    element_type = None
    if value is not None:
        element_type = types.get(value) if isinstance(value, str) else None
        if element_type is None:
            if not isinstance(value, str):
                raise _element_error(kind, element_id, "type must be a string")
            raise _element_error(kind, element_id, f"unknown type {value!r}")
    label = entry.get("label")
    if not isinstance(label, _OPTIONAL_STR):
        raise _element_error(kind, element_id, "label must be a string")
    partner = entry.get("partner")
    if not isinstance(partner, _OPTIONAL_STR):
        raise _element_error(kind, element_id, "partner must be a string")
    if "extra" not in entry:
        return element_type, label, partner, {}
    extra = entry["extra"]
    if not isinstance(extra, dict):
        raise _element_error(kind, element_id, "extra must be an object")
    for key, value in extra.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise _element_error(kind, element_id, "extra entries must map strings to strings")
    # json.loads built this dict for this entry alone, so it is kept as is.
    return element_type, label, partner, extra


def parse_json(data: bytes | str) -> Diagram:
    """Read a canonical JSON document back into a diagram.

    The schema id, stage, element shapes, finite coordinates and text free
    of lone surrogates are enforced here, ids and flow ends by
    `graph.build`; violations raise SchemaError. One leading byte order
    mark, in bytes or text, is read as none, as `parse_drawio` reads it.
    """
    text = decode_utf8(data) if isinstance(data, bytes) else data
    doc = decode_json(text.removeprefix("\ufeff"), parse_constant=_reject_constant)
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    schema = doc.get("schema")
    if schema != SCHEMA_ID:
        raise SchemaError(f"schema must be {SCHEMA_ID!r}, found {schema!r}")
    if not doc.keys() <= _DOC_KEYS:
        raise SchemaError(f"unknown document keys {sorted(doc.keys() - _DOC_KEYS)}")
    stage = doc.get("stage")
    stage = _STAGES.get(stage) if isinstance(stage, str) else None
    if stage is None:
        raise SchemaError(f"unknown stage {doc.get('stage')!r}")

    raw_nodes = doc.get("nodes", [])
    raw_flows = doc.get("flows", [])
    if not isinstance(raw_nodes, list):
        raise SchemaError("nodes must be a list")
    if not isinstance(raw_flows, list):
        raise SchemaError("flows must be a list")

    # `build` refuses a missing id (None) and any other that is no string.
    nodes: list[Node] = []
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise SchemaError("each node must be an object")
        if not entry.keys() <= _NODE_KEYS:
            raise SchemaError(f"node has unknown keys {sorted(entry.keys() - _NODE_KEYS)}")
        node_id = entry.get("id")
        position = entry.get("position")
        if position is not None:
            position = _read_position(position, node_id)
        node_type, label, partner, extra = _shared_fields(entry, _NODE_TYPES, "node", node_id)
        nodes.append(Node(node_id, node_type, label, partner, position, extra))

    flows: list[Flow] = []
    for entry in raw_flows:
        if not isinstance(entry, dict):
            raise SchemaError("each flow must be an object")
        if not entry.keys() <= _FLOW_KEYS:
            raise SchemaError(f"flow has unknown keys {sorted(entry.keys() - _FLOW_KEYS)}")
        flow_id = entry.get("id")
        source = entry.get("source")
        if not isinstance(source, _OPTIONAL_STR):
            raise _element_error("flow", flow_id, "source must be a string")
        target = entry.get("target")
        if not isinstance(target, _OPTIONAL_STR):
            raise _element_error("flow", flow_id, "target must be a string")
        flows.append(
            Flow(flow_id, source, target, *_shared_fields(entry, _FLOW_TYPES, "flow", flow_id))
        )

    diagram = build(stage, nodes, flows)
    # JSON text carries a lone surrogate only as a \udXXX escape (or verbatim
    # in a str argument), so only documents that could hold one are searched,
    # and only they compile the pattern.
    if "\\ud" in text or "\\uD" in text or (isinstance(data, str) and not text.isascii()):
        found = _first_lone_surrogate(diagram)
        if found is not None:
            kind, element_id, held = found
            raise _element_error(kind, element_id, f"{held!r} holds a lone surrogate")
    return diagram
