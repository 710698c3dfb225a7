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
newline; the tests hold the two byte-identical. `parse_json` reads the
entries column by column and walks them one by one only to name a
defect, by the rule `graph.build` states. An explicit null reads as an
absent key for type, label, partner and position; a null id, source or
target is refused as missing, and a null extra is refused. Coordinates
must be finite: NaN and the infinities are not JSON, so the writers
refuse them and `parse_json` rejects the `NaN`/`Infinity`/`-Infinity`
literals.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from json.encoder import encode_basestring as _quote

from .errors import SchemaError, decode_json, decode_utf8
from .graph import (
    Diagram, Flow, Node, _first_lone_surrogate, build, encode_output, format_position,
)
from .model import FlowType, NodeType, Stage

SCHEMA_ID = "padfd-canonical/1"

_DOC_KEYS = frozenset({"schema", "stage", "nodes", "flows"})
# Each kind's keys in the order of its element's parameters.
_NODE_FIELDS = ("id", "type", "label", "partner", "position", "extra")
_FLOW_FIELDS = ("id", "source", "target", "type", "label", "partner", "extra")

_STAGES = {stage.value: stage for stage in Stage}
_NODE_TYPES = {node_type.value: node_type for node_type in NodeType}
_FLOW_TYPES = {flow_type.value: flow_type for flow_type in FlowType}
# The types a text field may hold: a null reads as an absent key.
_TEXT = frozenset({str, type(None)})
# The end of an entry of each kind, its "type" key included, as written:
# reading `Enum.value` would cost a Python-level property call per entry.
_TAILS = {kind: f',\n      "type": {_quote(kind.value)}\n    }}' for kind in (*NodeType, *FlowType)}
_TAILS[None] = "\n    }"


# The writers below emit each entry's keys in sorted order: extra, id,
# label, partner, then position or source and target, then type. Entries
# sit at indent 4, their keys at 6, extra entries and coordinates at 8.


def _extra_text(extra: dict[str, str]) -> str:
    items = ",\n".join(
        ["        " + _quote(key) + ": " + _quote(value) for key, value in sorted(extra.items())]
    )
    return '      "extra": {\n' + items + "\n      }"


def _head(element: Node | Flow) -> str:
    """The opening of a node or flow entry and its keys up to partner."""
    text = "    {\n"
    if element.extra:
        text += _extra_text(element.extra) + ",\n"
    text += '      "id": ' + _quote(element.id)
    if element.label is not None:
        text += ',\n      "label": ' + _quote(element.label)
    if element.partner is not None:
        text += ',\n      "partner": ' + _quote(element.partner)
    return text


def _node_text(node: Node) -> str:
    text = _head(node)
    if node.position is not None:
        x, y = format_position(node)
        text += ',\n      "position": [\n        ' + x + ",\n        " + y + "\n      ]"
    return text + _TAILS[node.node_type]


def _flow_text(flow: Flow) -> str:
    text = _head(flow) + ',\n      "source": ' + _quote(flow.source)
    return text + ',\n      "target": ' + _quote(flow.target) + _TAILS[flow.flow_type]


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


def _element_error(kind: str, element_id, index: int | None, problem: str) -> SchemaError:
    """A refusal naming an element by its id, or by its place in its list
    where the id is no non-empty string."""
    if index is None or (element_id and isinstance(element_id, str)):
        return SchemaError(f"{kind} {element_id!r}: {problem}")
    return SchemaError(f"{kind}s[{index}]: {problem}")


def _read_position(value, node_id, index: int) -> tuple[float, float]:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise _element_error("node", node_id, index, "position must be a pair of numbers")
    try:
        x, y = float(value[0]), float(value[1])
    except OverflowError:
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _element_error("node", node_id, index, "position coordinates must be finite")
    return x, y


def _defect(entries: list, kind: str, fields: tuple, types: dict) -> None:
    """Refuse the first defect of a list of entries with SchemaError, in
    document order: an entry that is no object or holds unknown keys; then
    a node's position, or a flow's source and then its target; then type,
    label, partner and extra. Builds nothing; ids are left to `build`."""
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"each {kind} must be an object")
        unknown = entry.keys() - fields
        if unknown:
            raise SchemaError(f"{kind} has unknown keys {sorted(unknown)}")
        element_id = entry.get("id")
        if entry.get("position") is not None:
            _read_position(entry["position"], element_id, index)
        for key in ("source", "target", "type", "label", "partner"):
            value = entry.get(key)
            if type(value) not in _TEXT:
                raise _element_error(kind, element_id, index, f"{key} must be a string")
            if key == "type" and value is not None and value not in types:
                raise _element_error(kind, element_id, index, f"unknown type {value!r}")
        extra = entry.get("extra", {})
        if not isinstance(extra, dict):
            raise _element_error(kind, element_id, index, "extra must be an object")
        if not {str}.issuperset(map(type, extra.values())):
            problem = "extra entries must map strings to strings"
            raise _element_error(kind, element_id, index, problem)


def _by_column(entries: list, kind: str, fields: tuple, types: dict, element) -> list:
    """The elements of a list of entries, read column by column; `fields`
    are the keys in the order of `element`'s parameters. A null reads as
    an absent key, but a null extra is refused. A list that breaks a rule
    is walked by `_defect`, which refuses its first defect."""
    if all(map(isinstance, entries, repeat(dict))):
        columns = {key: list(map(dict.get, entries, repeat(key))) for key in fields}
        # Every key an entry holds is one of `fields`, and none is null, exactly
        # when the columns hold as many values as the entries hold keys. Only
        # where they do not are the keys and extras searched.
        clean = sum(map(len, entries)) == sum(len(entries) - c.count(None) for c in columns.values())
        named, positions = columns["type"], columns.get("position", ())
        texts = [columns[key] for key in ("source", "target", "label", "partner") if key in columns]
        extras = [extra for extra in columns["extra"] if extra is not None]
        try:
            columns["type"] = list(map(types.get, named))
            if positions.count(None) < len(positions):
                positions[:] = [None if p is None else _read_position(p, None, 0) for p in positions]
        except (TypeError, SchemaError):  # an unhashable type, a bad position
            pass
        else:
            if (
                (clean or (
                    frozenset(fields).issuperset(chain.from_iterable(entries))
                    and None not in map(dict.get, entries, repeat("extra"), repeat({}))
                ))
                and columns["type"].count(None) == named.count(None)  # no type of no kind
                and _TEXT.issuperset(map(type, chain(*texts)))
                and all(map(isinstance, extras, repeat(dict)))
                # JSON object keys are strings; extra values must be too.
                and {str}.issuperset(map(type, chain.from_iterable(map(dict.values, extras))))
            ):
                # json.loads built each extra for its entry alone, so it is kept as is.
                return list(map(element, *columns.values()))
    _defect(entries, kind, fields, types)


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
    nodes = _by_column(raw_nodes, "node", _NODE_FIELDS, _NODE_TYPES, Node)
    flows = _by_column(raw_flows, "flow", _FLOW_FIELDS, _FLOW_TYPES, Flow)
    diagram = build(stage, nodes, flows)
    # JSON text carries a lone surrogate only as a \udXXX escape (or verbatim
    # in a str argument), so only documents that could hold one are searched,
    # and only they compile the pattern. A backslash is looked for first: a
    # single character is found at memchr speed, "\\ud" several times slower.
    escaped = "\\" in text and ("\\ud" in text or "\\uD" in text)
    if escaped or (isinstance(data, str) and not text.isascii()):
        found = _first_lone_surrogate(diagram)
        if found is not None:
            kind, element_id, held = found
            raise _element_error(kind, element_id, None, f"{held!r} holds a lone surrogate")
    return diagram
