"""Straightforward implementations that the library's fast paths are held to.

`emit_drawio` writes its document string by string and `layout_generated`
resolves occupied spots through a skip map and takes its anchors from the
library's gadget reader; the versions here build an ElementTree, step
down one grid cell at a time, as the library did before, and find each
anchor by flow kind. `parse_drawio` reads each plain cell's attribute map in place;
the version here copies every map first and builds each element with
keywords. `parse_json` reads a clean list of entries column by column;
`reference_parse_json` reads every entry one by one, its types through
the enums, and scans every text for a lone surrogate.
`emit_dot` quotes each distinct text once; the version here
quotes every occurrence. `report_json` writes the simulation report
directly, `report_to_dict` reads that text back, and the table loaders
read CSV with `csv.reader`; the versions here build the report's dict
field by field, write it through `json.dumps`, and read CSV with
`csv.DictReader`. `run_simulation` keeps each flow's onward hops in a
table and `render_report` lays its table out by column;
`reference_run_simulation` and `reference_render_report` are both as the
library had them before. `emit_json` writes the canonical layout directly;
`to_canonical_dict` is that document as a dict, for `json.dumps` and for
comparing diagrams. The command line is parsed by a table in `padfd.cli`;
`reference_parser` is the argparse parser it replaced. `padfd.validate`
checks each stage's condition from one table in one walk;
`reference_validate_raw`, `_wellformed` and `_pa` compose one pass per
rule, as the library did before, and `reference_validate_pa` states the
rewrite's gadget role by role, without the library's role tables. `transform` shares one log store as it
rewrites; `reference_merge_log_stores` merges the per-flow stores of a
finished rewrite, as the library did before. The tests require identical
results."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from collections import deque

from padfd import (
    DEFAULT_STYLE_MAP,
    DataRecord,
    Decision,
    Diagram,
    Flow,
    FlowMeta,
    FlowType,
    LogEntry,
    Node,
    NodeType,
    ParseError,
    PolicySnapshot,
    SCHEMA_ID,
    SchemaError,
    SimulationError,
    SimulationReport,
    Stage,
    StageError,
    StoreState,
    StoredRecord,
    compatibility_with_equivalences,
)
from padfd import cli, model
from padfd.drawio import (
    _CONSUMED_ATTRS,
    _infer_stage,
    _locate_model,
    _structural_id,
    _vertex_position,
)
from padfd.graph import build, canonical_number, encode_output, format_position
from padfd.layout import GRID_STEP
from padfd.model import NODE_LOOKS
from padfd.simulate import (
    DYNAMIC_COLUMNS,
    STATIC_COLUMNS,
    _parse_bool,
    _parse_date,
)
from padfd.validate import StageValidity, Violation, connectivity, read_parts

from helpers import replace


def _node_entry(node) -> dict:
    entry: dict = {"id": node.id}
    if node.node_type is not None:
        entry["type"] = node.node_type.value
    if node.label is not None:
        entry["label"] = node.label
    if node.partner is not None:
        entry["partner"] = node.partner
    if node.position is not None:
        entry["position"] = [canonical_number(v) for v in node.position]
    if node.extra:
        entry["extra"] = dict(node.extra)
    return entry


def _flow_entry(flow) -> dict:
    entry: dict = {"id": flow.id, "source": flow.source, "target": flow.target}
    if flow.flow_type is not None:
        entry["type"] = flow.flow_type.value
    if flow.label is not None:
        entry["label"] = flow.label
    if flow.partner is not None:
        entry["partner"] = flow.partner
    if flow.extra:
        entry["extra"] = dict(flow.extra)
    return entry


def to_canonical_dict(diagram: Diagram) -> dict:
    """Canonical document for a diagram; equal documents mean equal models."""
    return {
        "schema": SCHEMA_ID,
        "stage": diagram.stage.value,
        "nodes": [_node_entry(diagram.nodes[k]) for k in sorted(diagram.nodes)],
        "flows": [_flow_entry(diagram.flows[k]) for k in sorted(diagram.flows)],
    }


def reference_emit_drawio(diagram: Diagram, styles=None) -> bytes:
    """The draw.io document as ElementTree serialises it after ET.indent."""
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
        attrs["style"] = styles.node_styles[node.node_type]
        attrs["vertex"] = "1"
        attrs["parent"] = layer_id
        if node.partner is not None:
            attrs["partner"] = node.partner
        for key in sorted(node.extra):
            if key not in _CONSUMED_ATTRS:
                attrs[key] = node.extra[key]
        cell = ET.SubElement(container, "mxCell", attrs)
        look = NODE_LOOKS[node.node_type]
        geometry = {"width": str(look.width), "height": str(look.height)}
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
        attrs["style"] = styles.edge_styles[flow.flow_type]
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


def _reference_cells(model_elem):
    container = model_elem.find("root")
    if container is None:
        raise ParseError("mxGraphModel has no root element")
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


def reference_parse_drawio(data, styles=None) -> Diagram:
    """One draw.io page read by walking the ElementTree, every cell's
    attribute map copied and every element built with keywords. The ids
    and edge ends are checked element by element once every cell has
    read: the nodes in document order, then the edges, each edge's id
    before its ends."""
    styles = styles or DEFAULT_STYLE_MAP
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        root = ET.fromstring(text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 at byte {exc.start} ({exc.reason})") from None
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise ParseError(
            f"not valid XML text: U+{code:04X} at index {exc.start} is a lone surrogate"
        ) from None
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from None
    model_elem = _locate_model(root)

    stage = None
    stage_attr = model_elem.get("dfdStage")
    if stage_attr is not None:
        try:
            stage = Stage(stage_attr)
        except ValueError:
            raise SchemaError(f"unknown dfdStage {stage_attr!r}") from None

    nodes = []
    flows = []
    for index, (cell, attrs) in enumerate(_reference_cells(model_elem)):
        name = f"cell {attrs.get('id')!r}" if attrs.get("id") else f"cells[{index}]"
        if attrs.get("vertex") == "1":
            style = attrs.get("style")
            node_type = styles.node_type_for(style)
            if node_type is None:
                raise ParseError(f"{name}: no rule matches vertex style {style!r}")
            try:
                position = _vertex_position(cell)
            except ParseError as exc:
                raise ParseError(f"{name}: {exc}") from None
            nodes.append(
                Node(
                    id=attrs.get("id"),
                    node_type=node_type,
                    label=attrs.get("value") or None,
                    partner=attrs.get("partner"),
                    position=position,
                    extra={k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS},
                )
            )
        elif attrs.get("edge") == "1":
            flows.append(
                Flow(
                    id=attrs.get("id"),
                    source=attrs.get("source"),
                    target=attrs.get("target"),
                    flow_type=styles.flow_type_for(attrs.get("style")),
                    label=attrs.get("value") or None,
                    partner=attrs.get("partner"),
                    extra={k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS},
                )
            )

    node_map = {}
    for node in nodes:
        if not node.id:
            raise SchemaError("node id must be a non-empty string")
        if node.id in node_map:
            raise SchemaError(f"node id {node.id!r} already in use")
        node_map[node.id] = node
    flow_map = {}
    for flow in flows:
        if not flow.id:
            raise SchemaError("flow id must be a non-empty string")
        if flow.id in flow_map or flow.id in node_map:
            raise SchemaError(f"flow id {flow.id!r} already in use")
        if not flow.source or not flow.target:
            raise SchemaError(f"flow {flow.id!r} lacks a source or target")
        for endpoint in (flow.source, flow.target):
            if endpoint not in node_map:
                raise SchemaError(f"flow {flow.id!r} references missing node {endpoint!r}")
        flow_map[flow.id] = flow

    return Diagram(
        stage=stage if stage is not None else _infer_stage(nodes, flows),
        nodes=node_map,
        flows=flow_map,
    )


_JSON_NODE_KEYS = frozenset({"id", "type", "label", "partner", "position", "extra"})
_JSON_FLOW_KEYS = frozenset({"id", "source", "target", "type", "label", "partner", "extra"})
_OPTIONAL_STR = (str, type(None))


def _json_name(kind: str, element_id, index: int) -> str:
    """An element by its id, or by its place in its list where the id is no
    non-empty string."""
    if isinstance(element_id, str) and element_id:
        return f"{kind} {element_id!r}"
    return f"{kind}s[{index}]"


def _json_position(value, name: str) -> tuple[float, float]:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise SchemaError(f"{name}: position must be a pair of numbers")
    try:
        x, y = float(value[0]), float(value[1])
    except OverflowError:
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SchemaError(f"{name}: position coordinates must be finite")
    return x, y


def _json_shared_fields(entry: dict, types: type, name: str) -> tuple:
    """Type, label, partner and extra of a node or flow entry, checked in
    that order."""
    value = entry.get("type")
    element_type = None
    if value is not None:
        if not isinstance(value, str):
            raise SchemaError(f"{name}: type must be a string")
        try:
            element_type = types(value)
        except ValueError:
            raise SchemaError(f"{name}: unknown type {value!r}") from None
    for field in ("label", "partner"):
        if not isinstance(entry.get(field), _OPTIONAL_STR):
            raise SchemaError(f"{name}: {field} must be a string")
    extra = entry.get("extra", {})
    if not isinstance(extra, dict):
        raise SchemaError(f"{name}: extra must be an object")
    for key, text in extra.items():
        if not (isinstance(key, str) and isinstance(text, str)):
            raise SchemaError(f"{name}: extra entries must map strings to strings")
    return element_type, entry.get("label"), entry.get("partner"), extra


def _reject_constant(name: str):
    raise SchemaError(f"not valid JSON: non-finite number {name}")


def reference_parse_json(data) -> Diagram:
    """A canonical JSON document read entry by entry, each refused at its
    first defect in document order; ids and flow ends are left to
    `graph.build`."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 at byte {exc.start} ({exc.reason})") from None
    text = text.removeprefix("\ufeff")
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM", text, 0)
        doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("schema") != SCHEMA_ID:
        raise SchemaError(f"schema must be {SCHEMA_ID!r}, found {doc.get('schema')!r}")
    unknown = doc.keys() - {"schema", "stage", "nodes", "flows"}
    if unknown:
        raise SchemaError(f"unknown document keys {sorted(unknown)}")
    stages = {stage.value: stage for stage in Stage}
    stage = doc.get("stage")
    if not (isinstance(stage, str) and stage in stages):
        raise SchemaError(f"unknown stage {stage!r}")
    raw_nodes, raw_flows = doc.get("nodes", []), doc.get("flows", [])
    if not isinstance(raw_nodes, list):
        raise SchemaError("nodes must be a list")
    if not isinstance(raw_flows, list):
        raise SchemaError("flows must be a list")

    nodes = []
    for index, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict):
            raise SchemaError("each node must be an object")
        if not entry.keys() <= _JSON_NODE_KEYS:
            raise SchemaError(f"node has unknown keys {sorted(entry.keys() - _JSON_NODE_KEYS)}")
        name = _json_name("node", entry.get("id"), index)
        position = entry.get("position")
        if position is not None:
            position = _json_position(position, name)
        node_type, label, partner, extra = _json_shared_fields(entry, NodeType, name)
        nodes.append(
            Node(
                id=entry.get("id"), node_type=node_type, label=label, partner=partner,
                position=position, extra=extra,
            )
        )
    flows = []
    for index, entry in enumerate(raw_flows):
        if not isinstance(entry, dict):
            raise SchemaError("each flow must be an object")
        if not entry.keys() <= _JSON_FLOW_KEYS:
            raise SchemaError(f"flow has unknown keys {sorted(entry.keys() - _JSON_FLOW_KEYS)}")
        name = _json_name("flow", entry.get("id"), index)
        for end in ("source", "target"):
            if not isinstance(entry.get(end), _OPTIONAL_STR):
                raise SchemaError(f"{name}: {end} must be a string")
        flow_type, label, partner, extra = _json_shared_fields(entry, FlowType, name)
        flows.append(
            Flow(
                id=entry.get("id"), source=entry.get("source"), target=entry.get("target"),
                flow_type=flow_type, label=label, partner=partner, extra=extra,
            )
        )

    diagram = build(stages[stage], nodes, flows)
    for kind, elements in (("node", diagram.nodes), ("flow", diagram.flows)):
        for element in elements.values():
            extra = element.extra
            for held in (element.id, element.label, element.partner, *extra, *extra.values()):
                if held is not None and any("\ud800" <= c <= "\udfff" for c in held):
                    raise SchemaError(f"{kind} {element.id!r}: {held!r} holds a lone surrogate")
    return diagram


def _dot_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def reference_emit_dot(diagram: Diagram) -> bytes:
    """DOT with every id and label quoted where it is written."""
    lines = [
        "digraph dfd {",
        "  rankdir=LR;",
        '  node [fontsize=11, fontname="Helvetica"];',
        '  edge [fontsize=10, fontname="Helvetica"];',
    ]
    for node_id in sorted(diagram.nodes):
        node = diagram.nodes[node_id]
        shape = "plaintext" if node.node_type is None else NODE_LOOKS[node.node_type].dot_shape
        label = node.label if node.label is not None else node_id
        lines.append(f"  {_dot_quote(node_id)} [label={_dot_quote(label)}, shape={shape}];")
    for flow_id in sorted(diagram.flows):
        flow = diagram.flows[flow_id]
        parts = []
        if flow.flow_type is not None:
            parts.append(flow.flow_type.value)
        if flow.label is not None:
            parts.append(flow.label)
        label = ": ".join(parts)
        lines.append(
            f"  {_dot_quote(flow.source)} -> {_dot_quote(flow.target)} "
            f"[label={_dot_quote(label)}];"
        )
    lines.append("}")
    return encode_output("\n".join(lines) + "\n", diagram, "DOT")


def reference_layout_generated(diagram: Diagram) -> Diagram:
    """Placement with occupied spots resolved by stepping down one grid
    cell at a time, and one sorted scan per generated node type."""
    nodes = dict(diagram.nodes)
    occupied = {n.position for n in nodes.values() if n.position is not None}

    def place(node_id, x, y):
        while (x, y) in occupied:
            y += GRID_STEP
        occupied.add((x, y))
        nodes[node_id] = replace(nodes[node_id], position=(x, y))

    def position(node_id):
        if node_id is None or node_id not in nodes:
            return None
        return nodes[node_id].position

    def unpositioned(node_type):
        return sorted(
            n.id for n in nodes.values() if n.position is None and n.node_type is node_type
        )

    column = 0
    for node_id in sorted(nodes):
        node = nodes[node_id]
        if node.position is None and node.node_type in model.BDFD_NODE_TYPES:
            place(node_id, column * 2 * GRID_STEP, 0.0)
            column += 1

    # Anchors by flow kind: the data flow into each limit and the guarded
    # flow out of it, the log chain, the partner links of requests,
    # reasons and policy stores, and the store each cleaner deletes from.
    # A log store shared by several logs hangs below the last one that
    # feeds it.
    by_kind = {}
    for flow in diagram.flows.values():
        by_kind.setdefault(flow.flow_type, []).append(flow)

    def ends(*kinds):
        return [(f.source, f.target) for kind in kinds for f in by_kind.get(kind, ())]

    fed_by = {
        limit: source for source, limit in ends(FlowType.PROLIM, FlowType.EXTLIM, FlowType.DBLIM)
    }
    guarded = (FlowType.LIMPRO, FlowType.LIMEXT, FlowType.LIMDB, FlowType.LIMDB_DEL)
    hop_ends = {limit: (fed_by.get(limit), target) for limit, target in ends(*guarded)}
    log_anchor = {log: limit for limit, log in ends(FlowType.LIMLOG)}
    log_db_anchor = {log_db: log for log, log_db in ends(FlowType.LOGGING)}
    clean_target = {clean: store for clean, store in ends(FlowType.CLEDB_DEL)}
    def hop(limit_id):
        source, target = hop_ends.get(limit_id, (None, None))
        start, end = position(source), position(target)
        if start is None or end is None:
            return None
        return start, end

    for limit_id in unpositioned(NodeType.LIMIT):
        ends = hop(limit_id)
        if ends is None:
            place(limit_id, 0.0, 0.0)
            continue
        (ax, ay), (bx, by) = ends
        place(limit_id, (ax + bx) / 2, (ay + by) / 2)

    for request_id in unpositioned(NodeType.REQUEST):
        limit_id = nodes[request_id].partner
        anchor = position(limit_id)
        if anchor is None:
            place(request_id, 0.0, 0.0)
            continue
        ends = hop(limit_id)
        if ends is None:
            place(request_id, anchor[0], anchor[1] - GRID_STEP)
            continue
        (ax, ay), (bx, by) = ends
        dx, dy = bx - ax, by - ay
        norm = math.hypot(dx, dy) or 1.0
        place(
            request_id,
            anchor[0] + dy / norm * GRID_STEP,
            anchor[1] - dx / norm * GRID_STEP,
        )

    for log_id in unpositioned(NodeType.LOG):
        anchor = position(log_anchor.get(log_id))
        if anchor is None:
            place(log_id, 0.0, 0.0)
        else:
            place(log_id, anchor[0], anchor[1] + GRID_STEP)

    for log_db_id in unpositioned(NodeType.LOG_DB):
        anchor = position(log_db_anchor.get(log_db_id))
        if anchor is None:
            place(log_db_id, 0.0, 0.0)
        else:
            place(log_db_id, anchor[0], anchor[1] + GRID_STEP)

    for reason_id in unpositioned(NodeType.REASON):
        anchor = position(nodes[reason_id].partner)
        if anchor is None:
            place(reason_id, 0.0, 0.0)
        else:
            place(reason_id, anchor[0] + GRID_STEP, anchor[1] - GRID_STEP)

    for policy_db_id in unpositioned(NodeType.POLICY_DB):
        anchor = position(nodes[policy_db_id].partner)
        if anchor is None:
            place(policy_db_id, 0.0, 0.0)
        else:
            place(policy_db_id, anchor[0] + GRID_STEP, anchor[1] + GRID_STEP)

    for clean_id in unpositioned(NodeType.CLEAN):
        anchor = position(clean_target.get(clean_id))
        if anchor is None:
            place(clean_id, 0.0, 0.0)
        else:
            place(clean_id, anchor[0] + 2 * GRID_STEP, anchor[1] + GRID_STEP)

    for node_id in sorted(nodes):
        if nodes[node_id].position is None:
            place(node_id, 0.0, 0.0)

    return replace(diagram, nodes=nodes)


def reference_merge_log_stores(diagram: Diagram) -> Diagram:
    """Merge all log stores into the first one (insertion order), retargeting
    every log -> store flow."""
    log_dbs = [n.id for n in diagram.nodes.values() if n.node_type is NodeType.LOG_DB]
    if len(log_dbs) < 2:
        return diagram
    keep, *drop = log_dbs
    dropped = set(drop)
    nodes = {nid: n for nid, n in diagram.nodes.items() if nid not in dropped}
    flows = {
        fid: replace(f, target=keep)
        if f.flow_type is FlowType.LOGGING and f.target in dropped
        else f
        for fid, f in diagram.flows.items()
    }
    return replace(diagram, nodes=nodes, flows=flows)


def _entry_dict(entry) -> dict:
    return {
        "d_id": entry.d_id,
        "flow_id": entry.flow_id,
        "purpose": entry.policy.purpose,
        "consent": sorted(entry.policy.consent),
        "expiry": entry.policy.expiry.isoformat(),
        "v": entry.v,
        "clock": entry.clock.isoformat(),
    }


def reference_report_to_dict(report) -> dict:
    """The report as a JSON-ready dict, built field by field."""
    return {
        "clock": report.clock.isoformat(),
        "decisions": [
            {
                "d_id": d.d_id,
                "flow_id": d.flow_id,
                "forwarded_bdfd": d.forwarded_bdfd,
                "forwarded_padfd": d.forwarded_padfd,
                "violation": d.entry.v,
                "propagated": d.propagated,
            }
            for d in report.decisions
        ],
        "logs": {
            store: [_entry_dict(e) for e in entries]
            for store, entries in sorted(report.logs.items())
        },
        "stores": {
            store: {
                d_id: {"stored_at": stored.stored_at.isoformat()}
                for d_id, stored in sorted(records.items())
            }
            for store, records in sorted(report.state.data.items())
        },
        "policies": {
            store: {
                d_id: {
                    "purpose": snap.purpose,
                    "consent": sorted(snap.consent),
                    "expiry": snap.expiry.isoformat(),
                }
                for d_id, snap in sorted(snaps.items())
            }
            for store, snaps in sorted(report.state.policies.items())
        },
    }


def reference_report_json(report) -> str:
    """What `simulate --report json` prints, less the final newline."""
    return json.dumps(reference_report_to_dict(report), indent=2, sort_keys=True)


def reference_run_simulation(
    diagram, metas, records, clock, *, compatible=None, multi_hop=False
) -> SimulationReport:
    """`run_simulation` as it stood before hops walked a per-flow table:
    every hop looks its flow up again, filters the process's outgoing
    flows by policy row, and keys its visited set by (record, flow); the
    limit consults `compatible` before it tests the expiry."""
    if diagram.stage is not Stage.PA:
        raise StageError(
            f"simulation needs a privacy-aware diagram, got {diagram.stage.value}"
        )
    compatible = compatible or compatibility_with_equivalences(())
    meta_by_flow = {}
    for meta in metas:
        if meta.flow_id in meta_by_flow:
            raise SimulationError(f"duplicate policy row for flow {meta.flow_id!r}")
        meta_by_flow[meta.flow_id] = meta

    gadgets, holders = read_parts(diagram)
    log_of = {}
    for flow_id, log_db in zip(gadgets["flow"], gadgets["log_db"]):
        if log_db is None:
            raise SimulationError(f"guarded flow {flow_id!r} has no log chain behind its limit")
        log_of[flow_id] = log_db
    logs = {log_db: [] for log_db in log_of.values()}
    outgoing = {}
    for flow_id, source in sorted(zip(gadgets["flow"], gadgets["source"])):
        if source is not None:
            outgoing.setdefault(source, []).append(flow_id)
    state = StoreState()
    stores = holders[NodeType.DB]
    for store, policy_store in zip(stores["owner"], stores["policy_db"]):
        state.data[store] = {}
        if policy_store is not None:
            state.partners[store] = policy_store
            state.policies[policy_store] = {}
    decisions = []
    routes = {}

    def route(record):
        flow = diagram.flows.get(record.flow_id)
        if flow is None:
            raise SimulationError(f"record {record.d_id!r} names unknown flow {record.flow_id!r}")
        log = log_of.get(record.flow_id)
        if log is None:
            raise SimulationError(
                f"record {record.d_id!r} names flow {record.flow_id!r}, which is not a "
                "guarded data flow; records travel the flows of the original diagram"
            )
        meta = meta_by_flow.get(record.flow_id)
        if meta is None:
            raise SimulationError(
                f"record {record.d_id!r} names flow {record.flow_id!r}, which has no policy row"
            )
        routes[record.flow_id] = resolved = (flow, meta, logs[log])
        return resolved

    def evaluate(record, propagated):
        flow, meta, log = routes.get(record.flow_id) or route(record)
        forwarded = not meta.pd or (
            compatible(meta.purpose, record.consent) and clock <= record.expiry
        )
        policy = PolicySnapshot(meta.purpose, record.consent, record.expiry)
        entry = LogEntry(record.d_id, record.flow_id, policy, not forwarded, clock)
        log.append(entry)
        decisions.append(
            Decision(record.d_id, record.flow_id, True, forwarded, entry, propagated)
        )
        if not forwarded:
            return False
        if flow.flow_type is FlowType.LIMDB:
            store = flow.target
            if store not in state.partners:
                raise SimulationError(
                    f"data store {store!r} has no policy store; cannot deposit"
                )
            state.data[store][record.d_id] = StoredRecord(record, clock)
            state.policies[state.partners[store]][record.d_id] = entry.policy
        elif flow.flow_type is FlowType.LIMDB_DEL:
            store = flow.target
            state.data.get(store, {}).pop(record.d_id, None)
            policy_store = state.partners.get(store)
            if policy_store is not None:
                state.policies[policy_store].pop(record.d_id, None)
        return True

    for record in records:
        forwarded = evaluate(record, propagated=False)
        if not multi_hop or not forwarded:
            continue
        visited = {(record.d_id, record.flow_id)}
        queue = deque([record])
        while queue:
            current = queue.popleft()
            flow = routes[current.flow_id][0]
            if flow.flow_type is not FlowType.LIMPRO:
                continue
            for next_flow in outgoing.get(flow.target, ()):
                key = (current.d_id, next_flow)
                if key in visited or next_flow not in meta_by_flow:
                    continue
                visited.add(key)
                hop = DataRecord(
                    current.d_id, next_flow, current.dsub, current.consent,
                    current.expiry, current.content,
                )
                if evaluate(hop, propagated=True):
                    queue.append(hop)

    return SimulationReport(clock=clock, decisions=decisions, logs=logs, state=state)


def reference_render_report(report) -> str:
    """`render_report` as it stood before it laid its table out by column:
    each line is padded cell by cell and stripped of trailing blanks."""
    rows = [("D_id", "F_id", "B-DFD", "PA-DFD", "Violation")]
    for decision in report.decisions:
        rows.append(
            (
                decision.d_id,
                decision.flow_id + (" (hop)" if decision.propagated else ""),
                "yes" if decision.forwarded_bdfd else "no",
                "yes" if decision.forwarded_padfd else "no",
                "v=true" if decision.entry.v else "-",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = [f"clock: {report.clock.isoformat()}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    total = len(report.decisions)
    lines.append(f"log entries: {total} (violations: {len(report.violations)})")
    for store in sorted(report.state.data):
        held = ", ".join(sorted(report.state.data[store])) or "-"
        lines.append(f"store {store}: {held}")
    return "\n".join(lines) + "\n"


def _dict_rows(text: str, columns: tuple[str, ...], what: str, path):
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [c for c in columns if c not in header]
    if missing:
        raise SchemaError(
            f"{what} table {path}: missing columns {missing}; expected header "
            f"{','.join(columns)}"
        )
    for number, row in enumerate(reader, start=2):
        yield number, {c: (row[c] or "") for c in columns}


def reference_parse_flow_metas(text: str, path) -> list[FlowMeta]:
    """The static CSV table `text`, read from `path`, row by row through
    csv.DictReader; a second row for a flow is refused, naming the first."""
    metas = []
    first_row = {}
    for number, row in _dict_rows(text, STATIC_COLUMNS, "static", path):
        where = f"static table {path} row {number}"
        flow_id = row["F_id"].strip()
        if not flow_id:
            raise SimulationError(f"{where}: F_id must not be empty")
        pd = _parse_bool(row["PD"], f"static table {path}", number)
        purpose = row["Purpose"].strip()
        if pd and not purpose:
            raise SimulationError(f"{where}: personal-data flows need a purpose")
        if flow_id in first_row:
            raise SimulationError(
                f"{where}: duplicate policy row for flow {flow_id!r} "
                f"(first at row {first_row[flow_id]})"
            )
        first_row[flow_id] = number
        metas.append(
            FlowMeta(flow_id, row["Label"].strip(), purpose, pd, row["Data_type"].strip())
        )
    return metas


def reference_parse_data_records(text: str, path) -> list[DataRecord]:
    """The dynamic CSV table `text`, read from `path`, row by row through
    csv.DictReader, every field parsed afresh."""
    records = []
    for number, row in _dict_rows(text, DYNAMIC_COLUMNS, "dynamic", path):
        where = f"dynamic table {path} row {number}"
        d_id = row["D_id"].strip()
        flow_id = row["F_id"].strip()
        if not d_id or not flow_id:
            raise SimulationError(f"{where}: D_id and F_id must not be empty")
        dsub = row["Dsub"].strip()
        consent = frozenset(part.strip() for part in row["Consent"].split(";") if part.strip())
        if not consent:
            raise SimulationError(f"{where}: consent must list at least one purpose")
        expiry = _parse_date(row["Expiry"].strip(), f"dynamic table {path}", number)
        records.append(DataRecord(d_id, flow_id, dsub, consent, expiry, row["Content"].strip()))
    return records


def reference_compatibility(pairs):
    """Purpose compatibility as a literal lookup: exact (case-insensitive)
    membership, or a (consented, covered) pair naming the purpose."""

    def norm(text: str) -> str:
        return text.strip().casefold()

    table = {(norm(consented), norm(covered)) for consented, covered in pairs}

    def compatible(purpose: str, consent: frozenset) -> bool:
        wanted = norm(purpose)
        return any(norm(c) == wanted or (norm(c), wanted) in table for c in consent)

    return compatible


def _reference_iso_date(text: str):
    from datetime import date

    try:
        if len(text) != 10 or text[4] + text[7] != "--":
            raise ValueError(text)
        digits = text[:4] + text[5:7] + text[8:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(text)
        return date(int(text[:4]), int(text[5:7]), int(text[8:]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an ISO date (YYYY-MM-DD), got {text!r}"
        ) from None


def reference_parser() -> argparse.ArgumentParser:
    """The command line as argparse reads it: ``vars`` of what it parses
    is the namespace `padfd.cli` builds for the same arguments."""
    parser = argparse.ArgumentParser(
        prog="padfd",
        description="Validate, rewrite, and simulate privacy-aware data flow diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a diagram and print diagnostics")
    check.add_argument("input")
    check.add_argument("--styles", help="style map JSON file")
    check.add_argument("--report", choices=["text", "json"], default="text")
    check.set_defaults(func=cli.cmd_check)

    tf = sub.add_parser(
        "transform", help="rewrite a business diagram into a privacy-aware one"
    )
    tf.add_argument("input")
    tf.add_argument("-o", "--output", required=True)
    tf.add_argument("--out-format", choices=["drawio", "json", "dot"], default=None)
    tf.add_argument(
        "--shared-log-store",
        action="store_true",
        help="merge the per-flow log stores into one",
    )
    tf.add_argument(
        "--allow-ill-formed",
        action="store_true",
        help="rewrite diagram excerpts despite connectivity findings",
    )
    tf.add_argument("--styles", help="style map JSON file")
    tf.set_defaults(func=cli.cmd_transform)

    sim = sub.add_parser("simulate", help="run policy/data tables against a model")
    sim.add_argument("model")
    sim.add_argument("--static", required=True, help="flow policy table (.csv/.json)")
    sim.add_argument("--dynamic", required=True, help="data record table (.csv/.json)")
    sim.add_argument("--clock", required=True, type=_reference_iso_date, help="YYYY-MM-DD")
    sim.add_argument("--report", choices=["json", "text"], default="text")
    sim.add_argument("--fail-on-violation", action="store_true")
    sim.add_argument(
        "--multi-hop",
        action="store_true",
        help="records forwarded into a process continue along its outgoing flows",
    )
    sim.add_argument(
        "--compat", help="JSON list of [consented, covered] purpose pairs"
    )
    sim.add_argument("--styles", help="style map JSON file")
    sim.set_defaults(func=cli.cmd_simulate)

    export = sub.add_parser("export", help="convert between diagram formats")
    export.add_argument("input")
    export.add_argument("-o", "--output", required=True)
    export.add_argument("--out-format", choices=["drawio", "json", "dot"], default=None)
    export.add_argument("--styles", help="style map JSON file")
    export.set_defaults(func=cli.cmd_export)

    return parser


def _dangling(diagram: Diagram) -> list[Violation]:
    found = []
    for flow in diagram.flows.values():
        for endpoint in (flow.source, flow.target):
            if endpoint not in diagram.nodes:
                found.append(
                    Violation(
                        "dangling-flow",
                        flow.id,
                        f"flow {flow.id!r} references missing node {endpoint!r}",
                    )
                )
    return found


def _typed_elements(
    diagram: Diagram,
    node_types: frozenset[NodeType],
    flow_types: frozenset[FlowType],
    stage_name: str,
) -> list[Violation]:
    found = []
    for node in diagram.nodes.values():
        if node.node_type is None:
            found.append(
                Violation("node-untyped", node.id, f"node {node.id!r} has no type")
            )
        elif node.node_type not in node_types:
            found.append(
                Violation(
                    "node-type",
                    node.id,
                    f"node type {node.node_type.value!r} not allowed in a "
                    f"{stage_name} diagram",
                )
            )
    for flow in diagram.flows.values():
        if flow.flow_type is None:
            found.append(
                Violation("flow-untyped", flow.id, f"flow {flow.id!r} has no type")
            )
        elif flow.flow_type not in flow_types:
            found.append(
                Violation(
                    "flow-type",
                    flow.id,
                    f"flow type {flow.flow_type.value!r} not allowed in a "
                    f"{stage_name} diagram",
                )
            )
    return found


def _no_partners(diagram: Diagram) -> list[Violation]:
    found = []
    for table in (diagram.nodes, diagram.flows):
        for element in table.values():
            if element.partner is not None:
                found.append(
                    Violation(
                        "partner-unexpected",
                        element.id,
                        f"{element.id!r} carries a partner before the rewrite stage",
                    )
                )
    return found


def _endpoint_checks(
    diagram: Diagram, table: dict[FlowType, tuple[NodeType, NodeType]]
) -> list[Violation]:
    found = []
    for flow in diagram.flows.values():
        expected = table.get(flow.flow_type)
        if expected is None:
            continue
        src = diagram.nodes.get(flow.source)
        tgt = diagram.nodes.get(flow.target)
        if src is None or tgt is None or src.node_type is None or tgt.node_type is None:
            continue
        if (src.node_type, tgt.node_type) != expected:
            want_src, want_tgt = expected
            found.append(
                Violation(
                    "flow-endpoints",
                    flow.id,
                    f"{flow.flow_type.value} flow {flow.id!r} must run "
                    f"{want_src.value} -> {want_tgt.value}, found "
                    f"{src.node_type.value} -> {tgt.node_type.value}",
                )
            )
    return found


def _comp_loops(diagram: Diagram) -> list[Violation]:
    found = []
    for flow in diagram.flows.values():
        if flow.flow_type is FlowType.COMP and flow.source == flow.target:
            found.append(
                Violation(
                    "comp-loop",
                    flow.id,
                    f"inter-process flow {flow.id!r} loops on {flow.source!r}",
                )
            )
    return found


def _partner_links(diagram: Diagram) -> list[Violation]:
    found = []
    for table in (diagram.nodes, diagram.flows):
        for element in table.values():
            if element.partner is None:
                continue
            other = table.get(element.partner)
            if other is None:
                found.append(
                    Violation(
                        "partner-missing",
                        element.id,
                        f"{element.id!r} names missing partner {element.partner!r}",
                    )
                )
            elif other.partner != element.id:
                found.append(
                    Violation(
                        "partner-asymmetric",
                        element.id,
                        f"partner link {element.id!r} -> {element.partner!r} "
                        "is not mutual",
                    )
                )
    return found


def _sorted(violations: list[Violation]) -> tuple[Violation, ...]:
    return tuple(sorted(violations, key=lambda v: (v.element, v.clause)))


def reference_validate_raw(diagram: Diagram) -> StageValidity:
    """Check the raw-stage condition: business node types, plain/deletion
    flows, no partners. Dangling endpoints are reported at every stage."""
    found = _dangling(diagram)
    found += _typed_elements(
        diagram, model.BDFD_NODE_TYPES, model.RAW_FLOW_TYPES, "raw"
    )
    found += _no_partners(diagram)
    return StageValidity(Stage.RAW, _sorted(found))


def reference_validate_wellformed(diagram: Diagram) -> StageValidity:
    """Check the well-formed condition: business node types, the six typed
    flow kinds with matching endpoints, no inter-process loops, and the
    connectivity rules (processes relay; entities and stores attach)."""
    found = _dangling(diagram)
    found += _typed_elements(
        diagram, model.BDFD_NODE_TYPES, model.WELLFORMED_FLOW_TYPES, "well-formed"
    )
    found += _no_partners(diagram)
    found += _endpoint_checks(diagram, model.WELLFORMED_FLOW_ENDPOINTS)
    found += _comp_loops(diagram)
    found += connectivity(diagram)
    return StageValidity(Stage.WELLFORMED, _sorted(found))


def _lacking(what: str, element: str, parts: list[tuple[str, object]]) -> list[Violation]:
    missing = [role for role, part in parts if part is None]
    if not missing:
        return []
    message = (
        f"{what} {element!r}: {', '.join(missing)} missing or not wired as the rewrite wires them"
    )
    return [Violation("gadget-part", element, message)]


def _gadget_parts(diagram: Diagram) -> list[Violation]:
    """The rewrite's gadget, stated role by role. Each kind of flow the
    rewrite adds is found at one end: a flow into a limit, a request or a
    store's cleaner at its target, the others at their source. A process
    holds its reason and a store its policy store through a mutual partner
    link; the store's policy store feeds its cleaner, which deletes from
    it. A guarded flow runs from its limit, whose mutual partner is its
    request; the request steers the limit, the limit feeds a log and the
    log a log store; the source's data feeds the limit, and the request
    gathers evidence from the node holding the source's consent evidence,
    partnered with that data flow, and grants it to the one holding the
    target's, partnered with the guarded flow. Only a log store may serve
    more than one guarded flow; every other part serves one flow or node."""
    nodes, flows = diagram.nodes, diagram.flows
    # The roles each part but a log store fills, nodes' and flows' apart.
    places = {True: {}, False: {}}

    def parts_of(owner, parts):
        """`parts` as role and id, each part but a log store placed with `owner`."""
        parts = [(role, getattr(part, "id", part)) for role, part in parts]
        for role, part in parts:
            if part is not None and role != "log_db":
                is_node = role in {"limit", "request", "log", "reason", "policy_db", "clean"}
                places[is_node].setdefault(part, []).append(f"{role} of {owner!r}")
        return parts

    def found_at(kinds, at_target):
        index = {}
        for flow in flows.values():
            key = flow.target if at_target else flow.source
            if flow.flow_type in kinds and key is not None:
                index[key] = flow
        return index

    steers = found_at({FlowType.REQLIM}, True)
    taps = found_at({FlowType.LIMLOG}, False)
    keeps = found_at({FlowType.LOGGING}, False)
    feeds = found_at({FlowType.PROLIM, FlowType.EXTLIM, FlowType.DBLIM}, True)
    asks = found_at({FlowType.REAREQ, FlowType.EXTREQ, FlowType.PDBREQ}, True)
    grants = found_at({FlowType.REQREA, FlowType.REQPDB, FlowType.REQEXT}, False)
    cleans = found_at({FlowType.PDBCLE}, False)
    deletes_from = found_at({FlowType.CLEDB_DEL}, True)

    def mate(node_id):
        """The node `node_id` names as its partner, if it names it back."""
        node = nodes.get(node_id)
        other = nodes.get(node.partner) if node is not None else None
        return other.id if other is not None and other.partner == node_id else None

    found, claimed_nodes, claimed_flows, evidence = [], set(), set(), {}
    for node in nodes.values():
        if node.node_type in model.BDFD_NODE_TYPES:
            claimed_nodes.add(node.id)
        if node.node_type is NodeType.EXT:
            evidence[node.id] = node.id
        elif node.node_type is NodeType.PROC:
            evidence[node.id] = reason = mate(node.id)
            claimed_nodes.add(reason)
            found += _lacking("proc node", node.id, parts_of(node.id, [("reason", reason)]))
        elif node.node_type is NodeType.DB:
            evidence[node.id] = policy_db = mate(node.id)
            to_clean = cleans.get(policy_db)
            clean = to_clean.target if to_clean is not None else None
            deletion = deletes_from.get(node.id)
            if deletion is not None and clean is None:
                clean = deletion.source
            elif deletion is not None and deletion.source != clean:
                deletion = None
            claimed_nodes |= {policy_db, clean}
            claimed_flows |= {to_clean and to_clean.id, deletion and deletion.id}
            found += _lacking(
                "db node", node.id,
                parts_of(
                    node.id,
                    [("policy_db", policy_db), ("clean", clean), ("pdbcle", to_clean),
                     ("cledb_del", deletion)],
                ),
            )

    guarded = {FlowType.LIMPRO, FlowType.LIMEXT, FlowType.LIMDB, FlowType.LIMDB_DEL}
    for flow in flows.values():
        if flow.flow_type not in guarded:
            continue
        limit, target = flow.source, flow.target
        request = mate(limit)
        steer = steers.get(limit)
        if steer is not None and request is not None and steer.source != request:
            steer = None
        tap = taps.get(limit)
        log = tap.target if tap is not None else None
        keep = keeps.get(log)
        log_db = keep.target if keep is not None else None
        feed = feeds.get(limit)
        source = feed.source if feed is not None else None
        ask = asks.get(request)
        if ask is not None and feed is not None and ask.partner != feed.id:
            ask = None
        grant = grants.get(request)
        if grant is not None and grant.partner != flow.id:
            grant = None
        asked_of = ask.source if ask is not None else None
        if asked_of is not None and source in evidence and evidence[source] != asked_of:
            ask = asked_of = None
        granted_to = grant.target if grant is not None else None
        if granted_to is not None and target in evidence and evidence[target] != granted_to:
            grant = granted_to = None
        claimed_nodes |= {source, target, asked_of, granted_to, limit, request, log, log_db}
        claimed_flows |= {
            part.id for part in (flow, steer, tap, keep, feed, ask, grant) if part is not None
        }
        found += _lacking(
            f"{flow.flow_type.value} flow", flow.id,
            parts_of(
                flow.id,
                [("limit", limit), ("request", request), ("log", log), ("log_db", log_db),
                 ("reqlim", steer), ("limlog", tap), ("logging", keep), ("data_in", feed),
                 ("source_policy", ask), ("target_policy", grant)],
            ),
        )

    generated = {
        NodeType.LIMIT, NodeType.REQUEST, NodeType.REASON, NodeType.POLICY_DB, NodeType.LOG,
        NodeType.LOG_DB, NodeType.CLEAN,
    }
    for is_node, held in places.items():
        for part_id, roles in held.items():
            element = (nodes if is_node else flows).get(part_id)
            kind = element and (element.node_type if is_node else element.flow_type)
            if len(roles) > 1 and kind in (generated if is_node else model.PA_FLOW_TYPES):
                message = (
                    f"{kind.value} {'node' if is_node else 'flow'} {part_id!r} is a part of more "
                    f"than one gadget: {', '.join(sorted(roles))}"
                )
                found.append(Violation("gadget-shared", part_id, message))
    for node in nodes.values():
        if node.node_type in generated and node.id not in claimed_nodes:
            message = f"{node.node_type.value} node {node.id!r} belongs to no gadget"
            found.append(Violation("gadget-unclaimed", node.id, message))
    for flow in flows.values():
        if flow.flow_type in model.PA_FLOW_TYPES and flow.id not in claimed_flows:
            message = f"{flow.flow_type.value} flow {flow.id!r} belongs to no gadget"
            found.append(Violation("gadget-unclaimed", flow.id, message))
    return found


def reference_validate_pa(diagram: Diagram) -> StageValidity:
    """Check the privacy-aware condition: the full node vocabulary, the
    eighteen rewritten flow kinds with matching endpoints, symmetric
    partner links, and every gadget the rewrite adds present and wired
    as it wires it, with nothing generated left over."""
    found = _dangling(diagram)
    found += _typed_elements(
        diagram, model.PA_NODE_TYPES, model.PA_FLOW_TYPES, "privacy-aware"
    )
    found += _endpoint_checks(diagram, model.PA_FLOW_ENDPOINTS)
    found += _partner_links(diagram)
    found += _gadget_parts(diagram)
    return StageValidity(Stage.PA, _sorted(found))
