"""Straightforward implementations that the library's fast paths are held to.

`emit_drawio` writes its document string by string and `layout_generated`
resolves occupied spots through a skip map; the versions here build an
ElementTree and step down one grid cell at a time, as the library did
before. `parse_drawio` reads each plain cell's attribute map in place;
the version here copies every map first and builds each element with
keywords. `emit_dot` quotes each distinct text once; the version here
quotes every occurrence. `report_json` writes the simulation report
directly, `report_to_dict` reads that text back, and the table loaders
read CSV with `csv.reader`; the versions here build the report's dict
field by field, write it through `json.dumps`, and read CSV with
`csv.DictReader`. `emit_json` writes the canonical layout directly;
`to_canonical_dict` is that document as a dict, for `json.dumps` and for
comparing diagrams. The command line is parsed by a table in `padfd.cli`;
`reference_parser` is the argparse parser it replaced. `padfd.validate`
checks each stage's condition from one table in one walk;
`reference_validate_raw`, `_wellformed` and `_pa` compose one pass per
rule, as the library did before. `transform` shares one log store as it
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

from padfd import (
    DEFAULT_STYLE_MAP,
    DataRecord,
    Diagram,
    Flow,
    FlowMeta,
    FlowType,
    MissingEndpointError,
    Node,
    NodeType,
    ParseError,
    SCHEMA_ID,
    SchemaError,
    SimulationError,
    Stage,
    UnknownStyleError,
    XmlSyntaxError,
    replace,
)
from padfd import cli, model
from padfd.drawio import (
    _CONSUMED_ATTRS,
    _infer_stage,
    _locate_model,
    _structural_id,
    _vertex_position,
)
from padfd.graph import canonical_number, encode_output, format_position
from padfd.layout import GRID_STEP
from padfd.model import NODE_LOOKS
from padfd.simulate import (
    DYNAMIC_COLUMNS,
    STATIC_COLUMNS,
    _parse_bool,
    _parse_consent,
    _parse_date,
)
from padfd.transform import gadget_index
from padfd.validate import StageValidity, Violation, connectivity


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
        attrs["style"] = styles.style_for_node(node.node_type)
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


def _reference_cells(model_elem):
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


def reference_parse_drawio(data, styles=None) -> Diagram:
    """One draw.io page read by walking the ElementTree, every cell's
    attribute map copied and every element built with keywords."""
    styles = styles or DEFAULT_STYLE_MAP
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        root = ET.fromstring(text)
    except UnicodeDecodeError as exc:
        raise XmlSyntaxError(f"not valid UTF-8 at byte {exc.start} ({exc.reason})") from None
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise XmlSyntaxError(
            f"not valid XML text: U+{code:04X} at index {exc.start} is a lone surrogate"
        ) from None
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"not well-formed XML: {exc}") from None
    model_elem = _locate_model(root)

    stage = None
    stage_attr = model_elem.get("dfdStage")
    if stage_attr is not None:
        try:
            stage = Stage(stage_attr)
        except ValueError:
            raise SchemaError(f"unknown dfdStage {stage_attr!r}") from None

    nodes = {}
    edges = []
    for cell, attrs in _reference_cells(model_elem):
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
                extra={k: v for k, v in attrs.items() if k not in _CONSUMED_ATTRS},
            )
        elif attrs.get("edge") == "1":
            edges.append(attrs)

    flows = {}
    for attrs in edges:
        cell_id = attrs.get("id")
        if not cell_id:
            raise ParseError("edge cell without an id")
        if cell_id in flows or cell_id in nodes:
            raise ParseError(f"duplicate cell id {cell_id!r}")
        source = attrs.get("source")
        target = attrs.get("target")
        if not source or not target:
            raise MissingEndpointError(f"edge {cell_id!r} lacks a source or target reference")
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

    gadgets = gadget_index(diagram).values()
    hop_ends = {g.limit: (g.source, diagram.flows[g.flow].target) for g in gadgets}
    log_anchor = {g.log: g.limit for g in gadgets}
    log_db_anchor = {g.log_db: g.log for g in gadgets}
    clean_target = {
        f.source: f.target for f in diagram.flows.values() if f.flow_type is FlowType.CLEDB_DEL
    }

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


def _dict_rows(text: str, columns: tuple[str, ...], what: str):
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [c for c in columns if c not in header]
    if missing:
        raise SimulationError(
            f"{what} table is missing columns {missing}; expected header "
            f"{','.join(columns)}"
        )
    for index, row in enumerate(reader, start=2):
        yield f"{what} row {index}", {c: (row[c] or "") for c in columns}


def reference_parse_flow_metas(text: str) -> list[FlowMeta]:
    """The static CSV table read row by row through csv.DictReader."""
    metas = []
    for where, row in _dict_rows(text, STATIC_COLUMNS, "static"):
        flow_id = row["F_id"].strip()
        if not flow_id:
            raise SimulationError(f"{where}: F_id must not be empty")
        pd = _parse_bool(row["PD"], where)
        purpose = row["Purpose"].strip()
        if pd and not purpose:
            raise SimulationError(f"{where}: personal-data flows need a purpose")
        metas.append(
            FlowMeta(flow_id, row["Label"].strip(), purpose, pd, row["Data_type"].strip())
        )
    return metas


def reference_parse_data_records(text: str) -> list[DataRecord]:
    """The dynamic CSV table read row by row through csv.DictReader,
    every field parsed afresh."""
    records = []
    for where, row in _dict_rows(text, DYNAMIC_COLUMNS, "dynamic"):
        d_id = row["D_id"].strip()
        flow_id = row["F_id"].strip()
        if not d_id or not flow_id:
            raise SimulationError(f"{where}: D_id and F_id must not be empty")
        dsub = row["Dsub"].strip()
        consent = _parse_consent(row["Consent"], where)
        expiry = _parse_date(row["Expiry"].strip(), where)
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
    check.add_argument("--format", choices=["drawio", "json"], default=None)
    check.add_argument("--styles", help="style map JSON file")
    check.add_argument("--report", choices=["text", "json"], default="text")
    check.set_defaults(func=cli.cmd_check)

    tf = sub.add_parser(
        "transform", help="rewrite a business diagram into a privacy-aware one"
    )
    tf.add_argument("input")
    tf.add_argument("-o", "--output", required=True)
    tf.add_argument("--in-format", choices=["drawio", "json"], default=None)
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
    sim.add_argument("--in-format", choices=["drawio", "json"], default=None)
    sim.add_argument("--styles", help="style map JSON file")
    sim.set_defaults(func=cli.cmd_simulate)

    export = sub.add_parser("export", help="convert between diagram formats")
    export.add_argument("input")
    export.add_argument("-o", "--output", required=True)
    export.add_argument(
        "--out-format", choices=["drawio", "json", "dot"], required=True
    )
    export.add_argument("--in-format", choices=["drawio", "json"], default=None)
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


def reference_validate_pa(diagram: Diagram) -> StageValidity:
    """Check the privacy-aware condition: the full node vocabulary, the
    eighteen rewritten flow kinds with matching endpoints, and symmetric
    partner links."""
    found = _dangling(diagram)
    found += _typed_elements(
        diagram, model.PA_NODE_TYPES, model.PA_FLOW_TYPES, "privacy-aware"
    )
    found += _endpoint_checks(diagram, model.PA_FLOW_ENDPOINTS)
    found += _partner_links(diagram)
    return StageValidity(Stage.PA, _sorted(found))
