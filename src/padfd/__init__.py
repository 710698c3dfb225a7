"""Privacy-aware data flow diagrams.

Validate business data flow diagrams, rewrite every data flow into a
policy-checking gadget (limit, request, reason, logging, cleaning), and
simulate the rewritten diagram against purpose/consent/retention tables.
Reads and writes draw.io XML, a canonical JSON form, and Graphviz DOT.
"""

from __future__ import annotations

from .canonical import SCHEMA_ID, emit_json, parse_json, to_canonical_dict
from .dot import emit_dot
from .drawio import emit_drawio, parse_drawio
from .errors import (
    DuplicateIdError,
    GraphError,
    MissingEndpointError,
    MultiPageError,
    PadfdError,
    ParseError,
    SchemaError,
    SimulationError,
    StageError,
    TransformError,
    UnknownEndpointError,
    UnknownStyleError,
    WellFormednessError,
    WrongFlowTypeError,
    XmlSyntaxError,
)
from .graph import (
    Diagram,
    Flow,
    FlowId,
    Node,
    NodeId,
    add_flow,
    add_node,
    sources,
    targets,
)
from .layout import GRID_STEP, layout_generated
from .model import FlowType, NodeType, Stage
from .simulate import (
    CleanEvent,
    DataRecord,
    Decision,
    FlowMeta,
    LogEntry,
    PolicySnapshot,
    SimulationReport,
    StoredRecord,
    StoreState,
    compatibility_with_equivalences,
    evaluate_limit,
    exact_compatibility,
    load_data_records,
    load_equivalences,
    load_flow_metas,
    parse_data_records,
    parse_flow_metas,
    render_report,
    report_json,
    report_to_dict,
    run_clean,
    run_simulation,
)
from .styles import DEFAULT_STYLE_MAP, StyleMap, load_style_map
from .transform import merge_log_stores, transform
from .typecheck import Diagnostic, DiagnosticKind, infer_flow_type, typecheck
from .validate import (
    StageValidity,
    Violation,
    validate_pa,
    validate_raw,
    validate_wellformed,
)

__version__ = "0.1.0"

__all__ = [
    "CleanEvent",
    "DataRecord",
    "Decision",
    "DEFAULT_STYLE_MAP",
    "Diagnostic",
    "DiagnosticKind",
    "Diagram",
    "DuplicateIdError",
    "Flow",
    "FlowId",
    "FlowMeta",
    "FlowType",
    "GraphError",
    "GRID_STEP",
    "LogEntry",
    "MissingEndpointError",
    "MultiPageError",
    "Node",
    "NodeId",
    "NodeType",
    "PadfdError",
    "ParseError",
    "PolicySnapshot",
    "SCHEMA_ID",
    "SchemaError",
    "SimulationError",
    "SimulationReport",
    "Stage",
    "StageError",
    "StageValidity",
    "StoredRecord",
    "StoreState",
    "StyleMap",
    "TransformError",
    "UnknownEndpointError",
    "UnknownStyleError",
    "Violation",
    "WellFormednessError",
    "WrongFlowTypeError",
    "XmlSyntaxError",
    "add_flow",
    "add_node",
    "compatibility_with_equivalences",
    "emit_dot",
    "emit_drawio",
    "emit_json",
    "evaluate_limit",
    "exact_compatibility",
    "infer_flow_type",
    "layout_generated",
    "load_data_records",
    "load_equivalences",
    "load_flow_metas",
    "load_style_map",
    "merge_log_stores",
    "parse_data_records",
    "parse_drawio",
    "parse_flow_metas",
    "parse_json",
    "render_report",
    "report_json",
    "report_to_dict",
    "run_clean",
    "run_simulation",
    "sources",
    "targets",
    "to_canonical_dict",
    "transform",
    "typecheck",
    "validate_pa",
    "validate_raw",
    "validate_wellformed",
]
