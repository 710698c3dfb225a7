"""Privacy-aware data flow diagrams.

Validate business data flow diagrams, rewrite every data flow into a
policy-checking gadget (limit, request, reason, logging, cleaning), and
simulate the rewritten diagram against purpose/consent/retention tables.
Reads and writes draw.io XML, a canonical JSON form, and Graphviz DOT.

The package imports lazily (PEP 562): ``import padfd`` loads no
submodule, and each public name imports its home module on first use,
so a short-lived process pays only for the layers it touches.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name, in `__all__` order, and the submodule that defines it.
_HOME = {
    "CleanEvent": "simulate",
    "DataRecord": "simulate",
    "Decision": "simulate",
    "DEFAULT_STYLE_MAP": "drawio",
    "Diagram": "graph",
    "Flow": "graph",
    "FlowMeta": "simulate",
    "FlowType": "model",
    "Node": "graph",
    "NodeType": "model",
    "PadfdError": "errors",
    "ParseError": "errors",
    "PolicySnapshot": "simulate",
    "SCHEMA_ID": "canonical",
    "SchemaError": "errors",
    "SimulationError": "errors",
    "SimulationReport": "simulate",
    "Stage": "model",
    "StageError": "errors",
    "StageValidity": "validate",
    "StoreState": "simulate",
    "StyleMap": "drawio",
    "TransformError": "errors",
    "Violation": "validate",
    "WellFormednessError": "errors",
    "add_flow": "graph",
    "add_node": "graph",
    "compatibility_with_equivalences": "simulate",
    "emit_dot": "dot",
    "emit_drawio": "drawio",
    "emit_json": "canonical",
    "layout_generated": "layout",
    "load_data_records": "simulate",
    "load_equivalences": "simulate",
    "load_flow_metas": "simulate",
    "load_style_map": "drawio",
    "parse_drawio": "drawio",
    "parse_json": "canonical",
    "render_report": "simulate",
    "report_json": "simulate",
    "report_to_dict": "simulate",
    "run_clean": "simulate",
    "run_simulation": "simulate",
    "transform": "rewrite",
    "typecheck": "rewrite",
    "validate_pa": "validate",
    "validate_raw": "validate",
    "validate_wellformed": "validate",
}

__all__ = list(_HOME)

# The library's submodules, reachable as attributes as when the package
# imported them all up front.
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

