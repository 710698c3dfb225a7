"""Flow typing for raw diagrams.

Every plain flow between business nodes has at most one well-formed
reading, determined by its endpoint kinds; deletion flows only make sense
from a process into a data store. The checker infers those readings,
verifies the connectivity rules, and either produces the well-formed
diagram or a report of everything wrong. Rule ids:

    pf-no-rule           plain flow between endpoint kinds with no reading
    pf-loop              plain flow from a process to itself
    df-no-rule           deletion flow not running process -> data store
    proc-source-target   process missing an incoming or outgoing flow
    ext-connected        external entity with no flow at all
    db-connected         data store with no flow at all
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, unique

from . import model
from .errors import StageError, WellFormednessError
from .graph import Diagram
from .model import FlowType, NodeType, Stage
from .validate import connectivity, validate_raw


@unique
class DiagnosticKind(str, Enum):
    FLOW = "ill-formed-flow"
    ACTIVATOR = "ill-formed-activator"


@dataclass(frozen=True)
class Diagnostic:
    kind: DiagnosticKind
    element: str
    rule: str
    message: str

    def render(self) -> str:
        return f"error {self.element} {self.rule}: {self.message}"


# Plain flows take the one well-formed kind whose endpoints they match.
# Deletion shares its endpoints with store, so only deletion flows read as
# deletions.
_PF_READINGS: dict[tuple[NodeType, NodeType], FlowType] = {
    ends: kind
    for kind, ends in model.WELLFORMED_FLOW_ENDPOINTS.items()
    if kind is not FlowType.DELETE
}
_DF_ENDS = model.WELLFORMED_FLOW_ENDPOINTS[FlowType.DELETE]


def _flow_diagnostic(flow, source_type: NodeType, target_type: NodeType) -> Diagnostic:
    pair = f"{source_type.value} -> {target_type.value}"
    if flow.flow_type is FlowType.PF:
        if _PF_READINGS.get((source_type, target_type)) is FlowType.COMP:
            return Diagnostic(
                DiagnosticKind.FLOW,
                flow.id,
                "pf-loop",
                f"flow {flow.id!r} loops on process {flow.source!r}; "
                "inter-process flows need two distinct processes",
            )
        return Diagnostic(
            DiagnosticKind.FLOW,
            flow.id,
            "pf-no-rule",
            f"plain flow {flow.id!r} runs {pair}; no flow kind reads that",
        )
    return Diagnostic(
        DiagnosticKind.FLOW,
        flow.id,
        "df-no-rule",
        f"deletion flow {flow.id!r} runs {pair}; deletion must run proc -> db",
    )


def typecheck(
    diagram: Diagram, *, tolerate_connectivity: bool = False
) -> tuple[Diagram | None, list[Diagnostic]]:
    """Type every flow and check connectivity.

    Returns the well-formed diagram and an empty list on success, or
    (None, diagnostics) when anything is ill-formed. Diagnostics are
    sorted by element id, then rule. With ``tolerate_connectivity``
    connectivity findings no longer block (for diagram excerpts): the
    typed diagram comes back alongside them, and only flow findings
    yield None. The input must be a valid raw diagram; anything else
    raises.
    """
    if diagram.stage is not Stage.RAW:
        raise StageError(f"typecheck expects a raw diagram, got {diagram.stage.value}")
    validity = validate_raw(diagram)
    if not validity.valid:
        raise WellFormednessError("not a valid raw diagram", validity.violations)

    diagnostics: list[Diagnostic] = []
    typed_flows = {}
    for flow in diagram.flows.values():
        source_type = diagram.nodes[flow.source].node_type
        target_type = diagram.nodes[flow.target].node_type
        if flow.flow_type is FlowType.PF:
            inferred = _PF_READINGS.get((source_type, target_type))
            # The inter-process reading needs two distinct processes.
            if inferred is FlowType.COMP and flow.source == flow.target:
                inferred = None
        else:  # validate_raw admits plain and deletion flows only
            inferred = FlowType.DELETE if (source_type, target_type) == _DF_ENDS else None
        if inferred is None:
            diagnostics.append(_flow_diagnostic(flow, source_type, target_type))
        else:
            typed_flows[flow.id] = replace(flow, flow_type=inferred)
    flow_problems = bool(diagnostics)

    diagnostics += [
        Diagnostic(DiagnosticKind.ACTIVATOR, v.element, v.clause, v.message)
        for v in connectivity(diagram)
    ]
    diagnostics.sort(key=lambda d: (d.element, d.rule))
    if flow_problems or (diagnostics and not tolerate_connectivity):
        return None, diagnostics
    return replace(diagram, stage=Stage.WELLFORMED, flows=typed_flows), diagnostics
