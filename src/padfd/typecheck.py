"""Flow typing for raw diagrams.

Every plain flow between business nodes has at most one well-formed
reading, determined by its endpoint kinds; deletion flows only make sense
from a process into a data store. The checker infers those readings,
verifies the connectivity rules, and either produces the well-formed
diagram or a report of everything wrong, as `validate.Violation`s. Its
own clause ids:

    pf-no-rule           plain flow between endpoint kinds with no reading
    pf-loop              plain flow from a process to itself
    df-no-rule           deletion flow not running process -> data store

Connectivity findings (`proc-source-target`, `ext-connected`,
`db-connected`) come from `validate.connectivity`.
"""

from __future__ import annotations

from .errors import StageError, WellFormednessError
from .graph import Diagram, Flow
from .model import FLOW_BY_ENDS, WELLFORMED_FLOW_ENDPOINTS, FlowType, NodeType, Stage
from .validate import Violation, blocks_rewrite, connectivity, validate_raw


# A plain flow between business nodes takes the kind its endpoints name in
# `FLOW_BY_ENDS`; only a deletion flow reads as a deletion.
_DF_ENDS = WELLFORMED_FLOW_ENDPOINTS[FlowType.DELETE]


def _flow_violation(flow, source_type: NodeType, target_type: NodeType) -> Violation:
    pair = f"{source_type.value} -> {target_type.value}"
    if flow.flow_type is FlowType.PF:
        if FLOW_BY_ENDS.get((source_type, target_type)) is FlowType.COMP:
            return Violation(
                "pf-loop",
                flow.id,
                f"flow {flow.id!r} loops on process {flow.source!r}; "
                "inter-process flows need two distinct processes",
            )
        return Violation(
            "pf-no-rule",
            flow.id,
            f"plain flow {flow.id!r} runs {pair}; no flow kind reads that",
        )
    return Violation(
        "df-no-rule",
        flow.id,
        f"deletion flow {flow.id!r} runs {pair}; deletion must run proc -> db",
    )


def typecheck(
    diagram: Diagram, *, tolerate_connectivity: bool = False
) -> tuple[Diagram | None, list[Violation]]:
    """Type every flow and check connectivity.

    Returns the well-formed diagram and an empty list on success, or
    (None, violations) when anything is ill-formed. Violations are
    sorted by element id, then clause. With ``tolerate_connectivity``
    connectivity findings no longer block (for diagram excerpts): the
    typed diagram comes back alongside them, and only flow findings
    yield None. The input must be a valid raw diagram: another stage
    raises StageError, and invalid raw content WellFormednessError with
    `validate_raw`'s violations.
    """
    if diagram.stage is not Stage.RAW:
        raise StageError(f"typecheck expects a raw diagram, got {diagram.stage.value}")
    validity = validate_raw(diagram)
    if not validity.valid:
        raise WellFormednessError("not a valid raw diagram", validity.violations)

    violations: list[Violation] = []
    typed_flows = {}
    nodes = diagram.nodes
    pf, comp, delete = FlowType.PF, FlowType.COMP, FlowType.DELETE
    for flow in diagram.flows.values():
        source_type = nodes[flow.source].node_type
        target_type = nodes[flow.target].node_type
        if flow.flow_type is pf:
            inferred = FLOW_BY_ENDS.get((source_type, target_type))
            # The inter-process reading needs two distinct processes.
            if inferred is comp and flow.source == flow.target:
                inferred = None
        else:  # validate_raw admits plain and deletion flows only
            inferred = delete if (source_type, target_type) == _DF_ENDS else None
        if inferred is None:
            violations.append(_flow_violation(flow, source_type, target_type))
        else:
            typed_flows[flow.id] = Flow(
                flow.id, flow.source, flow.target, inferred, flow.label, flow.partner, flow.extra
            )
    violations += connectivity(diagram)
    violations.sort(key=lambda v: (v.element, v.clause))
    if blocks_rewrite(violations, tolerate_connectivity):
        return None, violations
    return Diagram(Stage.WELLFORMED, diagram.nodes, typed_flows), violations
