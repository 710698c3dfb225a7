"""Stage validators.

Each validator checks the full membership condition of one lifecycle stage
and reports every violation rather than stopping at the first. Violations
carry a stable clause id so tests and tooling can match on them:

    dangling-flow        flow endpoint references a missing node
    node-untyped         node carries no type
    flow-untyped         flow carries no type
    node-type            node type outside the stage's vocabulary
    flow-type            flow type outside the stage's vocabulary
    partner-unexpected   partner attribute present before the rewrite stage
    flow-endpoints       typed flow with incompatible endpoint kinds
    comp-loop            inter-process flow from a process to itself
    proc-source-target   process missing an incoming or outgoing flow
    ext-connected        external entity with no flow at all
    db-connected         data store with no flow at all
    partner-missing      partner references a missing element
    partner-asymmetric   partner link not mutual
"""

from __future__ import annotations

from collections.abc import Sequence

from . import model
from .graph import Diagram, Record
from .model import FlowType, NodeType, Stage


class Violation(Record):
    def __init__(self, clause: str, element: str, message: str) -> None:
        d = self.__dict__
        d["clause"] = clause
        d["element"] = element
        d["message"] = message

    def render(self) -> str:
        return f"error {self.element} {self.clause}: {self.message}"


class StageValidity(Record):
    """Outcome of checking a diagram against one stage's conditions."""

    def __init__(self, stage: Stage, violations: tuple[Violation, ...]) -> None:
        d = self.__dict__
        d["stage"] = stage
        d["violations"] = violations

    @property
    def valid(self) -> bool:
        return not self.violations


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


# Clause ids of the connectivity rule, which diagram excerpts may waive.
CONNECTIVITY_CLAUSES = frozenset({"proc-source-target", "ext-connected", "db-connected"})


def blocks_rewrite(violations: Sequence[Violation], tolerate_connectivity: bool) -> bool:
    """Whether findings stop the rewrite: any finding does, unless
    connectivity is tolerated (for diagram excerpts) and every finding is
    a connectivity one."""
    return bool(violations) and not (
        tolerate_connectivity
        and all(v.clause in CONNECTIVITY_CLAUSES for v in violations)
    )


def connectivity(diagram: Diagram) -> list[Violation]:
    """Connectivity rule: processes relay data (an incoming and an outgoing
    flow); external entities and data stores attach to at least one flow."""
    found = []
    is_source = {flow.source for flow in diagram.flows.values()}
    is_target = {flow.target for flow in diagram.flows.values()}
    for node in diagram.nodes.values():
        incoming = node.id in is_target
        outgoing = node.id in is_source
        if node.node_type is NodeType.PROC and not (incoming and outgoing):
            missing = " or ".join(
                side
                for side, present in (("incoming", incoming), ("outgoing", outgoing))
                if not present
            )
            found.append(
                Violation(
                    "proc-source-target",
                    node.id,
                    f"process {node.id!r} has no {missing} flow",
                )
            )
        elif node.node_type is NodeType.EXT and not (incoming or outgoing):
            found.append(
                Violation(
                    "ext-connected", node.id, f"external entity {node.id!r} has no flows"
                )
            )
        elif node.node_type is NodeType.DB and not (incoming or outgoing):
            found.append(
                Violation("db-connected", node.id, f"data store {node.id!r} has no flows")
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


def validate_raw(diagram: Diagram) -> StageValidity:
    """Check the raw-stage condition: business node types, plain/deletion
    flows, no partners. Dangling endpoints are reported at every stage."""
    found = _dangling(diagram)
    found += _typed_elements(
        diagram, model.BDFD_NODE_TYPES, model.RAW_FLOW_TYPES, "raw"
    )
    found += _no_partners(diagram)
    return StageValidity(Stage.RAW, _sorted(found))


def validate_wellformed(diagram: Diagram) -> StageValidity:
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


def validate_pa(diagram: Diagram) -> StageValidity:
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
