"""Stage validators.

Each validator checks the full membership condition of one lifecycle stage,
one row of the table `_STAGES`, in one walk over the diagram, and reports
every violation rather than stopping at the first. Violations carry a
stable clause id so tests and tooling can match on them:

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


# Clause ids of the connectivity rule, which diagram excerpts may waive.
CONNECTIVITY_CLAUSES = frozenset({"proc-source-target", "ext-connected", "db-connected"})
# Clause ids of `typecheck`'s flow typing, which no option waives.
FLOW_CLAUSES = frozenset({"pf-no-rule", "pf-loop", "df-no-rule"})


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


# Each stage's condition: its name in messages, its node and flow types,
# and the endpoint kinds each typed flow must join. Partner links are
# absent before the rewrite (PA) stage and mutual in it; only the
# well-formed stage forbids inter-process loops and checks connectivity.
_STAGES = {
    Stage.RAW: ("raw", model.BDFD_NODE_TYPES, model.RAW_FLOW_TYPES, {}),
    Stage.WELLFORMED: (
        "well-formed",
        model.BDFD_NODE_TYPES,
        model.WELLFORMED_FLOW_TYPES,
        model.WELLFORMED_FLOW_ENDPOINTS,
    ),
    Stage.PA: ("privacy-aware", model.PA_NODE_TYPES, model.PA_FLOW_TYPES, model.PA_FLOW_ENDPOINTS),
}


def _check(diagram: Diagram, stage: Stage) -> StageValidity:
    name, node_types, flow_types, endpoints = _STAGES[stage]
    rewritten = stage is Stage.PA
    wellformed = stage is Stage.WELLFORMED
    found = []
    for table in (diagram.nodes, diagram.flows):
        for element in table.values():
            partner = element.partner
            if partner is None:
                continue
            if not rewritten:
                message = f"{element.id!r} carries a partner before the rewrite stage"
                found.append(Violation("partner-unexpected", element.id, message))
            elif (other := table.get(partner)) is None:
                message = f"{element.id!r} names missing partner {partner!r}"
                found.append(Violation("partner-missing", element.id, message))
            elif other.partner != element.id:
                message = f"partner link {element.id!r} -> {partner!r} is not mutual"
                found.append(Violation("partner-asymmetric", element.id, message))
    nodes = diagram.nodes
    for node in nodes.values():
        if node.node_type is None:
            found.append(Violation("node-untyped", node.id, f"node {node.id!r} has no type"))
        elif node.node_type not in node_types:
            message = f"node type {node.node_type.value!r} not allowed in a {name} diagram"
            found.append(Violation("node-type", node.id, message))
    for flow in diagram.flows.values():
        source = nodes.get(flow.source)
        target = nodes.get(flow.target)
        if source is None or target is None:
            for endpoint, node in ((flow.source, source), (flow.target, target)):
                if node is None:
                    message = f"flow {flow.id!r} references missing node {endpoint!r}"
                    found.append(Violation("dangling-flow", flow.id, message))
        flow_type = flow.flow_type
        if flow_type is None:
            found.append(Violation("flow-untyped", flow.id, f"flow {flow.id!r} has no type"))
        elif flow_type not in flow_types:
            message = f"flow type {flow_type.value!r} not allowed in a {name} diagram"
            found.append(Violation("flow-type", flow.id, message))
        expected = endpoints.get(flow_type)
        if expected is not None and source is not None and target is not None:
            ends = (source.node_type, target.node_type)
            if ends != expected and None not in ends:
                message = (
                    f"{flow_type.value} flow {flow.id!r} must run {expected[0].value} -> "
                    f"{expected[1].value}, found {ends[0].value} -> {ends[1].value}"
                )
                found.append(Violation("flow-endpoints", flow.id, message))
        if wellformed and flow_type is FlowType.COMP and flow.source == flow.target:
            message = f"inter-process flow {flow.id!r} loops on {flow.source!r}"
            found.append(Violation("comp-loop", flow.id, message))
    if wellformed:
        found += connectivity(diagram)
    found.sort(key=lambda v: (v.element, v.clause))
    return StageValidity(stage, tuple(found))


def validate_raw(diagram: Diagram) -> StageValidity:
    """Check the raw-stage condition: business node types, plain/deletion
    flows, no partners. Dangling endpoints are reported at every stage."""
    return _check(diagram, Stage.RAW)


def validate_wellformed(diagram: Diagram) -> StageValidity:
    """Check the well-formed condition: business node types, the six typed
    flow kinds with matching endpoints, no inter-process loops, and the
    connectivity rules (processes relay; entities and stores attach)."""
    return _check(diagram, Stage.WELLFORMED)


def validate_pa(diagram: Diagram) -> StageValidity:
    """Check the privacy-aware condition: the full node vocabulary, the
    eighteen rewritten flow kinds with matching endpoints, and symmetric
    partner links."""
    return _check(diagram, Stage.PA)
