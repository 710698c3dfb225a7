"""Deterministic placement for generated elements.

After the rewrite, the privacy elements have no positions. This pass
gives every unpositioned node one, derived from the geometry already in
the drawing: each limit sits at the midpoint of the hop it guards, its
request sits one grid step to the side (perpendicular to the data
direction), the log chain hangs below the limit, and the partner nodes
sit beside the element they serve. Nodes that already have a position
are never moved; a node whose spot is taken goes to the first free spot
below it, one grid step at a time. Where a coordinate is so large that a
grid step does not change it, there is no spot below, and the layout is
refused with SchemaError.
"""

from __future__ import annotations

import math

from . import model
from .errors import SchemaError
from .graph import Diagram, Node, NodeId
from .model import FlowType, NodeType
from .transform import gadget_index

GRID_STEP = 80.0


def layout_generated(diagram: Diagram) -> Diagram:
    nodes = dict(diagram.nodes)
    # Each occupied spot maps to the y worth trying next in its column:
    # every spot from it down to there is taken. A crowded column is thus
    # walked once, not once per node placed in it.
    below = {
        n.position: n.position[1] + GRID_STEP
        for n in nodes.values()
        if n.position is not None
    }

    def place(node_id: NodeId, x: float, y: float) -> None:
        passed = []
        while (x, y) in below:
            passed.append(y)
            if y + GRID_STEP == y:
                raise SchemaError(
                    f"node {node_id!r}: no free spot below ({x:g}, {y:g}); "
                    f"at this y a {GRID_STEP:g} px grid step does not move"
                )
            y = below[x, y]
        next_y = y + GRID_STEP
        below[x, y] = next_y
        for skipped in passed:
            below[x, skipped] = next_y
        old = nodes[node_id]
        nodes[node_id] = Node(old.id, old.node_type, old.label, old.partner, (x, y), old.extra)

    def position(node_id: NodeId | None) -> tuple[float, float] | None:
        if node_id is None or node_id not in nodes:
            return None
        return nodes[node_id].position

    # Business nodes first, on a baseline row, so gadget geometry has
    # something to anchor to; the others wait, by type, in id order.
    column = 0
    waiting: dict[NodeType | None, list[NodeId]] = {}
    for node_id in sorted(nodes):
        node = nodes[node_id]
        if node.position is not None:
            continue
        if node.node_type in model.BDFD_NODE_TYPES:
            place(node_id, column * 2 * GRID_STEP, 0.0)
            column += 1
        else:
            waiting.setdefault(node.node_type, []).append(node_id)

    def unpositioned(node_type: NodeType | None) -> list[NodeId]:
        return waiting.get(node_type, [])

    # Wiring: the hop each limit guards, the log chains, the cleaners.
    gadgets = gadget_index(diagram).values()
    hop_ends = {g.limit: (g.source, diagram.flows[g.flow].target) for g in gadgets}
    log_anchor = {g.log: g.limit for g in gadgets}
    log_db_anchor = {g.log_db: g.log for g in gadgets}
    cledb_del = FlowType.CLEDB_DEL
    clean_target = {
        f.source: f.target for f in diagram.flows.values() if f.flow_type is cledb_del
    }

    def hop(limit_id: NodeId) -> tuple | None:
        source, target = hop_ends.get(limit_id, (None, None))
        start = position(source)
        end = position(target)
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

    # The rest, type by type, sit (dx, dy) grid steps from their anchor,
    # or at the origin without one; untyped nodes park at the origin.
    def partner(node_id: NodeId) -> NodeId | None:
        return nodes[node_id].partner

    for node_type, anchor_of, dx, dy in (
        (NodeType.LOG, log_anchor.get, 0, 1),
        (NodeType.LOG_DB, log_db_anchor.get, 0, 1),
        (NodeType.REASON, partner, 1, -1),
        (NodeType.POLICY_DB, partner, 1, 1),
        (NodeType.CLEAN, clean_target.get, 2, 1),
        (None, {}.get, 0, 0),
    ):
        for node_id in unpositioned(node_type):
            anchor = position(anchor_of(node_id))
            if anchor is None:
                place(node_id, 0.0, 0.0)
            else:
                place(node_id, anchor[0] + dx * GRID_STEP, anchor[1] + dy * GRID_STEP)

    return Diagram(diagram.stage, nodes, diagram.flows)
