"""Deterministic placement for generated elements.

After the rewrite, the privacy elements have no positions. This pass
gives every unpositioned node one, derived from the geometry already in
the drawing. One table gives each kind its spot, kind after kind in this
order and each kind's nodes in id order: business nodes take the next
column of a baseline row; a limit sits at the midpoint of the hop it
guards; its request one grid step to the side of that hop (above the
limit without one); its log one step below it, and the log store one
below the log; a reason one step right and up from its process; a policy
store one step right and down from its store; a cleaner two steps right
and one down from the store it deletes from. A node without its anchor,
or without a type, goes to the origin. Nodes that already have a position
are never moved; a node whose spot is taken goes to the first free spot
below it, one grid step at a time. Where a coordinate is so large that a
grid step does not change it, there is no spot below, and the layout is
refused with SchemaError.
"""

from __future__ import annotations

import itertools
import math

from . import model
from .errors import SchemaError
from .graph import Diagram, Node, NodeId
from .model import NodeType
from .validate import read_parts

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
        node = nodes.get(node_id)
        return None if node is None else node.position

    # Anchors, from the parts read back: the hop each limit guards, the
    # limit of each request and log, the log of each log store (one shared
    # by several logs hangs below the one whose logging flow comes last),
    # the node each reason and policy store serves, and the store each
    # cleaner deletes from.
    gadgets, holders = read_parts(diagram)
    hop_ends = dict(zip(gadgets["limit"], zip(gadgets["source"], gadgets["target"])))
    limit_of = dict(zip(gadgets["request"], gadgets["limit"]))
    log_anchor = dict(zip(gadgets["log"], gadgets["limit"]))
    log_db_anchor = dict(zip(gadgets["log_db"], gadgets["log"]))
    if len(log_db_anchor) < len(gadgets["log_db"]):
        # A log store some logs share: only then does the logs' order count.
        flow_order = {flow_id: index for index, flow_id in enumerate(diagram.flows)}
        chains = sorted(
            (flow_order[logging], log_db, log)
            for logging, log_db, log in zip(gadgets["logging"], gadgets["log_db"], gadgets["log"])
            if logging is not None
        )
        log_db_anchor = {log_db: log for _, log_db, log in chains}
    procs, stores = holders[NodeType.PROC], holders[NodeType.DB]
    reason_anchor = dict(zip(procs["reason"], procs["owner"]))
    policy_anchor = dict(zip(stores["policy_db"], stores["owner"]))
    clean_target = {
        clean: store
        for clean, store, deletes in zip(stores["clean"], stores["owner"], stores["cledb_del"])
        if deletes is not None
    }

    def hop(limit_id: NodeId | None) -> tuple | None:
        start, end = map(position, hop_ends.get(limit_id, (None, None)))
        return None if start is None or end is None else (start, end)

    def midpoint(limit_id: NodeId) -> tuple[float, float] | None:
        ends = hop(limit_id)
        if ends is None:
            return None
        (ax, ay), (bx, by) = ends
        return (ax + bx) / 2, (ay + by) / 2

    def beside(request_id: NodeId) -> tuple[float, float] | None:
        limit_id = limit_of.get(request_id)
        anchor, ends = position(limit_id), hop(limit_id)
        if anchor is None or ends is None:
            return steps(limit_id, 0, -1)
        (ax, ay), (bx, by) = ends
        dx, dy = bx - ax, by - ay
        norm = math.hypot(dx, dy) or 1.0
        return anchor[0] + dy / norm * GRID_STEP, anchor[1] - dx / norm * GRID_STEP

    def steps(anchor_id: NodeId | None, dx: int, dy: int) -> tuple[float, float] | None:
        anchor = position(anchor_id)
        if anchor is None:
            return None
        return anchor[0] + dx * GRID_STEP, anchor[1] + dy * GRID_STEP

    # Each kind's spot rule, in placement order; no spot means the origin.
    columns = itertools.count(0.0, 2 * GRID_STEP)
    rules = (
        (model.BDFD_NODE_TYPES, lambda _: (next(columns), 0.0)),
        ((NodeType.LIMIT,), midpoint),
        ((NodeType.REQUEST,), beside),
        ((NodeType.LOG,), lambda n: steps(log_anchor.get(n), 0, 1)),
        ((NodeType.LOG_DB,), lambda n: steps(log_db_anchor.get(n), 0, 1)),
        ((NodeType.REASON,), lambda n: steps(reason_anchor.get(n), 1, -1)),
        ((NodeType.POLICY_DB,), lambda n: steps(policy_anchor.get(n), 1, 1)),
        ((NodeType.CLEAN,), lambda n: steps(clean_target.get(n), 2, 1)),
        ((None,), lambda _: None),
    )
    row_of = {kind: row for row, (kinds, _) in enumerate(rules) for kind in kinds}
    waiting: list[list[NodeId]] = [[] for _ in rules]
    for node_id in sorted(nodes):
        node = nodes[node_id]
        if node.position is None:
            waiting[row_of[node.node_type]].append(node_id)
    for (_, spot), node_ids in zip(rules, waiting):
        for node_id in node_ids:
            place(node_id, *(spot(node_id) or (0.0, 0.0)))
    return Diagram(diagram.stage, nodes, diagram.flows)
