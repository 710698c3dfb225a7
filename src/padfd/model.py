"""Type vocabulary shared by every diagram stage.

Node and flow types are string-valued enums so they serialize directly into
the JSON and draw.io interchange formats. The tables below drive the stage
validators, and `FLOW_BY_ENDS` gives the flow typer and the gadget-insertion
pass the flow kind that joins each pair of endpoint kinds. `NODE_LOOKS` is
how each node kind is labelled by the rewrite and drawn in draw.io and DOT.
`GADGET_PARTS` and `HOLDER_PARTS` name every part the rewrite adds; the
rewrite writes from them and `validate.read_parts` reads them back.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum, unique


@unique
class Stage(str, Enum):
    """Lifecycle stage of a diagram."""

    RAW = "raw-bdfd"
    WELLFORMED = "wellformed-bdfd"
    PA = "pa-dfd"


@unique
class NodeType(str, Enum):
    # business diagram nodes
    EXT = "ext"
    PROC = "proc"
    DB = "db"
    # privacy-aware additions
    LIMIT = "limit"
    REQUEST = "request"
    REASON = "reason"
    POLICY_DB = "policy_db"
    LOG = "log"
    LOG_DB = "log_db"
    CLEAN = "clean"


# Each node kind's look: the label the rewrite gives a generated node (None
# for business kinds, which keep theirs), the draw.io box, the DOT shape and
# the draw.io base style before any type marker. Untyped nodes have no row.
NodeLook = namedtuple("NodeLook", "label width height dot_shape drawio_style")
NODE_LOOKS: dict[NodeType, NodeLook] = {
    NodeType.EXT: NodeLook(None, 120, 60, "box", "rounded=0;whiteSpace=wrap;html=1;"),
    NodeType.PROC: NodeLook(None, 120, 60, "ellipse", "ellipse;whiteSpace=wrap;html=1;"),
    NodeType.DB: NodeLook(None, 100, 60, "cylinder", "shape=datastore;whiteSpace=wrap;html=1;"),
    NodeType.LIMIT: NodeLook("Limit", 80, 80, "diamond", "rhombus;whiteSpace=wrap;html=1;"),
    NodeType.REQUEST: NodeLook(
        "Request", 120, 60, "parallelogram",
        "shape=parallelogram;perimeter=parallelogramPerimeter;whiteSpace=wrap;html=1;",
    ),
    NodeType.REASON: NodeLook(
        "Reason", 120, 60, "trapezium",
        "shape=trapezoid;perimeter=trapezoidPerimeter;whiteSpace=wrap;html=1;",
    ),
    NodeType.POLICY_DB: NodeLook(
        "Policy store", 100, 60, "box3d", "shape=datastore;whiteSpace=wrap;html=1;dashed=1;"
    ),
    NodeType.LOG: NodeLook("Log", 120, 60, "note", "shape=document;whiteSpace=wrap;html=1;"),
    NodeType.LOG_DB: NodeLook("Log store", 80, 80, "folder", "shape=cylinder3;whiteSpace=wrap;html=1;"),
    NodeType.CLEAN: NodeLook(
        "Clean", 120, 60, "octagon",
        "shape=hexagon;perimeter=hexagonPerimeter2;whiteSpace=wrap;html=1;",
    ),
}


@unique
class FlowType(str, Enum):
    # raw (untyped plain/deletion flows)
    PF = "pf"
    DF = "df"
    # well-formed
    IN = "in"
    OUT = "out"
    COMP = "comp"
    STORE = "store"
    READ = "read"
    DELETE = "delete"
    # privacy-aware, data plane
    PROLIM = "prolim"
    EXTLIM = "extlim"
    DBLIM = "dblim"
    LIMPRO = "limpro"
    LIMEXT = "limext"
    LIMDB = "limdb"
    LIMDB_DEL = "limdb_del"
    # privacy-aware, policy plane
    REQLIM = "reqlim"
    REQREA = "reqrea"
    REQPDB = "reqpdb"
    REAREQ = "reareq"
    EXTREQ = "extreq"
    REQEXT = "reqext"
    PDBREQ = "pdbreq"
    # privacy-aware, administrative plane
    LIMLOG = "limlog"
    LOGGING = "logging"
    PDBCLE = "pdbcle"
    CLEDB_DEL = "cledb_del"


# Endpoint compatibility for typed flows. Each privacy-aware flow type
# names its endpoints: the first syllable is the source kind, the second
# the target kind (limdb_del / cledb_del are the deletion variants).
WELLFORMED_FLOW_ENDPOINTS: dict[FlowType, tuple[NodeType, NodeType]] = {
    FlowType.IN: (NodeType.EXT, NodeType.PROC),
    FlowType.OUT: (NodeType.PROC, NodeType.EXT),
    FlowType.COMP: (NodeType.PROC, NodeType.PROC),
    FlowType.STORE: (NodeType.PROC, NodeType.DB),
    FlowType.READ: (NodeType.DB, NodeType.PROC),
    FlowType.DELETE: (NodeType.PROC, NodeType.DB),
}

PA_FLOW_ENDPOINTS: dict[FlowType, tuple[NodeType, NodeType]] = {
    FlowType.PROLIM: (NodeType.PROC, NodeType.LIMIT),
    FlowType.EXTLIM: (NodeType.EXT, NodeType.LIMIT),
    FlowType.DBLIM: (NodeType.DB, NodeType.LIMIT),
    FlowType.LIMPRO: (NodeType.LIMIT, NodeType.PROC),
    FlowType.LIMEXT: (NodeType.LIMIT, NodeType.EXT),
    FlowType.LIMDB: (NodeType.LIMIT, NodeType.DB),
    FlowType.LIMDB_DEL: (NodeType.LIMIT, NodeType.DB),
    FlowType.REQLIM: (NodeType.REQUEST, NodeType.LIMIT),
    FlowType.REQREA: (NodeType.REQUEST, NodeType.REASON),
    FlowType.REQPDB: (NodeType.REQUEST, NodeType.POLICY_DB),
    FlowType.REAREQ: (NodeType.REASON, NodeType.REQUEST),
    FlowType.EXTREQ: (NodeType.EXT, NodeType.REQUEST),
    FlowType.REQEXT: (NodeType.REQUEST, NodeType.EXT),
    FlowType.PDBREQ: (NodeType.POLICY_DB, NodeType.REQUEST),
    FlowType.LIMLOG: (NodeType.LIMIT, NodeType.LOG),
    FlowType.LOGGING: (NodeType.LOG, NodeType.LOG_DB),
    FlowType.PDBCLE: (NodeType.POLICY_DB, NodeType.CLEAN),
    FlowType.CLEDB_DEL: (NodeType.CLEAN, NodeType.DB),
}

# The deletion variants that share their ends with another kind (delete
# with store, limdb_del with limdb): a flow takes one of those only
# because it is a deletion.
DELETION_VARIANTS = frozenset({FlowType.DELETE, FlowType.LIMDB_DEL})

# The flow kind joining a (source kind, target kind) pair, across both
# tables, save the deletion variants.
FLOW_BY_ENDS: dict[tuple[NodeType, NodeType], FlowType] = {
    ends: kind
    for table in (WELLFORMED_FLOW_ENDPOINTS, PA_FLOW_ENDPOINTS)
    for kind, ends in table.items()
    if kind not in DELETION_VARIANTS
}


# Stage vocabularies. Each typed stage admits exactly the flow kinds its
# endpoint table names, so RAW, WELLFORMED and PA flow types partition
# FlowType; a privacy-aware diagram may hold every node kind.
BDFD_NODE_TYPES = frozenset({NodeType.EXT, NodeType.PROC, NodeType.DB})
PA_NODE_TYPES = frozenset(NodeType)
RAW_FLOW_TYPES = frozenset({FlowType.PF, FlowType.DF})
WELLFORMED_FLOW_TYPES = frozenset(WELLFORMED_FLOW_ENDPOINTS)
PA_FLOW_TYPES = frozenset(PA_FLOW_ENDPOINTS)

# The privacy-aware flows of the policy plane pass consent evidence through
# a request node; those of the administrative plane feed a log or a
# cleaning process. draw.io decorates each plane's edges its own way.
PA_POLICY_FLOW_TYPES = frozenset(
    kind for kind, ends in PA_FLOW_ENDPOINTS.items() if NodeType.REQUEST in ends
)
PA_ADMIN_FLOW_TYPES = frozenset(
    kind for kind, ends in PA_FLOW_ENDPOINTS.items() if {NodeType.LOG, NodeType.CLEAN} & set(ends)
)


# The parts the rewrite adds, one row each: the part's role, its node kind
# (None for a flow), for a flow the roles at its source and target, and the
# role of its partner. A flow's kind is the one FLOW_BY_ENDS names for the
# kinds at its ends. Rows are in the order the rewrite takes their ids.
Part = namedtuple("Part", "role kind source target partner", defaults=(None, None, None, None))

# Around a guarded flow, the role "flow": it runs from its limit to its
# original target, "target", once its original source, "source", feeds
# the limit. "source_evidence" and "target_evidence" are the nodes holding
# the consent evidence of those two ends: an entity itself, or the part of
# its HOLDER_PARTS row partnered with it.
GADGET_PARTS = (
    Part("limit", NodeType.LIMIT, partner="request"),
    Part("request", NodeType.REQUEST, partner="limit"),
    Part("log", NodeType.LOG),
    Part("log_db", NodeType.LOG_DB),
    Part("reqlim", source="request", target="limit"),
    Part("limlog", source="limit", target="log"),
    Part("logging", source="log", target="log_db"),
    Part("data_in", source="source", target="limit", partner="source_policy"),
    Part("source_policy", source="source_evidence", target="request", partner="data_in"),
    Part("target_policy", source="request", target="target_evidence", partner="flow"),
)

# Around each business node, the role "owner", by its kind: a process
# gets a reason, a store a policy store and a cleaner deleting from it.
HOLDER_PARTS: dict[NodeType, tuple[Part, ...]] = {
    NodeType.EXT: (),
    NodeType.PROC: (Part("reason", NodeType.REASON, partner="owner"),),
    NodeType.DB: (
        Part("policy_db", NodeType.POLICY_DB, partner="owner"),
        Part("clean", NodeType.CLEAN),
        Part("pdbcle", source="policy_db", target="clean"),
        Part("cledb_del", source="clean", target="owner"),
    ),
}

# The role of the node holding each business kind's consent evidence: the
# part partnered with the node, or the node itself.
EVIDENCE_ROLES = {
    kind: next((part.role for part in parts if part.partner == "owner"), "owner")
    for kind, parts in HOLDER_PARTS.items()
}
