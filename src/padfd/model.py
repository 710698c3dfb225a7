"""Type vocabulary shared by every diagram stage.

Node and flow types are string-valued enums so they serialize directly into
the JSON and draw.io interchange formats. The family sets and endpoint
tables below drive the stage validators, the flow typer, and the
gadget-insertion pass.
"""

from __future__ import annotations

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


# Node families. LIMIT sits in both the data and policy planes: it carries
# data onward and is steered by the policy gadget.
BDFD_NODE_TYPES = frozenset({NodeType.EXT, NodeType.PROC, NodeType.DB})
DATA_NODE_TYPES = BDFD_NODE_TYPES | {NodeType.LIMIT}
POLICY_NODE_TYPES = frozenset(
    {NodeType.LIMIT, NodeType.REQUEST, NodeType.REASON, NodeType.POLICY_DB}
)
ADMIN_NODE_TYPES = frozenset({NodeType.LOG, NodeType.LOG_DB, NodeType.CLEAN})
PA_NODE_TYPES = DATA_NODE_TYPES | POLICY_NODE_TYPES | ADMIN_NODE_TYPES

# Flow families. These five sets partition FlowType.
RAW_FLOW_TYPES = frozenset({FlowType.PF, FlowType.DF})
WELLFORMED_FLOW_TYPES = frozenset(
    {
        FlowType.IN,
        FlowType.OUT,
        FlowType.COMP,
        FlowType.STORE,
        FlowType.READ,
        FlowType.DELETE,
    }
)
PA_DATA_FLOW_TYPES = frozenset(
    {
        FlowType.PROLIM,
        FlowType.EXTLIM,
        FlowType.DBLIM,
        FlowType.LIMPRO,
        FlowType.LIMEXT,
        FlowType.LIMDB,
        FlowType.LIMDB_DEL,
    }
)
PA_POLICY_FLOW_TYPES = frozenset(
    {
        FlowType.REQLIM,
        FlowType.REQREA,
        FlowType.REQPDB,
        FlowType.REAREQ,
        FlowType.EXTREQ,
        FlowType.REQEXT,
        FlowType.PDBREQ,
    }
)
PA_ADMIN_FLOW_TYPES = frozenset(
    {FlowType.LIMLOG, FlowType.LOGGING, FlowType.PDBCLE, FlowType.CLEDB_DEL}
)
PA_FLOW_TYPES = PA_DATA_FLOW_TYPES | PA_POLICY_FLOW_TYPES | PA_ADMIN_FLOW_TYPES

# The guarded descendants of an original data flow after rewriting.
GUARDED_FLOW_TYPES = frozenset(
    {FlowType.LIMPRO, FlowType.LIMEXT, FlowType.LIMDB, FlowType.LIMDB_DEL}
)


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
