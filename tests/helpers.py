"""Shared fixture builders and seeded random diagram generators."""

from __future__ import annotations

import csv
import json
import random
from datetime import date, timedelta

from padfd import (
    DataRecord,
    Decision,
    Diagram,
    Flow,
    FlowMeta,
    FlowType,
    Node,
    NodeType,
    Stage,
    add_flow,
    add_node,
    run_simulation,
    transform,
    typecheck,
)
from padfd.model import GADGET_PARTS, HOLDER_PARTS
from padfd.validate import read_parts

PURPOSES = ("billing", "marketing", "analytics", "support", "research")

LABELS = (
    None,
    "Customer Info",
    "Scope of Works",
    "a<b&c>\"d'",
    "müller Ω",
    "line one\nline two",
    "  padded  ",
)


def replace(record, /, **changes):
    """A copy of the record with the named fields changed."""
    values = {name: getattr(record, name) for name in record.__match_args__}
    values.update(changes)
    return type(record)(**values)


def gadget_roles(diagram: Diagram) -> dict[str, dict[str, str | None]]:
    """The role map of every guarded flow's gadget, keyed by flow id, in
    diagram order: each role `read_parts` reads to its id, or None."""
    parts, _ = read_parts(diagram)
    return dict(zip(parts["flow"], (dict(zip(parts, ids)) for ids in zip(*parts.values()))))


def provenance(diagram: Diagram) -> dict[str, list[tuple[str, str]]]:
    """Each id that a part of the rewrite's role tables holds, as
    `read_parts` reads them back, to every (owner, role) holding it: the
    owner is the guarded flow or the business node the part belongs to."""
    gadgets, holders = read_parts(diagram)
    tables = [(GADGET_PARTS, gadgets["flow"], gadgets)]
    tables += [(HOLDER_PARTS[kind], parts["owner"], parts) for kind, parts in holders.items()]
    held: dict[str, list[tuple[str, str]]] = {}
    for rows, owners, parts in tables:
        for part in rows:
            for owner, part_id in zip(owners, parts[part.role]):
                if part_id is not None:
                    held.setdefault(part_id, []).append((owner, part.role))
    return held


def build_diagram(stage, nodes, flows) -> Diagram:
    diagram = Diagram(stage=stage)
    for node in nodes:
        diagram = add_node(diagram, node)
    for flow in flows:
        diagram = add_flow(diagram, flow)
    return diagram


def build_estore_raw() -> Diagram:
    """Online store: one customer, three processes, one data store, six
    plain flows whose readings are in/comp/comp/store/read/out."""
    return build_diagram(
        Stage.RAW,
        [
            Node("customer", NodeType.EXT, label="Customer"),
            Node("p_info", NodeType.PROC, label="Get Customer Information"),
            Node("p_account", NodeType.PROC, label="Create Account"),
            Node("p_cart", NodeType.PROC, label="Shopping Cart Function"),
            Node("db_customer", NodeType.DB, label="Customer DB"),
        ],
        [
            Flow("f1", "customer", "p_info", FlowType.PF, label="Customer Info"),
            Flow("f2", "p_info", "p_account", FlowType.PF, label="Create Account"),
            Flow("f3", "p_account", "p_cart", FlowType.PF),
            Flow("f4", "p_account", "db_customer", FlowType.PF),
            Flow("f5", "db_customer", "p_cart", FlowType.PF),
            Flow("f6", "p_cart", "customer", FlowType.PF, label="Order Summary"),
        ],
    )


ESTORE_EXPECTED_TYPES = {
    "f1": FlowType.IN,
    "f2": FlowType.COMP,
    "f3": FlowType.COMP,
    "f4": FlowType.STORE,
    "f5": FlowType.READ,
    "f6": FlowType.OUT,
}


def build_excerpt() -> Diagram:
    """Two-flow excerpt of a larger diagram: not well-formed on its own
    (the second process has no outgoing flow), used with check=False."""
    return build_diagram(
        Stage.WELLFORMED,
        [
            Node("customer", NodeType.EXT, label="Customer"),
            Node("p_info", NodeType.PROC, label="Get Customer Information"),
            Node("p_account", NodeType.PROC, label="Create Account"),
        ],
        [
            Flow("f_info", "customer", "p_info", FlowType.IN, label="Customer Info"),
            Flow("f_account", "p_info", "p_account", FlowType.COMP, label="Create Account"),
        ],
    )


def build_excerpt_raw() -> Diagram:
    """The excerpt before typing: the same nodes and labels, plain flows."""
    excerpt = build_excerpt()
    return Diagram(
        stage=Stage.RAW,
        nodes=excerpt.nodes,
        flows={
            flow_id: replace(flow, flow_type=FlowType.PF)
            for flow_id, flow in excerpt.flows.items()
        },
    )


def build_all_kinds() -> Diagram:
    """Smallest well-formed diagram exercising all six flow kinds."""
    return build_diagram(
        Stage.WELLFORMED,
        [
            Node("vendor", NodeType.EXT, label="Vendor"),
            Node("p_intake", NodeType.PROC, label="Intake"),
            Node("p_archive", NodeType.PROC, label="Archive"),
            Node("records", NodeType.DB, label="Records"),
        ],
        [
            Flow("f_in", "vendor", "p_intake", FlowType.IN),
            Flow("f_out", "p_intake", "vendor", FlowType.OUT),
            Flow("f_comp", "p_intake", "p_archive", FlowType.COMP),
            Flow("f_store", "p_archive", "records", FlowType.STORE),
            Flow("f_read", "records", "p_archive", FlowType.READ),
            Flow("f_del", "p_archive", "records", FlowType.DELETE),
        ],
    )


def build_payment_raw() -> Diagram:
    """Automated payment system: sensor data into Process 1, project store,
    BIM store, validation loop."""
    return build_diagram(
        Stage.RAW,
        [
            Node("construction", NodeType.EXT, label="Construction Project"),
            Node("p1", NodeType.PROC, label="Recognise Finished Sub-tasks"),
            Node("p2", NodeType.PROC, label="Assign Project Information"),
            Node("p3", NodeType.PROC, label="Validate Completed Sub-tasks"),
            Node("db_project", NodeType.DB, label="Project DB"),
            Node("db_bim", NodeType.DB, label="BIM DB"),
        ],
        [
            Flow("f1", "construction", "p1", FlowType.PF, label="Completed sub-tasks"),
            Flow("f2", "construction", "p1", FlowType.PF, label="Scope of Works"),
            Flow("f3", "p1", "db_project", FlowType.PF, label="Real-time Location Information"),
            Flow("f4", "db_project", "p2", FlowType.PF, label="Status"),
            Flow("f5", "p2", "db_bim", FlowType.PF, label="Up-to-date Project Information"),
            Flow("f6", "db_bim", "p3", FlowType.PF, label="Tracked Progress"),
            Flow("f7", "p3", "db_project", FlowType.PF, label="Valid/Invalid Installation"),
        ],
    )


def payment_metas() -> list[FlowMeta]:
    return [
        FlowMeta("f1", "Completed sub-tasks", "Capturing completed sub-tasks", True, "video, images and string"),
        FlowMeta("f2", "Scope of Works", "Knowing subcontractors contractual duties", True, "string"),
        FlowMeta("f3", "Real-time Location Information", "Project monitoring", True, "video, images and string"),
        FlowMeta("f4", "Status", "Sending up to date project information to IBM", True, "video, images and string"),
    ]


CONTRACT_END = date(2022, 6, 30)


def payment_records(contract_end: date = CONTRACT_END) -> list[DataRecord]:
    return [
        DataRecord("d1", "f1", "SubcontractorX", frozenset({"Capturing completed sub-tasks"}), date(2020, 12, 31), '"streaming videos" and "image_1.jpg"'),
        DataRecord("d2", "f2", "SubcontractorX", frozenset({"Identifying assigned tasks"}), contract_end, '"facade panel installation"'),
        DataRecord("d3", "f3", "SubcontractorX", frozenset({"Recording the work status"}), contract_end, '"streaming videos" and "image_2.jpg"'),
        DataRecord("d4", "f4", "ProjectX", frozenset({"Assigning project info to BIM"}), date(2021, 12, 31), '"Project info:name, desc, status, subcontract,etc"'),
        DataRecord("d5", "f1", "SubcontractorY", frozenset({"Taking pictures for advertisements"}), date(2020, 12, 31), '"streaming videos" and "image_3.jpg"'),
    ]


def payment_equivalences() -> list[tuple[str, str]]:
    """Consent wordings that cover flow purposes in the payment system."""
    return [
        ("Identifying assigned tasks", "Knowing subcontractors contractual duties"),
        ("Recording the work status", "Project monitoring"),
        ("Assigning project info to BIM", "Sending up to date project information to IBM"),
    ]


def repeat_first_policy_row(static_csv, tmp_path, suffix: str):
    """The policy table at `static_csv` with its first row repeated at the
    end, written as CSV or JSON by `suffix`; the file's path, and the
    numbers the loader gives the first row and its repeat (CSV counts the
    header as line 1, JSON rows by index)."""
    with open(static_csv, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    rows.append(rows[0])
    path = tmp_path / f"repeated{suffix}"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if suffix == ".csv":
            csv.writer(handle).writerows([header, *rows])
            return path, 2, len(rows) + 1
        json.dump([dict(zip(header, row)) for row in rows], handle)
        return path, 0, len(rows) - 1


def payment_pa() -> Diagram:
    wellformed, diagnostics = typecheck(build_payment_raw())
    assert diagnostics == []
    return transform(wellformed)


def decide(meta: FlowMeta, record: DataRecord, clock: date) -> tuple[bool, Decision]:
    """Whether the limit on the payment system's flow `record.flow_id`
    forwards `record` under the policy row `meta`, and the entry it logs:
    one record run through the whole privacy-aware diagram."""
    report = run_simulation(payment_pa(), [meta], [record], clock)
    (decision,) = report.decisions
    return decision.forwarded_padfd, decision


def build_store_chain() -> Diagram:
    """Minimal well-formed diagram with a store flow, for deposit tests."""
    return build_diagram(
        Stage.WELLFORMED,
        [
            Node("src", NodeType.EXT, label="Source"),
            Node("proc", NodeType.PROC, label="Handle"),
            Node("db", NodeType.DB, label="Store"),
        ],
        [
            Flow("f_in", "src", "proc", FlowType.IN),
            Flow("f_st", "proc", "db", FlowType.STORE),
        ],
    )


def random_wellformed(rng: random.Random, max_nodes: int = 20) -> Diagram:
    """Construct a random well-formed diagram (processes relay, entities
    and stores attach, flow types match their endpoints)."""
    procs = rng.randint(1, min(6, max_nodes - 2))
    exts = rng.randint(0, min(4, max_nodes - procs))
    dbs = rng.randint(0, min(4, max_nodes - procs - exts))
    if procs == 1 and exts == 0 and dbs == 0:
        exts = 1

    diagram = Diagram(stage=Stage.WELLFORMED)
    proc_ids = [f"p{i}" for i in range(procs)]
    ext_ids = [f"e{i}" for i in range(exts)]
    db_ids = [f"s{i}" for i in range(dbs)]
    for node_id in ext_ids:
        diagram = add_node(diagram, Node(node_id, NodeType.EXT, label=rng.choice(LABELS)))
    for node_id in proc_ids:
        diagram = add_node(diagram, Node(node_id, NodeType.PROC, label=rng.choice(LABELS)))
    for node_id in db_ids:
        diagram = add_node(diagram, Node(node_id, NodeType.DB, label=rng.choice(LABELS)))

    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"f{counter}"

    def typed(source: str, target: str) -> Flow:
        if source in ext_ids:
            flow_type = FlowType.IN
        elif source in db_ids:
            flow_type = FlowType.READ
        elif target in ext_ids:
            flow_type = FlowType.OUT
        elif target in db_ids:
            flow_type = rng.choice((FlowType.STORE, FlowType.STORE, FlowType.DELETE))
        else:
            flow_type = FlowType.COMP
        return Flow(fresh(), source, target, flow_type, label=rng.choice(LABELS))

    def pick_source(for_proc: str) -> str:
        pool = ext_ids + db_ids + [p for p in proc_ids if p != for_proc]
        return rng.choice(pool)

    def pick_target(for_proc: str) -> str:
        pool = ext_ids + db_ids + [p for p in proc_ids if p != for_proc]
        return rng.choice(pool)

    for proc in proc_ids:
        diagram = add_flow(diagram, typed(pick_source(proc), proc))
        diagram = add_flow(diagram, typed(proc, pick_target(proc)))

    # attach any entity or store the relay wiring missed
    connected = {f.source for f in diagram.flows.values()}
    connected |= {f.target for f in diagram.flows.values()}
    for node_id in ext_ids + db_ids:
        if node_id not in connected:
            proc = rng.choice(proc_ids)
            if rng.random() < 0.5:
                diagram = add_flow(diagram, typed(node_id, proc))
            else:
                diagram = add_flow(diagram, typed(proc, node_id))

    for _ in range(rng.randint(0, 5)):
        proc = rng.choice(proc_ids)
        other = rng.choice(ext_ids + db_ids + [p for p in proc_ids if p != proc])
        if rng.random() < 0.5:
            diagram = add_flow(diagram, typed(other, proc))
        else:
            diagram = add_flow(diagram, typed(proc, other))

    return diagram


def random_raw(rng: random.Random) -> Diagram:
    """Random raw diagram: valid at the raw stage, often ill-formed."""
    count = rng.randint(1, 8)
    diagram = Diagram(stage=Stage.RAW)
    ids = []
    for index in range(count):
        node_id = f"n{index}"
        node_type = rng.choice((NodeType.EXT, NodeType.PROC, NodeType.DB))
        diagram = add_node(diagram, Node(node_id, node_type, label=rng.choice(LABELS)))
        ids.append(node_id)
    for index in range(rng.randint(0, 10)):
        flow_type = FlowType.DF if rng.random() < 0.2 else FlowType.PF
        diagram = add_flow(
            diagram,
            Flow(f"f{index}", rng.choice(ids), rng.choice(ids), flow_type,
                 label=rng.choice(LABELS)),
        )
    return diagram


def scatter_positions(diagram: Diagram, rng: random.Random) -> Diagram:
    """Give a random subset of nodes positions (some fractional)."""
    nodes = {}
    for node_id, node in diagram.nodes.items():
        if rng.random() < 0.6:
            position = (
                float(rng.randint(-5, 20)) * 40 + rng.choice((0.0, 0.5)),
                float(rng.randint(-5, 20)) * 40,
            )
            node = Node(
                node.id, node.node_type, node.label, node.partner, position, node.extra
            )
        nodes[node_id] = node
    return Diagram(stage=diagram.stage, nodes=nodes, flows=dict(diagram.flows))


def random_any_stage(rng: random.Random) -> Diagram:
    """Random diagram at a random stage, for serialization round trips."""
    from padfd import transform

    roll = rng.random()
    if roll < 0.35:
        diagram = random_raw(rng)
    elif roll < 0.7:
        diagram = random_wellformed(rng)
    else:
        diagram = transform(random_wellformed(rng))
    return scatter_positions(diagram, rng)


def random_meta(rng: random.Random, flow_id: str) -> FlowMeta:
    return FlowMeta(
        flow_id=flow_id,
        label=rng.choice(("Records", "Telemetry", "Orders")),
        purpose=rng.choice(PURPOSES),
        pd=rng.random() < 0.7,
        data_type=rng.choice(("string", "image", "video")),
    )


def random_record(rng: random.Random, flow_id: str, index: int) -> DataRecord:
    consent = frozenset(rng.sample(PURPOSES, rng.randint(1, len(PURPOSES))))
    expiry = date(2019, 1, 1) + timedelta(days=rng.randint(0, 1400))
    return DataRecord(
        d_id=f"d{index}",
        flow_id=flow_id,
        dsub=rng.choice(("SubA", "SubB", "SubC")),
        consent=consent,
        expiry=expiry,
        content=f"payload-{index}",
    )


def random_clock(rng: random.Random) -> date:
    return date(2019, 1, 1) + timedelta(days=rng.randint(0, 1400))
