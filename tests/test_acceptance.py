"""End-to-end acceptance checks.

Seven checks cover the library's headline guarantees: the payment
walkthrough decides exactly as documented, the transformation obeys its
counting laws at scale, gadget wiring never dangles, every diagnostic
clause has a minimal witness, all guarded flow types are reachable,
serialization round-trips losslessly, and the simulator upholds its
safety properties on random inputs.

Each test prints one scorecard line (bypassing capture) so a full run
reads as seven PASS/FAIL verdicts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from datetime import date

import pytest

from padfd import (
    FlowType,
    Node,
    NodeType,
    Stage,
    Flow,
    compatibility_with_equivalences,
    emit_drawio,
    emit_json,
    load_data_records,
    load_equivalences,
    load_flow_metas,
    parse_drawio,
    parse_json,
    run_clean,
    run_simulation,
    transform,
    typecheck,
    validate_pa,
)
from padfd.model import PA_FLOW_TYPES, PA_NODE_TYPES, PA_POLICY_FLOW_TYPES

from helpers import (
    ESTORE_EXPECTED_TYPES,
    build_all_kinds,
    build_diagram,
    build_estore_raw,
    build_excerpt,
    build_payment_raw,
    random_any_stage,
    random_clock,
    random_meta,
    random_record,
    random_wellformed,
)
from references import to_canonical_dict


@dataclass
class _Verdict:
    index: int = 0
    name: str = ""
    ok: bool = False
    detail: str = ""


@pytest.fixture
def verdict(request):
    """Collect one PASS/FAIL line per test and print it uncaptured, so the
    scorecard shows up even in a plain ``pytest -v`` run."""
    slot = _Verdict()
    yield slot
    status = "PASS" if slot.ok else "FAIL"
    suffix = f" ({slot.detail})" if slot.detail else ""
    line = f"[acceptance {slot.index}/7] {slot.name}: {status}{suffix}"
    manager = request.config.pluginmanager.get_plugin("capturemanager")
    if manager is None:
        print(line, flush=True)
    else:
        with manager.global_and_fixture_disabled():
            print(line, flush=True)


def test_payment_walkthrough_decisions(verdict, fixtures_dir):
    verdict.index, verdict.name = 1, "payment walkthrough decisions"
    started = time.perf_counter()

    wellformed, diagnostics = typecheck(build_payment_raw())
    assert diagnostics == []
    pa = transform(wellformed)
    metas = load_flow_metas(fixtures_dir / "payment_static.csv")
    records = load_data_records(fixtures_dir / "payment_dynamic.csv")
    compatible = compatibility_with_equivalences(
        load_equivalences(fixtures_dir / "compat.json")
    )
    report = run_simulation(pa, metas, records, date(2020, 6, 1), compatible=compatible)
    elapsed = time.perf_counter() - started

    business = {d.d_id: d.forwarded_bdfd for d in report.decisions}
    guarded = {d.d_id: d.forwarded_padfd for d in report.decisions}
    assert business == {f"d{i}": True for i in range(1, 6)}
    assert guarded == {"d1": True, "d2": True, "d3": True, "d4": True, "d5": False}
    assert len(report.violations) == 1
    assert report.violations[0].d_id == "d5"
    assert elapsed < 1.0

    verdict.ok = True
    verdict.detail = (
        f"unguarded 5/5 forwarded, guarded withholds only d5, "
        f"1 violation, {elapsed:.3f}s"
    )


def test_counting_laws_in_bulk(verdict):
    verdict.index, verdict.name = 2, "transformation counting laws"
    rng = random.Random(104729)
    started = time.perf_counter()

    for _ in range(1000):
        wellformed = random_wellformed(rng, max_nodes=20)
        assert len(wellformed.nodes) <= 20
        procs = sum(
            1 for n in wellformed.nodes.values() if n.node_type is NodeType.PROC
        )
        dbs = sum(1 for n in wellformed.nodes.values() if n.node_type is NodeType.DB)
        flows = len(wellformed.flows)

        pa = transform(wellformed)
        assert len(pa.nodes) == len(wellformed.nodes) + procs + 2 * dbs + 4 * flows
        assert len(pa.flows) == 7 * flows + 2 * dbs
        assert validate_pa(pa).valid

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0

    verdict.ok = True
    verdict.detail = f"1000 diagrams, both laws exact, outputs valid, {elapsed:.1f}s"


def test_no_dangling_gadget_wiring(verdict):
    verdict.index, verdict.name = 3, "no dangling gadget wiring"

    pa = transform(build_excerpt(), check=False)
    assert (len(pa.nodes), len(pa.flows)) == (13, 14)
    for flow in pa.flows.values():
        assert flow.source in pa.nodes
        assert flow.target in pa.nodes

    policy_flows = [
        flow for flow in pa.flows.values() if flow.flow_type in PA_POLICY_FLOW_TYPES
    ]
    assert policy_flows
    for flow in policy_flows:
        target = pa.nodes[flow.target]
        assert target.node_type in PA_NODE_TYPES

    verdict.ok = True
    verdict.detail = (
        f"13 nodes / 14 flows, all endpoints exist, "
        f"{len(policy_flows)} policy flows land on real activators"
    )


# One minimal counterexample per diagnostic clause: the six flow-rule
# violations (every untypeable endpoint pairing plus the loop and delete
# restrictions) and the three connectivity requirements on activators.
_E, _P, _D = NodeType.EXT, NodeType.PROC, NodeType.DB

CLAUSE_WITNESSES = [
    (
        "pf between two externals",
        [("a", _E), ("b", _E)],
        [("f", "a", "b", FlowType.PF)],
        ("f", "pf-no-rule"),
    ),
    (
        "pf from store to external",
        [("s", _D), ("b", _E)],
        [("f", "s", "b", FlowType.PF)],
        ("f", "pf-no-rule"),
    ),
    (
        "pf looping on one process",
        [("p", _P)],
        [("f", "p", "p", FlowType.PF)],
        ("f", "pf-loop"),
    ),
    (
        "pf between two stores",
        [("s1", _D), ("s2", _D)],
        [("f", "s1", "s2", FlowType.PF)],
        ("f", "pf-no-rule"),
    ),
    (
        "pf from external to store",
        [("a", _E), ("s", _D)],
        [("f", "a", "s", FlowType.PF)],
        ("f", "pf-no-rule"),
    ),
    (
        "df not from a process",
        [("a", _E), ("s", _D)],
        [("f", "a", "s", FlowType.DF)],
        ("f", "df-no-rule"),
    ),
    (
        "process with input only",
        [("a", _E), ("p", _P)],
        [("f", "a", "p", FlowType.PF)],
        ("p", "proc-source-target"),
    ),
    (
        "isolated external",
        [("a", _E)],
        [],
        ("a", "ext-connected"),
    ),
    (
        "isolated store",
        [("s", _D)],
        [],
        ("s", "db-connected"),
    ),
]


def test_diagnostic_clause_witnesses(verdict):
    verdict.index, verdict.name = 4, "diagnostic clause witnesses"

    for label, nodes, flows, expected in CLAUSE_WITNESSES:
        diagram = build_diagram(
            Stage.RAW,
            [Node(node_id, node_type) for node_id, node_type in nodes],
            [Flow(*parts) for parts in flows],
        )
        typed, diagnostics = typecheck(diagram)
        assert typed is None, label
        assert [(d.element, d.clause) for d in diagnostics] == [expected], label

    wellformed, diagnostics = typecheck(build_estore_raw())
    assert diagnostics == []
    inferred = {flow_id: flow.flow_type for flow_id, flow in wellformed.flows.items()}
    assert inferred == ESTORE_EXPECTED_TYPES

    verdict.ok = True
    verdict.detail = (
        "9 minimal fixtures hit exactly their clause, "
        "shop walkthrough types match the hand trace"
    )


def test_guarded_flow_type_coverage(verdict):
    verdict.index, verdict.name = 5, "guarded flow-type coverage"

    pa = transform(build_all_kinds())
    emitted = {flow.flow_type for flow in pa.flows.values()}
    assert len(PA_FLOW_TYPES) == 18
    assert emitted == PA_FLOW_TYPES

    verdict.ok = True
    verdict.detail = "all 18 privacy-aware flow types emitted, nothing else"


def test_round_trip_identity_in_bulk(verdict):
    verdict.index, verdict.name = 6, "serialization round-trip fidelity"
    rng = random.Random(65537)

    for _ in range(200):
        diagram = random_any_stage(rng)
        canonical = to_canonical_dict(diagram)

        xml_bytes = emit_drawio(diagram)
        json_bytes = emit_json(diagram)
        assert to_canonical_dict(parse_drawio(xml_bytes)) == canonical
        assert to_canonical_dict(parse_json(json_bytes)) == canonical
        assert emit_drawio(diagram) == xml_bytes
        assert emit_json(diagram) == json_bytes

    verdict.ok = True
    verdict.detail = "200 diagrams, drawio and json, canonical identity + stable bytes"


def test_simulation_safety_properties(verdict):
    verdict.index, verdict.name = 7, "simulation safety properties"
    rng = random.Random(999331)

    wellformed = build_diagram(
        Stage.WELLFORMED,
        [
            Node("origin", NodeType.EXT, label="Origin"),
            Node("p_keep", NodeType.PROC, label="Keep"),
            Node("vault", NodeType.DB, label="Vault"),
        ],
        [
            Flow("f_in", "origin", "p_keep", FlowType.IN),
            Flow("f_keep", "p_keep", "vault", FlowType.STORE),
        ],
    )
    pa = transform(wellformed)

    for index in range(500):
        meta = random_meta(rng, "f_keep")
        record = random_record(rng, "f_keep", index)
        clock = random_clock(rng)

        report = run_simulation(pa, [meta], [record], clock)
        decision = report.decisions[0]

        # (a) the guarded diagram only ever restricts the unguarded one
        assert not decision.forwarded_padfd or decision.forwarded_bdfd
        # (b) a flagged violation means withheld data and an empty store
        if decision.entry.v:
            assert not decision.forwarded_padfd
            assert all(
                record.d_id not in held for held in report.state.data.values()
            )
        # (c) accountability: one log entry per evaluation, no matter what
        assert len(report.decisions) == 1
        assert sum(len(entries) for entries in report.logs.values()) == 1

        # (d) cleaning removes exactly the expired records
        later = random_clock(rng)
        cleaned, events = run_clean(report.state, later)
        for store, held in report.state.data.items():
            survivors = {
                d_id for d_id, stored in held.items()
                if stored.record.expiry >= later
            }
            assert set(cleaned.data[store]) == survivors
        assert sorted((e.store, e.d_id) for e in events) == sorted(
            (store, d_id)
            for store, held in report.state.data.items()
            for d_id, stored in held.items()
            if stored.record.expiry < later
        )

    verdict.ok = True
    verdict.detail = (
        "500 random triples: restriction, violation safety, "
        "accountability, exact cleanup"
    )
