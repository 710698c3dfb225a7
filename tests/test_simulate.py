from __future__ import annotations

import csv
import json
from datetime import date

import pytest

from padfd import (
    DataRecord,
    Decision,
    Flow,
    FlowMeta,
    FlowType,
    Node,
    NodeType,
    PolicySnapshot,
    SchemaError,
    SimulationError,
    SimulationReport,
    Stage,
    StageError,
    StoreState,
    compatibility_with_equivalences,
    load_data_records,
    load_equivalences,
    load_flow_metas,
    render_report,
    report_to_dict,
    run_clean,
    run_simulation,
    transform,
    typecheck,
)
from padfd.simulate import DYNAMIC_COLUMNS, STATIC_COLUMNS

from helpers import (
    CONTRACT_END,
    build_all_kinds,
    build_diagram,
    build_payment_raw,
    build_store_chain,
    decide,
    payment_equivalences,
    payment_metas,
    payment_pa,
    payment_records,
    repeat_first_policy_row,
    replace,
)
from references import reference_render_report, reference_run_simulation

CLOCK = date(2020, 6, 1)


def meta(flow_id: str, purpose: str = "billing", pd: bool = True) -> FlowMeta:
    return FlowMeta(flow_id, "Records", purpose, pd, "string")


def record(
    flow_id: str,
    d_id: str = "d1",
    consent: frozenset[str] = frozenset({"billing"}),
    expiry: date = date(2020, 12, 31),
) -> DataRecord:
    return DataRecord(d_id, flow_id, "SubA", consent, expiry, "payload")


# --- the limit's decision rule ------------------------------------------------


def test_limit_forwards_with_consent_before_expiry():
    forwarded, entry = decide(meta("f1"), record("f1"), CLOCK)
    assert forwarded is True
    assert entry.v is False
    assert entry.policy == PolicySnapshot("billing", frozenset({"billing"}), date(2020, 12, 31))
    assert (entry.d_id, entry.flow_id, entry.propagated) == ("d1", "f1", False)


def test_limit_blocks_unconsented_purpose():
    forwarded, entry = decide(
        meta("f1", purpose="marketing"), record("f1"), CLOCK
    )
    assert forwarded is False
    assert entry.v is True


def test_limit_blocks_expired_record():
    forwarded, entry = decide(
        meta("f1"), record("f1", expiry=date(2020, 1, 1)), CLOCK
    )
    assert forwarded is False
    assert entry.v is True


def test_limit_expiry_day_still_forwards():
    forwarded, entry = decide(meta("f1"), record("f1", expiry=CLOCK), CLOCK)
    assert forwarded is True
    assert entry.v is False
    day_after = date(2020, 6, 2)
    forwarded, entry = decide(
        meta("f1"), record("f1", expiry=CLOCK), day_after
    )
    assert forwarded is False
    assert entry.v is True


def test_limit_nonpersonal_always_forwards():
    stale = record("f1", consent=frozenset({"nothing"}), expiry=date(2000, 1, 1))
    forwarded, entry = decide(meta("f1", pd=False), stale, CLOCK)
    assert forwarded is True
    assert entry.v is False


def test_limit_consent_match_is_case_insensitive():
    forwarded, _ = decide(
        meta("f1", purpose="Billing"), record("f1", consent=frozenset({"billing"})), CLOCK
    )
    assert forwarded is True


def test_business_semantics_forward_everything():
    stale = record("f_in", consent=frozenset({"nothing"}), expiry=date(2000, 1, 1))
    report = run_simulation(transform(build_store_chain()), [meta("f_in")], [stale], CLOCK)
    (decision,) = report.decisions
    assert decision.forwarded_padfd is False
    # The business diagram forwards it all the same.
    assert report_to_dict(report)["decisions"][0]["forwarded_bdfd"] is True
    assert render_report(report).splitlines()[2].split()[2] == "yes"


# --- purpose compatibility -----------------------------------------------------


def test_exact_compatibility():
    exact = compatibility_with_equivalences([])
    assert exact("billing", frozenset({"billing", "support"}))
    assert exact(" Billing ", frozenset({"billing"}))
    assert not exact("billing", frozenset({"marketing"}))


def test_equivalence_compatibility_covers_listed_pairs():
    compatible = compatibility_with_equivalences([("old wording", "new purpose")])
    assert compatible("new purpose", frozenset({"old wording"}))
    assert compatible("billing", frozenset({"billing"}))
    # A purpose that a pair covers is still covered by itself.
    assert compatible(" New Purpose", frozenset({"new purpose ", "other"}))
    # Pairs are directional: consenting to the covered purpose does not
    # grant the consented wording.
    assert not compatible("old wording", frozenset({"new purpose"}))
    assert not compatible("unrelated", frozenset({"old wording"}))


# --- whole-diagram runs ---------------------------------------------------------


def test_payment_run_blocks_only_unconsented_record():
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    outcomes = {(d.d_id): (d.forwarded_padfd, d.v) for d in report.decisions}
    assert outcomes == {
        "d1": (True, False),
        "d2": (True, False),
        "d3": (True, False),
        "d4": (True, False),
        "d5": (False, True),
    }
    assert report.violations == [report.decisions[4]]
    # Every decision is logged, one entry per record, in the right store.
    assert sum(len(entries) for entries in report.logs.values()) == 5


def test_payment_run_exact_matching_blocks_rewordings():
    report = run_simulation(
        payment_pa(), payment_metas(), payment_records(), CLOCK
    )
    forwarded = {d.d_id: d.forwarded_padfd for d in report.decisions}
    assert forwarded == {
        "d1": True,
        "d2": False,
        "d3": False,
        "d4": False,
        "d5": False,
    }


def test_payment_run_expiry_blocks_after_deadline():
    late = date(2021, 6, 1)
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        late,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    forwarded = {d.d_id: d.forwarded_padfd for d in report.decisions}
    # d1 and d5 ran out at the end of 2020; the contract-bound records live on.
    assert forwarded == {
        "d1": False,
        "d2": True,
        "d3": True,
        "d4": True,
        "d5": False,
    }


def test_forwarded_store_write_deposits_record_and_policy():
    records = payment_records()
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        records,
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    stored = report.state.data["db_project"]
    assert set(stored) == {"d3"}
    # The store holds the arriving record itself, and its policy store the
    # policy its decision logged.
    (arrived,) = [r for r in records if r.d_id == "d3"]
    assert stored["d3"] is arrived
    (decision,) = [d for d in report.decisions if d.d_id == "d3"]
    assert report.state.policies[report.state.partners["db_project"]]["d3"] is decision.policy
    policy_store = report.state.partners["db_project"]
    snapshot = report.state.policies[policy_store]["d3"]
    assert snapshot.purpose == "Project monitoring"
    assert snapshot.expiry == CONTRACT_END
    # The blocked record left nothing anywhere.
    for store, records in report.state.data.items():
        assert "d5" not in records


def test_blocked_store_write_deposits_nothing():
    report = run_simulation(
        payment_pa(), payment_metas(), payment_records(), date(2023, 1, 1)
    )
    assert all(not records for records in report.state.data.values())


def test_delete_flow_removes_record_and_policy():
    pa = transform(build_all_kinds())
    metas = [meta("f_store"), meta("f_del")]
    deposit = record("f_store", d_id="d1")
    erase = DataRecord("d1", "f_del", "SubA", frozenset({"billing"}), date(2020, 12, 31), "payload")
    first = run_simulation(pa, metas, [deposit], CLOCK)
    assert set(first.state.data["records"]) == {"d1"}

    both = run_simulation(pa, metas, [deposit, erase], CLOCK)
    assert both.state.data["records"] == {}
    policy_store = both.state.partners["records"]
    assert both.state.policies[policy_store] == {}
    # Both evaluations were logged.
    assert sum(len(e) for e in both.logs.values()) == 2


def test_delete_of_absent_record_is_noop():
    pa = transform(build_all_kinds())
    erase = DataRecord("ghost", "f_del", "SubA", frozenset({"billing"}), date(2020, 12, 31), "x")
    report = run_simulation(pa, [meta("f_del")], [erase], CLOCK)
    assert report.state.data["records"] == {}
    assert report.decisions[0].forwarded_padfd is True


def test_run_requires_privacy_aware_stage():
    wellformed, _ = typecheck(build_payment_raw())
    with pytest.raises(StageError):
        run_simulation(wellformed, payment_metas(), payment_records(), CLOCK)


def test_run_rejects_duplicate_policy_rows():
    """Policy rows built in code have no file or row to name."""
    with pytest.raises(SimulationError) as exc:
        run_simulation(
            payment_pa(), [meta("f1"), meta("f1")], [], CLOCK
        )
    assert str(exc.value) == "duplicate policy row for flow 'f1'"


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_policy_loader_refuses_a_second_row_for_a_flow(fixtures_dir, tmp_path, suffix):
    path, first, second = repeat_first_policy_row(fixtures_dir / "payment_static.csv", tmp_path, suffix)
    with pytest.raises(SimulationError) as exc:
        load_flow_metas(path)
    assert str(exc.value) == (
        f"static table {path} row {second}: duplicate policy row for flow 'f1' (first at row {first})"
    )


def test_run_rejects_unknown_flow():
    with pytest.raises(SimulationError) as exc:
        run_simulation(payment_pa(), payment_metas(), [record("ghost")], CLOCK)
    assert "ghost" in str(exc.value)


def test_run_rejects_record_on_gadget_wiring():
    pa = payment_pa()
    reqlim = next(f.id for f in pa.flows.values() if f.flow_type is FlowType.REQLIM)
    with pytest.raises(SimulationError):
        run_simulation(pa, payment_metas(), [record(reqlim)], CLOCK)


def test_run_rejects_record_without_policy_row():
    with pytest.raises(SimulationError) as exc:
        run_simulation(payment_pa(), payment_metas(), [record("f7", d_id="dx")], CLOCK)
    assert "f7" in str(exc.value)


def test_run_rejects_broken_log_chain():
    # A guarded flow whose limit has no log behind it is not simulable.
    broken = build_diagram(
        Stage.PA,
        [Node("lim", NodeType.LIMIT), Node("p", NodeType.PROC)],
        [Flow("f", "lim", "p", FlowType.LIMPRO)],
    )
    with pytest.raises(SimulationError, match="'f' has no log chain behind its limit"):
        run_simulation(broken, [meta("f")], [record("f")], CLOCK)


def test_run_rejects_store_without_policy_store():
    orphan = build_diagram(
        Stage.PA,
        [
            Node("p", NodeType.PROC),
            Node("lim", NodeType.LIMIT),
            Node("lg", NodeType.LOG),
            Node("ldb", NodeType.LOG_DB),
            Node("db", NodeType.DB),
        ],
        [
            Flow("feed", "p", "lim", FlowType.PROLIM),
            Flow("f", "lim", "db", FlowType.LIMDB),
            Flow("tap", "lim", "lg", FlowType.LIMLOG),
            Flow("keep", "lg", "ldb", FlowType.LOGGING),
        ],
    )
    with pytest.raises(SimulationError) as exc:
        run_simulation(orphan, [meta("f")], [record("f")], CLOCK)
    assert "policy store" in str(exc.value)


# --- propagation across hops -----------------------------------------------------


def test_multi_hop_reevaluates_downstream_flows():
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
        multi_hop=True,
    )
    rows = [(d.d_id, d.flow_id, d.propagated, d.forwarded_padfd) for d in report.decisions]
    # d1 and d2 enter the first process and get re-evaluated on its store
    # flow, where their consent does not cover the store's purpose. d4's
    # onward flow has no policy row and is skipped; d3's store write and
    # d5's blocked entry propagate nothing.
    assert rows == [
        ("d1", "f1", False, True),
        ("d1", "f3", True, False),
        ("d2", "f2", False, True),
        ("d2", "f3", True, False),
        ("d3", "f3", False, True),
        ("d4", "f4", False, True),
        ("d5", "f1", False, False),
    ]
    assert len(report.violations) == 3
    # The blocked hops deposited nothing; only d3 reached the store.
    assert set(report.state.data["db_project"]) == {"d3"}


def test_multi_hop_terminates_on_cycles():
    cycle = build_diagram(
        Stage.WELLFORMED,
        [Node("p1", NodeType.PROC), Node("p2", NodeType.PROC)],
        [
            Flow("f_ab", "p1", "p2", FlowType.COMP),
            Flow("f_ba", "p2", "p1", FlowType.COMP),
        ],
    )
    pa = transform(cycle)
    metas = [meta("f_ab", pd=False), meta("f_ba", pd=False)]
    report = run_simulation(pa, metas, [record("f_ab")], CLOCK, multi_hop=True)
    # The record walks the cycle once; the visited set stops the loop.
    assert [(d.flow_id, d.propagated) for d in report.decisions] == [
        ("f_ab", False),
        ("f_ba", True),
    ]


def test_multi_hop_terminates_on_a_cycle_entered_from_outside():
    """The walk stops at a flow it has already taken, not only at the
    flow the record arrived on."""
    entered = build_diagram(
        Stage.WELLFORMED,
        [Node("e", NodeType.EXT), Node("p1", NodeType.PROC), Node("p2", NodeType.PROC)],
        [
            Flow("f_in", "e", "p1", FlowType.IN),
            Flow("f_ab", "p1", "p2", FlowType.COMP),
            Flow("f_ba", "p2", "p1", FlowType.COMP),
        ],
    )
    metas = [meta(flow_id, pd=False) for flow_id in ("f_in", "f_ab", "f_ba")]
    report = run_simulation(transform(entered), metas, [record("f_in")], CLOCK, multi_hop=True)
    assert [(d.flow_id, d.propagated) for d in report.decisions] == [
        ("f_in", False),
        ("f_ab", True),
        ("f_ba", True),
    ]


def fork_pa():
    """A process `p` fed from `e1` over `f_in`, with two onward flows: a
    store write `f_b` and an outflow `f_a` to `e2`."""
    fork = build_diagram(
        Stage.WELLFORMED,
        [
            Node("e1", NodeType.EXT),
            Node("p", NodeType.PROC),
            Node("e2", NodeType.EXT),
            Node("db", NodeType.DB),
        ],
        [
            Flow("f_in", "e1", "p", FlowType.IN),
            Flow("f_b", "p", "db", FlowType.STORE),
            Flow("f_a", "p", "e2", FlowType.OUT),
        ],
    )
    return transform(fork)


def test_multi_hop_enters_every_onward_flow_in_id_order():
    metas = [meta("f_in"), meta("f_a", purpose="support"), meta("f_b")]
    records = [record("f_in", d_id="r1"), record("f_a", d_id="r2"), record("f_in", d_id="r3")]
    report = run_simulation(fork_pa(), metas, records, CLOCK, multi_hop=True)
    assert [(d.d_id, d.flow_id, d.propagated, d.forwarded_padfd) for d in report.decisions] == [
        ("r1", "f_in", False, True),
        ("r1", "f_a", True, False),
        ("r1", "f_b", True, True),
        ("r2", "f_a", False, False),
        ("r3", "f_in", False, True),
        ("r3", "f_a", True, False),
        ("r3", "f_b", True, True),
    ]
    assert set(report.state.data["db"]) == {"r1", "r3"}
    # The hop that reached the store is the arriving record on the store write.
    assert report.state.data["db"]["r1"] == replace(records[0], flow_id="f_b")
    # An onward flow without a policy row is skipped; the other is still entered.
    report = run_simulation(fork_pa(), metas[::2], records[:1], CLOCK, multi_hop=True)
    assert [(d.flow_id, d.propagated) for d in report.decisions] == [
        ("f_in", False),
        ("f_b", True),
    ]


class CountingCoverage:
    """Exact purpose matching that counts its calls."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, frozenset]] = []

    def __call__(self, purpose: str, consent: frozenset) -> bool:
        self.calls.append((purpose, consent))
        return purpose in consent


def test_compatibility_is_consulted_only_for_unexpired_personal_data():
    compatible = CountingCoverage()
    metas = [meta("f_in"), meta("f_a", pd=False), meta("f_b", purpose="support")]
    records = [
        record("f_in", d_id="fresh"),
        record("f_in", d_id="last-day", expiry=CLOCK),
        record("f_in", d_id="expired", expiry=date(2020, 5, 31)),
        record("f_a", d_id="open"),
        record("f_b", d_id="unconsented"),
    ]
    report = run_simulation(
        fork_pa(), metas, records, CLOCK, compatible=compatible, multi_hop=True
    )
    # One call per personal-data evaluation on or before the expiry: the
    # two arrivals on f_in, their hops on f_b, and the record on f_b. The
    # expired record and every evaluation on the non-personal f_a make none.
    assert [(d.d_id, d.flow_id) for d in report.decisions] == [
        ("fresh", "f_in"), ("fresh", "f_a"), ("fresh", "f_b"),
        ("last-day", "f_in"), ("last-day", "f_a"), ("last-day", "f_b"),
        ("expired", "f_in"),
        ("open", "f_a"),
        ("unconsented", "f_b"),
    ]
    billing = frozenset({"billing"})
    assert compatible.calls == [
        ("billing", billing), ("support", billing),
        ("billing", billing), ("support", billing),
        ("support", billing),
    ]


def test_multi_hop_visited_set_is_per_record():
    cycle = build_diagram(
        Stage.WELLFORMED,
        [Node("p1", NodeType.PROC), Node("p2", NodeType.PROC)],
        [
            Flow("f_ab", "p1", "p2", FlowType.COMP),
            Flow("f_ba", "p2", "p1", FlowType.COMP),
        ],
    )
    pa = transform(cycle)
    metas = [meta("f_ab", pd=False), meta("f_ba", pd=False)]
    records = [record("f_ab", d_id="r1"), record("f_ab", d_id="r2")]
    report = run_simulation(pa, metas, records, CLOCK, multi_hop=True)
    assert len(report.decisions) == 4


# --- the cleaning pass -------------------------------------------------------------


def deposited_state() -> StoreState:
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    return report.state


def test_clean_purges_expired_records():
    state = deposited_state()  # holds d3, expiring with the contract
    after, events = run_clean(state, date(2022, 7, 1))
    assert [(e.store, e.d_id, e.expiry) for e in events] == [
        ("db_project", "d3", CONTRACT_END)
    ]
    assert after.data["db_project"] == {}
    assert after.policies[after.partners["db_project"]] == {}
    # The input state is untouched.
    assert set(state.data["db_project"]) == {"d3"}


def test_clean_keeps_records_until_strictly_past_expiry():
    state = deposited_state()
    same_day, events = run_clean(state, CONTRACT_END)
    assert events == []
    assert set(same_day.data["db_project"]) == {"d3"}


def test_clean_is_idempotent():
    state = deposited_state()
    once, events_once = run_clean(state, date(2023, 1, 1))
    twice, events_twice = run_clean(once, date(2023, 1, 1))
    assert events_once and not events_twice
    assert twice == once


def test_clean_falls_back_to_record_expiry():
    stale = record("f", expiry=date(2020, 1, 1))
    state = StoreState(
        data={"db": {"d1": stale}},
        policies={},
        partners={},
    )
    cleaned, events = run_clean(state, date(2021, 1, 1))
    assert cleaned.data["db"] == {}
    assert [(e.store, e.d_id) for e in events] == [("db", "d1")]


def test_clean_reads_a_missing_partner_policy_store_as_empty():
    """StoreState may omit `policies`; a partnered policy store it lacks
    holds no snapshots, so the record's own expiry decides."""
    stale = record("f", expiry=date(2019, 1, 1))
    state = StoreState(data={"s": {"d": stale}}, partners={"s": "p"})
    cleaned, events = run_clean(state, date(2021, 1, 1))
    assert cleaned.data == {"s": {}} and cleaned.policies == {}
    assert [(e.store, e.d_id, e.expiry) for e in events] == [("s", "d", date(2019, 1, 1))]
    assert state.data["s"] == {"d": stale}


def test_clean_events_sorted_by_store_then_record():
    old = date(2019, 1, 1)
    state = StoreState(
        data={
            "zeta": {"d2": record("f", d_id="d2", expiry=old)},
            "alpha": {
                "d9": record("f", d_id="d9", expiry=old),
                "d1": record("f", d_id="d1", expiry=old),
            },
        },
        policies={},
        partners={},
    )
    _, events = run_clean(state, date(2020, 1, 1))
    assert [(e.store, e.d_id) for e in events] == [
        ("alpha", "d1"),
        ("alpha", "d9"),
        ("zeta", "d2"),
    ]


# --- table loaders ---------------------------------------------------------------


def test_load_static_table_csv(fixtures_dir):
    assert load_flow_metas(fixtures_dir / "payment_static.csv") == payment_metas()


def test_load_dynamic_table_csv(fixtures_dir):
    assert load_data_records(fixtures_dir / "payment_dynamic.csv") == payment_records()


def test_load_equivalences_file(fixtures_dir):
    assert load_equivalences(fixtures_dir / "compat.json") == payment_equivalences()


@pytest.mark.parametrize(
    "name,load,expected",
    [
        ("payment_static.csv", load_flow_metas, payment_metas),
        ("payment_dynamic.csv", load_data_records, payment_records),
        ("compat.json", load_equivalences, payment_equivalences),
    ],
    ids=["static-csv", "dynamic-csv", "compat-json"],
)
def test_a_leading_byte_order_mark_is_dropped(name, load, expected, fixtures_dir, tmp_path):
    """Spreadsheets save "CSV UTF-8" files with a byte order mark first;
    such a file reads as the same file without it."""
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / name).read_bytes())
    assert load(path) == expected()


def test_load_tables_json(tmp_path):
    static = [
        {
            "F_id": m.flow_id,
            "Label": m.label,
            "Purpose": m.purpose,
            "PD": m.pd,
            "Data_type": m.data_type,
        }
        for m in payment_metas()
    ]
    dynamic = [
        {
            "D_id": r.d_id,
            "F_id": r.flow_id,
            "Dsub": r.dsub,
            "Consent": sorted(r.consent),
            "Expiry": r.expiry.isoformat(),
            "Content": r.content,
        }
        for r in payment_records()
    ]
    static_path = tmp_path / "static.json"
    dynamic_path = tmp_path / "dynamic.json"
    static_path.write_text(json.dumps(static), encoding="utf-8")
    dynamic_path.write_text(json.dumps(dynamic), encoding="utf-8")
    assert load_flow_metas(static_path) == payment_metas()
    assert load_data_records(dynamic_path) == payment_records()


def load_text(load, tmp_path, text: str, suffix: str = ".csv"):
    """`load` on a table file holding `text`."""
    path = tmp_path / f"table{suffix}"
    path.write_bytes(text.encode("utf-8"))
    return load(path)


def table_error(message: str) -> type:
    """The class a table error with `message` has: a table without a column
    it needs breaks the schema, and a bad field the simulation's terms."""
    return SchemaError if "missing columns" in message else SimulationError


def test_consent_splits_on_semicolons(tmp_path):
    rows = load_text(
        load_data_records,
        tmp_path,
        "D_id,F_id,Dsub,Consent,Expiry,Content\n"
        "d1,f1,S,billing; support ;billing,2020-12-31,x\n",
    )
    assert rows[0].consent == frozenset({"billing", "support"})


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("F_id,Label,Purpose\n", "missing columns"),
        ("F_id,Label,Purpose,PD,Data_type\nf1,L,p,maybe,s\n", "PD"),
        ("F_id,Label,Purpose,PD,Data_type\n,L,p,True,s\n", "F_id"),
        ("F_id,Label,Purpose,PD,Data_type\nf1,L,,True,s\n", "purpose"),
    ],
)
def test_static_table_errors(text, complaint, tmp_path):
    with pytest.raises(table_error(complaint)) as exc:
        load_text(load_flow_metas, tmp_path, text)
    assert complaint in str(exc.value)


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("D_id,F_id,Dsub,Expiry,Content\n", "missing columns"),
        (
            "D_id,F_id,Dsub,Consent,Expiry,Content\nd1,f1,S,billing,soon,x\n",
            "ISO date",
        ),
        (
            "D_id,F_id,Dsub,Consent,Expiry,Content\nd1,f1,S,; ;,2020-01-01,x\n",
            "consent",
        ),
        (
            "D_id,F_id,Dsub,Consent,Expiry,Content\n,f1,S,billing,2020-01-01,x\n",
            "D_id",
        ),
    ],
)
def test_dynamic_table_errors(text, complaint, tmp_path):
    with pytest.raises(table_error(complaint)) as exc:
        load_text(load_data_records, tmp_path, text)
    assert complaint in str(exc.value)


def test_table_errors_name_the_row(tmp_path):
    text = (
        "D_id,F_id,Dsub,Consent,Expiry,Content\n"
        "d1,f1,S,billing,2020-01-01,x\n"
        "d2,f1,S,billing,not-a-date,x\n"
    )
    with pytest.raises(SimulationError) as exc:
        load_text(load_data_records, tmp_path, text)
    assert "row 3" in str(exc.value)


_DYNAMIC_HEADER = "D_id,F_id,Dsub,Consent,Expiry,Content\n"


@pytest.mark.parametrize(
    "body,message",
    [
        # Blank lines are skipped and not counted.
        (
            "\nd1,f1,S,billing,2020-01-01,x\n\n\nd2,f1,S,billing,soon,x\n",
            "dynamic table {path} row 3: expected an ISO date (YYYY-MM-DD), found 'soon'",
        ),
        # A short row reads "" for the fields it lacks.
        ("d1,f1,S\n", "dynamic table {path} row 2: consent must list at least one purpose"),
        (
            "d1,f1,S,billing\n",
            "dynamic table {path} row 2: expected an ISO date (YYYY-MM-DD), found ''",
        ),
        ("d1\n", "dynamic table {path} row 2: D_id and F_id must not be empty"),
        # Extra fields are ignored.
        (
            "d1,f1,S,billing, soon ,x,more,fields\n",
            "dynamic table {path} row 2: expected an ISO date (YYYY-MM-DD), found 'soon'",
        ),
        # A quoted newline stays inside its field and its row.
        (
            'd1,f1,S,billing,2020-01-01,"two\nlines"\nd2,f1,S,billing,2020-02-30,x\n',
            "dynamic table {path} row 3: expected an ISO date (YYYY-MM-DD), found '2020-02-30'",
        ),
        # Forms that date.fromisoformat reads on Python 3.11 and later only.
        (
            "d1,f1,S,billing,20201231,x\n",
            "dynamic table {path} row 2: expected an ISO date (YYYY-MM-DD), found '20201231'",
        ),
        (
            "d1,f1,S,billing,2020-W53-4,x\n",
            "dynamic table {path} row 2: expected an ISO date (YYYY-MM-DD), found '2020-W53-4'",
        ),
        (
            "d1,f1,S,; ;,2020-01-01,x\n",
            "dynamic table {path} row 2: consent must list at least one purpose",
        ),
        (" ,f1,S,billing,2020-01-01,x\n", "dynamic table {path} row 2: D_id and F_id must not be empty"),
        ("d1, ,S,billing,2020-01-01,x\n", "dynamic table {path} row 2: D_id and F_id must not be empty"),
    ],
    ids=[
        "blank-lines", "short-row-consent", "short-row-expiry", "short-row-ids",
        "long-row", "quoted-newline", "compact-expiry", "week-expiry", "empty-consent",
        "empty-d_id", "empty-f_id",
    ],
)
def test_dynamic_table_messages(body, message, tmp_path):
    with pytest.raises(SimulationError) as exc:
        load_text(load_data_records, tmp_path, _DYNAMIC_HEADER + body)
    assert str(exc.value) == message.format(path=tmp_path / "table.csv")


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "D_id,F_id,Dsub,Expiry,Content\n",
            "dynamic table {path}: missing columns ['Consent']; expected header "
            "D_id,F_id,Dsub,Consent,Expiry,Content",
        ),
        (
            "",
            "dynamic table {path}: missing columns ['D_id', 'F_id', 'Dsub', 'Consent', "
            "'Expiry', 'Content']; expected header D_id,F_id,Dsub,Consent,Expiry,Content",
        ),
        # A blank first line is an empty header.
        (
            "\n" + _DYNAMIC_HEADER,
            "dynamic table {path}: missing columns ['D_id', 'F_id', 'Dsub', 'Consent', "
            "'Expiry', 'Content']; expected header D_id,F_id,Dsub,Consent,Expiry,Content",
        ),
        # A repeated header name takes its last column, "" where a row stops short.
        (
            "Expiry,D_id,F_id,Dsub,Consent,Expiry,Content\n2020-01-01,d1,f1,S,billing,soon\n",
            "dynamic table {path} row 2: expected an ISO date (YYYY-MM-DD), found 'soon'",
        ),
        (
            "D_id,F_id,Dsub,Consent,Expiry,Content,D_id\nd1,f1,S,billing,2020-01-01,x\n",
            "dynamic table {path} row 2: D_id and F_id must not be empty",
        ),
    ],
    ids=["missing-column", "empty-text", "blank-header", "repeated-column", "repeated-column-short-row"],
)
def test_dynamic_table_header_messages(text, message, tmp_path):
    with pytest.raises(table_error(message)) as exc:
        load_text(load_data_records, tmp_path, text)
    assert str(exc.value) == message.format(path=tmp_path / "table.csv")


def test_dynamic_table_reads_rows_as_dict_reader_does(tmp_path):
    text = (
        "Extra,D_id,F_id,Dsub,Consent,Expiry,Content,Dsub\n"
        "\n"
        "?, d1 ,f1,lost, billing ;support,2020-01-01 ,\"a, \"\"b\"\"\nc\",SubA\n"
        "?,d2,f2,lost,billing,2020-01-02\n"
        "?,d3,f3,lost,billing,2020-01-03,x,SubC,more\n"
    )
    assert load_text(load_data_records, tmp_path, text) == [
        DataRecord("d1", "f1", "SubA", frozenset({"billing", "support"}), date(2020, 1, 1), 'a, "b"\nc'),
        DataRecord("d2", "f2", "", frozenset({"billing"}), date(2020, 1, 2), ""),
        DataRecord("d3", "f3", "SubC", frozenset({"billing"}), date(2020, 1, 3), "x"),
    ]


def test_csv_field_over_the_size_limit_is_a_schema_error(tmp_path):
    """The csv module refuses a field longer than its limit; the table is
    refused naming the file and the line, and the module-wide limit is left
    as it was."""
    limit = csv.field_size_limit()
    text = "D_id,F_id,Dsub,Consent,Expiry,Content\n" + f"d1,f1,S,billing,2020-01-01,{'x' * (limit + 1)}\n"
    with pytest.raises(SchemaError) as exc:
        load_text(load_data_records, tmp_path, text)
    assert type(exc.value) is SchemaError
    assert str(exc.value) == (
        f"dynamic table {tmp_path / 'table.csv'} line 2: field larger than field limit ({limit})"
    )
    assert csv.field_size_limit() == limit


def test_csv_nul_byte_is_a_schema_error(tmp_path):
    """Only Python 3.10's csv reader refuses a NUL byte; the loader refuses
    it on every interpreter, naming the file and the line."""
    text = "F_id,Label,Purpose,PD,Data_type\nf1,L,p,True,s\nf2,L\0,p,True,s\n"
    with pytest.raises(SchemaError) as exc:
        load_text(load_flow_metas, tmp_path, text)
    assert type(exc.value) is SchemaError
    assert str(exc.value) == f"static table {tmp_path / 'table.csv'} line 3: holds a NUL byte"


@pytest.mark.parametrize(
    "body,message",
    [
        ("f1,L,p,maybe,s\n", "static table {path} row 2: PD must be 'True' or 'False', found 'maybe'"),
        ("\n\nf1,L,p,True,s\n,L,p,True,s\n", "static table {path} row 3: F_id must not be empty"),
        ("f1,L,,True,s\n", "static table {path} row 2: personal-data flows need a purpose"),
        ("f1,L,p\n", "static table {path} row 2: PD must be 'True' or 'False', found ''"),
    ],
    ids=["bad-pd", "blank-lines", "no-purpose", "short-row"],
)
def test_static_table_messages(body, message, tmp_path):
    with pytest.raises(SimulationError) as exc:
        load_text(load_flow_metas, tmp_path, "F_id,Label,Purpose,PD,Data_type\n" + body)
    assert str(exc.value) == message.format(path=tmp_path / "table.csv")


def test_json_tables_report_the_first_problem_of_a_row(tmp_path):
    """Fields are checked in column order, each problem named exactly."""
    row = {"D_id": "", "F_id": "f1", "Dsub": 3, "Consent": "", "Expiry": 5, "Content": None}
    cases = [
        ({}, "dynamic table {path} row 0: D_id and F_id must not be empty"),
        ({"D_id": "d1"}, "dynamic table {path} row 0: Dsub must be a string, found 3"),
        (
            {"D_id": "d1", "Dsub": "S"},
            "dynamic table {path} row 0: consent must list at least one purpose",
        ),
        (
            {"D_id": "d1", "Dsub": "S", "Consent": 7},
            "dynamic table {path} row 0: consent must be a ';'-separated string or list",
        ),
        (
            {"D_id": "d1", "Dsub": "S", "Consent": ["a"]},
            "dynamic table {path} row 0: Expiry must be a string, found 5",
        ),
        (
            {"D_id": "d1", "Dsub": "S", "Consent": ["a"], "Expiry": "2020-01-01"},
            "dynamic table {path} row 0: Content must be a string, found None",
        ),
    ]
    for change, message in cases:
        with pytest.raises(SimulationError) as exc:
            load_text(load_data_records, tmp_path, json.dumps([{**row, **change}]), ".json")
        assert str(exc.value) == message.format(path=tmp_path / "table.json")


@pytest.mark.parametrize("pd", [None, 0, 0.0, [], [0], 1], ids=repr)
def test_json_static_table_refuses_non_boolean_pd(pd, tmp_path):
    """Only JSON true/false and the CSV spellings read as PD; a falsy value
    would silently mark a personal-data flow as carrying none."""
    row = {"F_id": "f1", "Label": "L", "Purpose": "p", "PD": pd, "Data_type": "s"}
    with pytest.raises(SimulationError) as exc:
        load_text(load_flow_metas, tmp_path, json.dumps([row]), ".json")
    assert str(exc.value) == (
        f"static table {tmp_path / 'table.json'} row 0: PD must be 'True' or 'False', found {pd!r}"
    )


def test_json_static_table_reads_booleans_and_csv_spellings(tmp_path):
    rows = [
        {"F_id": f"f{i}", "Label": "L", "Purpose": "p", "PD": pd, "Data_type": "s"}
        for i, pd in enumerate([True, False, " TRUE ", "false"])
    ]
    metas = load_text(load_flow_metas, tmp_path, json.dumps(rows), ".json")
    assert [m.pd for m in metas] == [True, False, True, False]


# The error each document raises, PATH standing for the file's path:
# errors in the file as a whole name it, errors in a row name it and the row.
_JSON_TABLE_ERRORS = {
    "{}": "static table PATH: top level must be a list of rows",
    '[{"F_id": "f1"}]':
        "static table PATH row 0: missing columns ['Label', 'Purpose', 'PD', 'Data_type']",
    "[[1]]": "static table PATH row 0: each row must be an object",
    "not json": "static table PATH: not valid JSON: Expecting value: line 1 column 1 (char 0)",
}


@pytest.mark.parametrize("doc", list(_JSON_TABLE_ERRORS))
def test_json_table_errors(doc, tmp_path):
    with pytest.raises((SchemaError, SimulationError)) as exc:
        load_text(load_flow_metas, tmp_path, doc, ".json")
    assert str(exc.value) == _JSON_TABLE_ERRORS[doc].replace("PATH", str(tmp_path / "table.json"))


@pytest.mark.parametrize(
    "load,where,key,value",
    [
        (load_flow_metas, "static table {path} row 0", "Purpose", "\ud800x"),
        (load_data_records, "dynamic table {path} row 0", "D_id", "\udfff"),
        (load_data_records, "dynamic table {path} row 0", "Consent", ["billing", "\udbff"]),
    ],
    ids=["static-purpose", "dynamic-d_id", "dynamic-consent-list"],
)
def test_json_tables_refuse_lone_surrogates(tmp_path, load, where, key, value):
    """JSON text carries a lone surrogate only as an escape, in either
    case; no report can carry one, so the row is refused."""
    columns = STATIC_COLUMNS if load is load_flow_metas else DYNAMIC_COLUMNS
    text = json.dumps([{**dict.fromkeys(columns, "x"), key: value}])
    held = value[-1] if isinstance(value, list) else value
    with pytest.raises(SchemaError) as exc:
        load_text(load, tmp_path, text.replace("\\udbff", "\\uDBFF"), ".json")
    where = where.format(path=tmp_path / "table.json")
    assert str(exc.value) == f"{where}: {key} {held!r} holds a lone surrogate"


def test_load_equivalences_rejects_bad_shapes(tmp_path):
    path = tmp_path / "eq.json"
    for bad, message in (
        ('{"a": 1}', "top level must be a list of pairs"),
        ('[["one"]]', "pair 0: must be two strings, found ['one']"),
        ('[["a", "b"], ["c", 3]]', "pair 1: must be two strings, found ['c', 3]"),
        ("nope", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_equivalences(path)
        separator = " " if message.startswith("pair ") else ": "
        assert str(exc.value) == f"equivalence file {path}{separator}{message}"


# --- report rendering ----------------------------------------------------------


def test_render_report_table():
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "clock: 2020-06-01"
    assert lines[1].split() == ["D_id", "F_id", "B-DFD", "PA-DFD", "Violation"]
    assert "d5" in text and "v=true" in text
    assert "log entries: 5 (violations: 1)" in text
    assert "store db_project: d3" in text
    assert "store db_bim: -" in text


def test_render_report_marks_hops():
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
        multi_hop=True,
    )
    assert "f3 (hop)" in render_report(report)


def test_render_report_pads_any_text_as_the_reference():
    """Cells with blanks, text outside ASCII and braces or percent signs
    are padded by length and written as they are, never read as format."""
    policy = PolicySnapshot("billing", frozenset({"billing"}), CLOCK)

    def decision(d_id, flow_id, forwarded, propagated):
        return Decision(d_id, flow_id, policy, not forwarded, propagated)

    decisions = [
        decision("{0}", "f {x}", True, False),
        decision("dé ü", "{}", False, True),
        decision("%s %d", "fl\u00f6w%", True, True),
        decision(" pad ", "\U0001f512", False, False),
    ]
    state = StoreState(data={"s {1}": {"{0}": record("f")}, "t": {}})
    report = SimulationReport(CLOCK, decisions, {}, state)
    text = render_report(report)
    assert text == reference_render_report(report)
    assert text.splitlines()[1:6] == [
        "D_id   F_id         B-DFD  PA-DFD  Violation",
        "{0}    f {x}        yes    yes     -",
        "dé ü   {} (hop)     yes    no      v=true",
        "%s %d  flöw% (hop)  yes    yes     -",
        " pad   \U0001f512            yes    no      v=true",
    ]
    assert text.endswith("log entries: 4 (violations: 2)\nstore s {1}: {0}\nstore t: -\n")


def test_render_report_escapes_ids_that_do_not_print():
    """An id with a line break, a tab or another character that does not
    print is written with Python's escapes and padded by that length, so
    each decision and each store keeps its one aligned line."""
    policy = PolicySnapshot("billing", frozenset({"billing"}), CLOCK)
    decisions = [
        Decision("d\n1", "f\t1", policy, False, True),
        Decision("d2", "f2", policy, True),
        Decision("d\x003", "f\u2028", policy, False),
    ]
    state = StoreState(data={"s\r": {"d\n1": record("f"), "d2": record("f")}})
    report = SimulationReport(CLOCK, decisions, {}, state)
    text = render_report(report)
    assert text == reference_render_report(report)
    assert text.splitlines()[1:] == [
        "D_id    F_id        B-DFD  PA-DFD  Violation",
        "d\\n1    f\\t1 (hop)  yes    yes     -",
        "d2      f2          yes    no      v=true",
        "d\\x003  f\\u2028     yes    yes     -",
        "log entries: 3 (violations: 1)",
        "store s\\r: d\\n1, d2",
    ]


def test_report_to_dict_is_json_ready():
    report = run_simulation(
        payment_pa(),
        payment_metas(),
        payment_records(),
        CLOCK,
        compatible=compatibility_with_equivalences(payment_equivalences()),
    )
    doc = report_to_dict(report)
    json.dumps(doc)
    assert doc["clock"] == "2020-06-01"
    assert [d["d_id"] for d in doc["decisions"]] == ["d1", "d2", "d3", "d4", "d5"]
    assert doc["decisions"][4] == {
        "d_id": "d5",
        "flow_id": "f1",
        "forwarded_bdfd": True,
        "forwarded_padfd": False,
        "violation": True,
        "propagated": False,
    }
    assert doc["stores"]["db_project"] == {"d3": {"stored_at": "2020-06-01"}}
