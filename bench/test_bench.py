"""Self-tests of the benchmark: generator, oracle and harness.

    python3 -m unittest discover -s bench -v

They use the demos under ``demos/data`` and the package under ``src``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from datetime import date
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEMOS = ROOT / "demos" / "data"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import padfd  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, cell_styles  # noqa: E402

ESTORE = gen.Drawing(
    nodes={"customer": "ext", "p_info": "proc", "p_account": "proc", "p_cart": "proc",
           "db_customer": "db"},
    flows=(
        ("f1", "customer", "p_info", "in"),
        ("f2", "p_info", "p_account", "comp"),
        ("f3", "p_account", "p_cart", "comp"),
        ("f4", "p_account", "db_customer", "store"),
        ("f5", "db_customer", "p_cart", "read"),
        ("f6", "p_cart", "customer", "out"),
    ),
)
PAYMENT = gen.Drawing(
    nodes={"construction": "ext", "p1": "proc", "p2": "proc", "p3": "proc",
           "db_project": "db", "db_bim": "db"},
    flows=(
        ("f1", "construction", "p1", "in"),
        ("f2", "construction", "p1", "in"),
        ("f3", "p1", "db_project", "store"),
        ("f4", "db_project", "p2", "read"),
        ("f5", "p2", "db_bim", "store"),
        ("f6", "db_bim", "p3", "read"),
        ("f7", "p3", "db_project", "store"),
    ),
)


def cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "padfd.cli", *args],
        cwd=cwd,
        env=run._child_env(),
        capture_output=True,
        check=True,
    )


def payment_model() -> bytes:
    """The payment demo's diagram, rewritten and written as canonical JSON."""
    nodes = {node_id: padfd.NodeType(kind) for node_id, kind in PAYMENT.nodes.items()}
    diagram = padfd.Diagram(
        stage=padfd.Stage.RAW,
        nodes={i: padfd.Node(i, kind) for i, kind in nodes.items()},
        flows={
            f: padfd.Flow(f, source, target, padfd.FlowType.PF)
            for f, source, target, _ in PAYMENT.flows
        },
    )
    wellformed, diagnostics = padfd.typecheck(diagram)
    assert not diagnostics
    return padfd.emit_json(padfd.transform(wellformed))


class TempDirTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp(prefix="padfd-bench-test-"))
        self.addCleanup(shutil.rmtree, self.tmp)


class GeneratorTest(TempDirTest):
    def _files(self, name: str, seed: int, where: str) -> dict[str, bytes]:
        workdir = self.tmp / where
        workdir.mkdir()
        WORKLOADS[name].prepare(seed, workdir, padfd)
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    def test_same_seed_same_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = self._files(name, 7, f"{name}-a")
                self.assertEqual(first, self._files(name, 7, f"{name}-b"))
                self.assertNotEqual(first, self._files(name, 8, f"{name}-c"))

    def test_drawio_inputs_are_positioned_and_varied(self):
        data, drawing = gen.drawio_document(gen.random.Random(1), 20)
        diagram = padfd.parse_drawio(data)
        self.assertEqual(drawing.counts, (80, 40, 20, 120))
        self.assertTrue(all(n.position is not None for n in diagram.nodes.values()))
        styles = [style for _, style in cell_styles(data)]
        self.assertGreater(len(set(styles)) / len(styles), 0.5)


class OracleHandCasesTest(TempDirTest):
    def test_estore_counting_laws(self):
        self.assertEqual(ESTORE.counts, (5, 3, 1, 6))
        self.assertEqual(oracle.expected_size(ESTORE), (34, 44))
        pa, dot = self.tmp / "pa.drawio.xml", self.tmp / "pa.dot"
        cli("transform", str(DEMOS / "estore.drawio.xml"), "-o", str(pa), cwd=self.tmp)
        cli("export", str(pa), "-o", str(dot), "--out-format", "dot", cwd=self.tmp)
        self.assertEqual(oracle.check_pa_drawio(pa.read_bytes(), ESTORE), [])
        self.assertEqual(oracle.check_dot(dot.read_bytes(), ESTORE), [])
        self.assertEqual(len(dot.read_bytes().decode().splitlines()), 34 + 44 + 5)

    def test_payment_records(self):
        model = self.tmp / "payment.pa.json"
        model.write_bytes(payment_model())
        self.assertEqual(oracle.check_pa_json(model.read_bytes(), PAYMENT), [])
        policy = oracle.read_policy((DEMOS / "payment_static.csv").read_bytes())
        records = oracle.read_records((DEMOS / "payment_dynamic.csv").read_bytes())
        pairs = oracle.read_pairs((DEMOS / "compat.json").read_bytes())
        # d1-d4 are covered (three of them through equivalence pairs); d5
        # consented to advertising only. A year later d1 has expired too.
        hand = {
            "2020-06-01": oracle.Counts(decisions=5, forwards=4, violations=1, hops=0),
            "2021-06-01": oracle.Counts(decisions=5, forwards=3, violations=2, hops=0),
        }
        for clock, expected in hand.items():
            with self.subTest(clock=clock):
                counted = oracle.simulate(PAYMENT, policy, records, date.fromisoformat(clock), pairs)
                self.assertEqual(counted, expected)
                report = cli(
                    "simulate", str(model), "--static", str(DEMOS / "payment_static.csv"),
                    "--dynamic", str(DEMOS / "payment_dynamic.csv"), "--clock", clock,
                    "--compat", str(DEMOS / "compat.json"), "--report", "json", cwd=self.tmp,
                ).stdout
                self.assertEqual(oracle.check_simulation(report, expected, text=False), [])

    def test_payment_multi_hop_text_report(self):
        model = self.tmp / "payment.pa.json"
        model.write_bytes(payment_model())
        policy = oracle.read_policy((DEMOS / "payment_static.csv").read_bytes())
        records = oracle.read_records((DEMOS / "payment_dynamic.csv").read_bytes())
        pairs = oracle.read_pairs((DEMOS / "compat.json").read_bytes())
        expected = oracle.simulate(PAYMENT, policy, records, date(2020, 6, 1), pairs, multi_hop=True)
        # d1 and d2 enter p1 on f1 and f2 and hop on to f3; d4 reaches p2,
        # whose outgoing f5 has no policy row.
        self.assertEqual(expected.hops, 2)
        report = cli(
            "simulate", str(model), "--static", str(DEMOS / "payment_static.csv"),
            "--dynamic", str(DEMOS / "payment_dynamic.csv"), "--clock", "2020-06-01",
            "--compat", str(DEMOS / "compat.json"), "--multi-hop", "--report", "text",
            cwd=self.tmp,
        ).stdout
        self.assertEqual(oracle.check_simulation(report, expected, text=True), [])


class OracleFlagsCorruptionTest(TempDirTest):
    def setUp(self) -> None:
        super().setUp()
        self.pa = self.tmp / "pa.drawio.xml"
        cli("transform", str(DEMOS / "estore.drawio.xml"), "-o", str(self.pa), cwd=self.tmp)

    def test_dropped_flow(self):
        lines = self.pa.read_text().splitlines(keepends=True)
        edge = next(i for i, line in enumerate(lines) if 'edge="1"' in line and "gen-" in line)
        corrupted = "".join(lines[:edge] + lines[edge + 3:])  # cell, geometry, close tag
        self.assertNotEqual(oracle.check_pa_drawio(corrupted.encode(), ESTORE), [])

    def test_wrong_retyping(self):
        corrupted = self.pa.read_text().replace("dfd=limext;", "dfd=limpro;")
        self.assertNotEqual(oracle.check_pa_drawio(corrupted.encode(), ESTORE), [])

    def test_short_dot(self):
        dot = self.tmp / "pa.dot"
        cli("export", str(self.pa), "-o", str(dot), "--out-format", "dot", cwd=self.tmp)
        lines = dot.read_text().splitlines(keepends=True)
        self.assertNotEqual(oracle.check_dot("".join(lines[:-2] + lines[-1:]).encode(), ESTORE), [])

    def test_flipped_decision(self):
        model = self.tmp / "payment.pa.json"
        model.write_bytes(payment_model())
        report = json.loads(
            cli(
                "simulate", str(model), "--static", str(DEMOS / "payment_static.csv"),
                "--dynamic", str(DEMOS / "payment_dynamic.csv"), "--clock", "2020-06-01",
                "--compat", str(DEMOS / "compat.json"), "--report", "json", cwd=self.tmp,
            ).stdout
        )
        expected = oracle.Counts(decisions=5, forwards=4, violations=1, hops=0)
        self.assertEqual(oracle.check_simulation(json.dumps(report).encode(), expected, False), [])
        report["decisions"][4]["forwarded_padfd"] = True
        report["decisions"][4]["violation"] = False
        self.assertNotEqual(oracle.check_simulation(json.dumps(report).encode(), expected, False), [])

    def test_unclean_check_report(self):
        report = b'{"stage": "pa-dfd", "diagnostics": [{"rule": "dangling-flow"}]}'
        self.assertNotEqual(oracle.check_clean(report), [])


class HarnessTest(TempDirTest):
    def test_every_workload_agrees_with_the_oracle(self):
        """The smallest op of each workload, through the CLI and in process."""
        env = run._child_env()
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                workdir = self.tmp / name
                workdir.mkdir()
                prepared = workload.prepare(3, workdir, padfd)
                case = prepared.cases[0]
                _, _, problems, cli_digest = run.cli_op(workload, case, prepared, env)
                self.assertEqual(problems, [])
                case.data = case.source.read_bytes()
                case.styles = cell_styles(case.data) if name == "drawio-session" else []
                tracer = run.Tracer()
                outputs = workload.traced(case, prepared, tracer, padfd)
                problems, _ = workload.check(outputs, case)
                self.assertEqual(problems, [])
                self.assertTrue(tracer.spans)
                self.assertTrue(cli_digest)

    def test_benchmark_json_matches_the_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(w["name"], w["why"]) for w in doc["workloads"]],
            [(w.name, w.why) for w in WORKLOADS.values()],
        )
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]], list(run.PER_LAYER)
        )

    def test_refuses_to_run_without_sources(self):
        checkout = self.tmp / "bare"
        shutil.copytree(BENCH, checkout / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "drawio-session", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
