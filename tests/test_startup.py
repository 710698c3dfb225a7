"""The lazy package, the modules each CLI command loads, and the process
entry that runs without the cyclic garbage collector.

Every padfd command is one short-lived process, so each should import
only the layers its subcommand and input formats use, and pay for no
collection of cycles it does not build. These tests run commands in fresh
interpreters and read `sys.modules` and the collector's state, not the
clock.
"""

from __future__ import annotations

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import padfd
from padfd import Flow, FlowType, Node, NodeType, Stage, emit_drawio, emit_json, transform, typecheck
from padfd.cli import main

from helpers import build_diagram, build_payment_raw

PACKAGE_ROOT = Path(padfd.__file__).resolve().parent.parent
CLOCK = "2020-06-01"

# Runs `padfd.cli.main(argv)` and writes the modules it added to those the
# interpreter had already loaded, one per line, to the file named first.
PROBE = """\
import sys
before = set(sys.modules)
from padfd.cli import main
code = main(sys.argv[2:])
loaded = sorted(set(sys.modules) - before)
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write("\\n".join(loaded))
sys.exit(code)
"""


def run_child(args: list[str], cwd: Path, path: tuple[Path, ...] = ()) -> subprocess.CompletedProcess:
    """`python args...` with the package, and the directories in `path`
    before it, importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*map(str, path), str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    env.pop("PADFD_STYLES", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)


def run_python(code: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    return run_child(["-c", code, *argv], cwd)


def modules_loaded_by(tmp_path: Path, *argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    """The modules `padfd <argv>` loads, in a child run with the
    interpreter `flags`."""
    listing = tmp_path / "modules.txt"
    proc = run_child([*flags, "-c", PROBE, str(listing), *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text(encoding="utf-8").split())


def assert_none_loaded(loaded: set[str], forbidden: list[str]) -> None:
    hits = sorted(m for m in loaded for f in forbidden if m == f or m.startswith(f + "."))
    assert hits == []


@pytest.fixture
def models(tmp_path, fixtures_dir):
    raw = build_payment_raw()
    wellformed, _ = typecheck(raw)
    paths = {"raw": tmp_path / "payment.json", "pa": tmp_path / "payment-pa.json"}
    paths["raw"].write_bytes(emit_json(raw))
    paths["pa"].write_bytes(emit_json(transform(wellformed)))
    paths["drawio"] = fixtures_dir / "estore.drawio.xml"
    return paths


def simulate_argv(fixtures_dir, model, *extra):
    return [
        "simulate",
        str(model),
        "--static",
        str(fixtures_dir / "payment_static.csv"),
        "--dynamic",
        str(fixtures_dir / "payment_dynamic.csv"),
        "--clock",
        CLOCK,
        *extra,
    ]


# --- import sets per subcommand -------------------------------------------------


# No command loads these. Records are plain classes, so nothing imports
# the dataclass machinery or what it pulls in; the command line is read
# without argparse, so neither it nor the gettext and locale it pulls in
# are loaded, and `padfd.usage` prints only help and usage errors. Nothing
# imports `logging`, which a process would pay for at start-up.
NEVER_LOADED = [
    "dataclasses", "inspect", "argparse", "gettext", "locale", "logging", "padfd.usage"
]

SIMULATE_JSON_SKIPS = [
    *NEVER_LOADED,
    "xml.etree",
    "padfd.drawio",
    "padfd.layout",
    "padfd.dot",
    "padfd.rewrite",
]


@pytest.mark.parametrize(
    "extra",
    [["--report", "json"], ["--multi-hop", "--compat", "COMPAT", "--report", "text"]],
    ids=["single-hop-json", "multi-hop-text"],
)
def test_simulate_of_a_json_model_skips_drawio_and_typing(models, fixtures_dir, tmp_path, extra):
    extra = [str(fixtures_dir / "compat.json") if arg == "COMPAT" else arg for arg in extra]
    loaded = modules_loaded_by(tmp_path, *simulate_argv(fixtures_dir, models["pa"], *extra))
    assert {"padfd.canonical", "padfd.simulate", "csv"} <= loaded
    assert_none_loaded(loaded, SIMULATE_JSON_SKIPS)


JSON_DIAGRAM_SKIPS = [
    *NEVER_LOADED, "padfd.drawio", "padfd.layout", "padfd.dot", "padfd.simulate", "csv"
]


def test_transform_of_json_skips_drawio_and_simulate(models, tmp_path):
    out = tmp_path / "out.json"
    loaded = modules_loaded_by(tmp_path, "transform", str(models["raw"]), "-o", str(out))
    assert {"padfd.canonical", "padfd.rewrite"} <= loaded
    assert_none_loaded(loaded, JSON_DIAGRAM_SKIPS)


@pytest.mark.parametrize("stage", ["raw", "pa"])
def test_check_of_json_skips_drawio_and_simulate(models, tmp_path, stage):
    loaded = modules_loaded_by(tmp_path, "check", str(models[stage]), "--report", "json")
    assert {"padfd.canonical", "padfd.validate"} <= loaded
    assert_none_loaded(loaded, JSON_DIAGRAM_SKIPS)
    # A raw diagram is typed; a privacy-aware one is only validated.
    if stage == "raw":
        assert "padfd.rewrite" in loaded
    else:
        assert_none_loaded(loaded, ["padfd.rewrite", "padfd.layout"])


def test_check_of_json_reads_a_style_map_without_elementtree(models, tmp_path):
    """A style map lives in `padfd.drawio`, but reading one parses no XML."""
    config = tmp_path / "house.json"
    config.write_text('{"node_rules": [["shape=star", "proc"]]}', encoding="utf-8")
    loaded = modules_loaded_by(tmp_path, "check", str(models["pa"]), "--styles", str(config))
    assert {"padfd.canonical", "padfd.validate", "padfd.drawio"} <= loaded
    assert_none_loaded(loaded, ["xml.etree", "xml", "pyexpat", "padfd.layout", "padfd.simulate"])


# draw.io commands write draw.io or DOT through helpers in `padfd.graph`,
# so they load no JSON codec. Two of their options still do: `check
# --report json` prints its report with `json`, and a `--styles` file is
# read with it.
DRAWIO_SKIPS = [*NEVER_LOADED, "padfd.simulate", "csv", "datetime", "padfd.canonical", "json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DRAWIO"],
        ["export", "DRAWIO", "-o", "out.dot", "--out-format", "dot"],
        ["export", "DRAWIO", "-o", "out.drawio.xml", "--out-format", "drawio"],
        ["transform", "DRAWIO", "-o", "out.drawio.xml"],
    ],
    ids=["check", "export-dot", "export-drawio", "transform"],
)
def test_drawio_commands_skip_simulate_csv_and_datetime(models, tmp_path, argv):
    argv = [str(models["drawio"]) if arg == "DRAWIO" else arg for arg in argv]
    loaded = modules_loaded_by(tmp_path, *argv)
    assert "padfd.drawio" in loaded
    assert_none_loaded(loaded, DRAWIO_SKIPS)


# Without `site` (`python -S`) no `.pth` file runs before the probe, so it
# sees every module a command loads, however the interpreter is set up.
# Annotation-only names come from `collections.abc` or sit under
# `TYPE_CHECKING`, so no command loads `typing`; only a compressed draw.io
# page loads the `base64` codec; files are read with `open`, so no command
# loads `pathlib`.
@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "RAW", "-o", "out.json"],
        ["check", "PA", "--report", "json"],
        ["simulate", "PA", "--report", "json"],
        ["simulate", "PA", "--multi-hop", "--report", "text"],
        ["check", "DRAWIO"],
        ["check", "DRAWIO", "--report", "json"],
        ["export", "DRAWIO", "-o", "out.dot", "--out-format", "dot"],
        ["transform", "DRAWIO", "-o", "out.drawio.xml"],
        ["transform", "DRAWIO", "-o", "out.json"],
    ],
    ids=[
        "transform-json", "check-json", "simulate-json", "simulate-text", "check-drawio",
        "check-drawio-report-json", "export-dot", "transform-drawio", "transform-drawio-to-json",
    ],
)
def test_without_site_no_command_loads_typing_or_base64(models, fixtures_dir, tmp_path, argv):
    inputs = {"RAW": models["raw"], "PA": models["pa"], "DRAWIO": models["drawio"]}
    argv = [str(inputs.get(arg, arg)) for arg in argv]
    if argv[0] == "simulate":
        argv = simulate_argv(fixtures_dir, argv[1], *argv[2:])
    loaded = modules_loaded_by(tmp_path, *argv, flags=("-S",))
    assert "padfd.cli" in loaded
    assert_none_loaded(loaded, ["typing", "base64", "pathlib"])


def test_importing_the_cli_loads_no_layer(tmp_path):
    proc = run_python(
        "import sys, padfd.cli; print(' '.join(sorted(m for m in sys.modules if m.startswith('padfd'))))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padfd", "padfd.cli", "padfd.errors", "padfd.model"]


# --- the process entry and the cyclic collector ------------------------------------


def shops(count: int) -> padfd.Diagram:
    """A raw diagram of `count` positioned shops: an entity, two processes
    and a store, joined by five plain flows and one deletion flow."""
    nodes, flows = [], []
    for i in range(count):
        x, y = 480.0 * (i % 4), 240.0 * (i // 4)
        customer, order, fulfil, store = f"c{i}", f"o{i}", f"u{i}", f"s{i}"
        nodes += [
            Node(customer, NodeType.EXT, label=f"Customer {i}", position=(x, y + 80)),
            Node(order, NodeType.PROC, label=f"Take Order {i}", position=(x + 160, y)),
            Node(fulfil, NodeType.PROC, label=f"Fulfil Order {i}", position=(x + 320, y + 80)),
            Node(store, NodeType.DB, label=f"Orders DB {i}", position=(x + 160, y + 160)),
        ]
        pairs = [(customer, order), (order, fulfil), (fulfil, customer), (order, store), (store, fulfil)]
        flows += [Flow(f"f{i}_{j}", a, b, FlowType.PF, label=f"flow {j}") for j, (a, b) in enumerate(pairs)]
        flows.append(Flow(f"f{i}_5", fulfil, store, FlowType.DF))
    return build_diagram(Stage.RAW, nodes, flows)


SHOP_COUNTS = (1, 120)


@pytest.fixture(scope="module")
def shop_inputs(tmp_path_factory) -> list[Path]:
    """One directory per entry of SHOP_COUNTS, each holding the raw diagram
    as JSON and draw.io, its PA model as JSON, and the simulate tables."""
    directories = []
    for count in SHOP_COUNTS:
        directory = tmp_path_factory.mktemp(f"shops{count}")
        raw = shops(count)
        (directory / "raw.json").write_bytes(emit_json(raw))
        (directory / "raw.drawio.xml").write_bytes(emit_drawio(raw))
        (directory / "pa.json").write_bytes(emit_json(transform(typecheck(raw)[0])))
        flow_ids = [f"f{i}_{j}" for i in range(count) for j in range(6)]
        (directory / "static.csv").write_text(
            "F_id,Label,Purpose,PD,Data_type\n"
            + "".join(f"{f},flow,purpose {n % 3},{n % 2 == 1},string\n" for n, f in enumerate(flow_ids)),
            encoding="utf-8",
        )
        (directory / "dynamic.csv").write_text(
            "D_id,F_id,Dsub,Consent,Expiry,Content\n"
            + "".join(
                f"d{n}_{r},{f},subject {r},purpose {r},2024-0{4 + r}-01,x\n"
                for n, f in enumerate(flow_ids)
                for r in range(3)
            ),
            encoding="utf-8",
        )
        directories.append(directory)
    return directories


# Runs `padfd.cli.main(argv)` with the collector disabled, then writes the
# number of unreachable objects a full collection finds to the file named first.
GARBAGE_PROBE = """\
import gc, sys
gc.disable()
from padfd.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write(str(gc.collect()))
sys.exit(code)
"""

GARBAGE_COMMANDS = {
    "transform-drawio": ["transform", "raw.drawio.xml", "-o", "pa.drawio.xml"],
    "transform-json": ["transform", "raw.json", "-o", "out.json"],
    "check-drawio": ["check", "raw.drawio.xml"],
    "check-json": ["check", "pa.json", "--report", "json"],
    "export-dot": ["export", "pa.json", "-o", "pa.dot", "--out-format", "dot"],
    "simulate": [
        "simulate", "pa.json", "--static", "static.csv", "--dynamic", "dynamic.csv",
        "--clock", CLOCK, "--multi-hop", "--report", "json",
    ],
}


@pytest.mark.parametrize("command", list(GARBAGE_COMMANDS))
def test_commands_build_no_garbage_that_grows_with_the_input(shop_inputs, command):
    """Why a padfd process can run without the cyclic collector: what it
    would find at the end of a command does not depend on the input's size."""
    counts = []
    for directory in shop_inputs:
        proc = run_python(GARBAGE_PROBE, "unreachable.txt", *GARBAGE_COMMANDS[command], cwd=directory)
        assert proc.returncode == 0, proc.stderr
        counts.append(int((directory / "unreachable.txt").read_text(encoding="utf-8")))
    assert counts[0] == counts[1], dict(zip(SHOP_COUNTS, counts))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_callers_collector_state(fixtures_dir, tmp_path, capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        out = tmp_path / "out.drawio.xml"
        assert main(["transform", str(fixtures_dir / "estore.drawio.xml"), "-o", str(out)]) == 0
        assert main(["check", str(tmp_path / "absent.json")]) == 2
        with pytest.raises(SystemExit):
            main(["check"])
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Put on a child's path as `sitecustomize`, so it loads before the entry
# under test; at exit it writes the collector's state to the file given.
EXIT_STATE = """\
import atexit, gc


def record():
    with open({report!r}, "w", encoding="utf-8") as handle:
        handle.write(f"{{gc.isenabled()}} {{gc.get_freeze_count()}}")


atexit.register(record)
"""


def entry_args(entry: str) -> list[str]:
    if entry == "python -m":
        return ["-m", "padfd.cli"]
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11 on
    with (PACKAGE_ROOT.parent / "pyproject.toml").open("rb") as handle:
        module, attr = tomllib.load(handle)["project"]["scripts"]["padfd"].split(":")
    return ["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


@pytest.mark.parametrize(
    "argv, code",
    [(["check", "DRAWIO"], 0), (["check", "absent.json"], 2), (["check"], 2)],
    ids=["clean", "missing-file", "usage-error"],
)
@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_a_padfd_process_ends_with_the_collector_off_and_the_heap_frozen(
    fixtures_dir, tmp_path, entry, argv, code
):
    site = tmp_path / "site"
    site.mkdir()
    report = tmp_path / "collector.txt"
    (site / "sitecustomize.py").write_text(EXIT_STATE.format(report=str(report)), encoding="utf-8")
    argv = [str(fixtures_dir / "estore.drawio.xml") if arg == "DRAWIO" else arg for arg in argv]
    proc = run_child([*entry_args(entry), *argv], cwd=tmp_path, path=(site,))
    assert proc.returncode == code, proc.stderr
    enabled, frozen = report.read_text(encoding="utf-8").split()
    assert enabled == "False"
    assert int(frozen) > 0


# --- the lazy package ----------------------------------------------------------------


def test_importing_the_package_loads_no_submodule(tmp_path):
    proc = run_python(
        "import sys, padfd; print([m for m in sys.modules if m.startswith('padfd.')])", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


STEPS = [
    "import padfd.simulate",
    "import padfd.rewrite",
    "from padfd import transform, typecheck",
]

# Each order of STEPS on a freshly imported package; afterwards both names
# must still be the functions `padfd.rewrite` defines.
ORDERS = f"""\
import itertools, sys, types
for order in itertools.permutations({STEPS!r}):
    for name in [m for m in sys.modules if m == "padfd" or m.startswith("padfd.")]:
        del sys.modules[name]
    for step in order:
        exec(step, {{}})
    import padfd
    from padfd import transform, typecheck
    home = sys.modules["padfd.rewrite"]
    for name, value in (("transform", transform), ("typecheck", typecheck)):
        assert value is getattr(padfd, name) is home.__dict__[name], (order, name)
        assert callable(value) and not isinstance(value, types.ModuleType), (order, name)
print("ok", len(list(itertools.permutations({STEPS!r}))))
"""


def test_transform_and_typecheck_stay_functions_after_submodule_imports(tmp_path):
    proc = run_python(ORDERS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "6"]


def test_no_public_name_is_a_submodule():
    """The import system binds a loaded submodule on its package, so a
    public name that is also a submodule name would turn into the module."""
    modules = {info.name for info in pkgutil.iter_modules(padfd.__path__)}
    assert padfd._SUBMODULES <= modules
    assert not set(padfd.__all__) & modules


@pytest.mark.parametrize("name", padfd.__all__)
def test_public_names_are_their_home_modules_objects(name):
    home = importlib.import_module(f"padfd.{padfd._HOME[name]}")
    value = getattr(padfd, name)
    assert value is home.__dict__[name]
    module = getattr(value, "__module__", None)
    if isinstance(module, str) and module.startswith("padfd."):
        assert module == home.__name__


def test_dir_lists_every_public_name():
    assert set(dir(padfd)) >= set(padfd.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from padfd import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(padfd.__all__)
    assert all(namespace[name] is getattr(padfd, name) for name in padfd.__all__)


# Public names of earlier versions, each folded into its one caller.
FOLDED_NAMES = [
    "evaluate_limit", "exact_compatibility", "infer_flow_type", "merge_log_stores",
    "parse_data_records", "parse_flow_metas", "sources", "targets",
]
# Records of earlier versions: a decision is now its own log entry, and a
# data store holds the record itself.
FOLDED_RECORDS = ["LogEntry", "StoredRecord"]


# `GRID_STEP` only tests read; it stays `padfd.layout.GRID_STEP`. `NodeId`
# and `FlowId` only annotate; they stay in `padfd.graph`.
@pytest.mark.parametrize(
    "name",
    ["no_such_name", "to_canonical_dict", "cli_main", "GRID_STEP", "NodeId", "FlowId", *FOLDED_NAMES, *FOLDED_RECORDS],
)
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(padfd, name)
    with pytest.raises(ImportError):
        exec(f"from padfd import {name}", {})


def test_submodules_stay_reachable_as_attributes(tmp_path):
    proc = run_python("import padfd; print(padfd.canonical.SCHEMA_ID, padfd.model.Stage.PA.value)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padfd-canonical/1", "pa-dfd"]

