"""The lazy package and the modules each CLI command loads.

Every padfd command is one short-lived process, so each should import
only the layers its subcommand and input formats use. These tests run
commands in fresh interpreters and read `sys.modules`, not the clock.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padfd
from padfd import emit_json, transform, typecheck

from helpers import build_payment_raw

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


def run_python(code: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    env.pop("PADFD_STYLES", None)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, cwd=cwd, env=env
    )


def modules_loaded_by(tmp_path: Path, *argv: str) -> set[str]:
    listing = tmp_path / "modules.txt"
    proc = run_python(PROBE, str(listing), *argv, cwd=tmp_path)
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


SIMULATE_JSON_SKIPS = [
    "xml.etree",
    "padfd.drawio",
    "padfd.styles",
    "padfd.layout",
    "padfd.dot",
    "padfd.typecheck",
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


JSON_DIAGRAM_SKIPS = ["padfd.drawio", "padfd.styles", "padfd.layout", "padfd.dot", "padfd.simulate", "csv"]


def test_transform_of_json_skips_drawio_and_simulate(models, tmp_path):
    out = tmp_path / "out.json"
    loaded = modules_loaded_by(tmp_path, "transform", str(models["raw"]), "-o", str(out))
    assert {"padfd.canonical", "padfd.typecheck", "padfd.transform"} <= loaded
    assert_none_loaded(loaded, JSON_DIAGRAM_SKIPS)


@pytest.mark.parametrize("stage", ["raw", "pa"])
def test_check_of_json_skips_drawio_and_simulate(models, tmp_path, stage):
    loaded = modules_loaded_by(tmp_path, "check", str(models[stage]), "--report", "json")
    assert {"padfd.canonical", "padfd.validate"} <= loaded
    assert_none_loaded(loaded, JSON_DIAGRAM_SKIPS)
    if stage == "pa":
        assert_none_loaded(loaded, ["padfd.typecheck", "padfd.transform"])


DRAWIO_SKIPS = ["padfd.simulate", "csv", "datetime"]


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
    assert {"padfd.drawio", "padfd.styles"} <= loaded
    assert_none_loaded(loaded, DRAWIO_SKIPS)


def test_importing_the_cli_loads_no_layer(tmp_path):
    proc = run_python(
        "import sys, padfd.cli; print(' '.join(sorted(m for m in sys.modules if m.startswith('padfd'))))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padfd", "padfd.cli", "padfd.errors", "padfd.model"]


# --- the lazy package ----------------------------------------------------------------


def test_importing_the_package_loads_no_submodule(tmp_path):
    proc = run_python(
        "import sys, padfd; print([m for m in sys.modules if m.startswith('padfd.')])", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


STEPS = [
    "import padfd.simulate",
    "import padfd.transform",
    "import padfd.typecheck",
    "from padfd import transform, typecheck",
]

# Each order of STEPS on a freshly imported package; afterwards both names
# must still be the functions their submodules define.
ORDERS = f"""\
import itertools, sys, types
for order in itertools.permutations({STEPS!r}):
    for name in [m for m in sys.modules if m == "padfd" or m.startswith("padfd.")]:
        del sys.modules[name]
    for step in order:
        exec(step, {{}})
    import padfd
    from padfd import transform, typecheck
    for name, value in (("transform", transform), ("typecheck", typecheck)):
        home = sys.modules["padfd." + name]
        assert isinstance(home, types.ModuleType), (order, name)
        assert value is getattr(padfd, name) is home.__dict__[name], (order, name)
        assert callable(value) and not isinstance(value, types.ModuleType), (order, name)
print("ok", len(list(itertools.permutations({STEPS!r}))))
"""


def test_transform_and_typecheck_stay_functions_after_submodule_imports(tmp_path):
    proc = run_python(ORDERS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "24"]


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


@pytest.mark.parametrize("name", ["no_such_name", "to_canonical_dict", "cli_main"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(padfd, name)
    with pytest.raises(ImportError):
        exec(f"from padfd import {name}", {})


def test_submodules_stay_reachable_as_attributes(tmp_path):
    proc = run_python("import padfd; print(padfd.canonical.SCHEMA_ID, padfd.model.Stage.PA.value)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padfd-canonical/1", "pa-dfd"]

