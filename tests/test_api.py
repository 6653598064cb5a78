"""Names other code binds by string: the package exports, the benchmark
tracer's targets, and the README's config table."""

import dataclasses
import importlib
import importlib.util
import pathlib
import re

import liqcov
from liqcov.cli import RunConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracing = load_tracing()
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    missing = [
        (mod_name, fn_name) for mod_name, fn_name in targets
        if not callable(getattr(importlib.import_module(f"liqcov.{mod_name}"), fn_name, None))
    ]
    assert missing == []


def test_exports_resolve():
    assert [name for name in liqcov.__all__ if not hasattr(liqcov, name)] == []


def test_readme_config_table_lists_every_field():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("### Config reference (JSON)", 1)[1].split("\n###", 1)[0]
    keys = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
