"""Names other code binds by string or reads from outside the package: the
package exports, the benchmark tracer's targets and workloads, and the
README's config table."""

import ast
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


def test_benchmark_workload_names_resolve():
    """Every dotted liqcov name that perfbench's workloads read, such as
    dcc._DCC_STARTS or cli.RunConfig.from_mapping, exists, so that a rename
    fails here and not first in a benchmark run."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "liqcov"
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add((modules[node.id], *chain))

    def resolves(name):
        obj = importlib.import_module(f"liqcov.{name[0]}")
        for attr in name[1:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert {"dcc", "pipeline", "cli"} <= set(modules.values())
    assert ("dcc", "_DCC_STARTS") in names and ("cli", "RunConfig", "from_mapping") in names
    assert sorted(name for name in names if not resolves(name)) == []


def test_exports_resolve():
    assert [name for name in liqcov.__all__ if not hasattr(liqcov, name)] == []


def test_readme_config_table_lists_every_field():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("### Config reference (JSON)", 1)[1].split("\n###", 1)[0]
    keys = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
