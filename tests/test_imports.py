"""Every module-level import in the package and the tests is read by its
module: an import whose name the file never reads is dead code."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "faircon").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# (file, name) pairs imported for a reader outside the module; each must
# be a name perfbench/tracing.py wraps on that module.
READ_ELSEWHERE = {
    # perfbench/tracing.py wraps these by module attribute.
    ("dp.py", "agent_task_utility"),
    ("dp.py", "minimum_wage"),
}


def unread_imports(path: Path) -> list[str]:
    """The names bound by `path`'s module-level imports that no expression
    in the file reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and (path.name, name) not in READ_ELSEWHERE]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path) == []


def test_the_scan_sees_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys as system\nfrom json import dumps, loads\nloads(system.argv)\n")
    assert unread_imports(module) == ["os", "dumps"]


def test_every_import_read_elsewhere_is_still_wrapped():
    # Once the tracer stops wrapping a name, the import kept for it is dead:
    # the entry must go, and the scan above then fails until the import does.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {
        (f"{owner.__name__.rpartition('.')[2]}.py", attr)
        for _, owner, attr, _ in tracing.boundaries()
    }
    assert READ_ELSEWHERE <= wrapped
