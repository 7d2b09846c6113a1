"""Every third-party module the code imports is a declared dependency: the
package and its scripts import only the runtime dependencies (numpy), and
the tests and the benchmark only those plus the ``test`` extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package and the modules the tests and the benchmark import from their own directories
LOCAL = {"swat", "conftest", "gen", "quality", "tracer", "run", "synthetic_experiment"}


def third_party_imports(*dirs):
    """{top-level module: files importing it} over the .py files under ``dirs``,
    leaving out the standard library, the local modules and relative imports."""
    found = {}
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for top in {name.split(".")[0] for name in names} - LOCAL - set(sys.stdlib_module_names):
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def names(requirements):
    """The distribution names of PEP 508 requirements; each one here is also its import name."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = names(project["dependencies"])
    test = runtime | names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy"}
    undeclared = {top: files for top, files in third_party_imports("src/swat", "scripts").items()
                  if top not in runtime}
    assert undeclared == {}, "imported at run time but not a runtime dependency"
    undeclared = {top: files for top, files in third_party_imports("tests", "perfbench").items()
                  if top not in test}
    assert undeclared == {}, "imported by the tests or the benchmark but declared nowhere"
