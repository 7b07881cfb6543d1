"""Checks on the repository's own text: the README's Python examples run,
no module in src/ or tests/ keeps an import it never reads, the closed-form
modules import no more than ``math`` and the error checks, every private
module-level name in src/ has a caller, and the pytest configuration
reports a failing property test like any other failure."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_in_order():
    # one namespace, as a reader pasting the blocks into one session would
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` binds by import but never reads and does not list in
    ``__all__``; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text())
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(bound.items())
        if name not in read and name not in exported
    ]


def test_no_unused_imports_in_src_or_tests():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert [hit for path in paths for hit in _unused_imports(path)] == []


# Closed forms, no arrays: the README gives threshold's own imports as
# `math`, `dataclasses` and `.errors`.
CLOSED_FORM_IMPORTS = {"__future__", "math", "dataclasses", ".errors"}


@pytest.mark.parametrize("module", ["threshold", "halfnormal"])
def test_closed_form_modules_import_only_math(module):
    tree = ast.parse((ROOT / "src" / "lpdecode" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= CLOSED_FORM_IMPORTS, sorted(imported - CLOSED_FORM_IMPORTS)


def _uncalled_private_names(paths: list[Path]) -> list[str]:
    """Module-level private functions, classes and constants of ``paths``
    that no module of ``paths`` reads, by name or as an attribute, outside
    their own definitions."""
    defined, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{where}: {name}" for name, where in sorted(defined.items()) if name not in read]


def test_no_private_name_in_src_without_a_caller():
    # a helper that a merge left behind, with its callers gone
    assert _uncalled_private_names(sorted((ROOT / "src").rglob("*.py"))) == []


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report imports libcst, whose DeprecationWarning
    # filterwarnings = error would turn into an INTERNALERROR ending the run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(i):\n"
        "    assert i < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
