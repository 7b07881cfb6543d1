"""Checks on the repository's own text: the README's Python examples run,
and no module in src/ or tests/ keeps an import it never reads."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_in_order():
    # one namespace, as a reader pasting the blocks into one session would
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 5
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
