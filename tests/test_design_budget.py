"""A ratchet on the package's surface: the public names and the options.

Each bound is the count at the last change that lowered it. A change that
adds a public name or an option (a parameter or dataclass field with a
default) must raise the bound here and say why in CHANGES.md.
"""

from __future__ import annotations

import ast
from pathlib import Path

import stcca

SRC = Path(stcca.__file__).parent

MAX_DEFAULTS = 68
MAX_PUBLIC_NAMES = 41


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def count_defaults(path: Path) -> int:
    """Parameters plus dataclass fields that carry a default, in one file."""
    n = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_counter_sees_each_kind_of_default(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    z: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    w: int = 3\n"
    )
    assert count_defaults(f) == 5


def test_defaults_within_budget():
    total = sum(count_defaults(f) for f in sorted(SRC.glob("*.py")))
    assert total <= MAX_DEFAULTS, f"{total} defaults in src/stcca, budget {MAX_DEFAULTS}"


def test_public_names_within_budget():
    assert len(stcca.__all__) <= MAX_PUBLIC_NAMES
