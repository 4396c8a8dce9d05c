"""Every top-level import is used, every private module-level name too,
every public function and class has a use in the package or a stated reason,
and state types are built unchecked in one place only.

No linter ships with the package, so this scans the source with `ast`: a
name bound by a module-level import must be referenced somewhere in the
same module, and a private name (one leading underscore) defined at a
module's top level in `src/supersim` must be referenced somewhere in the
package outside its own definition.  So must a public top-level function or
class, where a re-export in `supersim/__init__.py` does not count; the names
that nothing in the package uses yet are listed in `UNUSED_PUBLIC`, each
with its reason.  `supersim/__init__.py` is skipped by the import scan
because its imports are re-exports.  A state instance means its
constructor's checks passed, so `__new__`, which skips them, is called only
in `linalg.outer`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "supersim").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def _defined(stmt) -> set:
    """Private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _defined_public(stmt) -> set:
    """The public function or class a top-level statement defines, if any."""
    is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    return {stmt.name} if is_def and not stmt.name.startswith("_") else set()


def _referenced(stmt) -> set:
    """Names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_names(sources: dict, defines=_defined) -> list:
    """Top-level names of `sources` (module name -> source) picked by `defines`
    that no statement but their own definition references, as "module.name"."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = defines(stmt)
            defined += [(module, name) for name in own]
            used |= _referenced(stmt) - own
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nimport numpy as np\nloads(np)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


def test_no_unused_private_names():
    assert unused_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_private_scan_flags_a_dead_name():
    sources = {
        "a": "_LIMIT = 3\n_imported = 1\n__version__ = '1'\n"
             "def _dead(n):\n    return _dead(n - 1) if n else _LIMIT\n"
             "def _attr():\n    pass\n",
        "b": "from a import _imported\nimport a\na._attr()\n",
    }
    assert unused_names(sources) == ["a._dead"]


UNUSED_PUBLIC = {
    "circuits.apply_postselection": "ROADMAP items 2 and 4 give it a CLI path",
    "linalg.save_state": "writes the format load_state reads; the tests and README use it",
}


def test_every_public_name_is_used_or_listed():
    sources = {p.stem: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    assert unused_names(sources, _defined_public) == sorted(UNUSED_PUBLIC)


def test_public_scan_flags_an_unused_function():
    sources = {
        "a": "class Used:\n    pass\ndef dead(n):\n    return dead(n - 1)\n"
             "def _private():\n    pass\nLIMIT = 3\ndef by_attribute():\n    pass\n",
        "b": "import a\nfrom a import Used\na.by_attribute()\n",
    }
    assert unused_names(sources, _defined_public) == ["a.dead"]


STATE_CLASSES = {"StateVector", "DensityOperator", "PureDensity"}


def unchecked_constructions(sources: dict) -> list:
    """Functions of `sources` (module name -> source) that call `__new__` on
    `object` or on a state class, as "module.function" of the innermost
    enclosing function."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "__new__"
                    and isinstance(f.value, ast.Name)
                    and f.value.id in STATE_CLASSES | {"object"}):
                found.append(f"{self.module}.{self.stack[-1] if self.stack else '<module>'}")
            self.generic_visit(node)

    for module, source in sources.items():
        Visitor(module).visit(ast.parse(source))
    return sorted(found)


def test_states_built_unchecked_only_in_outer():
    assert unchecked_constructions({p.stem: p.read_text() for p in PACKAGE}) == ["linalg.outer"]


def test_unchecked_scan_flags_a_derived_helper():
    sources = {
        "linalg": "def outer(psi):\n    return object.__new__(PureDensity)\n"
                  "def _derived(cls, matrix):\n    state = object.__new__(cls)\n"
                  "    return state\n",
        "superpose": "def run():\n    def block():\n        return PureDensity.__new__(PureDensity)\n"
                     "    return block()\n",
        "tomo": "def fine():\n    return PureDensity(m)\n",
    }
    assert unchecked_constructions(sources) == ["linalg._derived", "linalg.outer", "superpose.block"]
