"""Every module in ``src/repro`` is reached by something that runs.

The rule (ROADMAP item 6): a public module is reached by an experiment,
a CLI command, a serve route, a qa oracle, or an example that tier-1
executes. Experiments, commands, routes and oracles all hang off
``repro.cli`` and ``repro.serve.__main__``; the examples are the scripts
``tests/test_examples.py`` runs. A module none of them reaches is
library code no run executes, and this test names it.

The walk is static: it parses the source with :mod:`ast`, imports
nothing and measures no time. From a module it follows

* every ``import`` and ``from ... import`` statement, module-level or
  inside a function (a command's lazy imports are how the CLI reaches
  most of the tree), together with the parent packages an import runs;
* a name imported from a package whose ``__init__`` serves it through
  :func:`repro._lazy.lazy_exports`, to the module the table names for
  it, and only for the names actually imported;
* a string constant that spells a module's dotted name, as in
  ``python -m`` command lines or registries keyed by module.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set, Tuple

from tests.test_examples import EXAMPLES

SRC = Path(__file__).resolve().parents[1] / "src"

#: Where runs start: the CLI (experiments, commands, qa oracles) and
#: ``python -m repro.serve`` (the serve routes).
ENTRY_POINTS = ("repro.cli", "repro.serve.__main__")


class Tree:
    """The parsed modules of one source root, keyed by dotted name."""

    def __init__(self, src: Path, top: str = "repro") -> None:
        self.modules: Dict[str, ast.Module] = {}
        self.packages: Set[str] = set()
        for path in sorted((src / top).rglob("*.py")):
            parts = list(path.relative_to(src).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
                self.packages.add(".".join(parts))
            name = ".".join(parts)
            self.modules[name] = ast.parse(path.read_text(), str(path))
        self.lazy = {name: self._lazy_table(name) for name in self.packages}

    def _lazy_table(self, package: str) -> Dict[str, str]:
        """``{exported name: defining module}`` of a ``lazy_exports`` call."""
        table: Dict[str, str] = {}
        for node in ast.walk(self.modules[package]):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)
            ):
                continue
            for key, names in zip(node.args[1].keys, node.args[1].values):
                module = self.absolute(package, key.value, is_package=True)
                for name in ast.literal_eval(names):
                    table[name] = module
        return table

    def absolute(self, module: str, target: str, is_package: bool) -> str:
        """Resolve a relative module name (``".slicer"``) against ``module``."""
        level = len(target) - len(target.lstrip("."))
        if not level:
            return target
        base = module.split(".")
        base = base if is_package else base[:-1]
        base = base[: len(base) - (level - 1)]
        rest = target[level:]
        return ".".join(base + ([rest] if rest else []))

    def edges(
        self, module: str, source: ast.Module
    ) -> Iterator[Tuple[str, Tuple[str, ...]]]:
        """``(module, imported names)`` for everything ``source`` imports."""
        for node in ast.walk(source):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, ()
            elif isinstance(node, ast.ImportFrom):
                target = "." * node.level + (node.module or "")
                yield (
                    self.absolute(module, target, module in self.packages),
                    tuple(alias.name for alias in node.names),
                )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in self.modules
            ):
                yield node.value, ()

    def reach(self, roots: Iterable[str], scripts: Iterable[Path] = ()) -> Set[str]:
        """Every module the ``roots`` and the ``scripts`` reach."""
        parsed = {str(path): ast.parse(path.read_text(), str(path)) for path in scripts}
        seen: Set[str] = set()
        todo = [*roots, *parsed]

        def load(module: str, names: Tuple[str, ...]) -> None:
            parts = module.split(".")
            todo.extend(".".join(parts[:i]) for i in range(1, len(parts) + 1))
            for name in names:
                if f"{module}.{name}" in self.modules:
                    todo.append(f"{module}.{name}")
                elif name in self.lazy.get(module, {}):
                    load(self.lazy[module][name], (name,))

        while todo:
            module = todo.pop()
            source = self.modules.get(module) or parsed.get(module)
            if module in seen or source is None:
                continue
            seen.add(module)
            for target, names in self.edges(module, source):
                load(target, names)
        return seen & set(self.modules)


def unreached(tree: Tree, roots: Iterable[str], scripts: Iterable[Path]) -> Set[str]:
    return set(tree.modules) - tree.reach(roots, scripts)


def test_every_module_is_reached_by_a_run_or_a_tier1_example():
    missing = unreached(Tree(SRC), ENTRY_POINTS, EXAMPLES)
    assert not missing, (
        "no experiment, CLI command, serve route, qa oracle or tier-1 "
        f"example reaches: {sorted(missing)}"
    )


def test_walk_follows_only_what_is_imported(tmp_path):
    """The walk on a small tree: each edge kind reaches exactly its
    target, and a lazy-table row reaches nothing until a name of it is
    imported."""
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    files = {
        "__init__.py": "",
        "cli.py": (
            "from repro.sub import used\n"
            "def command():\n"
            "    import repro.local\n"
            "    return ['python', '-m', 'repro.named']\n"
        ),
        "local.py": "",
        "named.py": "",
        "orphan.py": "import repro.sub.exported\n",
        "sub/__init__.py": (
            "from repro._lazy import lazy_exports\n"
            "__all__ = lazy_exports(__name__, {\n"
            "    '.defines': ('used',),\n"
            "    '.exported': ('unused',),\n"
            "})\n"
        ),
        "sub/defines.py": "from . import helper\n",
        "sub/helper.py": "",
        "sub/exported.py": "",
        "script_only.py": "",
    }
    for name, text in files.items():
        (pkg / name).write_text(text)
    script = tmp_path / "example.py"
    script.write_text("from repro import script_only\n")

    tree = Tree(tmp_path)
    assert unreached(tree, ["repro.cli"], []) == {
        "repro.orphan", "repro.script_only", "repro.sub.exported",
    }
    assert unreached(tree, ["repro.cli"], [script]) == {
        "repro.orphan", "repro.sub.exported",
    }
