"""The prose names only what exists: every backticked ``repro.*``
dotted name, and every backticked path into ``src/``, ``tests/``,
``examples/``, ``ledger/`` or ``docs/``, resolves in the tree; and
DESIGN.md's module map lists exactly the modules under ``src/repro``."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md",
                                         ROOT / "DESIGN.md"]

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_PATH = re.compile(
    r"(?<![\w/.])(?:src|tests|examples|ledger|docs)/[\w./-]*\w")
_MODULE_MAP = re.compile(r"^## 6\. Module → file map\n\n```\n(.*?)^```",
                         re.MULTILINE | re.DOTALL)


def _spans(path):
    return _SPAN.findall(_FENCE.sub("", path.read_text()))


def _references():
    for doc in DOCS:
        for span in _spans(doc):
            for name in _DOTTED.findall(span):
                yield doc.name, "name", name
            for ref in _PATH.findall(span):
                yield doc.name, "path", ref


def _resolves(name):
    """Import the longest module prefix of ``name``, then look the
    rest up as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_docs_name_something():
    kinds = {kind for _, kind, _ in _references()}
    assert kinds == {"name", "path"}


@pytest.mark.parametrize("doc", [d.name for d in DOCS])
def test_every_reference_resolves(doc):
    broken = [(kind, ref) for name, kind, ref in _references()
              if name == doc
              and not (_resolves(ref) if kind == "name"
                       else (ROOT / ref).exists())]
    assert broken == []


def _mapped_modules():
    """Paths DESIGN.md's module map lists, relative to ``src/repro``.

    A line opening with ``pkg/`` starts that package; lines without
    one continue the package above (or, before the first, list
    top-level modules).
    """
    block = _MODULE_MAP.search((ROOT / "DESIGN.md").read_text()).group(1)
    head, *lines = block.splitlines()
    assert head == "src/repro/"
    pkg = ""
    for line in lines:
        names = line.split()
        if names[0].endswith("/"):
            pkg, names = names[0], names[1:]
        yield from (pkg + name for name in names)


def test_design_module_map_matches_the_tree():
    src = ROOT / "src" / "repro"
    listed = set(_mapped_modules())
    modules = {p.relative_to(src).as_posix() for p in src.rglob("*.py")
               if p.name != "__init__.py"}
    assert sorted(listed - modules) == []  # listed, but no such file
    assert sorted(modules - listed) == []  # a module the map omits
