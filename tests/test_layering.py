"""The engine core (index build and serving, normalizer, codecs, corpus
sources, lineage state, effectiveness functions, config) must not import
the ``pipelines`` package, not even inside a function: pipelines build on
the core, never the other way round. The search surface imports no
training-data family. No module of the package reads a
``SEPPRAY_*`` tuning knob, every top-level name and module of the
package has a caller outside the tests, and no operator imports its own
oracle."""

import ast
import collections
import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchenginepp_ray"
CORE = ["index", "normalizer", "codecs", "sources", "state", "functions"]


def _core_modules() -> list[pathlib.Path]:
    files = [PKG / "config.py"]
    for sub in CORE:
        files += sorted((PKG / sub).rglob("*.py"))
    return files


def _imported_modules(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, dotted name) of every import, relative ones resolved
    against the module's own package."""
    pkg = list(path.relative_to(PKG.parent).with_suffix("").parts[:-1])
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            out += [(node.lineno, f"{mod}.{a.name}") for a in node.names]
    return out


def test_core_does_not_import_pipelines():
    files = _core_modules()
    assert len(files) > 20
    bad = [
        f"{p.relative_to(PKG.parent)}:{line}: {name}"
        for p in files
        for line, name in _imported_modules(p)
        if name.startswith("searchenginepp_ray.pipelines")
    ]
    assert bad == []


def test_search_surface_imports_no_training_data_family():
    """The search surface serves from the engine core: of the
    ``pipelines`` package, ``pipelines/search_docs.py`` imports only the
    shared ``agg`` helpers, not even inside a function, and so none of
    the training-data families (``clean``, ``dedup``, ``embed``,
    ``filters``, ``graph``, ``sample``, ``text_stats``, ``duck``). Any
    of them can then go without touching a search operator."""
    path = PKG / "pipelines" / "search_docs.py"
    pipes = "searchenginepp_ray.pipelines."
    bad = [
        f"search_docs.py:{line}: {name}"
        for line, name in _imported_modules(path)
        if name.startswith(pipes) and not name.startswith(pipes + "agg.")
    ]
    assert bad == []


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ")


def _env_reads(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) of every ``os.environ[...]``, ``os.environ.get/pop/
    setdefault(...)`` and ``os.getenv(...)`` with a literal name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        key = None
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args:
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if name == "getenv" or (name in ("get", "pop", "setdefault")
                                    and _is_environ(f.value)):
                key = node.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append((node.lineno, key.value))
    return out


def _knob_reads(files: list[pathlib.Path]) -> list[str]:
    return [
        f"{p.relative_to(PKG.parent)}:{line}: {name}"
        for p in files
        for line, name in _env_reads(p)
        if name.startswith("SEPPRAY_")
    ]


def test_core_reads_no_tuning_knobs():
    """The engine core has one code path per job, so it reads no
    ``SEPPRAY_*`` tuning knob from the environment."""
    files = _core_modules() + [PKG / "__init__.py"]
    assert _knob_reads(files) == []


def test_package_reads_no_tuning_knobs():
    """No module of the package, nor ``__ray_entry__.py``, reads a
    ``SEPPRAY_*`` tuning knob from the environment: each job has one
    code path."""
    files = sorted(PKG.rglob("*.py")) + [PKG.parent / "__ray_entry__.py"]
    assert len(files) > 40
    assert _knob_reads(files) == []


def _top_level_names(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) of every top-level ``def``, ``class`` and assigned
    name of a module, dunders skipped."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        out.append((n.lineno, n.id))
    return [(line, name) for line, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_name_is_referenced():
    """A top-level name that nothing mentions outside its own definition
    line is dead code, and so is one that only the tests mention. The
    search reads the package, ``__ray_entry__.py``, the scripts and the
    benchmark harness, not the tests."""
    root = PKG.parent
    files = (sorted(PKG.rglob("*.py")) + [root / "__ray_entry__.py"]
             + sorted((root / "scripts").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py")))
    texts = {p: p.read_text() for p in files}
    words = collections.Counter()
    for text in texts.values():
        words.update(re.findall(r"\w+", text))
    dead = []
    for mod in sorted(PKG.rglob("*.py")):
        src = texts[mod].splitlines()
        for line, name in _top_level_names(mod):
            own = re.findall(r"\w+", src[line - 1]).count(name)
            if words[name] == own:
                dead.append(f"{mod.relative_to(root)}:{line}: {name}")
    assert dead == []


def test_every_module_has_a_non_test_importer():
    """A module that only the tests import is dead code with tests. Every
    module of the package is imported by another module of the package,
    ``__ray_entry__.py``, the scripts or the benchmark harness."""
    root = PKG.parent
    importers = (sorted(PKG.rglob("*.py")) + [root / "__ray_entry__.py"]
                 + sorted((root / "scripts").glob("*.py"))
                 + sorted((root / "perfbench").glob("*.py")))
    imported = collections.defaultdict(set)
    for p in importers:
        for _, name in _imported_modules(p):
            imported[name].add(p)
    orphans = []
    for mod in sorted(PKG.rglob("*.py")):
        if mod.stem in ("__init__", "__main__"):
            continue
        dotted = ".".join(mod.relative_to(root).with_suffix("").parts)
        if not any(p != mod for name, ps in imported.items()
                   if name == dotted or name.startswith(dotted + ".")
                   for p in ps):
            orphans.append(dotted)
    assert orphans == []


def test_no_package_module_imports_the_oracles():
    """The DuckDB oracles check the operators, so an operator that takes
    its inputs from ``oracle_sql`` checks itself against itself. No
    module of the package other than ``oracle_sql`` imports it."""
    oracles = "searchenginepp_ray.pipelines.oracle_sql"
    bad = [
        f"{p.relative_to(PKG.parent)}:{line}: {name}"
        for p in sorted(PKG.rglob("*.py"))
        if p != PKG / "pipelines" / "oracle_sql.py"
        for line, name in _imported_modules(p)
        if name == oracles or name.startswith(oracles + ".")
    ]
    assert bad == []
