"""What the package needs at runtime, and what its README promises."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mubforge"


def _imported_modules(path: Path) -> set[str]:
    """The top-level name of every absolute import in a module, function-level
    imports included; relative imports are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        outside = _imported_modules(path) - set(sys.stdlib_module_names) - {"numpy"}
        assert not outside, f"{path.name} imports {sorted(outside)}"
    # the [project] table's dependencies array, read as a Python literal
    project = (ROOT / "pyproject.toml").read_text().split("[project]")[1]
    deps = re.search(r"^dependencies\s*=\s*(\[.*?\])", project, re.M | re.S)
    names = [re.split(r"[<>=!~ ;\[]", d)[0] for d in ast.literal_eval(deps.group(1))]
    assert names == ["numpy"]


def test_star_import_gives_every_exported_name_from_its_module():
    # the lazy modules' names (transform, selector, entropy, wigner) are
    # served by the package's __getattr__, which `import *` reaches only
    # through __all__
    import mubforge

    namespace = {}
    exec("from mubforge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mubforge.__all__)
    assert len(set(mubforge.__all__)) == len(mubforge.__all__) == 33
    for name, value in namespace.items():
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("mubforge.")
        assert getattr(module, name) is value is getattr(mubforge, name)
    # every other public name is a submodule
    rest = {n for n in dir(mubforge) if n[0] != "_" and n not in namespace}
    assert all(isinstance(vars(mubforge)[n], type(mubforge)) for n in rest)


def test_readme_quickstart_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert [round(float(x), 6) for x in printed] == [0.625, 0.678072]
