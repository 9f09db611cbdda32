"""Structural checks on the code.

The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.
The tracer wraps package functions by module attribute and reads the strike
count of each price_call_strikes call from its fifth positional argument or
its ``strikes`` keyword; a renamed function or a moved parameter would leave
its per-layer metrics empty.  These tests only read perfbench.

The CLI builds every model and contract in one place each, and no module
calls price_call or price_put, the side-named aliases of price.

No module calls BLAS or LAPACK: numpy.linalg, the @ operator, dot, matmul,
vdot, inner or tensordot.  The first such call in a process maps OpenBLAS's
buffers, about 1.5 MB in all (an svd 1024 KB, a solve 344 KB, a matrix
product 128 KB), which a calibration round's peak RSS of about 39 MB would
carry for matrices of at most 3 columns; the optimizer solves those on
Python floats.

The package exports every name its __init__ imports from its submodules, and
no module.  The oracles stand on core alone: reference and lab import no
other module of the package.

The code-line counter (tests/count_lines.py) counts no blank line, comment
or docstring.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np

import count_lines
import stablepricer
import stablepricer.cli
from stablepricer import StableModelParams, aggregated_error, synthetic_chain
from stablepricer.pricer import price_call_strikes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_are_callable():
    for module_name, attr, _, _ in _tracing().WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_strikes_is_the_fifth_parameter():
    assert list(inspect.signature(price_call_strikes).parameters)[4] == "strikes"


def test_aggregated_error_makes_one_traced_strike_call():
    chain = synthetic_chain(
        StableModelParams.from_beta(1.7, -0.3, 0.15), 100.0, 0.01,
        maturities=(0.5, 1.0), strikes=np.linspace(80.0, 120.0, 8),
    )
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        aggregated_error(StableModelParams.from_beta(1.8, 0.0, 0.2), chain)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.name == "pricer.price_call_strikes"]
    assert [s.note for s in spans] == [len(chain.quotes)]



def _builds(node: ast.AST) -> list[str]:
    """The StableModelParams( and OptionContract( calls under node."""
    return [
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in ("StableModelParams", "OptionContract")
    ]


def test_cli_builds_models_and_contracts_in_one_place():
    # every command, curve's sweep points included, goes through the same
    # two builders, so a flag's default or a skew conversion has one copy
    tree = ast.parse(Path(stablepricer.cli.__file__).read_text())
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert _builds(functions["_params_from_args"]) == ["StableModelParams"]
    assert _builds(functions["_contract_from_args"]) == ["OptionContract"]
    assert len(_builds(tree)) == 2


def _referenced(node: ast.AST) -> list[str]:
    """The names node imports, reads or calls (not those it binds)."""
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    return []


def test_no_module_uses_the_side_aliases():
    # price handles both sides; price_call and price_put are its aliases for
    # outside callers, so only __init__ re-exports them and pricer binds them
    package = Path(stablepricer.cli.__file__).parent
    used = [
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _referenced(node)
        if name in ("price_call", "price_put")
    ]
    assert used == []


BLAS_NAMES = {"linalg", "@", "dot", "matmul", "vdot", "inner", "tensordot"}


def _blas_uses(node: ast.AST) -> list[str]:
    """The names of BLAS_NAMES that node imports, reads or calls, "@" for a
    matrix product or its augmented assignment."""
    names = _referenced(node)
    if isinstance(node, ast.Import):
        names += [part for alias in node.names for part in alias.name.split(".")]
    if isinstance(getattr(node, "op", None), ast.MatMult):
        names.append("@")
    return [name for name in names if name in BLAS_NAMES]


def test_no_module_calls_blas_or_lapack():
    package = Path(stablepricer.cli.__file__).parent
    used = [
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _blas_uses(node)
    ]
    assert used == []


def test_exports_are_the_imported_names():
    # __all__ is derived from the names bound in __init__; it holds each name
    # the submodule imports there bind, once, and none of the submodules
    init = Path(stablepricer.__file__)
    imported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(stablepricer.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in stablepricer.__all__:
        assert not isinstance(getattr(stablepricer, name), ModuleType), name
    # the function, which the benchmark's tracer wraps, not its submodule
    assert inspect.isfunction(stablepricer.calibrate)
    assert stablepricer.calibrate is sys.modules["stablepricer.calibrate"].calibrate


def test_star_import_binds_the_exports():
    # in a new interpreter, whose package has imported only what
    # `import stablepricer` imports
    env = dict(os.environ)
    src = str(Path(stablepricer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "names = {}\n"
        "exec('from stablepricer import *', names)\n"
        "print(' '.join(sorted(set(names) - {'__builtins__'})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == sorted(stablepricer.__all__)


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that the file at path imports, by name
    ("" for the package itself)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names += ["." + alias.name for alias in node.names]  # from . import x
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + node.module)
    return {
        name.removeprefix("stablepricer").lstrip(".")
        for name in names
        if name.startswith((".", "stablepricer"))
    }


def test_oracles_import_only_core():
    # the closed form and the lab check the series by other means, so
    # neither may lean on the pricer or on calibration
    package = Path(stablepricer.__file__).parent
    for name in ("reference.py", "lab.py"):
        assert _package_imports(package / name) == {"core"}, name


def test_count_lines_counts_code_only():
    # code lines 4, 8, 10, 11 and 12: the comment, the blank lines and both
    # docstrings are not code, and a string that spans lines counts on each
    source = (
        '"""Module\n\ndocstring."""\n'
        "import os  # a comment\n"
        "\n"
        "# a comment line\n"
        "\n"
        "def f():\n"
        '    """Docstring."""\n'
        '    x = """a\n'
        '    b"""\n'
        "    return x\n"
    )
    assert count_lines.code_lines(source) == 5
    assert count_lines.code_lines('class C:\n    """Doc."""\n    y = "not a docstring"\n') == 2


def test_count_lines_against_a_base(tmp_path, monkeypatch, capsys):
    # each file's count at the base and here and their difference, a file on
    # one side only counting 0 on the other, then the totals
    sides = {
        "base": {"a.py": "x = 1\n", "b.py": "y = 2\n"},
        "head": {"a.py": "x = 1\nz = 3\n", "c.py": "w = 4\n"},
    }
    for side, files in sides.items():
        package = tmp_path / side / "src" / "stablepricer"
        package.mkdir(parents=True)
        for name, source in files.items():
            (package / name).write_text(source)
    monkeypatch.setattr(count_lines, "ROOT", tmp_path / "head")
    assert count_lines.main([str(tmp_path / "base")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  base   head   diff",
        "     1      2     +1 src/stablepricer/a.py",
        "     1      0     -1 src/stablepricer/b.py",
        "     0      1     +1 src/stablepricer/c.py",
        "     2      3     +1 total",
    ]
