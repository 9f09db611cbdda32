"""Structural checks on the code.

The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.
The tracer wraps package functions by module attribute and reads the strike
count of each price_call_strikes call from its fifth positional argument or
its ``strikes`` keyword; a renamed function or a moved parameter would leave
its per-layer metrics empty.  These tests only read perfbench.

The CLI builds every model and contract in one place each, and no module
calls price_call or price_put, the side-named aliases of price.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

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
