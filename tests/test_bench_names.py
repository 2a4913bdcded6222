"""The benchmark's hard-coded names of traced functions must exist in sschain.

The bench tracer skips a qualname it cannot find, and its hooks are looked up
by name, so a renamed or removed function would zero a per-layer counter
without an error.  This reads ``bench/worker.py`` as text and checks every
such name against the package.
"""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

from sschain import kernels as K

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
QUALNAME = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$")


def _tree():
    return ast.parse(WORKER.read_text(encoding="utf-8"))


def _function(name):
    [fn] = [n for n in _tree().body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _call_args(node, attr):
    return [s for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr for a in n.args for s in _strings(a)]


def _hook_names():
    return sorted({s for s in _strings(_function("make_hooks")) if QUALNAME.match(s)})


def _step_functions():
    [node] = [n for n in _tree().body if isinstance(n, ast.Assign)
              and any(getattr(t, "id", None) == "STEP_FUNCTIONS" for t in n.targets)]
    return _strings(node)


def _resolve(qualname):
    layer, *rest = qualname.split(".")
    return functools.reduce(getattr, rest, importlib.import_module(f"sschain.{layer}"))


def test_the_worker_names_some_functions_of_each_kind():
    assert len(_hook_names()) >= 10
    assert len(_step_functions()) == 4
    assert _call_args(_function("layer_report"), "fids")
    assert set(_call_args(_function("layer_report"), "fids_named")) == {
        "build_row", "row", "row_cumsum", "absorbing"}


@pytest.mark.parametrize("qualname", sorted(
    set(_hook_names()) | set(_step_functions())
    | set(_call_args(_function("layer_report"), "fids"))))
def test_traced_qualname_resolves_to_a_function(qualname):
    # the tracer wraps plain functions only, so the name must resolve to one
    assert inspect.isfunction(_resolve(qualname)), qualname


@pytest.mark.parametrize("attr", _call_args(_function("layer_report"), "fids_named"))
def test_kernel_method_named_by_the_worker_exists(attr):
    assert inspect.isfunction(getattr(K.Kernel, attr))
