"""The benchmark's span names still name forestnets functions.

``perfbench/spans.py`` wraps each ``module.function`` of its ``WRAPPED``
list by name, and counts network builds through the ``n`` argument of
``Network.__init__``.  A rename or removal in forestnets would otherwise
show only when the benchmark runs.  This test reads that file and changes
nothing in it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from forestnets.network import Network

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> list[str]:
    """The ``WRAPPED`` list of spans.py, parsed from its source."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED list in {SPANS.name}")


@pytest.mark.parametrize("name", _wrapped())
def test_wrapped_function_exists(name):
    mod_name, attr = name.split(".")
    module = importlib.import_module("forestnets." + mod_name)
    assert callable(getattr(module, attr, None)), f"forestnets.{name} is gone"


def test_network_build_takes_n():
    assert "n" in inspect.signature(Network.__init__).parameters
