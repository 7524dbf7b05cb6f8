"""The benchmark's lookups into the program still resolve.

``perfbench/tracer.py`` wraps every figure driver its ``FIGURE_DRIVERS``
table names, found by ``getattr`` on ``repro.core.experiments``, in
every analyze worker, untraced runs included.  A cleanup that deletes
one of those names breaks the benchmark before anything else notices;
these tests fail first.  The tracer is only loaded, never changed.
"""

import importlib.util
from pathlib import Path

from repro.core import experiments as ex

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def figure_drivers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIGURE_DRIVERS


def test_every_figure_driver_is_a_callable_of_experiments():
    for figure, name in figure_drivers().items():
        assert callable(getattr(ex, name, None)), f"{figure}: no experiments.{name}"


def test_figure_drivers_name_every_figure_of_the_table():
    assert set(figure_drivers()) == set(ex.FIGURES)
