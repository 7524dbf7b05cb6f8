"""Every script under ``examples/`` imports and exposes a callable ``main``.

The examples drive the public API end to end, but they take minutes to
run, so the suite only loads them: that executes each module body (its
imports and definitions) without calling ``main()``, which every script
guards under ``if __name__ == "__main__"``.  An API deletion or rename
that leaves an example behind fails here instead of on a reader's
first run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
