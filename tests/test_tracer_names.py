"""Every name the benchmark's tracer (``perfbench/run.py --trace 1``)
reads a per-layer metric from still exists in the package, as a binding
the tracer wraps, so deleting or renaming a helper cannot silently turn
its metric into a zero."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling modules (spans, workloads) by plain name,
    # and its dataclasses look their module up in sys.modules.
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]


def _traced_names(run, spans) -> set:
    """The function and method names the per-layer metrics sum over."""
    names = set(spans.MEASURES) | {".".join(m) for m in spans.TRACED_METHODS}
    for _, _, metric in run.PER_LAYER:
        if metric.__qualname__.split(".")[0] in ("_self", "_calls"):
            names.update(metric.__closure__[0].cell_contents)
    return names


def test_the_tracer_reads_every_layer_it_names(run):
    spans = run.spans
    names = _traced_names(run, spans)
    # A few by name, so that an empty list cannot pass.
    assert {"logic.canonical_key", "logic.sort_key", "logic.p_embed",
            "validate.synthesis_violations"} <= names
    assert {f"validate.{s}" for s in run.VALIDATE_SUITES} <= names
    for name in sorted(names):
        module_name, *path = name.split(".")
        assert module_name in spans.TRACED_MODULES, name
        owner = importlib.import_module(f"bbapart.{module_name}")
        for attr in path[:-1]:
            owner = vars(owner)[attr]
        fn = vars(owner).get(path[-1])
        assert callable(fn) and not isinstance(fn, type), name
        if len(path) == 1:
            # spans.install wraps public functions defined in the module.
            assert not path[0].startswith("_"), name
            assert fn.__module__ == owner.__name__, name
