"""The benchmark tracer's hooks still resolve in the package.

``bench/tracer.py`` wraps functions, methods and cached properties of
``autodegree`` by name, so a rename or a changed decorator breaks
``bench/run.py --trace 1`` without failing any other test. This module
loads the tracer from its file and checks every name it hooks.
"""

import contextlib
import functools
import importlib
import importlib.util
import io
from pathlib import Path

from autodegree import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("autodegree_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def module(name):
    return importlib.import_module(f"autodegree.{name}")


def test_traced_functions_resolve():
    hooks = [(mod, fn) for mod, fn, _, _ in tracer.FUNCTIONS] + [("groups", "iter_isomorphisms")]
    missing = [f"{mod}.{fn}" for mod, fn in hooks if not callable(getattr(module(mod), fn, None))]
    assert missing == []


def test_traced_methods_resolve():
    missing = [
        f"{mod}.{cls}.{method}"
        for mod, cls, method, _ in tracer.METHODS
        if not callable(vars(getattr(module(mod), cls)).get(method))
    ]
    assert missing == []


def test_traced_cached_properties_resolve():
    for mod, cls, prop, _ in tracer.CACHED_PROPERTIES:
        assert isinstance(vars(getattr(module(mod), cls)).get(prop), functools.cached_property), (
            f"{mod}.{cls}.{prop} is not a functools.cached_property"
        )


def test_install_records_spans_and_uninstall_restores():
    t = tracer.Tracer()
    before = {(mod, fn): getattr(module(mod), fn) for mod, fn, _, _ in tracer.FUNCTIONS}
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compute", "--group", "S(3)", "--format", "kv"])
    finally:
        t.uninstall()
    assert code == 0
    names = {span[0] for span in t.spans}
    assert {"automorphisms.compute_aut", "degree.degree_report", "groups.aut_search"} <= names
    after = {(mod, fn): getattr(module(mod), fn) for mod, fn, _, _ in tracer.FUNCTIONS}
    assert after == before
