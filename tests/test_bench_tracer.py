"""The benchmark tracer (bench/tracer.py) wraps package names from outside
the package, so a renamed or deleted name must fail here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracer = load_tracer()
    for module in tracer.MODULES:
        importlib.import_module(f"rootheight.{module}")
    for module, path, name in tracer.WRAPPED:
        # Tracer.install looks each name up the same way: attributes down to
        # the owner, then the owner's own __dict__.
        owner = importlib.import_module(f"rootheight.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module}.{path} ({name})"


def test_context_cache_info():
    from rootheight.exactalg import _context

    assert isinstance(_context.cache_info().misses, int)
