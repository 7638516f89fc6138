"""The benchmark tracer (bench/tracer.py) wraps package names from outside
the package, and the benchmark (bench/run.py) names a metric after each
check id, so a renamed or deleted name must fail here rather than in a
benchmark run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from rootheight.identities import CHECK_IDS

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
RUN = TRACER.with_name("run.py")


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


def test_bench_check_ids_match_package():
    # bench/run.py keeps its own copy so that its metric names stay put; it
    # is read here, neither imported nor edited, and must stay in step.
    tree = ast.parse(RUN.read_text())
    (expr,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["CHECK_IDS"]]
    bench_ids = eval(compile(ast.Expression(expr), str(RUN), "eval"),
                     {"__builtins__": {"tuple": tuple, "range": range}})
    assert bench_ids == CHECK_IDS


def test_scalar_products_counted_both_ways():
    # Polynomial.__rmul__ is an alias of __mul__; the tracer wraps the two
    # names apart, so 2 * p and p * 2 each count one product.  Install
    # replaces package names and Fraction.__new__, so it runs in a fresh
    # interpreter.
    script = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "from rootheight.exactalg import Polynomial\n"
        "p = Polynomial((1, 2, 3))\n"
        "left, right = 2 * p, p * 2\n"
        "print(json.dumps([t.records['exactalg.poly_mul'][0], list(left.coeffs),\n"
        "                  list(right.coeffs)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, [2, 4, 6], [2, 4, 6]]
