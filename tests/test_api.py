import importlib
import importlib.util
import pkgutil
from pathlib import Path

import stochheat

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    """``TRACED`` of the benchmark's span tracer, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_public_and_traced_names_resolve():
    # every __all__ entry of every module exists
    for info in pkgutil.iter_modules(stochheat.__path__):
        mod = importlib.import_module("stochheat." + info.name)
        missing = [n for n in getattr(mod, "__all__", ())
                   if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
    # the package's re-exports import as a whole
    ns = {}
    exec("from stochheat import *", ns)
    assert "GaussianCoefficientMap" in ns
    # every (module, attribute path) that `perfbench/run.py --trace 1`
    # patches is still there to patch
    for modname, path in _traced():
        obj = importlib.import_module("stochheat." + modname)
        for part in path.split("."):
            assert hasattr(obj, part), (modname, path)
            obj = getattr(obj, part)
        assert callable(obj), (modname, path)
