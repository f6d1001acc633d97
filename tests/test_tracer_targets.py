"""The layer tracer in perfbench/tracer.py wraps package attributes by
name; every name it wraps must still exist, or a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

from qfibonacci.polyring import MultiPoly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_wrapped_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [*tracer.SPANS, *tracer.LEAVES, ("blockwords", "iter_words")]
    missing = [f"{m}.{f}" for m, f in targets
               if not hasattr(importlib.import_module(f"qfibonacci.{m}"), f)]
    missing += [f"MultiPoly.{attr}" for attr in tracer.POLY
                if not hasattr(MultiPoly, attr)]
    assert not missing
