"""The benchmark's tracer (perfbench/tracing.py) against the current package.

The tracer wraps posrec callables by module and attribute name, so a renamed
or deleted target breaks the benchmark; this catches it in seconds.
"""

import importlib.util
import os

import numpy as np

from posrec import attention
from posrec import numeric as nm

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it(tmp_path):
    tracing = _load_tracing()
    targets = [("posrec.numeric", op) for op in tracing.numeric_ops()]
    targets += [(module, path) for module, path, _ in tracing.TARGETS]
    assert ("posrec.numeric", "attend") in targets

    def current():
        return [getattr(*tracing._resolve(module, path)) for module, path in targets]

    before = current()
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert all(now is not old for now, old in zip(current(), before))
        q = nm.tensor(np.ones((1, 1, 2, 2)))
        attention.scaled_dot_attention(q, q, q, np.ones((1, 1, 2, 2), dtype=bool))
    finally:
        tracer.uninstall()
    assert all(now is old for now, old in zip(current(), before))
    names = [span[0] for span in tracer.spans]
    assert names == ["numeric.tensor", "numeric.attend", "attention.scaled_dot_attention"]
