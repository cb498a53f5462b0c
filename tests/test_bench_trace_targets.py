"""The benchmark's tracer must still find every name it wraps in newsnet.

`bench/tracer.py` patches module and class attributes by name; a rename or
deletion in the package would silently drop a span from the benchmark. This
check runs with the package's own tests; `python3 -m pytest bench` repeats it
among the slower benchmark tests.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    traced = tracer.Tracer("targets").install()
    try:
        assert traced.missing == []
    finally:
        traced.uninstall()
