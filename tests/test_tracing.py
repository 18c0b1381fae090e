"""The benchmark's per-layer tracer wraps public names of ncwitt from the
outside (bench/tracing.py).  A name it cannot find is dropped from the
per-layer metrics without an error, so this test fails instead when a
change renames, inlines or removes one of them."""

import importlib.util
from pathlib import Path

import ncwitt.cdwitt
import ncwitt.rmap

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    originals = (ncwitt.cdwitt.f2_span_membership, ncwitt.rmap.r_map)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
        assert ncwitt.cdwitt.f2_span_membership is not originals[0]
    finally:
        tracer.uninstall()
    assert (ncwitt.cdwitt.f2_span_membership, ncwitt.rmap.r_map) == originals
