"""The benchmark's tracer reads cmrank methods by name (`vars(cls)[name]`,
`SPANNED_METHODS` and `FF_COUNTED` in perfbench/tracing.py), so a method
removed from the package breaks the traced pass with a KeyError.  Installing
the tracer here keeps those lookups checked with the package's own tests."""

import importlib.util
from pathlib import Path

from cmrank import cartier, ff, poly

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracing()
    original = cartier.cartier_matrix
    classes = {"DensePoly": poly.DensePoly, "FieldElement": ff.FieldElement}
    methods = dict(tracing.SPANNED_METHODS, FieldElement=tracing.FF_COUNTED)
    before = {
        (cls, name): vars(classes[cls]).get(name)
        for cls, names in methods.items()
        if cls in classes
        for name in names
    }
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        ctx = ff.field(11)
        f = poly.DensePoly.from_ints(ctx, [1, 2, 0, 3, 1])
        assert cartier.p_rank(cartier.HyperellipticModel(ctx, f)) == 1
    finally:
        uninstall()
    assert cartier.cartier_matrix is original
    assert tr.calls["cartier.p_rank"] == 1 and tr.calls["cartier.cartier_matrix"] == 1
    assert not tr.stack
    for (cls, name), method in before.items():
        assert vars(classes[cls])[name] is method, (cls, name)
