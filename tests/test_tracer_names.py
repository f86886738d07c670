"""The benchmark tracer patches package names; a rename must fail here, not
only in a traced benchmark run."""

import importlib
import inspect
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_names_resolve():
    spanned = runpy.run_path(str(TRACER))["SPANNED_FUNCTIONS"]
    assert spanned
    for mod_name, attr, _span in spanned:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)

    from wiretap import optimize, qcore

    # Wrapped as traced_search(x0, objective, *args, **kwargs).
    params = list(inspect.signature(optimize._coordinate_search).parameters)
    assert params[:2] == ["x0", "objective"]
    assert callable(qcore.DensityOperator.clamped)
    assert isinstance(qcore.LabeledSpace.dim, property)
