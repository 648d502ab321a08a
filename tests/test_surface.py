"""The public surface: every exported name resolves, and the names taken
out of the package stay out."""

import importlib
import inspect
import pkgutil

import pytest

import weakcorr

MODULES = ["weakcorr"] + [
    f"weakcorr.{info.name}"
    for info in pkgutil.iter_modules(weakcorr.__path__)
    if info.name != "__main__"  # importing it runs the command line
]

# Names no module may define or export any more.
REMOVED = {
    "weakcorr": ["AncillaPair", "PostselectionTerm", "reconstruct_element"],
    "weakcorr.cli": ["convey", "dump_state"],
    "weakcorr.conveyance": ["AncillaPair", "OUTCOME_TOL"],
    "weakcorr.estimator": ["PostselectionTerm", "reconstruct_element"],
    "weakcorr.pointer": ["POSTSELECTION_TOL"],
}
REMOVED_METHODS = {
    "DeviceTable": ["scope", "projector", "shift_digit"],
    "BranchState": ["branches", "assemble"],
    "CorrelationReport": ["per_k"],
}
REMOVED_PARAMETERS = {"bell_state": ["variant"], "broadcast": ["variant"]}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_removed(name):
    module = importlib.import_module(name)
    for item in REMOVED[name]:
        assert not hasattr(module, item), item
        assert item not in getattr(module, "__all__", ()), item


def test_removed_methods_and_parameters_stay_removed():
    for cls, methods in REMOVED_METHODS.items():
        assert [m for m in methods if hasattr(getattr(weakcorr, cls), m)] == [], cls
    for fn, params in REMOVED_PARAMETERS.items():
        assert not set(params) & set(inspect.signature(getattr(weakcorr, fn)).parameters), fn
