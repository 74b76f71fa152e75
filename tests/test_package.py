"""The package loads its modules on first use."""

import importlib

import pytest

import aspi
from conftest import modules_after


def test_import_loads_no_module_and_no_numpy():
    loaded = modules_after("import aspi")
    assert {m for m in loaded if m.partition(".")[0] in ("aspi", "numpy")} == {"aspi"}


def test_a_name_loads_its_module_and_what_that_module_imports():
    loaded = modules_after("import aspi; aspi.read_stack")
    assert {"aspi.stack_io", "aspi.errors", "numpy"} <= loaded
    assert not loaded & {"aspi.forward_sim", "aspi.calibration", "aspi.reconstructor",
                         "aspi.cli", "concurrent.futures"}


def test_every_export_is_the_object_its_module_defines():
    wrong = [name for name in aspi.__all__
             if getattr(aspi, name)
             is not getattr(importlib.import_module(f"aspi.{aspi._MODULE_OF[name]}"), name)]
    assert not wrong, wrong


def test_star_import_and_dir():
    names = {}
    exec("from aspi import *", names)
    assert set(aspi.__all__) <= set(names)
    assert {*aspi.__all__, "__version__"} <= set(dir(aspi))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        aspi.no_such_name
    assert not hasattr(aspi, "no_such_name")
