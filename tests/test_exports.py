"""Public surface: every exported name exists, removed modules stay gone."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kph


def test_every_exported_name_resolves():
    missing = [name for name in kph.__all__ if not hasattr(kph, name)]
    assert missing == []
    assert len(set(kph.__all__)) == len(kph.__all__)


def test_graph_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kph.graphs")


@pytest.mark.parametrize("name", [
    "FeatureVector", "build_feature_vectors", "score_apinc", "score_binary_inclusion",
    "score_clarkede", "score_weedsprec", "_check_universe", "_ranked",
])
def test_per_pair_scoring_layer_is_gone(name):
    assert name not in kph.__all__
    assert not hasattr(kph, name)
    assert not hasattr(kph.scoring, name)



@pytest.mark.parametrize("name", [
    "brute_force_optimal_kph", "BRUTE_FORCE_MAX_KPS", "_forest_structures", "_set_partitions",
    "_FOREST_CACHE",
])
def test_brute_force_oracle_is_gone(name):
    # The exhaustive optimum lives on as a test oracle in tests/oracles.py.
    assert name not in kph.__all__
    assert not hasattr(kph, name)
    assert not hasattr(kph.evaluation, name)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports kph from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


# `kph eval`, --help and --version run on these modules alone.
@pytest.mark.parametrize("statement", ["import kph", "import kph.core", "import kph.errors",
                                       "import kph.cli", "import kph.io", "import kph.evaluation"])
def test_package_root_loads_no_numpy_and_sets_no_variable(statement):
    run_fresh(f"import os, sys\nbefore = dict(os.environ)\n{statement}\n"
              "loaded = {'numpy', 'kph.scoring', 'kph.construction'} & set(sys.modules)\n"
              "assert not loaded, loaded\n"
              "assert dict(os.environ) == before\n")


def test_importing_the_cli_sets_no_variable():
    run_fresh("import os\nbefore = dict(os.environ)\nimport kph.cli\n"
              "assert dict(os.environ) == before\n")


def test_exported_names_are_their_home_modules_objects():
    # Names are read from the package first, so each is resolved lazily.
    run_fresh("import importlib, kph\n"
              "exported = {name: getattr(kph, name) for name in kph.__all__}\n"
              "found = set()\n"
              "for module in ('core', 'errors', 'scoring', 'construction', 'evaluation', 'io'):\n"
              "    home = importlib.import_module('kph.' + module)\n"
              "    for name, obj in exported.items():\n"
              "        if hasattr(home, name):\n"
              "            assert getattr(home, name) is obj, (module, name)\n"
              "            found.add(name)\n"
              "assert found == set(kph.__all__) - {'__version__'}, set(kph.__all__) - found\n")


def test_star_import_and_dir_list_every_exported_name():
    run_fresh("import kph\n"
              "assert set(kph.__all__) <= set(dir(kph)), set(kph.__all__) - set(dir(kph))\n"
              "ns = {}\n"
              "exec('from kph import *', ns)\n"
              "assert set(kph.__all__) <= set(ns), set(kph.__all__) - set(ns)\n")


def test_unknown_attribute_is_an_attribute_error_naming_the_package():
    run_fresh("import sys, kph\n"
              "try:\n"
              "    kph.no_such_name\n"
              "except AttributeError as e:\n"
              "    assert str(e) == \"module 'kph' has no attribute 'no_such_name'\", e\n"
              "else:\n"
              "    raise AssertionError('no AttributeError')\n"
              "assert 'numpy' not in sys.modules\n")
