"""Public surface: every exported name exists, removed modules stay gone."""

import importlib

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
