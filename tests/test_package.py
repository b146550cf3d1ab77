"""The package surface: every public name resolves, and dynamics loads on use."""

import pytest

import consultmarket


def test_every_public_name_resolves():
    for name in consultmarket.__all__:
        assert getattr(consultmarket, name) is not None, name


def test_dynamics_names_import_from_the_package():
    from consultmarket import simulate, sweep

    assert callable(simulate) and callable(sweep)


def test_dir_lists_every_public_name():
    assert set(consultmarket.__all__) <= set(dir(consultmarket))


def test_dynamics_names_are_looked_up_not_cached():
    import consultmarket.dynamics

    assert consultmarket.simulate is consultmarket.dynamics.simulate
    assert "simulate" not in vars(consultmarket)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        consultmarket.no_such_name


def test_scenario_config_is_one_class():
    import consultmarket.dynamics
    import consultmarket.scenarios

    assert consultmarket.ScenarioConfig is consultmarket.dynamics.ScenarioConfig
    assert consultmarket.ScenarioConfig is consultmarket.scenarios.ScenarioConfig
