import pytest

from gascap import build_formulation, coeff_table, reference_instance


@pytest.fixture(scope="session")
def instance():
    return reference_instance()


@pytest.fixture(scope="session")
def table(instance):
    return coeff_table(instance)


@pytest.fixture(scope="session")
def qubo(instance, table):
    return build_formulation(instance, "qubo", 1.0, table)


@pytest.fixture(scope="session")
def hubo_asc(instance, table):
    return build_formulation(instance, "hubo-asc", 1.0, table)


@pytest.fixture(scope="session")
def hubo_desc(instance, table):
    return build_formulation(instance, "hubo-desc", 1.0, table)
