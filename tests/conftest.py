import pytest
from hypothesis import settings

from cubicmonodromy import monodromy

# every run draws the same property-test examples and keeps no example database
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def claim_results():
    """One shared run of the full claim suite (budget 40, seed 0)."""
    return monodromy.run_claim_suite(budget=40, seed=0)
