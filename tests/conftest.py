import pytest

from linnik import density, final, tables


@pytest.fixture(scope="session")
def table_rows():
    """Certified rows of every zero-free-region table."""
    return {n: tables.generate_table(n)[0] for n in range(2, 12)}


@pytest.fixture
def fresh_tables():
    """An empty table memo before and after the test, for tests that patch
    the kernel or the data: rows certified under a patch must not leak out,
    and rows certified earlier must not hide the patch."""
    tables._certify.cache_clear()
    yield
    tables._certify.cache_clear()


@pytest.fixture(scope="session")
def density_records():
    return density.gen_density_tables()


@pytest.fixture(scope="session")
def final_report():
    return final.verify_all()
