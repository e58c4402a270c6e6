import pytest

from linnik import density, final, tables


@pytest.fixture(scope="session")
def table_rows():
    """Certified rows of every zero-free-region table, generated once."""
    cache = {}
    for n in (2, 3, 4, 5, 6, 8, 9, 10, 11):
        rows, audit = tables.generate_table(n)
        cache[n] = rows
    rows7, _ = tables.gen_table7(precomputed=(cache[4], cache[5], cache[6]))
    cache[7] = rows7
    return cache


@pytest.fixture(scope="session")
def density_records():
    return density.gen_density_tables()


@pytest.fixture(scope="session")
def final_report():
    return final.verify_all()
