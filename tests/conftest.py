import pytest

import zetacorr as z


@pytest.fixture(scope="session")
def mangoldt_small():
    return z.sieve_mangoldt(100_000)


@pytest.fixture(scope="session")
def mangoldt_medium():
    """Enough for sigma = 2 series at 1e-3 tolerance (dip scans, main terms)."""
    return z.sieve_mangoldt(6_000_000)


@pytest.fixture(scope="session")
def mangoldt_large():
    """Enough for the tight cross-check tolerances of the acceptance suite."""
    return z.sieve_mangoldt(40_000_000)


@pytest.fixture(scope="session")
def zero_table():
    return z.load_zeros(z.bundled_zeros_path())


@pytest.fixture(scope="session")
def weight_default():
    return z.gaussian_triplet(20.0, 2.0)


@pytest.fixture()
def tiny_zeros(tmp_path):
    path = tmp_path / "tiny_zeros.txt"
    # the first four ordinates: T = 30 reads the first three, and the fourth
    # lets the table cover that T
    path.write_text("14.134725\n21.022040\n25.010858\n30.424876\n")
    return z.load_zeros(path)
