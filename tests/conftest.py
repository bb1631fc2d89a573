import pytest

from fiberdyn import maps


@pytest.fixture(scope="session")
def logistic():
    return maps.logistic_map()


@pytest.fixture(scope="session")
def logistic_seq(logistic):
    return maps.constant_sequence(logistic)


@pytest.fixture(scope="session")
def viana():
    return maps.viana_skew()


@pytest.fixture(scope="session")
def twowell():
    return maps.twowell_map()


# Clouds of 100 points: 1 and 2 rows per block, and the default's 163
BLOCK_ROWS = [1, 2, maps._BLOCK_POINTS // 100]


@pytest.fixture(params=BLOCK_ROWS, ids=lambda r: f"rows{r}")
def block_rows(request, monkeypatch):
    """Rows per block of a 100-point cloud in the cloud kernels."""
    rows = request.param
    if rows * 100 != maps._BLOCK_POINTS:
        monkeypatch.setattr(maps, "_BLOCK_POINTS", rows * 100)
    assert maps.rows_per_block(100) == rows
    return rows
