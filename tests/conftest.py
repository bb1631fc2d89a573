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


class OpaqueState:
    """A base-orbit state that refuses to be read: float(), np.asarray and
    arithmetic all raise, so np.size(state) does too."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner

    def __array__(self, *args, **kwargs):
        raise TypeError("a base-orbit state is opaque")


@pytest.fixture
def opaque_base_states(monkeypatch):
    """A switch that, once called, makes `SkewProduct.base_state` return an
    OpaqueState and `SkewProduct.base_rows` take and return one, around
    the real methods.  The switch returns the list of calls the patch
    sees, "base_state" or "base_rows" each, so a test can count where
    theta entered an orbit."""
    real_state = maps.SkewProduct.base_state
    real_rows = maps.SkewProduct.base_rows

    def base_state(skew, theta):
        calls.append("base_state")
        return OpaqueState(real_state(skew, theta))

    def base_rows(skew, state, n):
        assert type(state) is OpaqueState, type(state)
        calls.append("base_rows")
        rows, state = real_rows(skew, state.inner, n)
        return rows, OpaqueState(state)

    def switch_on():
        monkeypatch.setattr(maps.SkewProduct, "base_state", base_state)
        monkeypatch.setattr(maps.SkewProduct, "base_rows", base_rows)
        return calls

    calls = []
    return switch_on
