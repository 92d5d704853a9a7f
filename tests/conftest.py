import pytest

from cornerwalk.model import parse_model_text
from cornerwalk.curve import find_extrema

FIB_TEXT = "1 1 1/3\n1 -1 1/3\n-1 1 1/3\n"
ALL_FIVE_TEXT = "1 0 1/5\n0 1 1/5\n1 1 1/5\n1 -1 1/5\n-1 1 1/5\n"
DIAG_HEAVY_TEXT = "1 1 5/6\n1 -1 1/12\n-1 1 1/12\n"
BIG_JUMP_TEXT = (
    "2 1 1/9\n2 2 1/9\n2 0 1/9\n1 2 1/9\n0 2 1/9\n"
    "-1 2 1/9\n2 -1 1/9\n1 -1 1/9\n-1 1 1/9\n"
)
# asymmetric, so that a swap of the x and y sections cannot hide
LOPSIDED_TEXT = "2 0 1/4\n1 -1 1/4\n-1 1 1/4\n0 1 1/4\n"


@pytest.fixture(scope="session")
def fib():
    return parse_model_text(FIB_TEXT)


@pytest.fixture(scope="session")
def all_five():
    return parse_model_text(ALL_FIVE_TEXT)


@pytest.fixture(scope="session")
def diag_heavy():
    return parse_model_text(DIAG_HEAVY_TEXT)


@pytest.fixture(scope="session")
def big_jump():
    return parse_model_text(BIG_JUMP_TEXT)


@pytest.fixture(scope="session")
def lopsided():
    return parse_model_text(LOPSIDED_TEXT)


@pytest.fixture(scope="session")
def fib_geom(fib):
    return find_extrema(fib)


@pytest.fixture(scope="session")
def all_five_geom(all_five):
    return find_extrema(all_five)


@pytest.fixture(scope="session")
def diag_heavy_geom(diag_heavy):
    return find_extrema(diag_heavy)


@pytest.fixture(scope="session")
def big_jump_geom(big_jump):
    return find_extrema(big_jump)


@pytest.fixture(scope="session")
def lopsided_geom(lopsided):
    return find_extrema(lopsided)


# the five laws whose solver outputs tests/test_solver_pins.py pins
PIN_MODELS = ("fib", "all_five", "diag_heavy", "big_jump", "lopsided")


@pytest.fixture(params=PIN_MODELS)
def pin_geom(request):
    return request.getfixturevalue(f"{request.param}_geom")


def outcome(fun, *args) -> str:
    """repr of fun(*args), which tells -0.0 from 0.0, or the name of the
    class of the exception it raises (messages may change)."""
    try:
        return repr(fun(*args))
    except Exception as exc:
        return type(exc).__name__
