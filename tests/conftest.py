import numpy as np
import pytest

from algmech import euclidean, load_spec, planar_body, robotic_leg, snakeboard, suslov


@pytest.fixture(scope="session")
def planar():
    return planar_body()


@pytest.fixture(scope="session")
def leg():
    return robotic_leg()


@pytest.fixture(scope="session")
def board():
    return snakeboard()


@pytest.fixture(scope="session")
def flat2():
    return euclidean(2)


@pytest.fixture(scope="session")
def top():
    """Unconstrained rigid body on the full three-dimensional algebra."""
    return suslov((1.0, 2.0, 3.0), (0, 1, 2))


@pytest.fixture(scope="session")
def unicycle():
    """A rank-2 distribution of R^3 whose ambient metric moves with x and th."""
    return load_spec({
        "name": "unicycle", "base": ["x", "y", "th"], "fiber": 2, "mode": "embedded",
        "ambient": {"metric": [["1 + x^2", "0", "0"], ["0", "2", "0"], ["0", "0", "2 + cos(th)"]]},
        "distribution": [["cos(th)", "sin(th)", "x"], ["0", "y", "1"]],
        "chart": {"box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "th": [-3.0, 3.0]}},
    })


@pytest.fixture(scope="session")
def all_builtins(planar, leg, board, flat2, top):
    return [planar, leg, board, flat2, top]


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
