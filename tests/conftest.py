import pytest

from nertcam import SdrLayout


@pytest.fixture
def layout333():
    return SdrLayout(3, 3, 3)


@pytest.fixture
def layout444():
    return SdrLayout(4, 4, 4)

