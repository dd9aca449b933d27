import pytest

from qgw import scalars


@pytest.fixture
def restore_field():
    """Put the scalar field back as it was, so that a switch to Q(i) or a new
    indeterminate made by one test does not reach the tests after it."""
    reg = scalars._REG
    saved = dict(vars(reg), names=list(reg.names))
    yield
    vars(reg).clear()
    vars(reg).update(saved)
