"""Self-tests of the shared test utilities in helpers.py."""

import pytest

from helpers import grad_check
from sggkit import autodiff as ad


def test_grad_check_rejects_bad_eps():
    x = ad.Matrix([[1.0]])
    with pytest.raises(ValueError):
        grad_check(lambda: ad.sum_all(x), [x], eps=1e-2)


def test_grad_check_requires_scalar():
    x = ad.Matrix([[1.0, 2.0]])
    with pytest.raises(ad.ShapeError):
        grad_check(lambda: ad.scale(x, 1.0), [x])
