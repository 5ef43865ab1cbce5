"""Fixtures shared by the test modules."""

import sys

import pytest

from lensbordism import numtheory


@pytest.fixture
def is_prime_calls(monkeypatch):
    """The argument of every ``is_prime`` call in the test, made through any
    module of the package that binds the name (``PrimeModulus`` calls it
    through ``numtheory``)."""
    calls = []
    real = numtheory.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "lensbordism" and getattr(module, "is_prime", None) is real:
            monkeypatch.setattr(module, "is_prime", counting_is_prime)
    return calls
