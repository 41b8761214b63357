"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def recorded(monkeypatch):
    """recorded(owner, name) wraps owner.name for one test and returns
    the list of each call's positional arguments, as a tuple, in call
    order; the wrapped callable still does the work.  On a class, a
    method's arguments start with the instance."""
    def wrap(owner, name):
        calls, real = [], getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls
    return wrap
