"""Every domain error liqcov defines survives a pickle round trip, as it
must to cross a process boundary."""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import liqcov
from liqcov.linalg import SingularMatrixError
from liqcov.marketdata import CsvParseError

# Constructor arguments of the errors whose constructor is their own.
CUSTOM_ARGS = {
    SingularMatrixError: [("Sigma",), ("Sigma", "non-finite entries")],
    CsvParseError: [(7, "bad close 'x'")],
}


def value_errors():
    classes = set()
    for info in pkgutil.iter_modules(liqcov.__path__):
        module = importlib.import_module(f"liqcov.{info.name}")
        classes.update(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, ValueError)
            and obj.__module__.startswith("liqcov."))
    return sorted(classes, key=lambda cls: (cls.__module__, cls.__name__))


def examples():
    for cls in value_errors():
        if cls.__init__ is ValueError.__init__:
            yield pytest.param(cls("window too short"), id=cls.__name__)
        else:
            assert cls in CUSTOM_ARGS, f"{cls.__name__} needs example arguments"
            for i, args in enumerate(CUSTOM_ARGS[cls]):
                yield pytest.param(cls(*args), id=f"{cls.__name__}-{i}")


def test_every_custom_constructor_is_covered():
    assert set(CUSTOM_ARGS) <= set(value_errors())
    assert len(value_errors()) >= 6


@pytest.mark.parametrize("exc", list(examples()))
def test_value_errors_round_trip_through_pickle(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)
    assert copy.args == exc.args
