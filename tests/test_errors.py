"""Typed solver errors."""

import pickle
from pathlib import Path

import pytest

from pnpns import errors


def all_error_types(base=errors.PnpnsError):
    out = [base]
    for sub in base.__subclasses__():
        out.extend(all_error_types(sub))
    return out


@pytest.mark.parametrize("error_type", all_error_types(), ids=lambda t: t.__name__)
def test_pickle_round_trip(error_type):
    # a worker process hands its failure to the parent by pickling it
    args = ("solve stalled", 7, 1.5e-3) if error_type is errors.NoConvergenceError else ("bad",)
    exc = error_type(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is error_type
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def package_source_without_errors_module() -> str:
    package = Path(errors.__file__).parent
    return "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                     if path.name != "errors.py")


@pytest.mark.parametrize("error_type", all_error_types(), ids=lambda t: t.__name__)
def test_every_error_type_is_constructed_by_the_package(error_type):
    # a type whose last raiser left the package would outlive it
    name = error_type.__name__
    assert f"{name}(" in package_source_without_errors_module(), (
        f"no module of the package outside errors.py constructs {name}")
