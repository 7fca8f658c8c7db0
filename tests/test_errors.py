"""Every MorphfinError survives pickling, as an error raised in a worker process must."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from morphfin import errors

_text = st.text(max_size=30)
_float = st.floats()  # nan and the infinities too
# each error type with drawn constructor arguments
ERRORS = {
    errors.MorphfinError: st.builds(errors.MorphfinError, _text),
    errors.DomainError: st.builds(errors.DomainError, _text),
    errors.ConfigError: st.builds(errors.ConfigError, _text, st.none() | _text),
    errors.UnreachableConfigurationError: st.builds(errors.UnreachableConfigurationError,
                                                    _float),
    errors.SimulationFault: st.builds(errors.SimulationFault, _float)
    | st.builds(errors.SimulationFault, _float, _text),
    errors.UndefinedCotError: st.builds(errors.UndefinedCotError, _text),
    errors.InsufficientDataError: st.builds(errors.InsufficientDataError, _text),
    errors.TelemetryFormatError: st.builds(errors.TelemetryFormatError, _text,
                                           st.none() | st.integers()),
}


def _subclasses(cls):
    return {cls}.union(*map(_subclasses, cls.__subclasses__()))


def test_every_error_type_is_drawn():
    package = {cls for cls in _subclasses(errors.MorphfinError)
               if cls.__module__.startswith("morphfin")}
    assert package == set(ERRORS)


@given(st.one_of(*ERRORS.values()), st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_an_error_keeps_its_type_message_and_attributes_through_pickle(error, protocol):
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    # repr: a nan attribute equals itself, and -0.0 differs from 0.0
    assert repr(vars(copy)) == repr(vars(error)) and repr(copy.args) == repr(error.args)
