"""The immutable record base of burnkit's result and input types.

A subclass lists its fields as class annotations, in order, with optional
defaults, as a frozen dataclass does.  The base gives it what such a
dataclass would: construction by position or keyword, then
``__post_init__``; ``__match_args__``; field-wise ``==`` and ``hash``; a
``repr`` of the form ``Name(field=value, ...)``; and ``AttributeError`` on
assignment or deletion.  Nothing is generated or compiled per class: a
subclass costs one read of its annotations, which is why burnkit's import
does not pay for ``dataclasses``.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls.__match_args__ = fields
        cls._names = frozenset(fields)
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        # the field values as a tuple, as a dataclass compares and hashes them
        cls._values = (attrgetter(*fields) if len(fields) > 1
                       else staticmethod(lambda record: tuple(getattr(record, f) for f in fields)))

    def __init__(self, *args, **kwargs):
        # each field by object.__setattr__, in field order, as a dataclass
        # does: filling __dict__ directly would lose CPython's fast reads
        fields = self.__match_args__
        if not args and kwargs.keys() == self._names:
            for name in fields:
                _set(self, name, kwargs[name])
        else:
            if kwargs or len(args) != len(fields):
                args = self._bind(args, kwargs)
            for name, value in zip(fields, args):
                _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values in order, bound as a signature of the fields with
        their defaults would bind them, or the TypeError it would raise."""
        fields, call = cls.__match_args__, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(
                f"{call} takes {len(fields) + 1} positional arguments but {len(args) + 1} were given"
            )
        rest = fields[len(args):]
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name not in rest:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        values = [*args, *(kwargs.get(name, cls._defaults.get(name, _MISSING)) for name in rest)]
        missing = [repr(name) for name, value in zip(fields, values) if value is _MISSING]
        if missing:
            raise TypeError(f"{call} missing required arguments: {', '.join(missing)}")
        return values

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
