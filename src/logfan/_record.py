"""Records: classes whose fields are their annotations, as with `dataclasses`,
without its import and its `exec` per class.  `Record` reads a subclass's
fields and defaults once and supplies `__init__` (then `__post_init__`), `==`
within one class, the dataclass `repr`, a hash of the fields and the refusal
to assign: every record is frozen.
"""

from operator import attrgetter

# Sets a field past a frozen record's __setattr__, as records built often do
# in their own __init__.  Unlike a write into `self.__dict__`, it keeps the
# fields in the inline values that CPython reads fastest.
set_field = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*names)
        values = get if len(names) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        cls._fields, cls._values, cls.__eq__ = names, staticmethod(values), __eq__
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls.__hash__ = __hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or set(values) != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}; got "
                                f"{len(args)} values and the names {sorted(kwargs)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _refuse
