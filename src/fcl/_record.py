"""Frozen records for fcl's plain value types, without `dataclasses`.

Importing `dataclasses` loads `inspect`, `ast`, `dis`, `tokenize` and
more, about 12 ms of a CLI call's start-up, only to declare records.  So
every record outside `spectra` is a `__slots__` class on `Record`.
`spectra` alone keeps dataclasses: perfbench's tests call
`dataclasses.replace` on its `CriticalReport`.
"""


class Record:
    """A frozen record whose fields are the subclass's `__slots__`, in order.

    Fields are given by position or keyword; `_defaults` maps a field to
    its default.  `__init__` sets the fields, then calls `__post_init__`,
    which may convert or check them with `object.__setattr__`.  Records
    of one class are equal when their fields are, and hash by them; any
    assignment raises AttributeError.  Copy and pickle rebuild a record
    from its fields.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated field {key!r}")
            values[key] = value
        for field in fields:
            if field in values:
                value = values[field]
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _fields(self) -> tuple:
        # from a list, not a generator: tuple() of a generator allocates a
        # new tuple and shrinks it, so each hash left one more 2-tuple on
        # the interpreter's free list (up to its 2000 entries), 0.1 MB of
        # peak RSS on the `algebraic_rr0` benchmark's memo lookups
        return tuple([getattr(self, field) for field in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        return type(self), self._fields()
