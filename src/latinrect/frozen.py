"""The base class of the package's immutable records."""


class Frozen:
    """An immutable record whose fields are its class's __slots__, set
    by position or keyword (from _defaults where left out) and checked
    by _validate.  Equality and hash go by class and fields.  Not a
    dataclass: importing dataclasses cost every job about 10 ms."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        extra = len(args) > len(names) or kwargs.keys() & names[:len(args)]
        if extra or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {args} {kwargs}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"
