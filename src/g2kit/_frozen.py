"""The one immutable base of g2kit's value types."""

_set = object.__setattr__


def _rebuild(cls, values):
    """An instance of cls with its slots filled from values, in slot order,
    without calling cls.__init__."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(obj, name, value)
    return obj


class Frozen:
    """A record over its subclass's __slots__, filled once in their order,
    by position or by name, and never assigned again."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields"
                            f" but {len(args)} were given")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} got an unexpected field "
                            f"{next(iter(kwargs))!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the slots as they are: a
        # subclass's __init__ may take other arguments than its slots
        return _rebuild, (type(self),
                          tuple(getattr(self, n) for n in self.__slots__))
