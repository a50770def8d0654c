"""Immutable values that compare, hash and print by their fields as frozen
dataclasses do, with nothing compiled from source text.  A subclass's own
annotations, in order, are its fields; a class attribute gives a default."""

from itertools import takewhile
from operator import attrgetter

# stores a field past __setattr__, as a frozen dataclass's __init__ does
set_field = object.__setattr__


class Value:
    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)
        # the defaults of the trailing fields that have one, in field order
        has = cls.__dict__.__contains__
        defaults = tuple(cls.__dict__[n] for n in takewhile(has, names[::-1]))[::-1]
        post = cls.__dict__.get("__post_init__")
        get = attrgetter(*names) if names else lambda v: ()
        cls.__eq__ = lambda a, b: get(a) == get(b) if b.__class__ is a.__class__ else NotImplemented
        # attrgetter of one name returns the value, not a 1-tuple
        cls.__hash__ = (lambda v: hash((get(v),))) if len(names) == 1 else lambda v: hash(get(v))

        def __init__(self, *args, **kwargs):
            missing = len(names) - len(args)
            if kwargs or not 0 <= missing <= len(defaults):
                given = {**dict(zip(names[len(names) - len(defaults):], defaults)),
                         **dict(zip(names, args)), **kwargs}
                if missing < 0 or given.keys() != set(names):
                    raise TypeError(f"{cls.__name__}() takes the fields {names}")
                args = [given[n] for n in names]
            elif missing:
                args += defaults[len(defaults) - missing:]
            for name, value in zip(names, args):
                set_field(self, name, value)
            if post:
                post(self)

        cls.__init__ = cls.__dict__.get("__init__", __init__)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
