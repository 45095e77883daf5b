"""Class-strict NamedTuple records.

A NamedTuple is a tuple: left alone, ``Specialization(COUNT, 3) == ("count", 3)``
holds and ``Part.integer(2) * 2`` is a plain tuple.  ``strict`` makes a record
equal only to a record of its own class and makes tuple arithmetic and ordering
raise TypeError; operators the class defines itself are kept.  The hash stays
the hash of the field tuple.
"""


def _refuse(self, *_):
    raise TypeError(f"{type(self).__name__} is a record, not a tuple")


def strict(cls):
    cls.__eq__ = lambda self, other: other.__class__ is cls and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not cls.__eq__(self, other)
    cls.__hash__ = tuple.__hash__
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__lt__", "__le__", "__gt__", "__ge__"):
        if name not in vars(cls):
            setattr(cls, name, _refuse)
    return cls
