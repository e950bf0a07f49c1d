"""Records: classes whose annotated names are their fields, in order.

``@record`` gives a class an ``__init__`` over its fields and ``__eq__`` on
the fields it compares; with ``frozen=True`` also ``__hash__`` on them and
no assignment after ``__init__``, and without it no hash. ``repr`` shows
the compared fields. Each class's methods come from one small ``exec`` of
code written for its fields, so records build and compare as fast as
dataclasses, while start-up skips ``dataclasses`` and the ``inspect`` it
imports. A record has no base record.
"""

_MISSING = object()


class field:
    """A field's ``default``, or the ``default_factory`` that makes a fresh
    one for each instance. ``compare=False`` leaves the field out of
    equality, hashing and ``repr``."""

    __slots__ = ("default", "factory", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 compare=True):
        self.default, self.factory = default, default_factory
        self.compare = compare


def _repr(self):
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self.__record_compared__) + ")"


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls=None, *, frozen=False):
    """Make ``cls`` a record: ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    ns = {"_set": object.__setattr__, "_MISSING": _MISSING}
    params, body, compared = [], [], []
    for n in names:
        f = cls.__dict__.get(n, _MISSING)
        if not isinstance(f, field):
            f = field(default=f)
        value = n
        if f.factory is not _MISSING:
            ns[f"_f_{n}"] = f.factory
            params.append(f"{n}=_MISSING")
            value = f"_f_{n}() if {n} is _MISSING else {n}"
            delattr(cls, n)  # a class attribute here slows every build
        elif f.default is not _MISSING:
            ns[f"_d_{n}"] = f.default
            params.append(f"{n}=_d_{n}")
            setattr(cls, n, f.default)
        else:
            params.append(n)
        body.append(f"_set(self, {n!r}, {value})" if frozen
                    else f"self.{n} = {value}")
        if f.compare:
            compared.append(n)
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}," for n in compared)
    theirs = "".join(f"other.{n}," for n in compared)
    src = (f"def __init__(self, {', '.join(params)}):\n"
           f" {'; '.join(body) or 'pass'}\n"
           "def __eq__(self, other):\n"
           " if other.__class__ is self.__class__:\n"
           f"  return ({mine}) == ({theirs})\n"
           " return NotImplemented\n"
           f"def __hash__(self):\n return hash(({mine}))\n")
    exec(src, ns)
    cls.__record_fields__, cls.__record_compared__ = names, tuple(compared)
    cls.__init__, cls.__eq__, cls.__repr__ = ns["__init__"], ns["__eq__"], _repr
    cls.__hash__ = ns["__hash__"] if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse_assignment
    return cls


def replace(obj, **changes):
    """A new record like ``obj`` but with the fields in ``changes``."""
    for n in obj.__record_fields__:
        if n not in changes:
            changes[n] = getattr(obj, n)
    return obj.__class__(**changes)
