"""Immutable records, the base of the laws and result types.

They behave like frozen dataclasses, without importing ``dataclasses``: it
loads ``inspect`` with it, which together would cost as much again as the
rest of ``import twoside.cli``.
"""

from __future__ import annotations


class Record:
    """Base of an immutable value class.

    The fields are the annotations of the record classes in the MRO, the
    base's first. A field that a class sets as a plain class attribute is
    fixed: it is no constructor argument and is not in the repr, but it
    counts for equality and the hash. The constructor takes the other fields
    in order, then runs ``__post_init__`` if the class has one. Records are
    equal when of the same class with equal fields; assigning or deleting an
    attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: dict[str, str] = {}
        for base in reversed(cls.__mro__):
            if issubclass(base, Record):
                fields.update(base.__dict__.get("__annotations__", {}))
        args = [name for name in fields if not hasattr(cls, name)]
        mine, theirs = ("".join(f"{who}.{name}," for name in fields) for who in ("self", "other"))
        body = "".join(f"\n _set(self, {name!r}, {name})" for name in args)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        # generated once per class, as dataclasses does: a loop over the
        # field names would make the hash, which every table lookup takes,
        # several times slower
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(args)}):{body or ' pass'}\n"
             "def __eq__(self, other):\n"
             f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
             " return NotImplemented\n"
             f"def __hash__(self): return hash(({mine}))\n",
             {"_set": object.__setattr__}, namespace)
        namespace["__init__"].__annotations__ = {**{n: fields[n] for n in args}, "return": None}
        for name, fn in namespace.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls._repr_fields = tuple(args)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
