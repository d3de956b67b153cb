"""Record classes with the generated methods of @dataclass, without it.

Importing dataclasses imports inspect, and with it ast and dis: about
0.9 MB of resident memory in every process that loads the package, for
record classes that need only __init__, __repr__, __eq__ and, when
frozen, __hash__ and read-only fields.
"""

from operator import attrgetter


def record(cls=None, *, frozen: bool = False):
    """@dataclass(frozen=frozen) for classes whose fields are their own
    annotations, in order, a class attribute giving a field's default.

    __init__ takes the fields positionally or by name and then calls
    __post_init__ if the class has one; a frozen class's __post_init__
    sets fields with object.__setattr__.  __repr__ and __eq__ read the
    fields; a method the class body defines is kept.  A frozen record
    hashes by its fields; another is unhashable unless it defines
    __hash__.
    """

    def wrap(cls):
        body = cls.__dict__
        names = tuple(body.get("__annotations__", ()))
        defaults = {n: body[n] for n in names if n in body}
        # __init__ is generated source, as in dataclasses: a generic
        # *args loop costs about twice as much per instance
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        assign = "object.__setattr__(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
        lines = [assign.format(n) for n in names]
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self{params}):\n    " + "\n    ".join(lines or ["pass"]), namespace)
        get = attrgetter(*names) if names else (lambda self: ())
        fields = get if len(names) != 1 else (lambda self: (get(self),))

        def __repr__(self):
            inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
            return f"{type(self).__qualname__}({inner})"

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return fields(self) == fields(other)

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        for name, method in (("__repr__", __repr__), ("__eq__", __eq__)):
            if name not in body:
                setattr(cls, name, method)
        # a body that defines __eq__ alone gets __hash__ = None from Python
        explicit_hash = "__hash__" in body and not (body["__hash__"] is None and "__eq__" in body)
        if not explicit_hash:
            cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
        if frozen:
            cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        return cls

    return wrap if cls is None else wrap(cls)
