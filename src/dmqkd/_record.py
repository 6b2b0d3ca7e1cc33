"""Record: the base of the records that `import dmqkd.cli` loads.

A record's fields are its annotated class attributes, in order, and a field's
default is its class attribute; a nested default is a record instance, which
is safe because records are immutable. Record gives what @dataclass gave:
__init__ binds fields by position or keyword and then runs the class's
__post_init__ check; __eq__ compares the fields of two records of one class;
__repr__ keeps the dataclass format `Name(field=value, ...)`. A frozen record
(the default) is hashable and refuses assignment and deletion; a subclass
declared with `frozen=False` is mutable and unhashable. replace(**changes)
builds a copy through __init__, so the checks run again.

dataclasses is not used here because importing it loads inspect, ast, dis and
tokenize, and each decorated class execs its generated methods: together most
of the command line's start-up time once numpy left it. encoding's
EncodingSymbol, PhasePair and WaveformSchedule stay dataclasses: encoding loads
only with numpy, which costs far more; the benchmark's tests call
dataclasses.replace on a PhasePair; and compile_schedule hashes one
EncodingSymbol per symbol, where a generated __hash__ beats a generic one.
"""

from __future__ import annotations


class Record:
    field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        cls.field_names = tuple(cls.__dict__.get("__annotations__", ()))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        cls, values = type(self), self.__dict__
        names = cls.field_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name in values or name not in names:
                what = "got multiple values for" if name in values else "has no"
                raise TypeError(f"{cls.__name__}() {what} field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                values[name] = getattr(cls, name)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The class's check of its fields; none by default."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.field_names))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def asdict(self) -> dict:
        """Field name -> value, in field order; nested records stay records."""
        return dict(zip(self.field_names, self._values()))

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new record is."""
        return type(self)(**{**self.asdict(), **changes})
