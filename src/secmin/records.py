"""Record, the immutable tuple base of the result records.  A subclass names its fields in its
header, class BandGapRecord(Record, fields="n gap witness_prime_power"), and gets one read-only
property per field; no code is compiled per class.  _make and _replace skip a subclass __new__."""

from operator import itemgetter


class Record(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if fields is not None:
            cls._fields = tuple(fields.split())
            for i, name in enumerate(cls._fields):
                setattr(cls, name, property(itemgetter(i), doc=f"Field {i} of {cls.__name__}."))

    def __new__(cls, *args, **kwargs):
        if kwargs:  # the fields after the positional ones, by name
            try:
                args += tuple(map(kwargs.pop, cls._fields[len(args):]))
            except KeyError as missing:
                raise TypeError(f"{cls.__name__} is missing the field {missing}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__} got unexpected or repeated fields {', '.join(kwargs)}")
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        return tuple.__new__(cls, args)

    @classmethod
    def _make(cls, iterable):
        self = tuple.__new__(cls, iterable)
        if len(self) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(self)}")
        return self

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"{type(self).__name__} has no fields {', '.join(changes)}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):  # a pickle or copy rebuilds the record through __new__
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"
