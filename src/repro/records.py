"""One record codec for every byte-stable artifact.

Every artifact a reader is handed — traces, span logs, rollups, plans,
fault plans, request queues, reports — is a tree of flat dataclasses,
and this module is the one place that knows how such a tree becomes
JSON and comes back.  :func:`dump` / :func:`load` walk
``dataclasses.fields`` and the resolved type hints: ``int``, ``float``,
``str``, ``bool``, ``object`` (opaque JSON), ``Optional[T]``,
``Tuple[T, ...]`` / ``List[T]`` (a JSON list), ``Dict[str, T]`` (emitted
key-sorted) and nested dataclasses.  Scalars are emitted *as held* — no
coercion, so byte-stable stays byte-stable — and type-checked on the
way in; what the field list cannot say, a class declares through the
attributes documented on :class:`Record`.

A JSON file *is* a record (a wrapper such as ``{"format": ...,
"events": [...]}`` is a two-line dataclass declaring its tag), so
:func:`load_json` is a whole file loader: a missing file, torn JSON, a
document that is not an object, a wrong ``format`` tag, a missing or
stray key and a mistyped value are all the *caller's*
:class:`~repro.errors.ReproError` subclass naming the file and the key,
never a ``KeyError``/``TypeError``/``JSONDecodeError`` traceback;
:func:`load_jsonl` does the same per line of a header-tagged JSONL file.

Field plans are resolved on the first dump/load of a class: importing a
module that defines records costs nothing, and constructing a record
(one ``CollectiveEvent`` per collective) gains no work.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from functools import lru_cache
from numbers import Integral, Real
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ReproError

#: The key a format tag travels under.
FORMAT_KEY = "format"


class Record:
    """Mixin giving a dataclass ``to_dict`` / ``from_dict`` /
    ``from_json`` through the codec.  A key may be absent iff its field
    has a default; a key that is neither a field nor a derived key is
    refused.  Declarations (class attributes, all optional):

    ``record_tag``
        Format tag: emitted first under ``"format"``, required on load.
    ``record_keys``
        The emitted keys in order, when that is not the field order.  A
        name that is not a field is a *derived* key: a property, dumped
        as held and ignored on load.
    ``record_derived``
        Derived keys emitted after the fields (without ``record_keys``).
    ``record_nan_null``
        ``float`` / ``Dict[str, float]`` fields, and ``float`` derived
        keys, whose NaN travels as JSON ``null``.
    ``record_held_order``
        ``Dict`` fields (or lists of them) emitted in held key order.
    ``record_empty_none``
        ``Optional`` record fields whose ``None`` travels as ``{}``.
    ``record_error``
        Error class the ``from_*`` methods refuse with; a loader that
        knows the file passes its own, and the file's name, to
        :func:`load`.
    """

    record_error = ReproError

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe mapping (inverse of :meth:`from_dict`)."""
        return dump(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, object]):
        """Inverse of :meth:`to_dict`; garbage raises ``record_error``."""
        return load(cls, d, error=cls.record_error)

    @classmethod
    def from_json(cls, text: str):
        """:meth:`from_dict` of a JSON text (torn JSON refused alike)."""
        return load_text(cls, text, what=cls.__name__, error=cls.record_error)


def json_float(x: float) -> Optional[float]:
    """NaN is not JSON: an undefined quantile travels as ``null``."""
    return None if x != x else x


# ----------------------------------------------------------------------
# field plans: per class, how each key is emitted and each field read
# ----------------------------------------------------------------------
class _Plan(typing.NamedTuple):
    tag: Optional[str]
    emit: tuple  # (key, encoder or None = as held), in emission order
    decoders: dict  # field name -> decoder(value, where, error)
    required: frozenset  # fields without a default
    allowed: frozenset  # fields, derived keys and the tag


@lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    nan_null = getattr(cls, "record_nan_null", ())
    held, empty = (getattr(cls, f"record_{a}", ()) for a in ("held_order", "empty_none"))
    codecs = {
        f.name: _codec(hints[f.name], *(f.name in s for s in (nan_null, held, empty)))
        for f in dataclasses.fields(cls)
    }
    keys = getattr(cls, "record_keys", None) or (
        *codecs, *getattr(cls, "record_derived", ())
    )
    if not set(codecs) <= set(keys):
        raise TypeError(f"{cls.__name__}.record_keys omits a field")
    tag = getattr(cls, "record_tag", None)
    derived = {k: json_float for k in nan_null}  # a derived key's encoder, if any
    missing = dataclasses.MISSING
    return _Plan(
        tag=tag,
        emit=tuple((k, codecs[k][0] if k in codecs else derived.get(k)) for k in keys),
        decoders={name: dec for name, (_, dec) in codecs.items()},
        required=frozenset(
            f.name
            for f in dataclasses.fields(cls)
            if f.default is missing and f.default_factory is missing
        ),
        allowed=frozenset(keys) | ({FORMAT_KEY} if tag else set()),
    )


def _codec(hint, nan_null: bool, held: bool, empty: bool):
    """``(encoder, decoder)`` of one type hint; encoder ``None`` means
    the value is emitted as held."""
    if hint is float and nan_null:
        return json_float, lambda v, where, error: (
            float("nan") if v is None else _FLOAT(v, where, error)
        )
    if hint in _SCALARS:
        return None, _SCALARS[hint]
    if hint is object:  # opaque JSON, emitted as held
        return None, lambda v, where, error: v
    if dataclasses.is_dataclass(hint):
        return dump, lambda v, where, error: load(
            hint, v, what=where, error=error
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        enc, dec = _codec(args[0], nan_null, held, False)
        null = dict if empty else type(None)  # a fresh `{}` or None per dump
        return (
            enc and (lambda v: null() if v is None else enc(v)),
            lambda v, where, error: None if v == null() else dec(v, where, error),
        )
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        enc, dec = _codec(args[0], nan_null, held, False)

        def decode_list(v, where, error):
            if not isinstance(v, (list, tuple)):
                raise error(f"{where}: expected a list, got {v!r}")
            return origin(dec(x, f"{where}[{i}]", error) for i, x in enumerate(v))

        return (lambda v: [enc(x) for x in v]) if enc else list, decode_list
    if origin is dict and args[0] is str:
        enc, dec = _codec(args[1], nan_null, held, False)
        order = list if held else sorted

        def decode_dict(v, where, error):
            if not isinstance(v, dict):
                raise error(f"{where}: expected an object, got {v!r}")
            return {str(k): dec(x, f"{where}[{k!r}]", error) for k, x in v.items()}

        if enc is None:
            return (lambda v: {k: v[k] for k in order(v)}), decode_dict
        return (lambda v: {k: enc(v[k]) for k in order(v)}), decode_dict
    raise TypeError(f"the record codec has no rule for {hint!r}")


def _scalar(exact: type, kind: type, noun: str):
    def decode(v, where, error):
        if type(v) is exact:
            return v
        # a numpy scalar, or an int for a float; bool is an int to
        # Python, not to a reader of the file
        if isinstance(v, kind) and not isinstance(v, bool):
            return exact(v)
        raise error(f"{where}: expected {noun}, got {v!r}")

    return decode


_FLOAT = _scalar(float, Real, "a number")
_SCALARS = {
    int: _scalar(int, Integral, "an integer"),
    float: _FLOAT,
    str: _scalar(str, str, "a string"),
    bool: _scalar(bool, bool, "true or false"),
}


# ----------------------------------------------------------------------
# dump / load
# ----------------------------------------------------------------------
def dump(obj) -> Dict[str, object]:
    """The JSON-safe mapping of a record (nested records, lists and
    key-sorted dicts included), in its declared key order."""
    plan = _plan(type(obj))
    out: Dict[str, object] = {} if plan.tag is None else {FORMAT_KEY: plan.tag}
    for key, enc in plan.emit:
        value = getattr(obj, key)
        out[key] = value if enc is None else enc(value)
    return out


def check_keys(obj, required, *, what: str, error, optional=()) -> None:
    """The one key gate: ``obj`` must be a JSON object carrying every
    ``required`` key and none outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise error(f"{what} is not a JSON object")
    missing = sorted(set(required) - set(obj))
    unknown = sorted(set(obj) - set(required) - set(optional), key=str)
    if missing or unknown:
        raise error(
            f"{what}: missing key(s) {missing}, unknown key(s) {unknown}"
        )


def load(cls, data, *, what: Optional[str] = None, error=ReproError):
    """Rebuild a ``cls`` from :func:`dump` output.  ``what`` names the
    source in messages (a path, ``"<path> line 7"``; default: the class
    name) and ``error`` is the class every refusal is raised as; nested
    records inherit both."""
    plan = _plan(cls)
    what = cls.__name__ if what is None else what
    if plan.tag and isinstance(data, dict) and data.get(FORMAT_KEY) != plan.tag:
        raise error(
            f"{what}: not a {plan.tag} document "
            f"(format={data.get(FORMAT_KEY)!r})"
        )
    check_keys(data, plan.required, what=what, error=error, optional=plan.allowed)
    kwargs = {
        name: dec(data[name], f"{what}: {name}", error)
        for name, dec in plan.decoders.items()
        if name in data
    }
    try:
        return cls(**kwargs)
    except (ReproError, TypeError, ValueError) as exc:  # its own validation
        raise error(f"{what}: {exc}") from exc


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def _parse(text: str, what: str, error) -> Dict[str, object]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # torn, or nested too deep
        raise error(f"{what}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{what} is not a JSON object")
    return doc


def _read_text(path: Union[str, Path], error) -> str:
    path = Path(path)
    if not path.is_file():
        raise error(f"file not found: {path}")
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read ({exc})") from None


def load_text(cls, text: str, *, what: str, error):
    """The ``cls`` record a JSON ``text`` holds; torn JSON, wrong shape,
    wrong tag, missing or stray key and mistyped value are ``error``."""
    return load(cls, _parse(text, what, error), what=what, error=error)


def load_json(cls, path: Union[str, Path], *, error):
    """:func:`load_text` of a file, named by its path in messages (a
    missing or unreadable file is an ``error`` too)."""
    return load_text(cls, _read_text(path, error), what=str(path), error=error)


def read_json(path: Union[str, Path], *, error) -> Dict[str, object]:
    """The one JSON object a file holds, for a document that is not a
    record; everything else is an ``error`` naming the path."""
    return _parse(_read_text(path, error), str(path), error)


def parse_jsonl(
    text: str, *, what: str, error, tag: Optional[str] = None
) -> List[Tuple[str, Dict[str, object]]]:
    """The JSON objects of a JSONL ``text`` as ``(where, object)``
    pairs, ``where`` being ``"<what> line <n>"`` ready to hand to
    :func:`load`.  Blank lines are skipped.  With ``tag`` the first
    line must be exactly the ``{"format": tag}`` header (not returned)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            where = f"{what} line {lineno}"
            out.append((where, _parse(line, where, error)))
    if tag is not None:
        if not out or out[0][1] != {FORMAT_KEY: tag}:
            raise error(f"{what}: not a {tag} file (line 1 is not its header)")
        del out[0]
    return out


def read_jsonl(path: Union[str, Path], *, error, tag: Optional[str] = None):
    """:func:`parse_jsonl` of a file, named by its path in messages."""
    return parse_jsonl(
        _read_text(path, error), what=str(path), error=error, tag=tag
    )


def load_jsonl(cls, path: Union[str, Path], *, tag: str, error) -> list:
    """The ``cls`` records of a ``tag``-headed JSONL file, one a line."""
    return [
        load(cls, doc, what=where, error=error)
        for where, doc in read_jsonl(path, error=error, tag=tag)
    ]


def write_json(
    path: Union[str, Path], doc, *, indent: Optional[int], sort_keys: bool = True
) -> None:
    """Write ``doc`` as one JSON document and a trailing newline."""
    Path(path).write_text(
        json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    )


def write_jsonl(
    path: Union[str, Path], docs: Iterable[Mapping[str, object]], *, tag: str
) -> None:
    """Write the ``{"format": tag}`` header, then one compact
    sorted-keys line per document."""
    lines = [
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        for doc in ({FORMAT_KEY: tag}, *docs)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
