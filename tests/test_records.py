"""`record` against `dataclasses.dataclass` as the reference."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliffinv
from cliffinv.records import record


def _point(decorate):
    @decorate
    class Point:
        a: int
        b: tuple
        c: str = "x"

        def __post_init__(self):
            object.__setattr__(self, "b", tuple(self.b))

    return Point


@pytest.mark.parametrize("frozen", [False, True])
def test_record_matches_dataclass(frozen):
    ref, rec = _point(dataclasses.dataclass(frozen=frozen)), _point(record(frozen=frozen))
    for args, kwargs in [((1, [2]), {}), ((1, [2], "y"), {}), ((), {"a": 1, "b": [2], "c": "y"}), ((1,), {"b": []})]:
        r, s = ref(*args, **kwargs), rec(*args, **kwargs)
        assert (s.a, s.b, s.c) == (r.a, r.b, r.c)
        assert repr(s) == repr(r)
        assert s == rec(*args, **kwargs) and s != rec(2, [2]) and s != r
        if frozen:
            assert hash(s) == hash(r)
            with pytest.raises(AttributeError):
                s.a = 5
        else:
            with pytest.raises(TypeError):
                hash(s)
            s.a = 5
            assert s.a == 5
    for args, kwargs in [((1,), {}), ((1, 2, 3, 4), {}), ((1, 2), {"d": 0}), ((1, 2), {"a": 0})]:
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            rec(*args, **kwargs)


def test_record_keeps_the_methods_of_the_class():
    @record(frozen=True)
    class Pair:
        x: int
        y: int

        def __eq__(self, other):
            return isinstance(other, Pair) and {self.x, self.y} == {other.x, other.y}

        def __repr__(self):
            return "pair"

    assert Pair(1, 2) == Pair(2, 1) and repr(Pair(1, 2)) == "pair"
    assert hash(Pair(1, 2)) == hash((1, 2))  # hashed by fields, as a frozen dataclass


def test_core_modules_do_not_import_dataclasses():
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys, cliffinv, cliffinv.dedekind; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
