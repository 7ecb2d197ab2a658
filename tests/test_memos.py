"""The in-process memos are functools caches: root systems hold only
immutable tables, no module-level dict grows with use, and each character
is computed once."""

import gc
import sys

from spindle import characters as ch
from spindle import cli
from spindle import verify as vf
from spindle.rootsystem import RootSystem, build_root_system


def _module_dicts():
    """len of every module-level dict of the spindle package, by name."""
    return {(name, attr): len(value)
            for name, module in list(sys.modules.items())
            if name == "spindle" or name.startswith("spindle.")
            for attr, value in vars(module).items()
            if isinstance(value, dict) and not attr.startswith("__")}


def test_no_module_or_root_system_holds_a_mutable_memo(capsys):
    before = _module_dicts()
    vf.suite_tensor_mf()
    assert cli.main(["compute", "lusztig", "--type", "F", "--rank", "4",
                     "--weight", "0,0,0,1"]) == 0
    capsys.readouterr()
    systems = [o for o in gc.get_objects() if isinstance(o, RootSystem)]
    assert systems
    for rs in systems:
        bad = {k: type(v).__name__ for k, v in vars(rs).items()
               if not isinstance(v, (tuple, int, str))}
        assert bad == {}, rs
    after = _module_dicts()
    assert {k: (n, after[k]) for k, n in before.items()
            if after[k] != n} == {}


def test_dynkin_cross_computes_each_character_once():
    pairs = {(id(rs), lam) for rs, lam in vf._table1_entries()}
    for letter, rank in vf._simple_types(4):
        rs = build_root_system(letter, rank)
        pairs |= {(id(rs), lam) for lam in vf._dominant_by_height(rs, 5)}
    ch._freudenthal.cache_clear()
    assert all(c.ok for c in vf.suite_dynkin_cross())
    info = ch._freudenthal.cache_info()
    assert info.misses == info.currsize == len(pairs)


def test_one_root_system_per_type_and_rank():
    rs = build_root_system("C", 5)
    assert build_root_system(type_letter="C", rank=5) is rs
    assert build_root_system("C", rank=5) is rs
