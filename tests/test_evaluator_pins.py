"""The series evaluator, pinned bit for bit on whole grids.

Each digest is a sha256 over one line per point, ``i j value tail
terms``, with the value and the tail bound in ``float.hex``, so that a
rewrite of ``compensation._sum_range``, of the window it reads or of
``HarmonicValue`` must keep every bit of every field.  Two grids per law,
each on a fresh geometry:

* ``escape_probability`` on 1..12 squared, queried in a fixed shuffled
  order, so that the stored chain starts at some degree and grows to
  lower ones in the middle of the run;
* ``harmonic_eval`` on the 20 by 20 table of the chain from (0, 0) built
  for degree 2.

The digests were taken with ``tool_version`` 0.10.0, before the summing
loop carried each term's x * a_{n+1} into the next term.
"""

import hashlib
import random

import pytest

from cornerwalk.compensation import build_sequence, escape_probability, harmonic_eval
from cornerwalk.curve import find_extrema

from conftest import PIN_MODELS

ESCAPE_POINTS = [(i, j) for i in range(1, 13) for j in range(1, 13)]
random.Random(34).shuffle(ESCAPE_POINTS)
TABLE_POINTS = [(i, j) for i in range(1, 21) for j in range(1, 21)]


def digest(values) -> str:
    rows = (
        f"{i} {j} {v.value.hex()} {v.tail_bound.hex()} {v.terms_used}"
        for (i, j), v in values
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


ESCAPE_SHA256 = {
    "fib":
        "c33c77a6c32d62e492245707672fbf52fd16149c98de1b9224d182e00f86cc3c",
    "all_five":
        "d9f3e1a9ac55f49107a82228ff91cf68c3a32ce81de3ffbe5f766a07b8f5233e",
    "diag_heavy":
        "f8215610d919771b64cf72294fa643367c3aeb1ab2960d010341742b0cc7a58f",
    "big_jump":
        "05663b9ca071a72ca350fda7ddf6aca1f84ef5f5a442d8c55331794d725a889d",
    "lopsided":
        "17fef8b974c4037dd4c7d22e0a630a86cd57739c102a160a83c49cc4077e6f65",
}

TABLE_SHA256 = {
    "fib":
        "3c1041fce6848132b4dc08a2ee344e1e3f7216901c11c4ec3482efa6b7c30663",
    "all_five":
        "b712719d54b61991006449b1b417a81e29ee67dae06313e38926266994dd9b7a",
    "diag_heavy":
        "fcecafac7b827a045f81dd031ca9e38b99eb3f32e0126d16814ba3e3cad55739",
    "big_jump":
        "bc39c0a60be5f855b4572da92372b9b1373e497450f063f7e9acdaf538e9ea90",
    "lopsided":
        "c35f03a20a2aebb0a3656e00b920ab53ad69b78dfcc65f5c27fea3e23e5aa567",
}


@pytest.mark.parametrize("name", PIN_MODELS)
def test_escape_grid_is_pinned(request, name):
    geom = find_extrema(request.getfixturevalue(name))
    values = [(p, escape_probability(geom, *p)) for p in ESCAPE_POINTS]
    assert digest(values) == ESCAPE_SHA256[name]


@pytest.mark.parametrize("name", PIN_MODELS)
def test_harmonic_table_is_pinned(request, name):
    seq = build_sequence(find_extrema(request.getfixturevalue(name)), (0.0, 0.0), imin=2)
    values = [(p, harmonic_eval(seq, *p)) for p in TABLE_POINTS]
    assert digest(values) == TABLE_SHA256[name]
