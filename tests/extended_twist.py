"""The n = 4 leg of the twisting family over C_2^3, kept out of the
default run for its time (about 10 s on a shared 2-CPU machine).

Its file name matches no `test_*.py` pattern, so pytest collects it only
when it is named:

    PYTHONPATH=src python -m pytest -q tests/extended_twist.py
"""

from coverspec.twist import FiniteGroup, Perm, verify_twisting_lemma
from test_twist import twist_family


def test_verify_lemma_zero_failures_n4_over_c2_cubed():
    C2_cubed = FiniteGroup.from_perms(
        [Perm((1, 0, 2, 3, 4, 5)), Perm((0, 1, 3, 2, 4, 5)),
         Perm((0, 1, 2, 3, 5, 4))], name="C2^3")
    pairs = sections = 0
    for datum, mu in twist_family(4, [C2_cubed]):
        report = verify_twisting_lemma(datum, mu)
        assert report["failures"] == 0
        pairs += 1
        sections += report["sections"]
    assert (pairs, sections) == (9976, 2314432)
