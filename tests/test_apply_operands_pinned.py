"""Pinned compiled-apply operands: the value of every stacked ``ApplyStage.a``.

``tests/test_apply_pinned.py`` pins stage counts, operand bytes and output
hashes; this file pins the operand *values*.  Over the same five problems, the
sha256 (of shape and bytes) of every forward stage's ``a``, in stage order.  A
change of how the blocks are written into the padded stacks must leave every
digest untouched.  The transpose apply runs these same stages (it used to
compile transposed ones, whose digests were pinned here too).
"""

import hashlib

import numpy as np
import pytest

from repro import compile_apply_plan
from test_apply_pinned import PROBLEMS, matrix


def operand_digest(a: np.ndarray) -> str:
    sha = hashlib.sha256(repr(a.shape).encode())
    sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:16]


def operand_digests(problem: str):
    plan = compile_apply_plan(matrix(problem))
    return {
        "forward": [operand_digest(stage.a) for stage in plan.stages],
    }


PINNED_OPERANDS = {'covariance-leaf16': {'forward': ['afc91179ef35d4b6',
                                   '04f1dc31d3835f85',
                                   '66da612d52db780a',
                                   '5b862107bcd4ad77',
                                   'b563cfea7f2194f7',
                                   '8e431f8be280dbbe',
                                   '8bf509445fe50537',
                                   'f7c3eb9360ecdedf',
                                   'ac01e70ffe145297',
                                   '1a3ec75d858f7b4b',
                                   'c8dc3f814d5c6888',
                                   '649b6dcf74b64e34',
                                   '939208aa9ed2e55e',
                                   '9eab220fd50e2613',
                                   '4a12858a8cee2c38',
                                   'c572b0f55bf2982b',
                                   '8aef127841178901',
                                   '2f880931d4ec9ab2',
                                   'e057541add22f261',
                                   'ed1f3daa10ab373e']},
 'covariance-leaf48': {'forward': ['22f4871ce355d88d',
                                   '9e4d0b4be45ab0d4',
                                   'e3de3d936199d415',
                                   '179b8478d369aaf8',
                                   '8554e0464b0c1184',
                                   'c9ce01d719f59561',
                                   'c0c017a51594789f',
                                   '722bf010b8c8036b']},
 'helmholtz-leaf16': {'forward': ['8208386c7ee33a61',
                                  '76f921bc256dcfa4',
                                  'fb16eafa43a8cec5',
                                  '7710fc8f90a850a7',
                                  '9987822b94fce7bc',
                                  '702da2becb56e6c3',
                                  'c851799243535df7',
                                  '86c65f0deefc4fa4',
                                  '0538bd6323a8a78f',
                                  'f0cabf21e4fc8dcf',
                                  '1b6ab690d3406792',
                                  '64cc657ff74261de',
                                  'b313c1eedd11c56e',
                                  'd5991147a6ff96df',
                                  '21fb72c446e194b7',
                                  '8bf283596696eec8',
                                  'cef70ee72a5dac80',
                                  '038ab3ad42801197',
                                  'ab1b495b6476c8e9',
                                  '32ee74216b4ae693']},
 'helmholtz-leaf48': {'forward': ['09318f68acb9dcbe',
                                  '430f94fe1fd248b9',
                                  'e1f666760d269126',
                                  'f2181631984a6ed1',
                                  '121dcb04692d3348',
                                  'ab472e9e468c809f',
                                  '2217d6e9bc0127ff',
                                  'b43a455ac3583a7c']},
 'ragged-leaf24': {'forward': ['1fbc837dc7bcf393',
                               '8a28394322703e31',
                               '626f18e626f2b539',
                               '96948ecc1fe95142',
                               '374e06560a98dcea',
                               '42e9eb89dad051c6',
                               '882bba344ff50548',
                               '3c1e60a5da70ecd0',
                               'a55d6b99004dc5ce']}}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_pinned_operand_values(problem):
    assert operand_digests(problem) == PINNED_OPERANDS[problem]


if __name__ == "__main__":  # prints the table above
    import pprint

    pprint.pprint(
        {p: operand_digests(p) for p in sorted(PROBLEMS)}, width=100, sort_dicts=False
    )
