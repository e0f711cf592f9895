"""Pins what the matrix-language module computes for its sentence corpora.

The digests were recorded from the implementation that had one AST class
per operator, before the operators became entries of one table. For each
corpus sentence they cover its shape at n = 6, its verdict under each of
the six fragments and its value on DECALIN as `float.hex`, so a changed
enumeration order, shape rule, fragment rule or floating-point evaluation
fails here.
"""

import hashlib

import pytest

from matgraph.appendix_data import DECALIN
from matgraph.matlang import OpSet, eval_sentence, fragment_check, sentence_corpus, shape_check

FRAGMENTS = ("L1", "L2", "L3", "L1+", "L2+", "L3+")

# (base, max_depth, limit) -> (corpus size, sha256 of the shapes, of the
# fragment verdicts and of the DECALIN values, one sentence per line)
CORPUS_PINS = {
    ("L1", 3, 200): (66, (
        '9e226ae716a9147ce1ba9d09246160bb584ad2969544ecb5e9b851d1725debf4',
        '03031a9c35a090830407d990fc81457ebaa8d234bc65ce43e036e60770e51228',
        'bee1b5cc20b150b78b00d4da90da6a2917a2823b0d48bf76a9a3726bfde51027',
    )),
    ("L3", 3, 100): (100, (
        '4403a39f22467b577a8cfdc37305948759565e19c4aacd5a4978e1351fe433d1',
        '048334c01ef385ff61a5b04cd2a0b12b35468b4d774e7563d8776a089328124c',
        'bf13864de4886f5f19fc078ca846419d5c1ccac64866e4eaa9b34f2b20a87e1a',
    )),
}


def _columns(e):
    return (
        repr(shape_check(e, 6)),
        repr([fragment_check(e, OpSet.named(f)) for f in FRAGMENTS]),
        eval_sentence(e, DECALIN.adjacency).hex(),
    )


@pytest.mark.parametrize("corpus", list(CORPUS_PINS), ids=lambda c: c[0])
def test_corpus_pinned(corpus):
    size, digests = CORPUS_PINS[corpus]
    sentences = sentence_corpus(*corpus)
    assert len(sentences) == size
    columns = zip(*(_columns(e) for e in sentences))
    got = tuple(hashlib.sha256("\n".join(c).encode()).hexdigest() for c in columns)
    assert got == digests
