"""Every refusal of a document names its place, and every written key is read.

One document of each kind is written in each sector by its writer.  Each
leaf is then replaced by each of ten bad values and the document is read
back.  A reader either accepts the document or refuses it with a
``SchemaError`` or a ``PreconditionError`` whose message names the place:
the innermost index under a list key (``entry k``, ``term k``, ``step k``,
``zeta[k]``) or, with no such index on the path, the innermost key.  Every
leaf has some bad value that its reader refuses, so no written key goes
unread.
"""

import copy
import re
from fractions import Fraction

import pytest

from heisenfock import (PreconditionError, SchemaError, Sector,
                        WhittakerType, certify_cyclic, whittaker_type_of)
from heisenfock.serialize import (certificate_from_json, certificate_to_json,
                                  fock_from_json, fock_to_json,
                                  lambda_from_json, lambda_to_json,
                                  whittaker_type_from_json,
                                  whittaker_type_to_json)

from conftest import lam_of, one, sc, x

BAD = ["x", "1/0", "y[1,1]", True, None, [], {}, 1e300, -1, "1" * 50]

# how a refusal names an index under each list key
NAMED = {"entries": "entry {}", "terms": "term {}", "steps": "step {}",
         "zeta": "zeta[{}]"}


def _objects(sector):
    """Lambda data with an anisotropic top and a positive entry, and a
    vector of three terms, both at rank 2."""
    p = sector.parity
    lam = lam_of(sector, 2, (sc(1, -1), 0), (1, 2))
    low, high = Fraction(2 - p, 2), Fraction(4 - p, 2)
    vec = (3 * x(1, low, 2, sector) * x(1, low, 2, sector)
           + sc(1, -1) * x(2, high, 2, sector) + one(2, sector).scaled(2))
    return lam, vec


def _documents(sector):
    lam, vec = _objects(sector)
    exact = whittaker_type_of(lam)
    numeric = WhittakerType(sector, exact.r, tuple(map(complex, exact.zeta)),
                            exact=False)
    return {
        "lambda": (lambda_to_json(lam), lambda_from_json),
        "vector": (fock_to_json(vec), fock_from_json),
        "type": (whittaker_type_to_json(exact), whittaker_type_from_json),
        "numeric type": (whittaker_type_to_json(numeric),
                         whittaker_type_from_json),
        "certificate": (certificate_to_json(lam, certify_cyclic(lam, vec)),
                        certificate_from_json),
    }


CASES = [(kind, sector) for sector in Sector
         for kind in _documents(Sector.UNTWISTED)]


def _leaves(doc, path=()):
    """The path of every value that is neither a list nor an object."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


def _place(path) -> str:
    """The innermost index under a list key, as refusals name it, or else
    the innermost key."""
    for pos in range(len(path) - 2, -1, -1):
        if isinstance(path[pos], str) and isinstance(path[pos + 1], int):
            return NAMED[path[pos]].format(path[pos + 1])
    return path[-1]


def _outcomes(kind, sector):
    """(path, bad value, refusal or None) for every leaf and bad value."""
    doc, read = _documents(sector)[kind]
    assert read(doc) is not None  # the written document reads back
    for path in _leaves(doc):
        for value in BAD:
            try:
                read(_replaced(doc, path, value))
            except (SchemaError, PreconditionError) as exc:
                yield path, value, exc
            else:
                yield path, value, None


@pytest.mark.parametrize("kind, sector", CASES)
def test_every_refusal_names_its_place(kind, sector):
    unnamed = []
    for path, value, exc in _outcomes(kind, sector):
        if exc is None:
            continue
        place = re.escape(_place(path))
        if not re.search(rf"(?<!\w){place}(?!\w)", str(exc)):
            unnamed.append((path, value, str(exc)))
    assert not unnamed


@pytest.mark.parametrize("kind, sector", CASES)
def test_every_written_key_is_read(kind, sector):
    refused, leaves = set(), set()
    for path, _, exc in _outcomes(kind, sector):
        leaves.add(path)
        if exc is not None:
            refused.add(path)
    assert len(leaves) >= 4
    assert sorted(leaves - refused, key=str) == []
