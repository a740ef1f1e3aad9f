"""Byte-identity guard for the built algebra of each root system.

The digests were taken before the root-system build moved its root
arithmetic to an integer Killing Gram (E8: before the Chevalley constants
moved from Fractions to ints over the root pairs that sum to a root); any
change to the root order, the structure constants, the Casimir or the
Killing Gram on the Cartan shows up here.
"""

import hashlib
import json

import pytest

from liebialg.core import entry_json, gaussian
from liebialg.rootsystem import build_root_system

DIGESTS = {
    ("A", 1): "d755265341643b475d30ccb0517d8e5155cd6560e3244e6018e8bcd77e026686",
    ("A", 3): "422dabcd52f9eeb855d601ccc080e08eae052d5a48d2d3cfe51af2c65ce688c0",
    ("B", 3): "155e647cdff2243e98a622df9807f5f70256a222776709a76f15a059a8165a8d",
    ("C", 3): "2fb9f337e6c2da7b791142c3322b4f9720dc3783ec31d3e31406df76c7c865c1",
    ("D", 4): "b518fe64bab5ab6a4aa31f4f42672935c28b978d0a462accc732902531a03d6c",
    ("G", 2): "8a85ee9973599ce043c016df1c9a9a5586f9954436f0239725084f3c3e4140c0",
    ("F", 4): "1618c18753950c59e4a1a08ee888ded8868d7c050f4cc5aafafaa592e8745a47",
    ("E", 6): "2e7c6328b85826090e62f744b883231cb5f333b4b9a4b43f917a910d77a54523",
    ("E", 7): "bcbd28084a8fbd8f7c591ed53206fa31221778c63745f9469b1dedcffc6d7761",
    ("E", 8): "c34c07bc44d61823d6bafb6ea147f866db3b061c7622accbbe12a98283bb4072",
}


def _algebra_text(rs) -> str:
    den = rs.structure.den
    table = [
        [i, j, [[k, *entry_json(c, 0, den)] for k, c in terms]]
        for (i, j), terms in sorted(rs.structure.table.items())
    ]
    return json.dumps(
        {
            "to_json": rs.to_json(),
            "table": table,
            "casimir": rs.casimir.to_json(),
            "killing_h": [[str(gaussian(x, 0, rs.gram_den)) for x in row] for row in rs.gram],
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("series,rank", sorted(DIGESTS))
def test_built_algebra_digest(series, rank):
    text = _algebra_text(build_root_system(series, rank))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(series, rank)]
