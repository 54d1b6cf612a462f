"""All six maps check what they are given, at the door.

Each map is applied to every diagram of every species of every w of S_1-S_4
(BVPDs of the inverse fireworks w only), with every w of the same size.  A
call returns exactly when its input is a diagram of w in the map's source
species (of maximal weight, for the two maps onto BVPDs), and then its image
is a diagram of w in the target species.  Every other call is refused with a
text that blames the input or w, never the map's own image.
"""

import re

from pipedreams.bvpd import bvpd_to_mvpd, bvpd_to_pd, mvpd_to_bvpd, pd_to_bvpd
from pipedreams.diagrams import Kind, is_member, members
from pipedreams.mvpd import is_top, mvpd_to_pd, pd_to_mvpd
from pipedreams.permutations import symmetric_group
from pipedreams.pipedream import top_pd_set

# Each map: its source and target species, and whether it takes only the
# maximal-weight diagrams of its source.
MAPS = {
    "phi": (pd_to_mvpd, Kind.PD, Kind.MVPD, False),
    "phi-inv": (mvpd_to_pd, Kind.MVPD, Kind.PD, False),
    "mb": (mvpd_to_bvpd, Kind.MVPD, Kind.BVPD, True),
    "bm": (bvpd_to_mvpd, Kind.BVPD, Kind.MVPD, False),
    "psi": (bvpd_to_pd, Kind.BVPD, Kind.PD, False),
    "psi-inv": (pd_to_bvpd, Kind.PD, Kind.BVPD, True),
}

REFUSED = re.compile(r"expected .+, got .+|diagram does not belong to .+|.+: not inverse fireworks")
NOT_TOP = "only maximal-weight diagrams drop their first column"


def _is_maximal(d, w):
    return d in top_pd_set(w) if d.kind is Kind.PD else is_top(d, w)


def test_every_map_checks_its_input_and_only_its_input():
    calls, wrong = 0, []
    for n in range(1, 5):
        group = list(symmetric_group(n))
        diagrams = [
            d
            for v in group
            for kind in Kind
            if kind is not Kind.BVPD or v.is_inverse_fireworks()
            for d in members(kind, v)
        ]
        for w in group:
            fireworks = w.is_inverse_fireworks()
            for d in diagrams:
                # A BVPD's code is defined for inverse fireworks w only.
                member = (fireworks or d.kind is not Kind.BVPD) and is_member(d, w)
                for name, (fn, source, target, top_only) in MAPS.items():
                    calls += 1
                    given = member and d.kind is source
                    admitted = given and (fireworks or Kind.BVPD not in (source, target))
                    admitted = admitted and (not top_only or _is_maximal(d, w))
                    try:
                        image = fn(d, w)
                    except ValueError as exc:
                        text = str(exc)
                        blamed = REFUSED.fullmatch(text) or (text == NOT_TOP and given)
                        if admitted or not blamed:
                            wrong.append((name, w.letters, d.render_text(), text))
                        continue
                    if not (admitted and image.kind is target and is_member(image, w)):
                        wrong.append((name, w.letters, d.render_text(), image.render_text()))
    assert calls == 21_582
    assert wrong == []
