"""Reference inequality systems for the configuration families, with known multipliers.

Each entry hand-encodes the inequality system of one family row, a known
multiplier vector for it, and the bound that combination certifies.
Systems are stated over the grouped decomposition variables, normalized to
multiplicity 1.
"""

from fractions import Fraction

from waldschmidt.bezout import BezoutSystem, Constraint, LowerBoundCertificate

F = Fraction


class GoldenSystem:
    def __init__(self, name, var_names, rows, duals, bound, equality):
        self.name = name
        # rows are (label, t_coeff, a_coeffs, rhs)
        self.system = BezoutSystem(var_names, [Constraint(*row) for row in rows])
        self.duals = [F(d) for d in duals]
        self.bound = F(bound)
        self.equality = equality

    def certificate(self):
        return LowerBoundCertificate(self.bound, self.duals, self.system)


_G = []


def _add(name, var_names, rows, duals, bound, equality=True):
    _G.append(GoldenSystem(name, var_names, rows, duals, bound, equality))


_add("line7/three-side-points", ["p", "q", "r"],
     [("degree", 1, [-3, -1, -3], 0),
      ("spoke", 1, [-1, 0, 1], 2),
      ("side", 1, [2, 0, -1], 3),
      ("carrier", 1, [0, 3, 0], 4)],
     [3, 27, 18, 1], F(16, 7))

_add("line7/two-side-points", ["k", "p", "q", "r"],
     [("degree", 1, [-1, -2, -1, -2], 0),
      ("side 1", 1, [1, 0, -1, 0], 2),
      ("side 2", 1, [0, 2, 0, 0], 3),
      ("carrier", 1, [-1, 0, 3, 0], 4),
      ("conic", 2, [0, 0, 0, 1], 5)],
     [1, 2, 1, 1, 2], F(7, 3))

_add("line7/one-side-point", ["k", "p", "q", "r"],
     [("degree", 1, [-6, -1, -1, -2], 0),
      ("conic", 2, [1, 0, 0, 0], 5),
      ("side 1", 1, [0, 0, -1, 1], 2),
      ("side 3", 1, [0, 2, 0, 0], 3),
      ("carrier", 1, [0, 0, 3, -2], 4)],
     [2, 12, 16, 1, 6], F(17, 7))

_add("line7/no-side-point", ["p", "q"],
     [("carrier", 1, [-3, 3], 4),
      ("side", 1, [1, -1], 2)],
     [1, 3], F(5, 2))

_add("conic6/three-concurrent-chords", ["p", "q"],
     [("degree", 1, [-3, -2], 0),
      ("chord", 1, [2, 0], 3),
      ("carrier", 1, [0, 1], 3)],
     [2, 3, 4], F(7, 3))

_add("conic6/no-chord", ["k"],
     [("conic 1", 2, [-1], 5)],
     [1], F(5, 2))

_add("conic6/one-chord", ["k", "p", "q"],
     [("degree", 1, [-1, -2, -2], 0),
      ("chord", 1, [2, -1, 0], 3),
      ("conic 1", 2, [-1, 1, 0], 5),
      ("carrier", 1, [0, 0, 1], 3)],
     [1, 3, 5, 2], F(5, 2))

_add("conic6/two-chords", ["p", "q"],
     [("spoke", 1, [1, -1], 2),
      ("carrier", 1, [-1, 1], 3)],
     [1, 1], F(5, 2))

_add("conic7/two-chords", ["k", "p"],
     [("conic 1", 2, [1, -1], 5),
      ("chord 1", 1, [-2, 2], 3)],
     [2, 1], F(13, 5))

_add("conic7/one-chord", ["k", "p"],
     [("conic 1", 2, [1, -1], 5),
      ("chord", 1, [-5, 2], 3)],
     [2, 1], F(13, 5))

_add("conic7/no-chord", ["k", "p", "q"],
     [("spoke 1", 1, [-1, 1, -1], 2),
      ("carrier", 2, [0, -3, 3], 7)],
     [3, 1], F(13, 5))

_add("cubic9/smooth", ["k"],
     [("degree", 1, [-3], 0),
      ("cubic", 3, [0], 9)],
     [0, 1], F(3))

_add("nine/7conic+2/common-chord-overlap3", ["k", "p", "q", "r"],
     [("degree", 1, [-2, -1, -2, -2], 0),
      ("carrier", 2, [3, 0, 0, 0], 7),
      ("common chord", 1, [0, 3, 0, 0], 4),
      ("paired chord", 1, [0, 0, 2, 0], 3),
      ("crossing chord", 1, [0, 0, 0, 1], 3)],
     [6, 4, 2, 6, 12], F(45, 17))

_add("nine/7conic+2/common-chord-overlap4", ["k", "p", "q", "r"],
     [("degree", 1, [-2, -1, -2, -2], 0),
      ("carrier", 2, [3, 0, 0, 0], 7),
      ("common chord", 1, [0, 3, 0, 0], 4),
      ("paired chord", 1, [0, 0, 2, 0], 3),
      ("crossing chord", 1, [0, 0, 0, 2], 3)],
     [6, 4, 2, 6, 6], F(18, 7))

_add("nine/7conic+2/disjoint-triples", ["k", "p", "q", "r"],
     [("degree", 1, [-2, -2, -2, -2], 0),
      ("carrier", 2, [3, 0, 0, 0], 7),
      ("chord 12", 1, [0, 1, 0, -1], 3),
      ("chord 23", 1, [0, 0, 1, 0], 3),
      ("chord 34", 1, [0, -1, 0, 2], 3)],
     [3, 2, 18, 6, 12], F(122, 43))

_add("nine/6conic+3/line-avoids-conic", ["k", "p"],
     [("carrier", 2, [2, -2], 6),
      ("line", 1, [-2, 2], 3)],
     [1, 1], F(3))

_add("nine/6conic+3/one-shared-point", ["k", "p"],
     [("degree", 1, [-2, -1], 0),
      ("carrier", 2, [2, -1], 6),
      ("line", 1, [-1, 3], 4)],
     [5, 7, 4], F(58, 23))

_add("nine/6conic+3/two-shared/free-point-plain", ["k", "p", "q"],
     [("degree", 1, [-2, -2, -1], 0),
      ("carrier", 2, [2, 0, 0], 6),
      ("companion conic", 2, [0, 1, -1], 5),
      ("line", 1, [0, -1, 4], 5)],
     [1, 1, 3, 1], F(13, 5))

_add("nine/6conic+3/two-shared/free-point-conjugate", ["k", "p", "q"],
     [("degree", 1, [-2, -2, -1], 0),
      ("carrier", 2, [2, 0, 0], 6),
      ("companion conic", 2, [0, 2, 0], 6),
      ("line", 1, [0, 0, 4], 5)],
     [4, 4, 4, 1], F(53, 21))

_add("nine/6conic+3/two-shared/all-on-single-chords", ["k", "p", "q"],
     [("degree", 1, [-2, -2, -1], 0),
      ("carrier", 2, [2, -1, 0], 6),
      ("companion conic", 2, [-1, 1, 0], 5),
      ("line", 1, [0, 0, 4], 5)],
     [4, 16, 24, 1], F(13, 5))

_add("nine/6conic+3/two-shared/one-double-chord-point", ["k", "p", "q", "r"],
     [("degree", 1, [-2, -1, -2, -2], 0),
      ("carrier", 2, [2, 0, 0, 0], 6),
      ("line", 1, [0, 4, 0, 0], 5),
      ("single chord", 1, [0, 0, 1, 0], 3),
      ("double chord", 1, [0, 0, 0, 2], 3)],
     [4, 4, 1, 8, 4], F(13, 5))

_add("nine/6conic+3/two-shared/two-double-chord-points", ["k", "p", "q", "r", "s"],
     [("degree", 1, [-2, -1, -2, -2, -1], 0),
      ("carrier", 2, [2, 0, 0, 0, 0], 6),
      ("line", 1, [0, 4, 0, 0, 0], 5),
      ("cross chord 34", 1, [0, 0, 0, 2, 0], 3),
      ("single chord 35", 1, [0, 0, 0, 0, 2], 3),
      ("cross chord 36", 1, [0, 0, 2, 0, 0], 3)],
     [4, 4, 1, 4, 2, 4], F(59, 23))

_add("nine/5conic+4line", ["k", "p"],
     [("degree", 1, [-2, -1], 0),
      ("carrier", 2, [1, -2], 5),
      ("line", 1, [-2, 3], 4)],
     [0, 2, 1], F(14, 5), equality=False)


GOLDEN = {g.name: g for g in _G}


def golden_names():
    return [g.name for g in _G]
