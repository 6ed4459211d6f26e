"""What this package does not reproduce at desk scale, stated explicitly.

The bundled reference data concerns a computation whose full size is far
outside a test suite: the orbit enumeration itself runs over 8.4 * 10^9
points.  The facts below are carried as documented reference values; the
test suites cover the same machinery through the small-instance corpus and
through fixture-level identity checks on everything the reference tables
actually print.
"""

NOT_DESK_REPRODUCIBLE = [
    {
        "fact": "the J4 orbit enumeration itself",
        "scale": "8474719242 points, 152544946356 bytes naively "
                 "(18 bytes per packed 112-dim F_2 vector)",
        "covered_by": "orbit-engine property suite on the desk corpus; "
                      "the memory arithmetic is checked exactly",
    },
    {
        "fact": "the ~2 hour random search finding 24 of 27 orbits",
        "scale": "10^6-scale random probes against billions of points",
        "covered_by": "classify on desk instances, 5-seed determinism, "
                      "and the orbit fixture's lengths summing to [G:H] "
                      "exactly",
    },
    {
        "fact": "the average saving factor of about 152 with |K| = 155",
        "scale": "needs the full helper-set statistics of the big run",
        "covered_by": "saving_factor <= |K| is asserted always; the "
                      "per-orbit reference factors ship in the orbit "
                      "fixture as documented data",
    },
    {
        "fact": "that the intersection matrices P_2 and P_4 generate the "
                "full 27-dimensional endomorphism ring (and P_3 lies in "
                "the algebra generated by P_2)",
        "scale": "P_4 is not printed in the reference tables, so no "
                 "fixture-level check is possible",
        "covered_by": "algebra_closure / AlgebraClosure.recover are "
                      "exercised on every desk instance against "
                      "brute-force structure constants",
    },
    {
        "fact": "the collapse from 884736 candidate projective characters "
                "to 75 admissible ones",
        "scale": "needs the full ordinary character table of J4 "
                 "(class values on all 11-singular classes)",
        "covered_by": "admissible_candidates equals the brute-force box "
                      "filter on desk tables; the desk S5 instance "
                      "collapses 2 -> 1",
    },
]
