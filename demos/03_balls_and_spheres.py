"""Balls and spheres: closed forms checked against raw enumeration.

Uses Z_5^2 with the chain 1<2 (height 2). Spheres around an ideal count
vectors whose support generates exactly that ideal; balls take everything
that fits inside it.
"""

from pomsetblock import (
    chain_space,
    construct_perfect_full,
    full_count_structure,
    i_ball,
    i_ball_coords,
    i_ball_size,
    i_sphere_size,
    nonlinearity_witness,
    parse_ideal,
    r_ball,
    r_ball_size,
    r_sphere_size,
    support_census,
    verify_perfect,
)

space = chain_space(5, (1, 1))
census = support_census(space)

print("per-ideal sphere sizes (closed form vs counted):")
for ideal in space.pomset.ideals():
    formula = i_sphere_size(space, ideal)
    counted = census.get(ideal.counts.counts, 0)
    print(f"  I = {ideal.counts.literal():10s} {formula:3d} {counted:3d}")

print("\nradius spheres and balls:")
for r in range(space.n * space.max_lee + 1):
    members = len(r_ball(space.zero(), r))
    print(f"  r={r}: sphere {r_sphere_size(space, r):3d}"
          f"  ball {r_ball_size(space, r):3d}  enumerated ball {members:3d}")

ideal = parse_ideal(space, "2/1")
print("\nthe ball of the full-count ideal 2/1:",
      sorted(v.coords for v in i_ball(space.zero(), ideal)))
report = full_count_structure(space, ideal)
# the root of 2/1 is block 1, one coordinate long
print("vectors vanishing off the root:", report.coordinate_form,
      "| size", i_ball_size(space, ideal), "= 5^1",
      "| perp = complement ball in the dual:", report.perp_equals_dual_ball)
# closure and tiling follow from the coordinate form; their owners show them
ball = i_ball_coords(space.zero(), ideal)
print("closed under addition:", space.span(ball, len(ball)) == set(ball),
      "| its translates by the zero-section code tile the space:",
      verify_perfect(construct_perfect_full(space, ideal), ideal=ideal).is_perfect)

partial = parse_ideal(space, "1/1")
print("\npartial-count ideal 1/1: ball size", i_ball_size(space, partial))
u, v = nonlinearity_witness(space, partial)
print("witness that it is not closed under addition:",
      u.literal(), "+", v.literal(), "->", (u + v).literal(),
      "inside?", (u + v).support() <= partial.counts)
