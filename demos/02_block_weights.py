"""Block supports and the two weights they induce.

Z_7^18 is split into blocks of lengths (2, 3, 4, 4, 3, 2) with blocks
ordered by 1<2<4 and 5<6. A vector's support records each nonzero block's
maximum Lee weight; its weight is the size of the ideal that support
generates. Blocks sitting below a nonzero block are "paid for" at full
height whether or not they are zero.
"""

from pomsetblock import parse_vector, space_with_order

space = space_with_order(7, (2, 3, 4, 4, 3, 2), [(1, 2), (2, 4), (1, 4), (5, 6)])
print("space: Z_7^18, blocks", space.pi, "max Lee weight", space.max_lee)

v = parse_vector(space, "0 0 0 0 0 0 0 0 0 0 1 0 1 0 0 0 2 0")
print("\nvector", v.literal())
print("blocks:", v.blocks())
print("support:", v.support().literal())
print("weight:", v.weight(), "(= 3+3+1+3+2: blocks 1,2 fill under 4; 5 fills under 6)")
print("poset weight (block positions only):", v.poset_weight())

# anything in the lower blocks is already charged at full height
w = parse_vector(space, "3 1 2 5 6 0 0 0 0 0 1 0 1 4 2 0 2 0")
print("\nsame upper blocks, noisy lower blocks ->", w.weight())

u = space.zero()
print("\ndistances are weights of differences")
print("d(v, 0) =", space.distance(v, u))
print("d(v, v) =", space.distance(v, v))
print("d(v, w) =", space.distance(v, w), " <= ", space.distance(v, u) + space.distance(u, w))

# on unit blocks the block weight reduces to the scalar Lee story
from pomsetblock import chain_space, pw_weight

unit = chain_space(5, (1, 1))
x = unit.vector((3, 1))
print("\nunit blocks, chain 1<2, x =", x.literal())
print("block weight:", x.weight(), " weighted-coordinates form:", pw_weight(x))
