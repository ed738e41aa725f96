"""
Tour of the fixed-point searches
================================

Every search below is exhaustive AND complete: the ceiling it scans to is
derived so that no solution can exist above it.  Run top to bottom:

    python demos/fixed_point_searches.py
"""

from digitfix import SearchConfig, group_blocks, parse_spec, search_hardy

# -- numbers equal to the sum of the factorials of their digits --------------

# a hit holds its value and the images of its digits; group_blocks(n, 10, 1)
# gives the digits themselves, least significant first

cfg = SearchConfig(spec=parse_spec("factorial"))
for hit in search_hardy(cfg):
    terms = " + ".join(f"{d}!" for d in reversed(group_blocks(hit.value, 10, 1)))
    print(f"{hit.value} = {terms}")

# -- the same machinery with cubes, then with digit^digit --------------------

print()
for hit in search_hardy(SearchConfig(spec=parse_spec("pow:3"))):
    terms = " + ".join(f"{d}^3" for d in reversed(group_blocks(hit.value, 10, 1)))
    print(f"{hit.value} = {terms}")

# digit^digit needs a ceiling near 3.9e9; the multiset engine enumerates digit
# multisets instead of values, which takes well under a second
print()
for hit in search_hardy(SearchConfig(spec=parse_spec("selfpow"), engine="multiset")):
    digits = group_blocks(hit.value, 10, 1)
    print(f"{hit.value} = " + " + ".join(f"{d}^{d}" for d in reversed(digits)))

# -- digits can be grouped into wider blocks ----------------------------------

# two-digit blocks under cubing: 165033 = 16^3 + 50^3 + 33^3 and friends
print()
hits = search_hardy(SearchConfig(spec=parse_spec("pow:3"), width=2))
print("two-digit cube blocks:", [h.value for h in hits])

# three-digit blocks under squaring: the concatenated-squares shape
for hit in search_hardy(SearchConfig(spec=parse_spec("pow:2"), width=3)):
    terms = " + ".join(f"{b}^2" for b in reversed(group_blocks(hit.value, 10, 3)))
    print(f"{hit.value} = {terms}")

# -- count-of-digits and sum-of-digits fixed points ---------------------------

from digitfix import search_dudeney, search_powersum, search_wells

print()
print("digit_count(n!) = n:      ", [h.value for h in search_wells(parse_spec("factorial"), 10)])
print("digit_count(n^n) = n:     ", [h.value for h in search_wells(parse_spec("selfpow"), 10)])
print("digit_sum(n^3) = n:       ", [h.value for h in search_dudeney(parse_spec("pow:3"), 10)])
print("digit_sum(n)^3 = n:       ", [h.value for h in search_powersum(3, 10)])

# the two lists above are the same fact seen from both ends: cube the first

# -- reversal multiples --------------------------------------------------------

from digitfix import search_reversal

print()
for m in (2, 3, 4, 5):
    # a reversal hit's images are (multiplier, reversal)
    found = [(h.value, *h.images) for h in search_reversal(10, m)]
    print(f"{m}-digit multiples of their reversals: {found}")
