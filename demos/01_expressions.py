"""Expression language: parsing, evaluation, finite differences.

Every coefficient in a system document (anchors, metrics, structure
functions, candidates) is a string in this little language.
"""

from algmech import parse, partial

tree = parse("J/(h*(J+m*h^2))")
print("expression:", tree)
print("value at J=h=m=1:", tree.eval({"J": 1.0, "h": 1.0, "m": 1.0}))
print("free variables:", sorted(tree.variables()))

# printing and re-parsing is stable
assert parse(str(tree)) == tree

# derivatives are central differences under the package's one step rule:
# a base step of 1e-6 scaled by max(1, |v|) at the expansion point
energy = parse("0.5*m*v^2 + m*9.81*z")
print("d/dv at v=3:", partial(energy, "v", {"m": 2.0, "v": 3.0, "z": 0.0}))
print("d/dz:", partial(energy, "z", {"m": 2.0, "v": 3.0, "z": 0.0}))

# domain problems raise instead of producing NaN
try:
    parse("ln(x)").eval({"x": -1.0})
except Exception as err:
    print("domain error:", err)
