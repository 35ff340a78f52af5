"""Golden bytes: the sha256 of CLI standard output on fixed problems.

The digests pin certificates, verify reports, lifts, a Weierstrass
preparation, module-isomorphism verdicts, a linear factorization,
reduced Groebner bases over Q and outputs over Q(sqrt 2) byte for byte, so a refactor that claims
identical output is checked here.  A deliberate change of output must
update a digest and say so in the changelog.
"""

import hashlib

import pytest

from desing.cli import main

NODE = """\
[field]
Q
[variables]
base x
algebra Y1 Y2
[ideal]
Y1*Y2 - x^2
[morphism]
Y1 = 2*x^2 + 2*x + O(x^24)
Y2 = 1/2*x^23 - 1/2*x^22 + 1/2*x^21 - 1/2*x^20 + 1/2*x^19 - 1/2*x^18 + 1/2*x^17 - 1/2*x^16 + 1/2*x^15 - 1/2*x^14 + 1/2*x^13 - 1/2*x^12 + 1/2*x^11 - 1/2*x^10 + 1/2*x^9 - 1/2*x^8 + 1/2*x^7 - 1/2*x^6 + 1/2*x^5 - 1/2*x^4 + 1/2*x^3 - 1/2*x^2 + 1/2*x + O(x^24)
"""

CHAIN_K2 = """\
[field]
Q
[variables]
base x
algebra Y1 Y2 Y3
[ideal]
Y1*Y2 - x^2
Y3 - Y2^2
[morphism]
Y1 = 2*x^2 - 2*x + O(x^24)
Y2 = -1/2*x^23 - 1/2*x^22 - 1/2*x^21 - 1/2*x^20 - 1/2*x^19 - 1/2*x^18 - 1/2*x^17 - 1/2*x^16 - 1/2*x^15 - 1/2*x^14 - 1/2*x^13 - 1/2*x^12 - 1/2*x^11 - 1/2*x^10 - 1/2*x^9 - 1/2*x^8 - 1/2*x^7 - 1/2*x^6 - 1/2*x^5 - 1/2*x^4 - 1/2*x^3 - 1/2*x^2 - 1/2*x + O(x^24)
Y3 = 11/2*x^23 + 21/4*x^22 + 5*x^21 + 19/4*x^20 + 9/2*x^19 + 17/4*x^18 + 4*x^17 + 15/4*x^16 + 7/2*x^15 + 13/4*x^14 + 3*x^13 + 11/4*x^12 + 5/2*x^11 + 9/4*x^10 + 2*x^9 + 7/4*x^8 + 3/2*x^7 + 5/4*x^6 + x^5 + 3/4*x^4 + 1/2*x^3 + 1/4*x^2 + O(x^24)
"""

SQRT2_NODE = """\
[field]
Q
[series-field]
Q(r) r^2 - 2
[variables]
base x
algebra Y1
[ideal]
Y1^2 - (8*x^4 + 16*x^3 + 8*x^2)
[morphism]
Y1 = 2*r*x^2 + 2*r*x + O(x^24)
"""

# Y1*Y2 - x^2 over Q(s), s^3 - 1/2*s + 1/3, whose mu is not integral:
# Y1 = s*x*(1 + x) and Y2 = s^-1*x/(1 + x), s^-1 = -3*s^2 + 3/2
CUBIC_NODE = """\
[field]
Q
[series-field]
Q(s) s^3 - 1/2*s + 1/3
[variables]
base x
algebra Y1 Y2
[ideal]
Y1*Y2 - x^2
[morphism]
Y1 = s*x + s*x^2 + O(x^48)
Y2 = -3*s^2*x + 3/2*x + 3*s^2*x^2 - 3/2*x^2 - 3*s^2*x^3 + 3/2*x^3 + 3*s^2*x^4 - 3/2*x^4 - 3*s^2*x^5 + 3/2*x^5 + 3*s^2*x^6 - 3/2*x^6 - 3*s^2*x^7 + 3/2*x^7 + 3*s^2*x^8 - 3/2*x^8 - 3*s^2*x^9 + 3/2*x^9 + 3*s^2*x^10 - 3/2*x^10 - 3*s^2*x^11 + 3/2*x^11 + 3*s^2*x^12 - 3/2*x^12 - 3*s^2*x^13 + 3/2*x^13 + 3*s^2*x^14 - 3/2*x^14 - 3*s^2*x^15 + 3/2*x^15 + 3*s^2*x^16 - 3/2*x^16 - 3*s^2*x^17 + 3/2*x^17 + 3*s^2*x^18 - 3/2*x^18 - 3*s^2*x^19 + 3/2*x^19 + 3*s^2*x^20 - 3/2*x^20 - 3*s^2*x^21 + 3/2*x^21 + 3*s^2*x^22 - 3/2*x^22 - 3*s^2*x^23 + 3/2*x^23 + 3*s^2*x^24 - 3/2*x^24 - 3*s^2*x^25 + 3/2*x^25 + 3*s^2*x^26 - 3/2*x^26 - 3*s^2*x^27 + 3/2*x^27 + 3*s^2*x^28 - 3/2*x^28 - 3*s^2*x^29 + 3/2*x^29 + 3*s^2*x^30 - 3/2*x^30 - 3*s^2*x^31 + 3/2*x^31 + 3*s^2*x^32 - 3/2*x^32 - 3*s^2*x^33 + 3/2*x^33 + 3*s^2*x^34 - 3/2*x^34 - 3*s^2*x^35 + 3/2*x^35 + 3*s^2*x^36 - 3/2*x^36 - 3*s^2*x^37 + 3/2*x^37 + 3*s^2*x^38 - 3/2*x^38 - 3*s^2*x^39 + 3/2*x^39 + 3*s^2*x^40 - 3/2*x^40 - 3*s^2*x^41 + 3/2*x^41 + 3*s^2*x^42 - 3/2*x^42 - 3*s^2*x^43 + 3/2*x^43 + 3*s^2*x^44 - 3/2*x^44 - 3*s^2*x^45 + 3/2*x^45 + 3*s^2*x^46 - 3/2*x^46 - 3*s^2*x^47 + 3/2*x^47 + O(x^48)
"""

SMOOTH = """\
[field]
Q
[variables]
base x
algebra Y1 Y2
[ideal]
Y1 - x^2
[morphism]
Y1 = x^2 + O(x^12)
Y2 = x + O(x^12)
"""

# the reduction path: every image of the smoothing ideal (Y1, Y2) of
# (Y1*Y2) vanishes, one step reaches its reduced basis (Y1, Y2), and that
# algebra is smooth at v, so the certificate is a short circuit
REDUCTION = """\
[field]
Q
[variables]
base x
algebra Y1 Y2
[ideal]
Y1*Y2
[morphism]
Y1 = O(x^12)
Y2 = O(x^12)
"""

LIFT_Q = """\
[field]
Q
[variables]
base x
algebra Y
[ideal]
Y^2 - (1 + x - 2*x^2)
[start]
Y = 1 + O(x)
[options]
target 40
c 0
"""

LIFT_NODE = """\
[field]
Q
[variables]
base x
algebra Y
[ideal]
Y^2 - (x^2 + 2*x^3 - 2*x^4)
[start]
Y = x + x^2 + O(x^3)
[options]
target 32
c 1
"""

LIFT_GF = """\
[field]
GF 32003
[variables]
base x
algebra Y
[ideal]
Y^2 - (1 + 5*x + 7*x^3)
[start]
Y = 1 + O(x)
[options]
target 64
c 0
"""

# the benchmark's seed-1 lifts: GF(32003) to x^1024 and Q to x^256
LIFT_SQRT_GF_1024 = """\
[field]
GF 32003
[variables]
base x
algebra Y
[ideal]
Y^2 - (26289*x^3 + 27769*x^2 + 18652*x + 1)
[start]
Y = 1 + O(x)
[options]
target 1024
c 0
"""

LIFT_SQRT_Q_256 = """\
[field]
Q
[variables]
base x
algebra Y
[ideal]
Y^2 - (-2*x^2 + x + 1)
[start]
Y = 1 + O(x)
[options]
target 256
c 0
"""

WEIERSTRASS = """\
[field]
Q
[variables]
ring y x
[series]
x^2 + y + x*y + x^3 - y^2*x + y^3 - 2*x^4*y + O(y^10)
"""

# u*X = Y*v with X = [[2 + x, 1], [1, 1]], v = M*u*X for M = [[1, x], [0, 1]],
# Y = M^-1, Z = M and W = 1/det(X) = 1/(1 + x)
MODULE_ISO = """\
[field]
Q
[variables]
base x
[umatrix]
x + O(x^8) ; 1 + x + O(x^8)
x^2 + O(x^8) ; x + O(x^8)
[vmatrix]
x^4 + 2*x^3 + 2*x^2 + 3*x + 1 + O(x^8) ; x^3 + x^2 + 2*x + 1 + O(x^8)
x^3 + 2*x^2 + x + O(x^8) ; x^2 + x + O(x^8)
[candidate]
X1_1 = 2 + x + O(x^8)
X1_2 = 1 + O(x^8)
X2_1 = 1 + O(x^8)
X2_2 = 1 + O(x^8)
Y1_1 = 1 + O(x^8)
Y1_2 = -x + O(x^8)
Y2_1 = 0 + O(x^8)
Y2_2 = 1 + O(x^8)
Z1_1 = 1 + O(x^8)
Z1_2 = x + O(x^8)
Z2_1 = 0 + O(x^8)
Z2_2 = 1 + O(x^8)
W = 1 - x + x^2 - x^3 + x^4 - x^5 + x^6 - x^7 + O(x^8)
"""

# Z1_2 = x + x^5 breaks Z*(u*X) = v from x^5 on
MODULE_ISO_REJECTED = MODULE_ISO.replace("Z1_2 = x +", "Z1_2 = x + x^5 +")

LINEAR_FACTOR = """\
[field]
Q
[variables]
base x
[matrix]
-2 ; 2*x + 1 ; -x + 1 ; -1
x ; -2 ; x^2 ; x - 1
[rhs]
-3*x - 6
-x^2 + 2*x + 3
[solution]
4*x^11 - 6*x^10 - 5*x^9 + 8*x^8 + 8*x^7 - 10*x^6 - 4*x^5 + 3*x^4 + 4*x^2 - 8*x + 5 + O(x^12)
7*x^11 + 4*x^10 - 2*x^9 - 6*x^8 - 2*x^7 + 4*x^6 + 3*x^5 - 2*x^4 - 4*x^2 + x - 1 + O(x^12)
-17*x^11 - x^10 + 14*x^9 + 12*x^8 - 12*x^7 - 23*x^6 + 6*x^5 + 12*x^4 + 4*x^3 + x^2 - 14*x + 4 + O(x^12)
-9*x^11 - 3*x^10 - 2*x^9 - 2*x^8 + x^7 + x^6 + x^5 - 5*x^3 + 5*x^2 - 1 + O(x^12)
"""

# reduced bases over Q, where a division kernel in content form (integer
# numerators over one denominator) would show any growth or drift: katsura-5
# and two systems with coprime fractional coefficients
KATSURA5_Q = """\
[field]
Q
[variables]
ring u0 u1 u2 u3 u4 u5
[ideal]
u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 + 2*u5 - 1
u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 + 2*u5^2 - u0
2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 + 2*u4*u5 - u1
u1^2 + 2*u0*u2 + 2*u1*u3 + 2*u2*u4 + 2*u3*u5 - u2
2*u1*u2 + 2*u0*u3 + 2*u1*u4 + 2*u2*u5 - u3
u2^2 + 2*u1*u3 + 2*u0*u4 + 2*u1*u5 - u4
"""

FRACTIONAL_3 = """\
[field]
Q
[variables]
ring x y z
[ideal]
x^3 - 2/3*y*z + 1/5
3/7*y^2 - 5/2*x*z + 2/11
z^2 - 4/13*x*y + 7/3*x - 1/2
"""

FRACTIONAL_4 = """\
[field]
Q
[variables]
ring x y z w
[ideal]
x^2 - 2/3*y*z + 1/5*w
3/7*y^2 - 5/2*x*w + 2/11
z^2 - 4/13*x*y + 7/3*w - 1/2
w^2 - 6/17*x*z + 3/19*y
"""

# over Q(sqrt 2), where bases are computed over Q with r a last variable
# and mu = r^2 - 2 a generator: katsura-5 with r in three equations, an
# ideal quotient, the Weierstrass preparation W24 and a lift whose witness
# search takes ideal quotients over Q(r)
KATSURA5_SQRT2 = """\
[field]
Q(r) r^2 - 2
[variables]
ring a b c d e
[ideal]
a + 2*b + 2*c + 2*d + 2*e - 1
a^2 + 2*b^2 + 2*c^2 + 2*d^2 + 2*e^2 - r*a
2*a*b + 2*b*c + 2*c*d + 2*d*e - r*b
b^2 + 2*a*c + 2*b*d + 2*c*e - c
2*b*c + 2*a*d + 2*b*e - r*d
"""

QUOTIENT_SQRT2 = """\
[field]
Q(r) r^2 - 2
[variables]
ring x y z
[ideal]
x^2*y - r*z^2
x*y^2 - (1 + r)*x*z
y^3 - 2*z
[ideal2]
x + r*y
y*z - r
"""

W24 = """\
[field]
Q(r) r^2 - 2
[variables]
ring y x
[series]
x^2 + r*x^3 + y + r*y*x + 3*y^2 + (1+r)*x^4 + O(y^24)
"""

LIFT_SQRT2 = """\
[field]
Q(r) r^2 - 2
[variables]
base x
algebra Y
[ideal]
Y^2 - (x^2 + 2*r*x^3 - 2*x^4)
[start]
Y = x + r*x^2 + O(x^3)
[options]
target 32
c 1
"""

# (subcommand, problem) -> sha256 of standard output
GOLDEN = {
    ("gnd", "NODE"):
        "cf035600ee7139fefc624e6604cc1d24492682c62ce6873e3c41c68c68e0298b",
    ("gnd", "CHAIN_K2"):
        "c55039a5eefef26b5ed019b5ab32c02eda68808476afeb16a89f73eec73a95d7",
    ("gnd", "SQRT2_NODE"):
        "2fe1eb1c5d7d9ffffe2e867a4b129f118a54bd680b44410a2bed80c0a2bdf1b5",
    ("gnd", "CUBIC_NODE"):
        "4c3310491a0d128b9b0d9c03bd3f18707c16a1f7e962c64ce58eb1d6438e3170",
    ("gnd", "SMOOTH"):
        "041acad824c3acc370387f55008b1dec6fea81e713dc85886a5d6aadc5add8d5",
    ("gnd", "REDUCTION"):
        "8597d7a24a74ace9b2071dee8707b2c9947d8ffb6269adc3b899bcd3f7c5771a",
    ("lift", "LIFT_Q"):
        "1b0c01f97579ad1f495eaabedfb8458c944ee342a3e0161e2a3d2c1bb5091f45",
    ("lift", "LIFT_NODE"):
        "942873ba7d45377a787a152ef502da285f6d8c3d6bd05241bf4647578cb31e5e",
    ("lift", "LIFT_GF"):
        "aa3a4dc00e18965a826357ba87787fa091c13452882f7696aae7a5a2eaf406e5",
    ("lift", "LIFT_SQRT_GF_1024"):
        "923a0e8d4a1a349c8d8fc735476ed6b0f2e323885da0fc14daf3b3be3400b785",
    ("lift", "LIFT_SQRT_Q_256"):
        "f37ff09ceee74a503bec458abc9ee5507cfe071e4a7008244540b2d9b08b7797",
    ("weierstrass", "WEIERSTRASS"):
        "2034ccb07ad3301d59b4ac8a2c452747048b715b6793fa5e04448cf46a704fb5",
    ("module-iso", "MODULE_ISO"):
        "5ad74103a9031f0298583c9afea5435f888ab128fefbab0fe1a37815124cb609",
    ("module-iso", "MODULE_ISO_REJECTED"):
        "55a46f9ed24f03da7de57ef243e1d9bcee319df4749c323be951de64abaaea13",
    ("linear-factor", "LINEAR_FACTOR"):
        "572a693f667e4037a35a084b647657a270d6e091267dbf0c12104180698baf39",
    ("groebner", "KATSURA5_Q"):
        "22bd5bc270241a54f5b00a4ae816e57ae93a272186934ca4f5b1fda33a965548",
    ("groebner", "FRACTIONAL_3"):
        "554da4ed68400fa45ccd620a7ae8250b324cf72b2d4555a7161c828aeb6a7923",
    ("groebner", "FRACTIONAL_4"):
        "24abdc39bdaa2cccbe4d3b6da8395dac0da9140082f1b83eaef10aeb857d3759",
    ("groebner", "KATSURA5_SQRT2"):
        "e0496a13a110d225c498bd7db2423981e2cbe374da52ea2d6be722f91599616f",
    ("quotient", "QUOTIENT_SQRT2"):
        "463977b89c1f11c04be069a0e21324ebb508b68c80ead5279b1fe70231e794f9",
    ("weierstrass", "W24"):
        "d7d2c8e75f1336dae14a6f7a15298f5a26f6b870f7d777f9f9b9a39e429d5e97",
    ("lift", "LIFT_SQRT2"):
        "a603a949a4a675695e83dae8b109aef887f8d373d063b6d7121f8155b03f54cb",
}
VERIFY_CHAIN_K2 = (
    "836a5699ac2a9e81eafc5595695b5fcd790795a0a0e4fc497a242165aa471f24")


def _stdout(capsys, tmp_path, subcommand, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    capsys.readouterr()
    assert main([subcommand, "--input", str(path)]) == 0
    return capsys.readouterr().out


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("subcommand,problem", sorted(GOLDEN))
def test_golden_stdout(capsys, tmp_path, subcommand, problem):
    out = _stdout(capsys, tmp_path, subcommand, globals()[problem])
    assert _sha(out) == GOLDEN[subcommand, problem]


def test_golden_verify_report(capsys, tmp_path):
    cert = _stdout(capsys, tmp_path, "gnd", CHAIN_K2)
    assert _sha(cert) == GOLDEN["gnd", "CHAIN_K2"]
    report = _stdout(capsys, tmp_path, "verify", cert)
    assert _sha(report) == VERIFY_CHAIN_K2
