"""Exact elements of the binary sequence space and the basic symbolic maps.

A :class:`Word` is an eventually periodic one-sided binary sequence
w(1), w(2), ...: a minimal preperiod packed into a Python int (first bit =
most significant), then the periodic tail as the fraction s/q it is worth,
so equality of Words is equality of sequences and the maps cost O(log q)
even at periods of ~10^6 bits.

Bit positions are 1-based throughout, matching the weight 2^-i of bit i in
the valuation sum(w(i)/2^i).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, List, Tuple

__all__ = [
    "Word",
    "parse_word",
    "shift_map",
    "c_map",
    "r_map",
    "r_inverse",
    "word_value",
    "word_metric",
    "bits_of",
    "dyadic_twin",
    "with_twin",
    "periodic_words",
    "prefix_int",
]

_WORD_RE = re.compile(r"^([01]*):([01]+)$")

_M64 = (1 << 64) - 1

MAX_BITS = 24  # enumeration cap: periodic_words, conjugacy --length, max_period
MAX_STEPS = 10 ** 6  # step cap: orbit and graph-orbit --steps, steps, horizon, orbit_steps
MAX_EXPONENT = 10 ** 4  # decimal exponent cap of a rational's text, in as_unit and the CLI

_SHOWN_BOUNDS = {MAX_STEPS: "10^6", 1 << 12: "2^12"}

_SHOWN_BITS = 256
_QUOTED_CHARS = 256


def _show(x) -> str:
    """A number as text for a message, or only its size once a part passes
    _SHOWN_BITS bits (str() of an int over 4300 digits raises ValueError).
    A value with no integer ratio (a float NaN or infinity, a graph point)
    prints as its repr."""
    if not hasattr(x, "as_integer_ratio") or isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    n, d = x.as_integer_ratio()
    if max(n.bit_length(), d.bit_length()) <= _SHOWN_BITS:
        return str(x)
    sign = "negative " if n < 0 else ""
    return (f"a {sign}fraction with a {n.bit_length()}-bit numerator and a "
            f"{d.bit_length()}-bit denominator")


def _quote(text: str) -> str:
    """A caller's text for a message: its repr, or once the text passes
    _QUOTED_CHARS characters or its repr passes as many UTF-8 bytes (and
    its quotes), the repr of the longest head that does not, and its length."""
    head = text[:_QUOTED_CHARS]
    while len(repr(head).encode()) > _QUOTED_CHARS + 2:
        head = head[:-1]
    return repr(text) if head == text else f"{head!r}... ({len(text)} characters)"


def _rational(text: str) -> Fraction:
    """Fraction(text), an exponent past MAX_EXPONENT refused before Fraction
    builds 10^exponent (a text that is no rational is named as one first)."""
    exponent = re.search(r"[eE]\s*([-+]?\d+(?:_\d+)*)\s*$", text)  # as int() reads it
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        Fraction(text[:exponent.start()] + "e0")
        raise ValueError(f"exponent {_show(int(exponent[1]))} outside [-10^4, 10^4]")
    return Fraction(text)


def as_unit(y) -> Fraction:
    """y (a Fraction, an int, a float or a numeric str) as a Fraction in [0, 1]."""
    if type(y) is not Fraction:  # Fraction(y) would go through the ABC check
        try:
            y = _rational(y) if isinstance(y, str) else Fraction(y)
        except (OverflowError, ValueError):  # an infinity or a NaN: no integer ratio
            if isinstance(y, str):  # text that is no number keeps Fraction's message
                raise
            raise ValueError(f"point {y} outside [0, 1]") from None
    n, d = y.as_integer_ratio()
    if not 0 <= n <= d:
        raise ValueError(f"point {_show(y)} outside [0, 1]")
    return y


def _within(**params: Tuple[int, int, int]) -> None:
    """Reject each resource parameter name=(value, least, bound) outside
    [least, bound], a usage error: every least is checked first, then every
    bound, each in argument order.  A value that does not compare (NaN)
    fails its least."""
    for name, (value, least, _) in params.items():
        if not least <= value:
            raise ValueError(f"{name} must be at least {least}, got {_show(value)}")
    for name, (value, _, bound) in params.items():
        if value > bound:
            raise ValueError(f"{name} {_show(value)} exceeds bound "
                             f"{_SHOWN_BOUNDS.get(bound, bound)}")


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(bits: Iterable[int]) -> Tuple[int, int]:
    # the bits as binary digits, read by one int conversion
    bits = list(bits)
    if not set(bits) <= {0, 1}:
        bad = next(b for b in bits if b not in (0, 1))
        raise ValueError(f"bits must be 0 or 1, got {bad!r}")
    return len(bits), int(bytes(bits).translate(_BIT_DIGITS) or b"0", 2)


def _rot_left(value: int, length: int, n: int = 1) -> int:
    n %= length
    mask = (1 << length) - 1
    return ((value << n) | (value >> (length - n))) & mask


def _repeat_block(block: int, width: int, times: int) -> int:
    # block repeated `times`: block * (2^(width*times) - 1) / (2^width - 1)
    if times == 1:
        return block
    return block * (((1 << (width * times)) - 1) // ((1 << width) - 1))


class Word:
    """Canonical eventually periodic binary sequence.

    A word is pre_len preperiod bits, packed in pre, then a purely periodic
    tail stored as the value s/q it is worth: q is odd and divides 2^k - 1
    for the period length k.  A word made from bits has q = 2^k - 1 and s
    its primitive period block; a word made from a value keeps s/q in lowest
    terms (q = 1 for the tails 0/1 and 1/1).  The preperiod is minimal: its
    last bit differs from the last period bit, s & 1, so no preperiod bit
    can be absorbed into the cycle.  period_len k and the block period are
    worked out on first read (_read_period); the class has no __getattr__,
    which would slow every attribute read.
    """

    __slots__ = ("pre_len", "pre", "s", "q", "_period")

    def __init__(self, pre: Iterable[int] = (), period: Iterable[int] = ()):
        m, p = _pack(pre)
        k, block = _pack(period)
        if k == 0:
            raise ValueError("period must be nonempty")
        w = Word._from_packed(m, p, k, block)
        self.pre_len, self.pre, self.s, self.q = w.pre_len, w.pre, w.s, w.q

    @classmethod
    def _from_packed(cls, pre_len: int, pre: int, period_len: int, period: int) -> "Word":
        k, block = _primitive(period_len, period)
        return cls._tail(pre_len, pre, block, (1 << k) - 1)

    @staticmethod
    def _tail(pre_len: int, pre: int, s: int, q: int) -> "Word":
        # absorb preperiod bits b equal to the last period bit, s & 1: s -> (bq + s)/2
        while pre_len and (pre & 1) == (s & 1):
            pre_len -= 1
            s = (s + (pre & 1) * q) >> 1
            pre >>= 1
        return _word(pre_len, pre, s, q)

    def _read_period(self) -> Tuple[int, int]:
        """(period_len, period), worked out on the first read and kept in
        the _period slot: the order of 2 modulo q and the block it makes of
        s/q, or q's bit length and s itself when q = 2^k - 1."""
        try:
            return self._period
        except AttributeError:  # not read yet
            pass
        s, q = self.s, self.q
        if q & (q + 1):  # else q = 2^k - 1, and the block is s itself
            k = _order_of_two(q)
            s = ((s << k) - s) // q
        else:
            k = q.bit_length()
        self._period = k, s
        return k, s

    @property
    def period_len(self) -> int:
        return self._read_period()[0]

    @property
    def period(self) -> int:
        return self._read_period()[1]

    def _texts(self) -> Tuple[str, str]:
        """The preperiod and the period as bit text, first bit first."""
        pre = format(self.pre, f"0{self.pre_len}b") if self.pre_len else ""
        k, block = self._read_period()
        return pre, format(block, f"0{k}b")

    def __str__(self) -> str:
        return ":".join(self._texts())

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.pre_len != other.pre_len or self.pre != other.pre:
            return False
        # equal tails are worth the same
        if self.q == other.q:
            return self.s == other.s
        return self.s * other.q == other.s * self.q

    def __hash__(self) -> int:
        # equal words share pre_len and pre, and their tails are worth the
        # same s/q: O(1) at any length, and reads no period
        return hash((self.pre_len, self.pre & _M64, (self.s << 64) // self.q))

    def __lt__(self, other: "Word") -> bool:
        # the order of the printed text: preperiod, then period
        if not isinstance(other, Word):
            return NotImplemented
        return self._texts() < other._texts()


def _word(pre_len: int, pre: int, s: int, q: int) -> Word:
    """The Word of fields already canonical: Word._tail's absorption would
    leave them as they are."""
    w = object.__new__(Word)
    w.pre_len, w.pre, w.s, w.q = pre_len, pre, s, q
    return w


def _primitive(k: int, block: int) -> Tuple[int, int]:
    """The primitive block that the k-bit block repeats, with its length."""
    # a block repeats one of length k/p exactly when rotating it by k/p
    # leaves it unchanged; dropping each prime p of k while that holds ends
    # at the primitive period
    for prime in _factorize(k):
        while k % prime == 0 and _rot_left(block, k, k // prime) == block:
            k //= prime
            block >>= k * (prime - 1)
    return k, block


def parse_word(text: str) -> Word:
    """Parse the `pre:period` text syntax, e.g. '1:0' for 10^inf."""
    match = _WORD_RE.match(text.strip())
    if not match:
        raise ValueError(f"malformed word {_quote(text)}; expected bits in the form pre:period")
    pre, per = match.groups()
    return Word._from_packed(len(pre), int(pre or "0", 2), len(per), int(per, 2))


def prefix_int(w: Word, n: int) -> int:
    """First n bits of w packed into an int (first bit most significant)."""
    if n <= 0:
        return 0
    if n <= w.pre_len:
        return w.pre >> (w.pre_len - n)
    tail = n - w.pre_len
    # the first bits of s/q; min turns the tail 1/1 into a run of 1s
    return (w.pre << tail) | min((w.s << tail) // w.q, (1 << tail) - 1)


def shift_map(w: Word) -> Word:
    """Drop the first bit: result(i) = w(i+1).  The result keeps the last
    preperiod bit and the tail, so it is canonical as w is."""
    m, s, q = w.pre_len, w.s, w.q
    if m:
        return _word(m - 1, w.pre & ((1 << (m - 1)) - 1), s, q)
    return _word(0, 0, 2 * s - q if 2 * s > q else 2 * s, q)  # s/q doubled mod 1


def c_map(w: Word) -> Word:
    """Shift, complemented when the leading bit is 1: result(i) = w(i+1) XOR w(1).
    A complement flips the last preperiod bit and the tail's last bit,
    (q - s) & 1 for odd q, so the result is canonical as w is."""
    m, s, q = w.pre_len, w.s, w.q
    if m == 0:  # the tent on s/q: doubled, and reflected once past 1/2
        return _word(0, 0, 2 * (q - s) if 2 * s > q else 2 * s, q)
    lead = w.pre >> (m - 1)  # -lead flips every bit of the rest when it is 1
    return _word(m - 1, (w.pre ^ -lead) & ((1 << (m - 1)) - 1), q - s if lead else s, q)


def r_map(w: Word) -> Word:
    """Adjacent-XOR transform: result(i) = w(i) XOR w(i+1).

    This closed form agrees with reading off the first bits of the iterated
    c_map; the test suite checks the two against each other.
    """
    m, p = w.pre_len, w.pre
    k, block = w._read_period()
    # each preperiod bit XOR the bit after it, the last one the first period bit
    out_pre = p ^ (((p << 1) | (block >> (k - 1))) & ((1 << m) - 1))
    return Word._from_packed(m, out_pre, k, block ^ _rot_left(block, k))


def r_inverse(w: Word) -> Word:
    """The r_map preimage whose first bit is 0 (cumulative XOR from 0)."""
    m = w.pre_len
    k, block = w._read_period()
    if block.bit_count() & 1:  # an odd number of 1s flips the running XOR each time round
        k *= 2
    x, shift = prefix_int(w, m + k), 1
    while shift < m + k:  # bit i becomes w(1) XOR ... XOR w(i), by doubling
        x ^= x >> shift
        shift <<= 1
    x >>= 1  # the preimage: 0, then those running XORs
    return Word._from_packed(m, x >> k, k, x & ((1 << k) - 1))


def word_value(w: Word) -> Fraction:
    """Exact value of the binary expansion, in [0, 1]."""
    return Fraction(w.pre * w.q + w.s, w.q << w.pre_len)


MAX_PERIOD_BITS = 1 << 24  # the longest period bits_of and word_metric build


def word_metric(a: Word, b: Word) -> Fraction:
    """d(a, b) = sum |a(i) - b(i)| / 2^i, exactly.

    Cost is governed by lcm of the two period lengths, the period of the
    difference; above MAX_PERIOD_BITS it raises ValueError before
    building anything.
    """
    m = max(a.pre_len, b.pre_len)
    k = math.lcm(a._read_period()[0], b._read_period()[0])
    if k > MAX_PERIOD_BITS:
        raise ValueError(f"word_metric: lcm of the period lengths is {k} bits, "
                         "exceeds bound 2^24")
    diff_pre = prefix_int(a, m) ^ prefix_int(b, m)
    # on the primitive difference block, the gcd in Fraction is on fewer bits
    k, diff_per = _primitive(k, _aligned_period(a, m, k) ^ _aligned_period(b, m, k))
    mersenne = (1 << k) - 1
    return Fraction(diff_pre * mersenne + diff_per, mersenne << m)


def _aligned_period(w: Word, start: int, k: int) -> int:
    # period block of length k describing w from position start+1 onwards
    n, block = w._read_period()
    block = _rot_left(block, n, (start - w.pre_len) % n)
    return _repeat_block(block, n, k // n)


def _factorize(n: int) -> dict:
    """Prime factorization of n >= 1 by trial division; n is a period
    length, so this takes at most sqrt(n) steps."""
    factors: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:  # a prime above every p divided out
        factors[n] = 1
    return factors


_TRIAL_PRIMES_BELOW = 1 << 12  # the primes whose powers _order_of_two splits off


def _order_of_two(q: int) -> int | None:
    """The order of 2 modulo odd q > 1 when it is at most MAX_PERIOD_BITS,
    else None: the lcm of the orders modulo q's prime powers.  Each power
    p^a of a prime below _TRIAL_PRIMES_BELOW is split off by trial division
    and its order lifted from p's, ord(p^a) = ord(p) p^(a - t) past the t
    with p^t dividing 2^ord(p) - 1 (t > 1 for 1093 and 3511, so t is
    counted); the cofactor's order is found by _stepped_order."""
    order, p = 1, 3
    while p < _TRIAL_PRIMES_BELOW and p * p <= q:
        a = 0
        while q % p == 0:
            q //= p
            a += 1
        if a:
            k, t = _stepped_order(p), 1
            if k is None:
                return None
            while t < a and pow(2, k, p ** (t + 1)) == 1:
                t += 1
            order = math.lcm(order, k * p ** (a - t))
        p += 2
    k = _stepped_order(q) if q > 1 else 1
    return None if k is None or math.lcm(order, k) > MAX_PERIOD_BITS else math.lcm(order, k)


def _stepped_order(q: int) -> int | None:
    """The order of 2 modulo odd q > 1 when it is at most MAX_PERIOD_BITS,
    else None, by baby steps 2^j for j < m, then giant steps 2^(im): i*m - j
    takes each value above m once, so the first meeting is the least order."""
    bound = MAX_PERIOD_BITS
    m = math.isqrt(min(bound, q)) + 1  # m^2 exceeds every order to look for
    baby, x = {}, 1
    for j in range(m):
        baby[x] = j
        x = 2 * x % q
        if x == 1:  # 2 is invertible modulo q, so its powers first repeat at 1
            return j + 1 if j < bound else None
    giant = x
    for i in range(1, m + 1):
        if x in baby:
            order = i * m - baby[x]
            return order if order <= bound else None
        x = x * giant % q
    return None


def bits_of(t: Fraction) -> List[Word]:
    """All binary expansions of t, read by as_unit.

    Two expansions (ordered [...10^inf, ...01^inf]) exactly when t is a
    dyadic l/2^n strictly inside (0, 1); otherwise one.  Each keeps its tail
    as s/q in lowest terms.
    A period above MAX_PERIOD_BITS raises ValueError before it is built.
    """
    return [*reversed(_expansions(*as_unit(t).as_integer_ratio()))]


def _expansions(n: int, d: int, m: int = 0, c: int = 0) -> Tuple[Word, ...]:
    """The words that are the m bits c (packed, first bit most significant)
    followed by a binary expansion of n/d (in lowest terms, in [0, 1]), in
    fiber order (with_twin): two for a dyadic strictly inside (0, 1), else
    one.  Each is one Word._tail; a period above MAX_PERIOD_BITS raises
    ValueError before it is built."""
    if n == d:
        return (Word._tail(m, c, 1, 1),)
    a = (d & -d).bit_length() - 1  # power of 2 in d
    d_odd = d >> a
    # the period, the order of 2 modulo d_odd, has at most d_odd - 1 bits
    if d_odd - 1 > MAX_PERIOD_BITS and _order_of_two(d_odd) is None:
        raise ValueError("bits_of: the expansion's period exceeds bound 2^24")
    w = Word._tail(m + a, (c << a) | n // d_odd, n % d_odd, d_odd)
    return with_twin(w) if d_odd == 1 and n else (w,)


def dyadic_twin(w: Word) -> Word | None:
    """The other binary expansion of w's value, if there is one (with_twin)."""
    fib = with_twin(w)
    return fib[w.s] if len(fib) == 2 else None


def with_twin(w: Word) -> Tuple[Word, ...]:
    """w's fiber of expansions as a tuple in (preperiod, period) order: w
    alone, or a dyadic pair (u01^inf, u10^inf), whose preperiods u0 and u1
    differ in their last bit only.  The expansions u10^inf and u01^inf of a
    dyadic pair up, and no other word shares its value with a second word."""
    if w.pre_len == 0 or w.q != 1:  # a tail worth b/1 is b^inf
        return (w,)
    # canonical: the preperiod ends in the bit its constant tail does not repeat
    twin = _word(w.pre_len, w.pre + (1 if w.s else -1), 1 - w.s, 1)
    return (w, twin) if w.s else (twin, w)


def periodic_words(n: int) -> List[Word]:
    """All words fixed by the n-fold shift (period dividing n); 2^n of them."""
    _within(n=(n, 1, MAX_BITS))
    return [Word._from_packed(0, 0, n, seed) for seed in range(1 << n)]
