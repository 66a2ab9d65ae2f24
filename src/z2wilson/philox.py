"""Philox4x64-10 with numpy's seeding, ``random()`` and ``binomial``.

``Philox(seed)`` draws the same numbers, bit for bit, as
``numpy.random.Generator(numpy.random.Philox(seed))``: the key is
``SeedSequence(seed).generate_state(2, uint64)``, the stream is the
counter-based Philox4x64-10 of Salmon et al. (SC'11), ``random()`` is
numpy's 53-bit double and ``binomial`` numpy's inversion / BTPE sampler
(Kachitvichyanukul & Schmeiser, CACM 31, 216 (1988)), with its int64
arithmetic.  Holding the stream here keeps reruns byte-identical across
numpy versions, and a draw loads neither ``numpy.random`` nor OpenSSL.
"""

from math import exp, floor, log, log1p, sqrt

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _mix_seed(seed: int) -> tuple[int, int]:
    """The two uint64 key words ``SeedSequence(seed)`` generates."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)

    def hasher(const: int, mult: int):
        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = (const * mult) & _M32
            value = (value * const) & _M32
            return value ^ (value >> 16)
        return hashmix

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _wrap(x: int) -> int:
    """``x`` as C's int64 arithmetic leaves it (two's complement)."""
    return (x + (1 << 63) & _M64) - (1 << 63)


class Philox:
    """Philox4x64-10 keyed by ``SeedSequence(seed)``; see the module."""

    def __init__(self, seed: int):
        self._key = _mix_seed(seed)
        self._ctr = 0                   # the 256-bit counter
        self._buffer: list[int] = []

    def random_raw(self) -> int:
        """Next uint64 of the stream."""
        if not self._buffer:
            self._ctr = (self._ctr + 1) & ((1 << 256) - 1)
            c0, c1, c2, c3 = (self._ctr >> s & _M64 for s in (0, 64, 128, 192))
            k0, k1 = self._key
            for _ in range(10):
                p0 = 0xD2E7470EE14C6C93 * c0
                p1 = 0xCA5A826395121157 * c2
                c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _M64,
                                  (p0 >> 64) ^ c3 ^ k1, p0 & _M64)
                k0 = (k0 + 0x9E3779B97F4A7C15) & _M64
                k1 = (k1 + 0xBB67AE8584CAA73B) & _M64
            self._buffer = [c3, c2, c1, c0]
        return self._buffer.pop()

    def random(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits of a draw."""
        return (self.random_raw() >> 11) * 2.0 ** -53

    def binomial(self, n: int, p: float) -> int:
        """One Binomial(n, p) draw, 0 <= n < 2**63, 0 <= p <= 1."""
        if not 0 <= n < 1 << 63:
            raise ValueError(f"n must be in [0, 2**63), got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return (self._inversion if p * n <= 30.0 else self._btpe)(n, p)
        q = 1.0 - p
        return n - (self._inversion if q * n <= 30.0 else self._btpe)(n, q)

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = exp(n * log1p(-p))
        mean = n * p
        bound = mean + 10.0 * sqrt(mean * q + 1)
        bound = int(float(n) if float(n) < bound else bound)
        x, px, u = 0, qn, self.random()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        # p <= 0.5 here: numpy's r = min(p, 1 - p) is p
        q = 1.0 - p
        fm = n * p + p
        m = floor(fm)
        p1 = floor(2.195 * sqrt(n * p * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * p)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * p * q
        while True:
            u = self.random() * p4
            v = self.random()
            if not u > p1:
                return floor(xm - p1 * v + u)
            if not u > p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif not u > p3:
                if v == 0.0:
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not 20 < k < nrq / 2.0 - 1:
                # explicit evaluation of the ratio f(y) / f(m)
                s = p / q
                a = s * _wrap(n + 1)
                f = 1.0
                for i in range(m + 1, y + 1):
                    f *= a / i - s
                for i in range(y + 1, m + 1):
                    f /= a / i - s
                if not v > f:
                    return y
                continue
            # squeeze on log(v), then the Stirling bound
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666)
                               / nrq + 0.5)
            t = _wrap(-k * k) / (2 * nrq)
            big_a = _c_log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            # in doubles, as numpy's compiled sampler forms them
            x1 = float(y) + 1.0
            f1 = float(m) + 1.0
            z = float(n) + 1.0 - float(m)
            w = float(n) - float(y) + 1.0
            if not big_a > (xm * log(f1 / x1) + (n - m + 0.5) * log(z / w)
                            + (y - m) * log(w * p / (x1 * q))
                            + _stirling(f1) + _stirling(z)
                            + _stirling(x1) + _stirling(w)):
                return y


def _c_log(x: float) -> float:
    """C's ``log``: -inf at 0 and nan below, where ``math.log`` raises."""
    if x > 0.0:
        return log(x)
    return -float("inf") if x == 0.0 else float("nan")


def _stirling(x: float) -> float:
    """Stirling-series term of BTPE's final acceptance bound."""
    x2 = x * x
    return ((13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2)
            / x / 166320.)
