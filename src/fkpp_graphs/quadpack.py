"""QUADPACK's dqagse, ported line for line from scipy.integrate.

Globally adaptive quadrature (Piessens et al., QUADPACK, Springer 1983):
dqk21, the 21-point Gauss-Kronrod rule with its error estimate; dqpsrt,
which keeps the subintervals ordered by error; dqelg, Wynn's epsilon
algorithm; and dqagse, which bisects the subinterval of largest error and
extrapolates.  qagse returns what scipy.integrate's _qagse does (value,
error estimate, ier, last and the subinterval lists), bit for bit: the
same operations in the same order, so the period functions keep their bits
without loading scipy.integrate.

The integrand is evaluated a panel at a time: f(centr, hlgth) lists its
values at the 21 nodes centr + hlgth x, x in X21, which saves a Python call
per node.  Lists are 1-based, as in QUADPACK, with a placeholder in place 0,
and every test keeps QUADPACK's sense (not (x > y) rather than x <= y), so
a NaN takes the branch it takes there.
qk21_columns runs qk21 and qagse's first-panel exit on one numpy column
per integrand, with the same bits and decisions.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["qagse", "qk21", "qk21_columns"]

EPMACH = sys.float_info.epsilon    # QUADPACK's d1mach(4)
_UFLOW = sys.float_info.min        # d1mach(1)
_OFLOW = sys.float_info.max        # d1mach(2)
_LIMEXP = 50    # dqelg's table holds at most this many elements, plus two
# dqagse refuses epsabs <= 0 with an epsrel below this (ier = 6)
_MIN_EPSREL = max(50.0 * EPMACH, 5e-29)

# QUADPACK's dqk21 on [-1, 1], as printed there: Kronrod abscissae XGK
# (XGK[1::2] are the 10-point Gauss nodes), Kronrod weights WGK (the last
# one the center's) and Gauss weights WG.
XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208931783077, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
      0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)
# qk21's nodes centr + hlgth x: the center, then centr - hlgth XGK and
# centr + hlgth XGK, each in XGK's order (hlgth (-x) is -(hlgth x) exactly)
X21 = (0.0, *(-x for x in XGK), *XGK)
# qk21_columns' rows: the center, then pair j (nodes -+XGK[j]) in row j + 1,
# weighted by _WGK; _KRONROD_ROWS takes X21's rows to qk21's order
_WGK = np.array(WGK[10:] + WGK[:10])[:, None]
_KRONROD_ROWS = np.r_[0:11:2, 1:10:2, 12:21:2, 11:20:2]
_WGK_KRONROD, _WG = _WGK[_KRONROD_ROWS[:11]], np.array(WG)[:, None]


def qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK's dqk21 on [a, b]: (result, abserr, resabs, resasc).

    f(centr, hlgth) lists the integrand at the nodes centr + hlgth x, x in
    X21.  The 21-point Kronrod value, its error estimate, and the rule
    applied to |f| and to |f - mean| are summed in dqk21's order: the
    center, the Gauss pairs, then the other Kronrod pairs (resasc in node
    order).  Where no value is negative, the rule on |f| is the Kronrod sum
    itself, term for term.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = f(centr, hlgth)
    fc, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, h0, h1, h2, h3, h4, h5, h6, h7, h8, h9 = fv
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10 = WGK
    g0, g1, g2, g3, g4 = WG
    s0, s1, s2, s3, s4 = l0 + h0, l1 + h1, l2 + h2, l3 + h3, l4 + h4
    s5, s6, s7, s8, s9 = l5 + h5, l6 + h6, l7 + h7, l8 + h8, l9 + h9
    resg = 0.0 + g0 * s1 + g1 * s3 + g2 * s5 + g3 * s7 + g4 * s9
    wc = w10 * fc
    resk = wc + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9 \
        + w0 * s0 + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8
    if min(fv) >= 0.0:
        resabs = resk
    else:
        resabs = abs(wc) + w1 * (abs(l1) + abs(h1)) + w3 * (abs(l3) + abs(h3)) \
            + w5 * (abs(l5) + abs(h5)) + w7 * (abs(l7) + abs(h7)) \
            + w9 * (abs(l9) + abs(h9)) + w0 * (abs(l0) + abs(h0)) \
            + w2 * (abs(l2) + abs(h2)) + w4 * (abs(l4) + abs(h4)) \
            + w6 * (abs(l6) + abs(h6)) + w8 * (abs(l8) + abs(h8))
    m = resk * 0.5
    resasc = w10 * abs(fc - m) + w0 * (abs(l0 - m) + abs(h0 - m)) \
        + w1 * (abs(l1 - m) + abs(h1 - m)) + w2 * (abs(l2 - m) + abs(h2 - m)) \
        + w3 * (abs(l3 - m) + abs(h3 - m)) + w4 * (abs(l4 - m) + abs(h4 - m)) \
        + w5 * (abs(l5 - m) + abs(h5 - m)) + w6 * (abs(l6 - m) + abs(h6 - m)) \
        + w7 * (abs(l7 - m) + abs(h7 - m)) + w8 * (abs(l8 - m) + abs(h8 - m)) \
        + w9 * (abs(l9 - m) + abs(h9 - m))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc min(1, x^1.5), with no power that could overflow
        ratio = 200.0 * abserr / resasc
        abserr = resasc if ratio >= 1.0 else resasc * ratio ** 1.5
    if resabs > _UFLOW / (50.0 * EPMACH):
        abserr = max(EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _kronrod(fv):
    """dqk21's Kronrod sum of each column of fv, and its Gauss pairs' sums."""
    rows = fv.take(_KRONROD_ROWS, axis=0)
    rows[1:11] += rows[11:]
    return np.add.accumulate(_WGK_KRONROD * rows[:11])[-1], rows[1:6]


def qk21_columns(fv, a: float, b: float, epsabs: float, epsrel: float):
    """qk21 on [a, b] for each column of fv, and qagse's exit after it.

    fv is (21, N): N integrands at the nodes centr + hlgth x, x in X21.
    Returns (result, abserr, exits), each column's to the bit: qk21's result
    and abserr, and whether qagse(f, a, b, epsabs, epsrel, limit > 1) returns
    after this first panel (it needs epsabs > 0 or epsrel >= _MIN_EPSREL).
    Sums run in qk21's order, each power is Python's, and Python's max(x, y)
    is fmax: only y can be NaN, and then max gives x.
    """
    hlgth = 0.5 * (b - a)
    with np.errstate(all="ignore"):
        resk, gauss = _kronrod(fv)
        resabs = (resk if (fv >= 0.0).all() else _kronrod(np.abs(fv))[0]) * abs(hlgth)
        resg = np.add.accumulate(_WG * gauss)[-1]    # qk21's 0.0 + only signs a 0
        dev = np.abs(fv - resk * 0.5)
        dev[1:11] += dev[11:]
        resasc = np.add.accumulate(_WGK * dev[:11])[-1] * abs(hlgth)
        abserr = np.abs((resk - resg) * hlgth)
        ratio = np.minimum(200.0 * abserr / resasc, 1.0)    # resasc min(1, x^1.5)
        np.multiply(resasc, [r ** 1.5 for r in ratio.tolist()], out=abserr,
                    where=(resasc != 0.0) & (abserr != 0.0))
        np.fmax(EPMACH * 50.0 * resabs, abserr, out=abserr,
                where=resabs > _UFLOW / (50.0 * EPMACH))
        result = resk * hlgth
        errbnd = np.fmax(epsabs, epsrel * np.abs(result))
        # past errbnd (or NaN), qagse ends on ier = 2 where roundoff rules
        exits = np.where(abserr <= errbnd, abserr != resasc,
                         abserr <= 100.0 * EPMACH * resabs) | (abserr == 0.0)
    return result, abserr, exits


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """QUADPACK's dqpsrt: keep iord, the subintervals by descending error,
    after subinterval maxerr was split into maxerr and last.

    Lists are 1-based, as in QUADPACK; only the first limit + 3 - last
    places stay sorted once last passes limit / 2 + 2.  Returns (maxerr,
    errmax, nrmax) for the next bisection.
    """
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):    # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):    # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """QUADPACK's dqelg: Wynn's epsilon algorithm on epstab[1..n].

    epstab (52 places) and res3la (the last three results) are 1-based and
    updated in place.  Returns (n, result, abserr, nres).
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1    # two close elements: drop the rest of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1    # irregular behaviour: drop the rest of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1    # shift the table
        epstab[ib:ib + 2 * newelm + 1:2] = epstab[ib + 2:ib + 2 * newelm + 3:2]
        if num != n:
            epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + \
                abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's dqagse: globally adaptive dqk21 with Wynn's extrapolation.

    Returns what scipy.integrate's _qagse does, bit for bit: (result,
    abserr, ier, last, alist, blist, rlist, elist), each list's first last
    places holding the subintervals' ends, results and error estimates.
    The first panel's exit is tested before any list is built.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < _MIN_EPSREL):
        return 0.0, 0.0, 6, 0, (0.0, a), (0.0, b), (0.0, 0.0), (0.0, 0.0)
    result, abserr, defabs, resabs = qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 2 if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd else 0
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1, (0.0, a), (0.0, b), (0.0, result), (0.0, abserr)

    alist, blist, rlist, elist = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr]
    iord = [0, 1]
    rlist2 = [0.0, result] + [0.0] * (_LIMEXP + 1)    # dqelg's table
    res3la = [0.0] * 4
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = qk21(f, a1, b1)
        area2, error2, resabs, defab2 = qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _summed(ier, last, rlist, errsum, alist, blist, elist)
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, unless there are none left in the sorted part
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    # the extrapolated result, or the sum over the subintervals
    if abserr == _OFLOW:
        return _summed(ier, last, rlist, errsum, alist, blist, elist)
    if ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _summed(ier, last, rlist, errsum, alist, blist, elist)
        elif abserr > errsum:
            return _summed(ier, last, rlist, errsum, alist, blist, elist)
        elif area == 0.0:
            return result, abserr, ier - (ier > 2), last, alist, blist, rlist, elist
    # test on divergence
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # result / area as IEEE division: +-inf, or NaN for 0 / 0
        ratio = result / area if area != 0.0 else (math.inf if result != 0.0 else math.nan)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - (ier > 2), last, alist, blist, rlist, elist


def _summed(ier, last, rlist, errsum, alist, blist, elist):
    """dqagse's exit through the sum of the subinterval results, in order."""
    result = 0.0
    for k in range(1, last + 1):
        result += rlist[k]
    return result, errsum, ier - (ier > 2), last, alist, blist, rlist, elist
