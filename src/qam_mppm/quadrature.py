"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGS with a panel integrand.

qags is a line-for-line port of QUADPACK's dqagse with its helpers dqk21,
dqpsrt and dqelg (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983): the 21-point Gauss-Kronrod rule on each panel,
bisection of the panel with the largest error estimate, and the epsilon
algorithm's extrapolation.  It differs from the Fortran only in how it calls
the integrand: f receives the 21 nodes of one panel as one array, the
centre first, then centre - hlgth * xgk and centre + hlgth * xgk, and
returns their 21 values.  The panel sums, the error formula, the bisection
order and the extrapolation run on Python floats in QUADPACK's own order,
so the value and error estimate are those of scipy's ``quad`` bit for
bit.  Arrays are 1-based, as in the Fortran: element 0 is unused.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["qags"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# The abscissae xgk(1..10) of the 21-point Kronrod rule on [0, 1] (the even
# ones are the 10-point Gauss nodes), its weights wgk(1..11) (the last one
# the centre's) and the Gauss weights wg(1..5) of xgk(2), xgk(4), ...
_XGK = np.array([0.995657163025808080735527280689003,
                 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508,
                 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042,
                 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694,
                 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866,
                 0.148874338981631210884826001129720])
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def qags(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50) -> tuple[float, float, int]:
    """Integral of f over [a, b] to max(epsabs, epsrel * |integral|).

    Returns (value, error estimate, ier) with dqagse's ier: 0 converged,
    1 limit subintervals used, 2 roundoff detected, 3 bad integrand
    behaviour, 4 roundoff in the extrapolation table, 5 probably divergent.
    Invalid tolerances or limit raise ValueError, as quad does.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("if epsabs <= 0, epsrel must exceed 5e-29 and 50 * machine epsilon")
    alist, blist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    rlist, elist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    alist[1], blist[1] = a, b
    ier = ierro = 0

    # First approximation to the integral and test on accuracy.  dqagse
    # names qk21's integrals of |f| and |f - mean| defabs and resabs.
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # Initialization.
    rlist2[1] = result
    errmax, maxerr = abserr, 1
    area, errsum = result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False  # the loop left for the sum of the panel values
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)

        # Improve the previous approximations to integral and error and
        # test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subinterval limit and bad integrand behaviour at a
        # point of the range set the error flag.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # Append the newly created intervals to the list.
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2

        # Keep the error estimates in descending order and select the
        # subinterval with the nrmax-th largest one, to be bisected next.
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
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
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Test whether the interval to be bisected next is the smallest.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The smallest interval has the largest error.  Before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate.
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Set the final result and error estimate.
    divergence = False
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
                divergence = not summed
            elif abserr > errsum:
                summed = True
            else:
                divergence = area != 0.0
    if divergence:
        # Test on divergence.
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _divide(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def _divide(x: float, y: float) -> float:
    """x / y with IEEE division by zero."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: the 21-point Gauss-Kronrod rule on [a, b].

    Returns (integral, error estimate, integral of |f|, integral of
    |f - mean of f|).
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc = hlgth * _XGK
    nodes = np.concatenate(([centr], centr - absc, centr + absc))
    vals = np.asarray(f(nodes), dtype=float).tolist()
    fc, fv1, fv2 = vals[0], vals[1:11], vals[11:21]

    # The Gauss nodes xgk(2), xgk(4), ... first, then the Kronrod ones.
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio ** 1.5), where a ratio at or above 1 (or NaN) gives 1
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord ordering elist descending after a bisection.

    maxerr and last are the two halves just stored.  Returns the index of
    the subinterval to bisect next, its error estimate and nrmax.
    """
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        # Subdivision may have increased the error estimate: then the
        # insertion starts above the nrmax-th largest error estimate.
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # Only as many elements as subdivisions are still allowed are kept
        # in descending order.
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            # Insert errmax by traversing the list top-down ...
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                # ... and errmin bottom-up.
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                    break
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of the epsilon algorithm on epstab[1..n].

    epstab holds the sequence and the table's last diagonal, res3la the last
    three results (both updated in place).  Returns the new n, the
    extrapolated limit, its error estimate and the new nres.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # Two elements very close to each other, or irregular behaviour
            # in the table: omit a part of the table by adjusting n.
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            # A new element, and eventually a new result.
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res

        # Shift the table.
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
