"""Adaptive quadrature: a port of QUADPACK's QAGS.

`qagse` is the Fortran routine DQAGSE, line for line, with its helpers DQK21
(the 21-point Gauss-Kronrod rule), DQPSRT (the list of subintervals ordered
by error estimate) and DQELG (Wynn's epsilon algorithm), from R. Piessens,
E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, *QUADPACK: A
Subroutine Package for Automatic Integration* (Springer, 1983); the epsilon
algorithm is P. Wynn, "On a device for computing the e_m(S_n)
transformation", MTAC 10 (1956) 91-96.  QUADPACK is in the public domain.

Every floating-point operation is the Fortran's, in the Fortran's order,
with its decimal node and weight literals and its machine constants, so for
an integrand that returns the same floats the results are those of
`scipy.integrate.quad` (which wraps the same routine) bit for bit.  Integer
indices stay 1-based as in the Fortran: slot 0 of every list is unused.
"""
from __future__ import annotations

import math
import sys
import warnings

#: d1mach(4), d1mach(1), d1mach(2)
EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max

#: DQK21 abscissae of the 21-point Kronrod rule: xgk(2), xgk(4), ... are the
#: 10-point Gauss abscissae, the others optimally added; xgk(11) = 0
_XGK = (None,
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
#: weights of the 21-point Kronrod rule
_WGK = (None,
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
#: weights of the 10-point Gauss rule
_WG = (None,
       0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_MESSAGES = {
    1: "the maximum number of subintervals was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour occurs at some points",
    4: "roundoff error in the extrapolation table: the tolerance cannot be met",
    5: "the integral is probably divergent, or slowly convergent",
}


def _dqk21(f, a, b):
    """DQK21: the 21-point Kronrod rule on [a, b] with the error estimate
    from the embedded 10-point Gauss rule.

    Returns (result, abserr, resabs, resasc): resabs approximates the
    integral of |f|, resasc that of |f - mean of f|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord(1..) the subintervals in decreasing order of error
    estimate after subinterval maxerr was bisected into maxerr and last
    (only as many as later bisections can still reach are kept in order).

    Updates iord in place; returns (maxerr, ermax, nrmax) of the subinterval
    with the nrmax-th largest error, to be bisected next.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # subdivision raised the error estimate: move maxerr up from nrmax
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax = nrmax - 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k = k - 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """DQELG: Wynn's epsilon algorithm on the n partial sums epstab(1..n),
    which it overwrites with the new lower diagonal of the table.

    res3la holds the last three results, nres counts the calls.  Returns
    (n, result, abserr, nres): the possibly shortened table length, the
    extrapolated limit and its error estimate.
    """
    nres = nres + 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
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
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 are equal to within machine accuracy:
            # convergence is assumed
            return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        # two elements very close to each other, or irregular behaviour in
        # the table: omit a part of the table by adjusting n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if epsinf <= 1e-4:
            n = i + i - 1
            break
        # a new element, and eventually a new result
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx = indx + 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """DQAGSE: the integral of f over [a, b] to max(epsabs, epsrel |I|), by
    bisecting the subinterval of largest error estimate (at most limit
    subintervals) and extrapolating the partial sums with `_dqelg`.

    f maps a float to a float.  Returns (result, abserr, ier, last): ier 0
    is success, 1-5 the failures of `_MESSAGES`; last is the number of
    subintervals used.  An invalid limit or tolerance (QUADPACK's ier = 6)
    raises ValueError.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        raise ValueError("qagse needs limit >= 1, and epsrel >= max(50 eps, 5e-29) "
                         "when epsabs <= 0")
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    ier = 0

    # first approximation to the integral, and the test on accuracy
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    summed = False    # leave through the sum of the subinterval results
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)

        # improve the previous approximations to the integral and error
        # and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 = iroff2 + 1
                else:
                    iroff1 = iroff1 + 1
            if last > 10 and erro12 > errmax:
                iroff3 = iroff3 + 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subinterval limit, and bad integrand behaviour at a
        # point of the range
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly created subintervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
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
            # is the subinterval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest subinterval has the largest error: before
            # bisecting, decrease the sum of the errors over the larger
            # subintervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax = nrmax + 1
            if larger:
                continue
        # extrapolate
        numrl2 = numrl2 + 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
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
        # prepare bisection of the smallest subinterval
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

    # the final result and error estimate
    if not summed:
        divergence_test = True
        if abserr == OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                divergence_test = False
        if not summed and divergence_test and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            # result / area as IEEE division: +-inf or nan when area = 0
            ratio = result / area if area != 0.0 else math.inf * result
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        # the global sum, added one by one in list order as the Fortran
        # does (Python 3.12's sum() of floats is compensated)
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, ier, last


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(value, abserr) of the integral of f over [a, b] by `qagse`.  As
    `scipy.integrate.quad` does, a failure (ier != 0) warns and still
    returns the value."""
    result, abserr, ier, _ = qagse(f, a, b, epsabs, epsrel, limit)
    if ier:
        warnings.warn(f"qagse (ier={ier}): {_MESSAGES[ier]}", stacklevel=2)
    return result, abserr
