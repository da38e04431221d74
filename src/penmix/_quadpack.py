"""Adaptive quadrature: QUADPACK's QAG with the 21-point Gauss-Kronrod rule.

`qag` bisects the subinterval of largest error estimate until the summed
error meets the tolerance, as DQAGSE of R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK: A Subroutine Package for
Automatic Integration* (Springer, 1983) does before it extrapolates, with
DQK21 (the 21-point Kronrod rule and its embedded 10-point Gauss rule),
DQAGSE's first-step test, and its running sums of area and error.
QUADPACK is in the public domain.

The floating-point operations are the Fortran's, in the Fortran's order,
with its decimal node and weight literals and its machine constants.  On
the smooth Makeham integrands of `demography`, wherever QAGS's Wynn
extrapolation does not decide the result, the results are those of
`scipy.integrate.quad` (which wraps DQAGSE) bit for bit; elsewhere they
differ from it by round-off (at most 1 ulp on 2 000 perturbed
demographies).
"""
from __future__ import annotations

import sys
import warnings

#: d1mach(4), d1mach(1)
EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min

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


def qag(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """The integral of f over [a, b] to max(epsabs, epsrel |I|), by bisecting
    the subinterval of largest error estimate (at most limit subintervals).

    f maps a float to a float.  Returns (result, abserr, ier, last): ier 0
    is success, 1-3 the failures of `_MESSAGES`; last is the number of
    subintervals used.  An invalid limit or tolerance raises ValueError.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        raise ValueError("qag needs limit >= 1, and epsrel >= max(50 eps, 5e-29) "
                         "when epsabs <= 0")
    # first approximation to the integral, and the test on accuracy
    ier = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1

    parts = [(a, b, result)]    # (lower end, upper end, integral) per subinterval
    elist = [abserr]            # and its error estimate
    area = result
    errsum = abserr
    iroff1 = iroff3 = 0
    for last in range(2, limit + 1):
        # bisect the subinterval with the largest error estimate
        errmax = max(elist)
        maxerr = elist.index(errmax)
        a1, b2, area0 = parts[maxerr]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _dqk21(f, a1, b1)
        area2, error2, _, defab2 = _dqk21(f, b1, b2)

        # improve the previous approximations to the integral and error
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - area0
        if defab1 != error1 and defab2 != error2:
            if abs(area0 - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 = iroff1 + 1
            if last > 10 and erro12 > errmax:
                iroff3 = iroff3 + 1
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subinterval limit, and bad integrand behaviour at a
        # point of the range
        if iroff1 >= 10 or iroff3 >= 20:
            ier = 2
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(b1) + 1000.0 * UFLOW):
            ier = 3

        # the half with the larger error takes the bisected slot, the other
        # is appended
        if error2 > error1:
            parts[maxerr], elist[maxerr] = (b1, b2, area2), error2
            parts.append((a1, b1, area1))
            elist.append(error1)
        else:
            parts[maxerr], elist[maxerr] = (a1, b1, area1), error1
            parts.append((b1, b2, area2))
            elist.append(error2)
        if errsum <= errbnd or ier != 0:
            break

    # the global sum, added one by one in list order as the Fortran does
    # (Python 3.12's sum() of floats is compensated)
    result = 0.0
    for _, _, area_k in parts:
        result = result + area_k
    return result, errsum, ier, len(parts)


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(value, abserr) of the integral of f over [a, b] by `qag`.  As
    `scipy.integrate.quad` does, a failure (ier != 0) warns and still
    returns the value."""
    result, abserr, ier, _ = qag(f, a, b, epsabs, epsrel, limit)
    if ier:
        warnings.warn(f"qag (ier={ier}): {_MESSAGES[ier]}", stacklevel=2)
    return result, abserr
