package main

import (
	"math"
	"sort"
)

// Timing quantiles use the Harrell–Davis estimator: a beta-weighted
// average of all order statistics instead of one or two of them. The
// bulk workloads' latencies are bimodal — about half of the operations
// overlap a garbage-collection mark phase — so their median falls in the
// gap between two clusters, where a single order statistic jumps from
// run to run; the weighted average moves smoothly with the sample.

// hdQuantile estimates quantile p (0..1) of sorted xs.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(float64(i)/float64(n), a, b)
		sum += (cur - prev) * xs[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 5000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}

// median is the plain sample median, for the few setup timings.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
