package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method, the default of Python's
// statistics.quantiles(n=4), so the spread printed here is the spread an
// outside check computes from the same samples. One sample is its own
// quartiles; xs must not be empty.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// lowest and highest return the extreme sample; xs must not be empty.
func lowest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func highest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// summaryRow prints one metric's samples as median, quartile spread,
// range and sample count.
func summaryRow(w io.Writer, name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	spread := 0.0
	if med != 0 {
		spread = (q3 - q1) / med
	}
	fmt.Fprintf(w, "texbench:   %-18s %14.6g %-6s  q1 %.6g  q3 %.6g  iqr/median %.3f  min %.6g  max %.6g  n=%d\n",
		name, med, unit, q1, q3, spread, lowest(xs), highest(xs), len(xs))
}
