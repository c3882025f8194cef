package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n            int
		q            float64
		want         float64
		wantResolved bool
	}{
		{n: 0, q: 0.5, want: 0, wantResolved: false},
		{n: 1, q: 0.5, want: 1, wantResolved: false},
		{n: 100, q: 0.5, want: 50, wantResolved: true},
		{n: 100, q: 0.99, want: 99, wantResolved: false},  // 1 sample beyond
		{n: 999, q: 0.99, want: 990, wantResolved: false}, // 9 beyond
		{n: 1000, q: 0.99, want: 990, wantResolved: true}, // 10 beyond
		{n: 2000, q: 0.99, want: 1980, wantResolved: true},
		{n: 20, q: 0.5, want: 10, wantResolved: true},
		{n: 19, q: 0.5, want: 10, wantResolved: false},
	}
	for _, c := range cases {
		got, resolved := percentile(seq(c.n), c.q)
		if got != c.want || resolved != c.wantResolved {
			t.Errorf("percentile(1..%d, %v) = %v resolved=%v, want %v resolved=%v",
				c.n, c.q, got, resolved, c.want, c.wantResolved)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{5, 15}, {10, 20}, {30, 40}, {90, 120}}
	if got := covered(0, 100, ivs); got != 15+10+10 {
		t.Fatalf("covered = %d, want 35", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered of nothing = %d", got)
	}
}
