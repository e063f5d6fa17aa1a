package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestSamplesFor(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		if got := samplesFor(c.q); got != c.want {
			t.Errorf("samplesFor(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileTenBeyond(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		n := samplesFor(q)
		v, err := quantile(seq(n), q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", q*100, n, err)
		}
		// Nearest rank: exactly ten samples lie above the answer.
		if beyond := n - int(v); beyond != minBeyond {
			t.Errorf("p%g of %d = %v, %d samples beyond, want %d", q*100, n, v, beyond, minBeyond)
		}
		if _, err := quantile(seq(n-1), q); err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Errorf("p%g of %d samples: err %v, want a refusal", q*100, n-1, err)
		}
	}
}

func TestQuantileValues(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		if got, err := quantile(xs, c.q); err != nil || got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := quantile(xs, 1); err == nil {
		t.Error("quantile(_, 1) accepted")
	}
	if xs[0] != 1000 {
		t.Error("quantile sorted its input in place")
	}
}

func TestMedianMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median/mean not 0")
	}
}
