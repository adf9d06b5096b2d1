package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it. Exactly
// len(sorted) - ceil(q·n) samples lie beyond it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond counts the samples the nearest-rank q-quantile of n samples
// leaves above it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile is the highest percentile of n samples that still has at
// least minTail samples beyond it, rounded down to a tenth of a percent.
// ok is false when n is too small to report any tail.
func tailQuantile(n int) (q float64, ok bool) {
	if n < 2*minTail {
		return 0, false
	}
	for per := 999; per >= 500; per-- {
		q = float64(per) / 1000
		if beyond(n, q) >= minTail {
			return q, true
		}
	}
	return 0.5, true
}

// latencySummary is the median and p99 of a set of latencies in ms, where
// a failed or refused operation is +Inf (it misses any limit).
type latencySummary struct {
	N        int
	P50, P99 float64
	TailQ    float64 // highest percentile with minTail samples beyond it
	Tail     float64 // latency at TailQ
}

// summarize sorts a copy of ms and reads its percentiles. p99 needs at
// least minTail samples beyond it; with fewer samples it is an error, not
// a guess.
func summarize(ms []float64) (latencySummary, error) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: quantile(s, 0.5)}
	q, ok := tailQuantile(len(s))
	if !ok {
		return out, fmt.Errorf("%d latency samples: too few for any tail percentile", len(s))
	}
	out.TailQ, out.Tail = q, quantile(s, q)
	if beyond(len(s), 0.99) < minTail {
		return out, fmt.Errorf("%d latency samples: p99 needs %d beyond it", len(s), minTail)
	}
	out.P99 = quantile(s, 0.99)
	return out, nil
}

// setLatency records p50 and p99 over latencies in which a miss is +Inf.
// A tail that lands on a miss is reported at the client timeout, the least
// the miss cost. p99 rests on as few as ten samples beyond it, and on a
// shared host it moved by a third to a half between runs of identical
// work, so it is reported (client.p99_ms, and on stderr) but not gated.
func setLatency(m map[string]float64, lat []float64) error {
	sum, err := summarize(lat)
	if err != nil {
		return err
	}
	limit := ms(reqTimeout)
	m["p50_ms"], m["client.p99_ms"] = math.Min(sum.P50, limit), math.Min(sum.P99, limit)
	fmt.Fprintf(os.Stderr, "perfbench: %d latency samples: p50 %.3f ms, p99 %.3f ms, highest percentile with %d beyond: p%.1f = %.3f ms\n",
		sum.N, sum.P50, sum.P99, minTail, 100*sum.TailQ, math.Min(sum.Tail, limit))
	return nil
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqm is the interquartile mean of xs: the mean of its middle half once
// sorted, a quarter left out at each end (NaN for an empty xs).
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// promSample maps a Prometheus sample key — the metric name plus its label
// set exactly as exposed, e.g. `engine_chunk_ns_bucket{le="+Inf"}` — to
// its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: comment and blank
// lines are skipped, every other line is `key value`.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		i := strings.LastIndexByte(text, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(text[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(text[:i])] = v
	}
	return out, sc.Err()
}

// delta is the growth of a cumulative metric between two scrapes. A metric
// absent from both reads 0; one that shrank means the process restarted or
// the counter was reset, which invalidates the window.
func delta(before, after promSample, key string) (float64, error) {
	d := after[key] - before[key]
	if d < 0 {
		return 0, fmt.Errorf("metric %s went backwards (%v -> %v)", key, before[key], after[key])
	}
	return d, nil
}

// timerMeanMs is the mean of the observations a histogram timer (in ns)
// took between two scrapes, in ms; 0 when it recorded none.
func timerMeanMs(before, after promSample, name string) (float64, error) {
	n, err := delta(before, after, name+"_count")
	if err != nil {
		return 0, err
	}
	sum, err := delta(before, after, name+"_sum")
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return sum / n / 1e6, nil
}
