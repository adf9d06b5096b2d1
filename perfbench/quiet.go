package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor gives this machine's CPUs to other
// tenants in episodes lasting from seconds to minutes (steal time). Steal
// moves every wall-clock metric by tens of percent without any change to
// the program. So while it measures, the benchmark samples the machine's
// CPU accounting once per window. It takes its wall-clock statistics over
// the quietShare of windows that lost the least CPU time to the
// hypervisor. All the work is still done and checked; only the timing
// statistics leave the most disturbed windows out.
const (
	windowLen  = 500 * time.Millisecond
	quietShare = 0.5
)

// hostCPU is a reading of the machine-wide CPU time counters in /proc/stat
// (clock ticks). busy excludes idle and iowait; steal is time the
// hypervisor ran someone else while this machine's CPUs wanted to run.
type hostCPU struct{ busy, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: %w", err)
		}
		v[i] = n
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealSince is the share of the CPU time this machine wanted since an
// earlier reading that the hypervisor gave to someone else.
func (h hostCPU) stealSince(before hostCPU) float64 {
	wanted := (h.busy - before.busy) + (h.steal - before.steal)
	if wanted <= 0 {
		return 0
	}
	return float64(h.steal-before.steal) / float64(wanted)
}

// window is one sampling interval of a measured phase; times are offsets
// from the phase's start.
type window struct {
	From  time.Duration `json:"from_ns"`
	To    time.Duration `json:"to_ns"`
	Steal float64       `json:"steal"` // share of wanted CPU time the hypervisor took
}

// stealSampler closes a window whenever poll finds windowLen has passed.
// It is owned by the one goroutine that polls it.
type stealSampler struct {
	start   time.Time
	last    hostCPU
	lastAt  time.Duration
	windows []window
	err     error
}

func newStealSampler(start time.Time) (*stealSampler, error) {
	h, err := readHostCPU()
	return &stealSampler{start: start, last: h}, err
}

// poll is cheap between window boundaries: one clock read.
func (s *stealSampler) poll() {
	if now := time.Since(s.start); now-s.lastAt >= windowLen {
		s.close(now)
	}
}

func (s *stealSampler) close(now time.Duration) {
	h, err := readHostCPU()
	if err != nil {
		s.err = err
		return
	}
	s.windows = append(s.windows, window{From: s.lastAt, To: now, Steal: h.stealSince(s.last)})
	s.last, s.lastAt = h, now
}

// pause closes the current, partial window; the time until resume belongs
// to no window.
func (s *stealSampler) pause() { s.close(time.Since(s.start)) }

// resume opens a new window now.
func (s *stealSampler) resume() {
	h, err := readHostCPU()
	if err != nil {
		s.err = err
		return
	}
	s.last, s.lastAt = h, time.Since(s.start)
}

// finish closes the last, partial window and returns them all.
func (s *stealSampler) finish() ([]window, error) {
	s.close(time.Since(s.start))
	return s.windows, s.err
}

// quietSet is the least-stolen quietShare of a phase's windows.
type quietSet []window

// quietest returns, in ascending order, the indices of the
// ceil(quietShare·n) samples with the least steal; ties keep the earlier
// sample, so the choice depends on the host alone.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)*int(quietShare*100)+99)/100]
	sort.Ints(idx)
	return idx
}

// pickQuiet keeps the quietest windows of a phase.
func pickQuiet(ws []window) quietSet {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.Steal
	}
	var q quietSet
	for _, i := range quietest(steal) {
		q = append(q, ws[i])
	}
	return q
}

// contains reports whether offset t falls in a kept window.
func (q quietSet) contains(t time.Duration) bool {
	i := sort.Search(len(q), func(i int) bool { return q[i].To > t })
	return i < len(q) && q[i].From <= t
}

// duration is the wall time the kept windows cover.
func (q quietSet) duration() time.Duration {
	var d time.Duration
	for _, w := range q {
		d += w.To - w.From
	}
	return d
}

// steal is the duration-weighted steal share over the kept windows.
func (q quietSet) steal() float64 {
	var sum float64
	for _, w := range q {
		sum += w.Steal * float64(w.To-w.From)
	}
	if d := q.duration(); d > 0 {
		return sum / float64(d)
	}
	return 0
}

// allSteal is the duration-weighted steal share over every window.
func allSteal(ws []window) float64 { return quietSet(ws).steal() }

// stealAllKey carries the whole-phase steal to the run's stderr summary;
// it is not a reported metric.
const stealAllKey = "host.steal_all"

// noteSteal records the steal share the timing statistics saw (kept
// windows) and the share over the whole measured phase.
func noteSteal(m map[string]float64, ws []window, q quietSet) {
	m["host.steal_frac"] = q.steal()
	m[stealAllKey] = allSteal(ws)
}
