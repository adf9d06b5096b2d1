package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"parallelspikesim/internal/obs"
)

func TestQuantileLeavesExactTail(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestTailQuantileIsHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{100, 0.9, true},
		{1000, 0.99, true},
		{2000, 0.995, true},
		{5000, 0.998, true},
	} {
		q, ok := tailQuantile(tc.n)
		if ok != tc.ok || math.Abs(q-tc.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
			continue
		}
		if ok && beyond(tc.n, q) < minTail {
			t.Errorf("tailQuantile(%d) = %v leaves %d beyond", tc.n, q, beyond(tc.n, q))
		}
		if ok && q < 0.999 && beyond(tc.n, q+0.001) >= minTail {
			t.Errorf("tailQuantile(%d) = %v is not the highest: %v also leaves %d", tc.n, q, q+0.001, beyond(tc.n, q+0.001))
		}
	}
}

func TestSummarizeRefusesThinP99AndCountsMisses(t *testing.T) {
	if _, err := summarize(make([]float64, 999)); err == nil {
		t.Fatal("p99 over 999 samples must be refused")
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1
	}
	for i := 0; i < 11; i++ {
		lat[i] = math.Inf(1) // failed requests miss every limit
	}
	sum, err := summarize(lat)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sum.P99, 1) || sum.P50 != 1 {
		t.Fatalf("p50 %v p99 %v: 11 misses in 1000 must put p99 at +Inf", sum.P50, sum.P99)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}

func TestIQMDropsOuterQuarters(t *testing.T) {
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Fatalf("iqm of 8 = %v, want 3.5 (mean of 2..5)", got)
	}
	if got := iqm([]float64{7, 1, 3}); got != 11.0/3 {
		t.Fatalf("iqm of 3 = %v, want the mean of all three", got)
	}
}

// A stalled request must charge its stall to every request queued behind
// it: open-loop latency counts from the due time, and the generator itself
// is not late when it sends the moment the connection frees.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		w.Write([]byte("ok"))
	})}
	go srv.Serve(ln)
	defer srv.Close()

	const n, gap = 10, 10 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	req := encodeRequest("GET", "/", nil)
	c := newClient(ln.Addr().String())
	defer c.close()
	shots := openLoop(c, time.Now(), due, make([]int, n), [][]byte{req}, 5*time.Second, nil)
	for i, s := range shots {
		if !s.ok() {
			t.Fatalf("request %d failed: %v status %d", i, s.Err, s.Status)
		}
		// Every request due during the stall completes only after it.
		if s.Due < stall && s.Done < stall {
			t.Errorf("request %d done at %v, inside the %v stall", i, s.Done, stall)
		}
		if s.Due < stall && s.latency() < stall-s.Due-5*time.Millisecond {
			t.Errorf("request %d latency %v does not carry the stall (%v left when due)", i, s.latency(), stall-s.Due)
		}
		if s.Lag > 20*time.Millisecond {
			t.Errorf("request %d lag %v: queueing behind the stall is not generator lateness", i, s.Lag)
		}
	}
	if got := shots[1].latency(); got < stall-gap-5*time.Millisecond {
		t.Errorf("second request latency %v, want about %v", got, stall-gap)
	}
}

func TestParsePromMatchesObsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("infer_requests_total").Add(7)
	reg.Gauge("continual_queue_depth").Set(3)
	tm := reg.Timer("infer_forward_ns")
	tm.Observe(2e6)
	tm.Observe(4e6)
	var b bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := parseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"infer_requests_total":               7,
		"continual_queue_depth":              3,
		"infer_forward_ns_count":             2,
		"infer_forward_ns_sum":               6e6,
		`infer_forward_ns_bucket{le="+Inf"}`: 2,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("a sample line without a value must be rejected")
	}
}

func TestDeltaMath(t *testing.T) {
	before := promSample{"c": 10, "t_sum": 4e6, "t_count": 2}
	after := promSample{"c": 15, "t_sum": 10e6, "t_count": 4, "new_total": 3}
	if d, err := delta(before, after, "c"); err != nil || d != 5 {
		t.Errorf("delta c = %v, %v", d, err)
	}
	if d, err := delta(before, after, "new_total"); err != nil || d != 3 {
		t.Errorf("a counter first seen after the window start counts from 0: %v, %v", d, err)
	}
	if d, err := delta(before, after, "absent"); err != nil || d != 0 {
		t.Errorf("absent metric = %v, %v", d, err)
	}
	if m, err := timerMeanMs(before, after, "t"); err != nil || m != 3 {
		t.Errorf("timer mean over the window = %v ms, %v; want 3", m, err)
	}
	if m, err := timerMeanMs(after, after, "t"); err != nil || m != 0 {
		t.Errorf("empty window mean = %v, %v", m, err)
	}
	if _, err := delta(after, before, "c"); err == nil {
		t.Error("a counter that went backwards must be an error")
	}
	snap := snapshotSample(obs.Snapshot{
		Counters: []obs.CounterValue{{Name: "c", Value: 9}},
		Timers:   []obs.TimerValue{{Name: "t", Count: 3, SumNs: 6}},
	})
	if snap["c"] != 9 || snap["t_sum"] != 6 || snap["t_count"] != 3 {
		t.Errorf("snapshotSample = %v", snap)
	}
}

func TestParseStatCPU(t *testing.T) {
	line := "4242 (ps serve) (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 37 0 0 20 0 9 0 1 2 3"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 287 * clockTick; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
}

// BENCHMARK.json and the harness must agree on every workload and metric.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, harness %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestPickQuietKeepsLeastStolenHalf(t *testing.T) {
	s := time.Second
	ws := []window{
		{0, s, 0.30}, {s, 2 * s, 0.01}, {2 * s, 3 * s, 0.20},
		{3 * s, 4 * s, 0.01}, {4 * s, 4*s + s/2, 0.02},
	}
	q := pickQuiet(ws)
	if len(q) != 3 {
		t.Fatalf("kept %d of 5 windows, want 3", len(q))
	}
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{s / 2, false}, {s, true}, {3*s/2 + 1, true}, {5 * s / 2, false}, {3 * s, true}, {4*s + s/4, true}, {5 * s, false},
	} {
		if got := q.contains(tc.at); got != tc.want {
			t.Errorf("contains(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := q.duration(); got != 5*s/2 {
		t.Errorf("kept duration %v, want 2.5s", got)
	}
	if got, want := q.steal(), (0.01+0.01+0.02*0.5)/2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("kept steal %v, want %v", got, want)
	}
}

// Throughput counts the correct answers of the least-stolen half of the
// closed-loop slices per second of those slices; failures do not count.
func TestSliceGoodputKeepsLeastStolenHalf(t *testing.T) {
	s := time.Second
	inf := math.Inf(1)
	lat := []float64{1, 1, 1, 1, inf, 1, 1, 1, 1, 1, 1, 1}
	slices := []interval{
		{From: 0, To: s, Lo: 0, Hi: 4, Steal: 0.01},           // 4 correct
		{From: s, To: 2 * s, Lo: 4, Hi: 6, Steal: 0},          // 1 correct, 1 failed
		{From: 2 * s, To: 4 * s, Lo: 6, Hi: 10, Steal: 0.40},  // stolen: left out
		{From: 4 * s, To: 5 * s, Lo: 10, Hi: 12, Steal: 0.30}, // stolen: left out
	}
	if got := sliceGoodput(slices, lat, 1); got != 2.5 {
		t.Fatalf("sliceGoodput = %v, want 2.5 (5 correct in 2 s)", got)
	}
	if got := sliceGoodput(slices, lat, 8); got != 20 {
		t.Fatalf("sliceGoodput of 8-image requests = %v, want 20", got)
	}
}

func TestParseHostCPU(t *testing.T) {
	h, err := parseHostCPU("cpu  100 5 20 900 7 3 2 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if h.busy != 130 || h.steal != 40 {
		t.Fatalf("busy %d steal %d, want 130 and 40", h.busy, h.steal)
	}
}
