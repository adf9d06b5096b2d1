package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fault"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/registry"
)

// stubModel is a deterministic fake: class = first pixel mod classes, and
// Winner echoes the model version so generation tags can be audited.
type stubModel struct {
	inputs, classes int
	version         int
	delay           time.Duration
	err             error
}

func (m *stubModel) NumInputs() int  { return m.inputs }
func (m *stubModel) NumClasses() int { return m.classes }

func (m *stubModel) PredictBatch(imgs [][]uint8) ([]infer.Prediction, error) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.err != nil {
		return nil, m.err
	}
	out := make([]infer.Prediction, len(imgs))
	for i, img := range imgs {
		out[i] = infer.Prediction{Class: int(img[0]) % m.classes, Winner: m.version, Spikes: 1, Votes: make([]int, m.classes)}
	}
	return out, nil
}

// noBuilder backs registries whose tests publish prebuilt engines.
func noBuilder(*netio.Snapshot) (registry.Engine, error) {
	return nil, errors.New("test registry has no builder")
}

// versionBuilder reads a version out of Theta[0], pairing with
// testSnapshot for reload tests.
func versionBuilder(s *netio.Snapshot) (registry.Engine, error) {
	return &stubModel{inputs: s.NumInputs, classes: 4, version: int(s.Theta[0])}, nil
}

// testSnapshot is a minimal servable 3×3 snapshot carrying a version in
// Theta[0].
func testSnapshot(version int) *netio.Snapshot {
	return &netio.Snapshot{
		NumInputs:   3,
		NumNeurons:  3,
		Format:      fixed.Float32,
		G:           []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		Theta:       []float64{float64(version), 0, 0},
		Assignments: []int{0, 1, 2},
	}
}

// stubRegistry wraps prebuilt engines in a registry, each at generation 1.
func stubRegistry(t *testing.T, engines map[string]registry.Engine) *registry.Registry {
	t.Helper()
	classes := 4
	for _, e := range engines {
		classes = e.NumClasses()
	}
	r, err := registry.New(noBuilder, classes)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range engines {
		if _, err := r.Publish(name, "", e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func defaultRegistry(t *testing.T, model registry.Engine) *registry.Registry {
	return stubRegistry(t, map[string]registry.Engine{"default": model})
}

func defaultConfig() serverConfig {
	return serverConfig{maxBatch: 4, maxInflight: 2, timeout: 2 * time.Second, defaultModel: "default"}
}

func newTestServer(t *testing.T, models *registry.Registry, reg *obs.Registry, sc serverConfig) *httptest.Server {
	t.Helper()
	h, err := newHandler(models, nil, reg, sc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func postClassify(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestClassifyEndpoint(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4, version: 7})
	srv := newTestServer(t, models, nil, defaultConfig())
	resp, body := postClassify(t, srv.URL, `{"images": [[2,0,0], [7,0,0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out classifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(out.Predictions) != 2 || out.Predictions[0].Class != 2 || out.Predictions[1].Class != 3 {
		t.Fatalf("predictions %+v, want classes [2 3]", out.Predictions)
	}
	if out.Model != "default" || out.Generation != 1 {
		t.Fatalf("response tagged %q gen %d, want default gen 1", out.Model, out.Generation)
	}
}

func TestNamedModelEndpoint(t *testing.T) {
	check.NoLeaks(t)
	models := stubRegistry(t, map[string]registry.Engine{
		"default": &stubModel{inputs: 3, classes: 4, version: 1},
		"edge":    &stubModel{inputs: 3, classes: 4, version: 2},
	})
	srv := newTestServer(t, models, nil, defaultConfig())

	resp, err := http.Post(srv.URL+"/models/edge/classify", "application/json", strings.NewReader(`{"images": [[1,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out classifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "edge" || out.Predictions[0].Winner != 2 {
		t.Fatalf("response %+v, want model edge version 2", out)
	}

	// Unknown model is a counted rejection, not a panic.
	reg := obs.NewRegistry()
	srv2 := newTestServer(t, models, reg, defaultConfig())
	resp, err = http.Post(srv2.URL+"/models/ghost/classify", "application/json", strings.NewReader(`{"images": [[1,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d, want 404", resp.StatusCode)
	}
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != 1 {
		t.Fatalf("rejected counter %d, want 1", v)
	}
}

func TestClassifyRejectsBadPayloads(t *testing.T) {
	check.NoLeaks(t)
	reg := obs.NewRegistry()
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4})
	srv := newTestServer(t, models, reg, defaultConfig())
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"not json", `pixels please`, http.StatusBadRequest},
		{"empty batch", `{"images": []}`, http.StatusBadRequest},
		{"no images key", `{}`, http.StatusBadRequest},
		{"oversized batch", `{"images": [[0,0,0],[0,0,0],[0,0,0],[0,0,0],[0,0,0]]}`, http.StatusRequestEntityTooLarge},
		{"wrong pixel count", `{"images": [[1,2]]}`, http.StatusBadRequest},
		{"pixel out of uint8 range", `{"images": [[300,0,0]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postClassify(t, srv.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.status)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not a JSON error", body)
			}
		})
	}
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != uint64(len(cases)) {
		t.Fatalf("rejected counter %d, want %d", v, len(cases))
	}
}

func TestClassifyRejectsBadPriority(t *testing.T) {
	check.NoLeaks(t)
	reg := obs.NewRegistry()
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4})
	srv := newTestServer(t, models, reg, defaultConfig())
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/classify", strings.NewReader(`{"images": [[1,0,0]]}`))
	req.Header.Set("X-Priority", "urgent")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != 1 {
		t.Fatalf("rejected counter %d, want 1", v)
	}
}

func TestClassifyRejectsOversizedBody(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4})
	srv := newTestServer(t, models, nil, defaultConfig())
	huge := fmt.Sprintf(`{"images": [[0,0,0]], "padding": %q}`, bytes.Repeat([]byte{'x'}, 1<<17))
	resp, _ := postClassify(t, srv.URL, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestClassifyMethodAndHealthz(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4})
	srv := newTestServer(t, models, nil, defaultConfig())
	resp, err := http.Get(srv.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /classify status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status     string        `json:"status"`
		Model      string        `json:"model"`
		Generation uint64        `json:"generation"`
		Inputs     int           `json:"inputs"`
		Classes    int           `json:"classes"`
		Models     []healthModel `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Inputs != 3 || health.Classes != 4 {
		t.Fatalf("healthz %+v", health)
	}
	if health.Model != "default" || health.Generation != 1 {
		t.Fatalf("healthz default model %q gen %d", health.Model, health.Generation)
	}
	if len(health.Models) != 1 || health.Models[0].Name != "default" || health.Models[0].Generation != 1 {
		t.Fatalf("healthz models %+v", health.Models)
	}
}

// TestTimeoutAndRejectedCountersDisjoint pins the counter split: a
// deadline 503 increments only the timeout counter, a bad payload only the
// rejection counter, and a degradation shed only its rung counter — no
// request is double-counted.
func TestTimeoutAndRejectedCountersDisjoint(t *testing.T) {
	check.NoLeaks(t)
	reg := obs.NewRegistry()
	sc := serverConfig{maxBatch: 4, maxInflight: 2, timeout: 30 * time.Millisecond, defaultModel: "default"}
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4, delay: 500 * time.Millisecond})
	srv := newTestServer(t, models, reg, sc)

	resp, body := postClassify(t, srv.URL, `{"images": [[1,0,0]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if v := reg.Counter("psserve_http_timeouts_total").Value(); v != 1 {
		t.Fatalf("timeout counter %d, want 1", v)
	}
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != 0 {
		t.Fatalf("rejected counter %d after a deadline 503, want 0 — deadline timeouts must not count as rejections", v)
	}

	resp, _ = postClassify(t, srv.URL, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload status %d", resp.StatusCode)
	}
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != 1 {
		t.Fatalf("rejected counter %d, want 1", v)
	}
	if v := reg.Counter("psserve_http_timeouts_total").Value(); v != 1 {
		t.Fatalf("timeout counter moved to %d on a rejection", v)
	}
	for _, rung := range []string{"psserve_degrade_shrunk_total", "psserve_degrade_shed_total", "psserve_degrade_saturated_total"} {
		if v := reg.Counter(rung).Value(); v != 0 {
			t.Fatalf("%s = %d, want 0", rung, v)
		}
	}
}

// TestDegradationLadder drives the rungs one by one against a saturated
// server: shrink, shed, saturation 503 — each counted exactly once in its
// own metric.
func TestDegradationLadder(t *testing.T) {
	check.NoLeaks(t)
	reg := obs.NewRegistry()
	sc := serverConfig{maxBatch: 4, maxInflight: 1, timeout: 200 * time.Millisecond, defaultModel: "default"}
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4, delay: 2 * time.Second})
	srv := newTestServer(t, models, reg, sc)

	// Occupy the only slot.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		resp, err := http.Post(srv.URL+"/classify", "application/json", strings.NewReader(`{"images": [[1,0,0]]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitForBusySlot(t, reg)

	// Rung 2: a low-priority request is shed immediately, well before any
	// deadline could expire.
	start := time.Now()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/classify", strings.NewReader(`{"images": [[1,0,0]]}`))
	req.Header.Set("X-Priority", "low")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-priority status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > sc.timeout {
		t.Fatalf("low-priority shed took %v — it queued instead of shedding", elapsed)
	}
	if v := reg.Counter("psserve_degrade_shed_total").Value(); v != 1 {
		t.Fatalf("shed counter %d, want 1", v)
	}

	// Rungs 1+3: a normal request gets a shrunk deadline (pressure) and
	// then 503s when no slot frees within it.
	resp2, body := postClassify(t, srv.URL, `{"images": [[1,0,0]]}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status %d (%s), want 503", resp2.StatusCode, body)
	}
	if v := reg.Counter("psserve_degrade_shrunk_total").Value(); v == 0 {
		t.Fatal("shrunk counter still 0 — rung 1 never engaged under pressure")
	}
	if v := reg.Counter("psserve_degrade_saturated_total").Value(); v != 1 {
		t.Fatalf("saturated counter %d, want 1", v)
	}
	// The rejection and timeout counters stayed out of it.
	if v := reg.Counter("psserve_http_rejected_total").Value(); v != 0 {
		t.Fatalf("rejected counter %d, want 0", v)
	}
	<-hold
}

// waitForBusySlot polls until the held classification slot is visible.
func waitForBusySlot(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("psserve_http_requests_total").Value() >= 1 {
			// The request entered the handler; give it a beat to take the
			// slot (it has a 2 s model, so it will hold it).
			time.Sleep(50 * time.Millisecond)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("held request never arrived")
}

// TestLadderBudget exercises rung 1 decisions directly.
func TestLadderBudget(t *testing.T) {
	check.NoLeaks(t)
	reg := obs.NewRegistry()
	l := newLadder(serverConfig{maxBatch: 1, maxInflight: 4, timeout: 8 * time.Second, defaultModel: "d"}, reg)
	if l.shrinkAt != 2 {
		t.Fatalf("auto shrinkAt %d, want 2", l.shrinkAt)
	}
	if d, shrunk := l.budget(prioNormal); d != 8*time.Second || shrunk {
		t.Fatalf("healthy budget %v shrunk=%v", d, shrunk)
	}
	// Fill to the threshold: budgets shrink for normal, not for high.
	l.sem <- struct{}{}
	l.sem <- struct{}{}
	if d, shrunk := l.budget(prioNormal); d != 4*time.Second || !shrunk {
		t.Fatalf("pressured budget %v shrunk=%v", d, shrunk)
	}
	if d, shrunk := l.budget(prioHigh); d != 8*time.Second || shrunk {
		t.Fatalf("high-priority budget %v shrunk=%v", d, shrunk)
	}
	if v := reg.Counter("psserve_degrade_shrunk_total").Value(); v != 1 {
		t.Fatalf("shrunk counter %d", v)
	}

	// Explicit threshold override.
	l2 := newLadder(serverConfig{maxBatch: 1, maxInflight: 4, timeout: time.Second, shrinkAt: 4, defaultModel: "d"}, nil)
	l2.sem <- struct{}{}
	l2.sem <- struct{}{}
	l2.sem <- struct{}{}
	if d, shrunk := l2.budget(prioNormal); d != time.Second || shrunk {
		t.Fatalf("below-threshold budget %v shrunk=%v", d, shrunk)
	}

	if _, err := parsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
	for h, want := range map[string]priority{"": prioNormal, "normal": prioNormal, "low": prioLow, "high": prioHigh} {
		if p, err := parsePriority(h); err != nil || p != want {
			t.Errorf("parsePriority(%q) = %v, %v", h, p, err)
		}
	}
}

func TestClassifyModelError(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4, err: errors.New("boom")})
	srv := newTestServer(t, models, nil, defaultConfig())
	resp, _ := postClassify(t, srv.URL, `{"images": [[1,0,0]]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
}

func TestHandlerRejectsBadConfig(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4})
	for _, sc := range []serverConfig{
		{maxBatch: 0, maxInflight: 1, timeout: time.Second, defaultModel: "default"},
		{maxBatch: 1, maxInflight: 0, timeout: time.Second, defaultModel: "default"},
		{maxBatch: 1, maxInflight: 1, timeout: 0, defaultModel: "default"},
		{maxBatch: 1, maxInflight: 1, timeout: time.Second},
		{maxBatch: 1, maxInflight: 1, timeout: time.Second, defaultModel: "default", shrinkAt: 2},
	} {
		if _, err := newHandler(models, nil, nil, sc); err == nil {
			t.Fatalf("config %+v accepted", sc)
		}
	}
	if _, err := newHandler(nil, nil, nil, defaultConfig()); err == nil {
		t.Fatal("nil registry accepted")
	}
}

// TestReloadEndpoint drives the admin hot-reload path: a retrained
// snapshot becomes the next generation, a corrupt one is rejected with the
// old generation still serving, and the report says which is which.
func TestReloadEndpoint(t *testing.T) {
	check.NoLeaks(t)
	mem := fault.NewMemFS()
	if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	models, err := registry.New(versionBuilder, 4, registry.WithFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if rep := models.Rescan("models"); rep.Failed() != 0 {
		t.Fatalf("seed scan %+v", rep)
	}
	reg := obs.NewRegistry()
	sc := serverConfig{maxBatch: 4, maxInflight: 2, timeout: 2 * time.Second, defaultModel: "m", modelsDir: "models"}
	srv := newTestServer(t, models, reg, sc)

	post := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// Retrain and reload: generation 2.
	if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	resp, body := post("/reload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Report []reloadResult `json:"report"`
		Failed int            `json:"failed"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || len(rep.Report) != 1 || rep.Report[0].Generation != 2 {
		t.Fatalf("report %+v", rep)
	}
	cresp, cbody := postClassify(t, srv.URL, `{"images": [[1,0,0]]}`)
	var out classifyResponse
	if err := json.Unmarshal(cbody, &out); err != nil || cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify after reload: %d %s", cresp.StatusCode, cbody)
	}
	if out.Generation != 2 || out.Predictions[0].Winner != 2 {
		t.Fatalf("serving %+v after reload, want generation 2 version 2", out)
	}

	// Corrupt publish: reload reports the failure, old generation serves.
	if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	mem.Corrupt("models/m.pss", 25)
	resp, body = post("/reload")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Report[0].Error == "" || rep.Report[0].Generation != 2 {
		t.Fatalf("corrupt report %+v", rep)
	}
	_, cbody = postClassify(t, srv.URL, `{"images": [[1,0,0]]}`)
	if err := json.Unmarshal(cbody, &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 || out.Predictions[0].Winner != 2 {
		t.Fatalf("serving %+v after corrupt reload, want old generation 2", out)
	}

	// GET /reload is a rejected method.
	getResp, err := http.Get(srv.URL + "/reload")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload status %d", getResp.StatusCode)
	}
	if v := reg.Counter("psserve_http_reloads_total").Value(); v != 2 {
		t.Fatalf("reload counter %d, want 2", v)
	}
}

// TestGracefulDrainCompletesInflight is the SIGTERM-equivalent shutdown
// contract: canceling the serve context lets inflight classifications
// finish while new connections are refused.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	check.NoLeaks(t)
	models := defaultRegistry(t, &stubModel{inputs: 3, classes: 4, delay: 400 * time.Millisecond})
	h, err := newHandler(models, nil, nil, serverConfig{maxBatch: 4, maxInflight: 2, timeout: 5 * time.Second, defaultModel: "default"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := options{sc: serverConfig{timeout: 5 * time.Second}}
	srv := newHTTPServer(ln.Addr().String(), h, o)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv, ln, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/classify", "application/json", strings.NewReader(`{"images": [[2,0,0]]}`))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{status: resp.StatusCode, body: b}
	}()

	// Let the request reach the (slow) model, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	cancel()

	// New connections must be refused once the listener closes. The drain
	// window is still open, so poll briefly.
	refused := false
	client := &http.Client{Timeout: time.Second}
	for i := 0; i < 40 && !refused; i++ {
		resp, err := client.Post(base+"/classify", "application/json", strings.NewReader(`{"images": [[2,0,0]]}`))
		if err != nil {
			refused = true
			break
		}
		resp.Body.Close()
		time.Sleep(50 * time.Millisecond)
	}
	if !refused {
		t.Error("new requests were still accepted after shutdown began")
	}

	// The inflight classification finished with a real answer.
	res := <-inflight
	if res.err != nil {
		t.Fatalf("inflight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("inflight request status %d (%s), want 200", res.status, res.body)
	}
	var out classifyResponse
	if err := json.Unmarshal(res.body, &out); err != nil || len(out.Predictions) != 1 || out.Predictions[0].Class != 2 {
		t.Fatalf("inflight response %s", res.body)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// TestNewHTTPServerSlowlorisHardening pins the listener timeouts: header,
// read and idle windows are all bounded so a trickling client cannot hold
// a connection forever, and run refuses configs that disable them.
func TestNewHTTPServerSlowlorisHardening(t *testing.T) {
	check.NoLeaks(t)
	o := options{
		readHeaderTimeout: 3 * time.Second,
		readTimeout:       7 * time.Second,
		idleTimeout:       11 * time.Second,
		sc:                serverConfig{timeout: 2 * time.Second},
	}
	srv := newHTTPServer(":0", nil, o)
	if srv.ReadHeaderTimeout != 3*time.Second {
		t.Errorf("ReadHeaderTimeout %v", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout != 7*time.Second {
		t.Errorf("ReadTimeout %v", srv.ReadTimeout)
	}
	if srv.IdleTimeout != 11*time.Second {
		t.Errorf("IdleTimeout %v", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 7*time.Second {
		t.Errorf("WriteTimeout %v, want request deadline + 5s", srv.WriteTimeout)
	}

	for _, bad := range []options{
		{readTimeout: time.Second, idleTimeout: time.Second},
		{readHeaderTimeout: time.Second, idleTimeout: time.Second},
		{readHeaderTimeout: time.Second, readTimeout: time.Second},
	} {
		if err := run(bad); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
}

// TestHTTPChaosReloadStorm floods /models/m/classify from several clients
// while an admin goroutine drives ≥100 hot-reload cycles, a quarter of
// them against corrupt files. Every 200 response must carry a generation
// tag whose prediction matches it exactly — the HTTP-level torn-read
// check.
func TestHTTPChaosReloadStorm(t *testing.T) {
	check.NoLeaks(t)
	const goodCycles = 100
	mem := fault.NewMemFS()
	if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	models, err := registry.New(versionBuilder, 4, registry.WithFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if rep := models.Rescan("models"); rep.Failed() != 0 {
		t.Fatalf("seed scan %+v", rep)
	}
	sc := serverConfig{maxBatch: 4, maxInflight: 16, timeout: 10 * time.Second, defaultModel: "m", modelsDir: "models"}
	srv := newTestServer(t, models, nil, sc)

	var (
		published atomic.Uint64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	published.Store(1)

	const readers = 4
	readerErr := make([]error, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			var lastGen uint64
			client := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(srv.URL+"/models/m/classify", "application/json", strings.NewReader(`{"images": [[1,0,0]]}`))
				if err != nil {
					readerErr[rd] = err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					readerErr[rd] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var out classifyResponse
				if err := json.Unmarshal(body, &out); err != nil {
					readerErr[rd] = err
					return
				}
				switch {
				case out.Model != "m":
					readerErr[rd] = fmt.Errorf("response model %q", out.Model)
					return
				case out.Generation < lastGen:
					readerErr[rd] = fmt.Errorf("generation went backwards: %d after %d", out.Generation, lastGen)
					return
				case out.Generation > published.Load():
					readerErr[rd] = fmt.Errorf("generation %d was never published", out.Generation)
					return
				case uint64(out.Predictions[0].Winner) != out.Generation:
					readerErr[rd] = fmt.Errorf("torn response: version %d under generation tag %d", out.Predictions[0].Winner, out.Generation)
					return
				}
				lastGen = out.Generation
			}
		}(rd)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	reload := func() (int, []byte) {
		resp, err := client.Post(srv.URL+"/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	for cycle := 2; cycle <= goodCycles+1; cycle++ {
		if cycle%4 == 0 {
			// Hostile publish first: torn file must be rejected with the old
			// generation serving.
			if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(9999)); err != nil {
				t.Fatal(err)
			}
			mem.Truncate("models/m.pss", 16+cycle%24)
			if status, body := reload(); status != http.StatusInternalServerError {
				t.Fatalf("torn reload status %d: %s", status, body)
			}
		}
		if err := netio.SaveFileFS(mem, "models/m.pss", testSnapshot(cycle)); err != nil {
			t.Fatal(err)
		}
		published.Store(uint64(cycle))
		if status, body := reload(); status != http.StatusOK {
			t.Fatalf("cycle %d reload status %d: %s", cycle, status, body)
		}
	}
	close(stop)
	wg.Wait()
	for rd, err := range readerErr {
		if err != nil {
			t.Errorf("reader %d: %v", rd, err)
		}
	}
	if m, ok := models.Get("m"); !ok || m.Gen != goodCycles+1 {
		t.Fatalf("final generation %d, want %d", m.Gen, goodCycles+1)
	}
}

// TestServeTrainedModelEndToEnd trains a tiny model, saves it, serves it
// through the real builder and registry, classifies over HTTP, and
// hot-reloads a retrained snapshot — the in-process version of
// scripts/psserve-smoke.sh and psserve-chaos.sh.
func TestServeTrainedModelEndToEnd(t *testing.T) {
	check.NoLeaks(t)
	const (
		preset  = "8bit"
		rule    = "stochastic"
		seedV   = uint64(7)
		tlearn  = 80.0
		classes = 10
	)
	// The model is resolved by the same call psserve's builder makes, so
	// training and serving share one network config and control.
	m := config.Model{Rule: rule, Preset: preset, Seed: seedV, TLearnMS: tlearn}
	data := dataset.SynthDigits(6, seedV)
	cfg, ctl, err := m.Resolve(data.Pixels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp := make([][]int, cfg.NumNeurons)
	for i := range resp {
		resp[i] = make([]int, classes)
	}
	for i := 0; i < data.Len(); i++ {
		res, err := net.Present(data.Images[i], ctl, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for n, c := range res.SpikeCounts {
			resp[n][data.Labels[i]] += c
		}
	}
	// Labeled via the shared assignment rule; neurons that stayed silent in
	// six images remain -1, which a servable snapshot permits.
	assignments := learn.Assign(resp)
	model := &learn.Model{Assignments: assignments, Responses: resp, NumClasses: classes}
	path := filepath.Join(t.TempDir(), "model.pss")
	if err := netio.SaveFile(path, netio.Capture(net, model)); err != nil {
		t.Fatal(err)
	}

	exec := engine.New(2)
	defer exec.Close()
	reg := obs.NewRegistry()
	build, err := newBuilder(m, classes, exec, reg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := registry.New(build, classes, registry.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := models.Load("default", path); err != nil {
		t.Fatal(err)
	}
	eng, _ := models.Get("default")
	srv := newTestServer(t, models, reg, serverConfig{maxBatch: 8, maxInflight: 2, timeout: 10 * time.Second, defaultModel: "default"})

	body, err := json.Marshal(classifyRequest{Images: data.Images[:3]})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, respBody := postClassify(t, srv.URL, string(body))
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", httpResp.StatusCode, respBody)
	}
	var out classifyResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != 3 {
		t.Fatalf("%d predictions, want 3", len(out.Predictions))
	}
	if out.Model != "default" || out.Generation != 1 {
		t.Fatalf("response tagged %q gen %d", out.Model, out.Generation)
	}
	// Served predictions match the engine's direct batch path (determinism
	// over HTTP).
	direct, err := eng.Engine.PredictBatch(data.Images[:3])
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if out.Predictions[i].Class != direct[i].Class || out.Predictions[i].Winner != direct[i].Winner {
			t.Fatalf("prediction %d over HTTP %+v, direct %+v", i, out.Predictions[i], direct[i])
		}
	}

	// Admin hot-reload of the same file: generation 2, identical answers.
	reloadResp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(reloadResp.Body)
	reloadResp.Body.Close()
	if reloadResp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", reloadResp.StatusCode, reloadBody)
	}
	httpResp2, respBody2 := postClassify(t, srv.URL, string(body))
	if httpResp2.StatusCode != http.StatusOK {
		t.Fatalf("classify after reload: %d", httpResp2.StatusCode)
	}
	var out2 classifyResponse
	if err := json.Unmarshal(respBody2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Generation != 2 {
		t.Fatalf("generation %d after reload, want 2", out2.Generation)
	}
	for i := range out.Predictions {
		if out2.Predictions[i].Class != out.Predictions[i].Class {
			t.Fatalf("prediction %d changed across identical reload: %+v vs %+v", i, out2.Predictions[i], out.Predictions[i])
		}
	}

	metrics, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	prom, err := io.ReadAll(metrics.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"infer_requests_total", "infer_images_total", "psserve_http_requests_total", "registry_swaps_total"} {
		if !strings.Contains(string(prom), metric) {
			t.Fatalf("/metrics exposition missing %s:\n%s", metric, prom)
		}
	}
}
