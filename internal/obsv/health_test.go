package obsv

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthProbes(t *testing.T) {
	h := NewHealth()
	if err := h.Ready(); err != nil {
		t.Fatalf("empty health must be ready, got %v", err)
	}
	var fail error
	h.Set("store", func() error { return nil })
	h.Set("serve", func() error { return fail })
	if err := h.Ready(); err != nil {
		t.Fatalf("ready = %v, want nil", err)
	}
	fail = errors.New("poisoned")
	err := h.Ready()
	if err == nil || !strings.Contains(err.Error(), "serve: poisoned") {
		t.Fatalf("ready = %v, want the failing probe named", err)
	}
	rep := h.Report()
	if !strings.Contains(rep, "serve: poisoned") || !strings.Contains(rep, "store: ok") {
		t.Fatalf("report missing probe lines:\n%s", rep)
	}
	if h.Uptime() <= 0 {
		t.Fatal("uptime must be positive")
	}

	reg := NewRegistry()
	h.Register(reg)
	if got := reg.Value("process_ready"); got != 0 {
		t.Fatalf("process_ready = %v, want 0 while a probe fails", got)
	}
	fail = nil
	if got := reg.Value("process_ready"); got != 1 {
		t.Fatalf("process_ready = %v, want 1 when probes pass", got)
	}
	if got := reg.Value("process_uptime_seconds"); got < 0 {
		t.Fatalf("process_uptime_seconds = %v, want >= 0", got)
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rr.Result().Body)
	return rr.Code, string(body)
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("endpoint_total", "").Add(4)
	health := NewHealth()
	var poison error
	health.Set("serve", func() error { return poison })
	tr := NewTracer(1)
	h := Endpoint{Registry: reg, Health: health, Tracer: tr}.Handler()

	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "endpoint_total 4") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get(t, h, "/metrics.json"); code != 200 || !strings.Contains(body, `"endpoint_total":4`) {
		t.Fatalf("/metrics.json = %d:\n%s", code, body)
	}
	if code, body := get(t, h, "/healthz"); code != 200 || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %d:\n%s", code, body)
	}
	if code, body := get(t, h, "/readyz"); code != 200 || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz = %d:\n%s", code, body)
	}

	// The fail-closed contract: a poisoned probe flips /readyz to 503.
	poison = errors.New("fail-closed")
	if code, body := get(t, h, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "serve: fail-closed") {
		t.Fatalf("/readyz with failing probe = %d:\n%s", code, body)
	}

	if code, body := get(t, h, "/traces"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/traces = %d:\n%s", code, body)
	}

	// Nil components degrade to empty state, not panics.
	if code, _ := get(t, Endpoint{}.Handler(), "/metrics"); code != 200 {
		t.Fatalf("nil-registry /metrics = %d", code)
	}
	if code, body := get(t, Endpoint{}.Handler(), "/readyz"); code != 200 || !strings.HasPrefix(body, "ready") {
		t.Fatalf("nil-health /readyz = %d:\n%s", code, body)
	}
}

func TestListenAndServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lns_total", "").Inc()
	ms, err := Endpoint{Registry: reg, Health: NewHealth()}.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "lns_total 1") {
		t.Fatalf("scrape missing series:\n%s", body)
	}
}
