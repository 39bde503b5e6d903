package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestAdminMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("nacks_total", L("reason", "expired")).Add(2)
	srv := httptest.NewServer(NewAdminMux(reg, func() any {
		return map[string]int{"pit": 3}
	}))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content-type %q", ctype)
	}
	if !strings.Contains(body, `nacks_total{reason="expired"} 2`) {
		t.Errorf("/metrics body:\n%s", body)
	}

	code, body, ctype = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/statusz content-type %q", ctype)
	}
	var doc struct {
		UptimeSeconds float64            `json:"uptime_seconds"`
		Metrics       map[string]float64 `json:"metrics"`
		Status        map[string]int     `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if doc.Status["pit"] != 3 {
		t.Errorf("statusz status = %v", doc.Status)
	}
	if doc.Metrics[`nacks_total{reason="expired"}`] != 2 {
		t.Errorf("statusz metrics = %v", doc.Metrics)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d", code)
	}
}

func TestServeAdmin(t *testing.T) {
	reg := NewRegistry()
	ln, err := Serve("127.0.0.1:0", NewAdminMux(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}
