package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"webmeasure"
)

// monitorSpec is the tiny experiment the monitor tests rerun per epoch.
func monitorSpec(workers, siteWorkers int) JobSpec {
	return JobSpec{
		Seed:         7,
		Sites:        4,
		TrancoSize:   40,
		PagesPerSite: 2,
		Workers:      workers,
		SiteWorkers:  siteWorkers,
	}
}

// startMonitorServer boots a server in monitor mode over stateDir and
// waits for the monitor loop to finish.
func startMonitorServer(t *testing.T, stateDir string, spec JobSpec, epochs int) *Server {
	t.Helper()
	s := New(Config{
		Workers: 1,
		Monitor: &MonitorConfig{
			Spec:     spec,
			Epochs:   epochs,
			StateDir: stateDir,
			PinEpoch: -1,
		},
	})
	select {
	case <-s.MonitorDone():
	case <-time.After(120 * time.Second):
		t.Fatal("monitor did not finish")
	}
	if st, ok := s.MonitorStatus(); !ok || st.LastError != "" {
		t.Fatalf("monitor status: ok=%v err=%q", ok, st.LastError)
	}
	return s
}

// readStateDir returns every file in dir keyed by name.
func readStateDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestMonitorDeterministicAcrossWorkerCounts is the monitor's golden
// determinism property: two servers running the same 3-epoch schedule —
// one with serial analysis and crawling, one with 8 analysis workers and
// 8 site workers — must write byte-identical state directories
// (baselines, deltas, pinned deltas, alerts.jsonl, drift.csv,
// drift-report.txt).
func TestMonitorDeterministicAcrossWorkerCounts(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sa := startMonitorServer(t, dirA, monitorSpec(1, 1), 3)
	defer shutdownServer(t, sa)
	sb := startMonitorServer(t, dirB, monitorSpec(8, 8), 3)
	defer shutdownServer(t, sb)

	filesA, filesB := readStateDir(t, dirA), readStateDir(t, dirB)
	if len(filesA) != len(filesB) {
		t.Fatalf("state dirs differ in file count: %d vs %d", len(filesA), len(filesB))
	}
	names := make([]string, 0, len(filesA))
	for name := range filesA {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := filesB[name]
		if !ok {
			t.Errorf("%s missing from second state dir", name)
			continue
		}
		if !bytes.Equal(filesA[name], b) {
			t.Errorf("%s differs between worker counts", name)
		}
	}

	// The schedule must have produced the full artifact set: one baseline
	// per epoch, sequential + pinned deltas, and the three derived files.
	for _, want := range []string{
		"baseline-e0000.json", "baseline-e0001.json", "baseline-e0002.json",
		"delta-e0000-e0001.json", "delta-e0001-e0002.json",
		"pinned-e0001.json", "pinned-e0002.json",
		"alerts.jsonl", "drift.csv", "drift-report.txt",
	} {
		if _, ok := filesA[want]; !ok {
			t.Errorf("state dir missing %s (have %v)", want, names)
		}
	}
	if !bytes.HasPrefix(filesA["drift.csv"], []byte("from_epoch,to_epoch,")) {
		t.Errorf("drift.csv lacks the header: %q", filesA["drift.csv"])
	}
	if !bytes.Contains(filesA["drift-report.txt"], []byte("== Longitudinal drift: epoch 0 -> 1 ==")) {
		t.Errorf("drift-report.txt lacks the epoch 0->1 section")
	}
}

// shutdownServer drains with a deadline.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestMonitorResume pins that a restarted server resumes from the
// persisted baselines without re-running finished epochs, and rebuilds
// the derived artifacts to the exact bytes of the uninterrupted run.
func TestMonitorResume(t *testing.T) {
	dir := t.TempDir()
	s1 := startMonitorServer(t, dir, monitorSpec(0, 0), 3)
	shutdownServer(t, s1)
	before := readStateDir(t, dir)

	// A resumed run must never reach the runner: every epoch's baseline
	// is already on disk.
	s2 := New(Config{
		Workers: 1,
		Runner: func(context.Context, webmeasure.Config) (*webmeasure.Results, error) {
			return nil, fmt.Errorf("resume must not re-run finished epochs")
		},
		Monitor: &MonitorConfig{
			Spec:     monitorSpec(0, 0),
			Epochs:   3,
			StateDir: dir,
		},
	})
	select {
	case <-s2.MonitorDone():
	case <-time.After(60 * time.Second):
		t.Fatal("resumed monitor did not finish")
	}
	defer shutdownServer(t, s2)
	st, _ := s2.MonitorStatus()
	if st.LastError != "" {
		t.Fatalf("resume failed: %s", st.LastError)
	}
	if st.EpochsDone != 3 || !st.Done {
		t.Fatalf("resume status: done=%v epochs=%d", st.Done, st.EpochsDone)
	}

	after := readStateDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("resume changed the file count: %d vs %d", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Errorf("resume changed %s", name)
		}
	}
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: decode: %v\n%s", url, err, body)
	}
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMonitorEndpoints exercises the HTTP surface of monitor mode:
// /debug/drift, the monitor block in /healthz, and the /debug/ index.
func TestMonitorEndpoints(t *testing.T) {
	dir := t.TempDir()
	s := startMonitorServer(t, dir, monitorSpec(0, 0), 2)
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var drift struct {
		MonitorStatus
		LastDelta  *json.RawMessage `json:"last_delta"`
		LastPinned *json.RawMessage `json:"last_pinned"`
	}
	getJSON(t, ts.URL+"/debug/drift", &drift)
	if !drift.Enabled || !drift.Done {
		t.Errorf("drift status: enabled=%v done=%v", drift.Enabled, drift.Done)
	}
	if drift.EpochsDone != 2 || drift.LastEpoch != 1 {
		t.Errorf("drift progress: done=%d last=%d", drift.EpochsDone, drift.LastEpoch)
	}
	if drift.LastDelta == nil {
		t.Error("drift status lacks last_delta")
	}

	var health struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		Build         string  `json:"build"`
		GoVersion     string  `json:"go_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Monitor       *struct {
			Enabled    bool `json:"enabled"`
			EpochsDone int  `json:"epochs_done"`
		} `json:"monitor"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Version == "" || health.Build == "" {
		t.Errorf("healthz identity: %+v", health)
	}
	if !strings.HasPrefix(health.GoVersion, "go") || health.UptimeSeconds <= 0 {
		t.Errorf("healthz runtime info: %+v", health)
	}
	if health.Monitor == nil || !health.Monitor.Enabled || health.Monitor.EpochsDone != 2 {
		t.Errorf("healthz monitor block: %+v", health.Monitor)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/ status %d", resp.StatusCode)
	}
	for _, want := range []string{"/debug/pprof/", "/debug/traces", "/debug/drift"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/ index lacks %s:\n%s", want, body)
		}
	}
}

// TestDriftEndpointDisabled pins the 404 when monitor mode is off.
func TestDriftEndpointDisabled(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/drift")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != 404 {
		t.Fatalf("/debug/drift without monitor: status %d, want 404", resp.StatusCode)
	}
}
