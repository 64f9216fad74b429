package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeEndToEnd boots the command on an ephemeral port, walks the
// full client flow over real HTTP (health, submit, poll, artifacts,
// cache hit, metrics), then sends the shutdown signal and expects a
// clean drain and exit code 0.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	var stdout, stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"},
			&stdout, &stderr, ready)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	if code, _ := httpGet(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}

	submit := func() (id, state string, cacheHit bool, code int) {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"seed": 5, "sites": 5, "pages_per_site": 2}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			ID       string `json:"id"`
			State    string `json:"state"`
			CacheHit bool   `json:"cache_hit"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.ID, v.State, v.CacheHit, resp.StatusCode
	}

	id, _, _, code := submit()
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		_, body := httpGet(t, base+"/v1/jobs/"+id)
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == "done" {
			break
		}
		if v.State == "failed" || v.State == "canceled" {
			t.Fatalf("job ended %s: %s", v.State, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, rep := httpGet(t, base+"/v1/jobs/"+id+"/report"); code != 200 || len(rep) == 0 {
		t.Fatalf("report = %d (%d bytes)", code, len(rep))
	}

	// Identical resubmission: served from cache with a 200.
	_, state, hit, code := submit()
	if code != http.StatusOK || state != "done" || !hit {
		t.Fatalf("resubmit: code=%d state=%s cache_hit=%v, want cached 200/done", code, state, hit)
	}
	if code, prom := httpGet(t, base+"/metrics"); code != 200 ||
		!bytes.Contains(prom, []byte("service_cache_hits 1")) {
		t.Fatalf("/metrics = %d, missing cache-hit counter:\n%s", code, prom)
	}

	cancel() // deliver the "signal"
	select {
	case got := <-exit:
		if got != 0 {
			t.Fatalf("exit = %d, stderr:\n%s", got, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never exited after shutdown signal")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("stderr missing drain confirmation:\n%s", stderr.String())
	}
	for _, want := range []string{`msg="job queued"`, `msg="job done"`} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing job lifecycle log %q:\n%s", want, stderr.String())
		}
	}
	if !strings.Contains(stdout.String(), "serving on http://") ||
		!strings.Contains(stdout.String(), "(workers=2 queue=16 cache=64)") {
		t.Errorf("stdout missing banner:\n%s", stdout.String())
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeBadFlags exits 2 on flag errors without binding a port. The
// pool is a fixed -workers count, so the retired autoscaling flags are
// unknown too. The context is already canceled, so arguments that do
// parse end the run at once instead of serving.
func TestServeBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-min-workers", "1"},
		{"-max-workers", "4"},
		{"-scale-interval", "1s"},
	} {
		var buf bytes.Buffer
		if code := run(ctx, args, &buf, &buf, nil); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}
