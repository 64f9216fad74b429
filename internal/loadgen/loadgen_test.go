package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webmeasure"
	"webmeasure/internal/service"
	"webmeasure/internal/service/scaler"
)

// burstyConfig is the golden scenario: a burst arrival process hot
// enough to force scale-ups, with off windows long enough to scale back
// down — so the determinism assertions cover a non-trivial scale-event
// sequence, not an idle pool.
func burstyConfig() Config {
	return Config{
		Seed:       42,
		Arrival:    "burst",
		RatePerSec: 60,
		BurstOnMS:  3000,
		BurstOffMS: 9000,
		DurationMS: 40_000,
		Mix:        Mix{CachedShare: 0.3, FaultLightShare: 0.2, FaultHeavyShare: 0.1, ShardedShare: 0.1},
		Service: Service{
			MinWorkers: 1, MaxWorkers: 6, QueueDepth: 32,
			JobBaseUS: 20_000, JobPerVisitUS: 4_000,
			// Cooldowns and damping shortened to fit the 3s-on / 9s-off
			// cycle, so the pool both grows and shrinks within a run.
			Scaler: scaler.Config{UpCooldownMS: 500, DownCooldownMS: 2000, DownStableMS: 1000},
		},
		SLO: SLO{QueueWaitP95MS: 2_000, E2EP99MS: 5_000, MaxRejectedShare: 0.2, MinCacheHitRatio: 0.05},
	}
}

// renderReport runs the config through the simulator and returns the
// text report bytes plus the report itself.
func renderReport(t *testing.T, cfg Config) ([]byte, *Report) {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	rep.WriteText(&b)
	return b.Bytes(), rep
}

// TestLoadgenDeterministic is the golden determinism suite: the same
// seeded config must produce byte-identical SLO reports and identical
// scale-event sequences across repeated runs, and across analysis
// worker counts (workers never change result bytes, so they must never
// change the report either). A different seed must actually change the
// report — determinism by constancy would be vacuous.
func TestLoadgenDeterministic(t *testing.T) {
	first, rep1 := renderReport(t, burstyConfig())
	second, rep2 := renderReport(t, burstyConfig())
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed, different reports:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if len(rep1.Events) == 0 {
		t.Fatal("golden scenario produced no scale events; the determinism claim is vacuous")
	}
	if rep1.ScaleUps == 0 || rep1.ScaleDowns == 0 {
		t.Fatalf("golden scenario should scale both ways, got %d up / %d down", rep1.ScaleUps, rep1.ScaleDowns)
	}
	for i := range rep1.Events {
		if rep1.Events[i] != rep2.Events[i] {
			t.Fatalf("scale event %d differs: %+v vs %+v", i, rep1.Events[i], rep2.Events[i])
		}
	}

	workersVariant := burstyConfig()
	workersVariant.Mix.AnalysisWorkers = 8
	third, _ := renderReport(t, workersVariant)
	if !bytes.Equal(first, third) {
		t.Fatalf("analysis worker count changed the report:\n--- workers=default ---\n%s\n--- workers=8 ---\n%s", first, third)
	}

	reseeded := burstyConfig()
	reseeded.Seed = 43
	fourth, _ := renderReport(t, reseeded)
	if bytes.Equal(first, fourth) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestSimReportShape sanity-checks the simulated run's bookkeeping: the
// traffic section must balance and the configured SLO targets must all
// appear as checks.
func TestSimReportShape(t *testing.T) {
	text, rep := renderReport(t, burstyConfig())
	if rep.Submitted == 0 || rep.Completed == 0 {
		t.Fatalf("no traffic simulated: %+v", rep)
	}
	if rep.Submitted != rep.Completed+rep.CacheHits+rep.Rejected {
		t.Fatalf("traffic does not balance: submitted %d != completed %d + hits %d + rejected %d",
			rep.Submitted, rep.Completed, rep.CacheHits, rep.Rejected)
	}
	if rep.CacheHits == 0 {
		t.Fatal("a 30% cached share warmed no cache hits")
	}
	if rep.E2E.Count == 0 || rep.QueueWait.P95 < 0 {
		t.Fatalf("latency sections empty: %+v", rep)
	}
	if len(rep.Checks) != 4 {
		t.Fatalf("configured 4 SLO targets, report has %d checks", len(rep.Checks))
	}
	for _, want := range []string{
		"=== loadgen SLO report ===", "--- traffic ---", "--- latency (ms) ---",
		"--- autoscaling", "--- SLO ---", "overall:",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestClosedLoopSim covers the closed loop: a fixed client population
// must never reject (the loop self-limits at clients ≤ queue+workers)
// and must keep submitting across the whole duration.
func TestClosedLoopSim(t *testing.T) {
	cfg := Config{
		Seed: 7, Loop: "closed", Clients: 3, ThinkMS: 50, DurationMS: 20_000,
		Mix:     Mix{CachedShare: 0.5},
		Service: Service{MinWorkers: 1, MaxWorkers: 4, QueueDepth: 16, JobBaseUS: 30_000, JobPerVisitUS: 2_000},
	}
	_, rep := renderReport(t, cfg)
	if rep.Rejected != 0 {
		t.Fatalf("3 closed-loop clients overflowed a 16-deep queue: %d rejected", rep.Rejected)
	}
	if rep.Submitted < int64(cfg.DurationMS/1000) {
		t.Fatalf("closed loop starved: only %d submissions in %dms", rep.Submitted, cfg.DurationMS)
	}
	a, _ := renderReport(t, cfg)
	b, _ := renderReport(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("closed-loop run is not deterministic")
	}
}

// TestArrivalProcesses pins the three processes' gross shapes on one
// seed: fixed is evenly spaced, poisson jitters around the same mean,
// burst concentrates arrivals in on-windows.
func TestArrivalProcesses(t *testing.T) {
	base := Config{Seed: 1, RatePerSec: 100, DurationMS: 10_000}
	count := func(cfg Config) (n int, inOn int) {
		cfg, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		a := newArrivals(cfg, newRNG(cfg.Seed))
		for {
			at := a.next()
			if at < 0 {
				break
			}
			n++
			if cfg.Arrival == "burst" {
				cycle := (cfg.BurstOnMS + cfg.BurstOffMS) * 1000
				if at%cycle < cfg.BurstOnMS*1000 {
					inOn++
				}
			}
		}
		return n, inOn
	}

	fixed := base
	fixed.Arrival = "fixed"
	if n, _ := count(fixed); n != 1000 {
		t.Fatalf("fixed 100/s over 10s = %d arrivals, want 1000", n)
	}
	poisson := base
	poisson.Arrival = "poisson"
	if n, _ := count(poisson); n < 800 || n > 1200 {
		t.Fatalf("poisson 100/s over 10s = %d arrivals, want ~1000", n)
	}
	burst := base
	burst.Arrival = "burst"
	burst.BurstOnMS, burst.BurstOffMS = 1000, 4000
	n, inOn := count(burst)
	if n == 0 || inOn != n {
		t.Fatalf("burst with idle_frac 0 placed %d of %d arrivals outside on-windows", n-inOn, n)
	}
}

// TestConfigNormalize covers defaulting, validation errors, and
// idempotence.
func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != "sim" || c.Loop != "open" || c.Arrival != "poisson" || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Service.Scaler.MinWorkers != c.Service.MinWorkers || c.Service.Scaler.UpCooldownMS == 0 {
		t.Fatalf("scaler policy not completed: %+v", c.Service.Scaler)
	}
	c2, err := c.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", c, c2)
	}

	for name, bad := range map[string]Config{
		"bad mode":            {Mode: "chaos"},
		"bad loop":            {Loop: "spiral"},
		"bad arrival":         {Arrival: "stampede"},
		"live without target": {Mode: "live"},
		"inverted bounds":     {Service: Service{MinWorkers: 8, MaxWorkers: 2}},
		"share > 1":           {Mix: Mix{CachedShare: 1.5}},
		"fault shares > 1":    {Mix: Mix{FaultLightShare: 0.7, FaultHeavyShare: 0.7}},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, bad)
		}
	}
}

// TestParseStrict: unknown fields and trailing garbage are loud errors.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"seed": 3, "arrival": "poisson"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte(`{"sede": 3}`)); err == nil {
		t.Fatal("typoed field parsed silently")
	}
	if _, err := Parse([]byte(`{"seed": 3}{"seed": 4}`)); err == nil {
		t.Fatal("trailing object parsed silently")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed silently")
	}
}

// TestLiveModeAgainstInProcessServer drives live mode at an in-process
// service with a stubbed instant runner: the report must carry traffic,
// e2e latencies, and the server-scraped families.
func TestLiveModeAgainstInProcessServer(t *testing.T) {
	srv := service.New(service.Config{
		Workers: 1, MinWorkers: 1, MaxWorkers: 4, QueueDepth: 16,
		ScaleInterval: 20 * time.Millisecond,
		Runner: func(ctx context.Context, wcfg webmeasure.Config) (*webmeasure.Results, error) {
			return webmeasure.Run(ctx, wcfg)
		},
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := Config{
		Seed: 5, Target: ts.URL, Loop: "closed", Clients: 2, ThinkMS: 10,
		DurationMS: 1500,
		Mix:        Mix{CachedShare: 0.5, Sites: 3, PagesPerSite: 2},
		SLO:        SLO{E2EP99MS: 60_000},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "live" {
		t.Fatalf("mode = %q, want live (implied by target)", rep.Mode)
	}
	if rep.Submitted == 0 || rep.Completed == 0 {
		t.Fatalf("no live traffic recorded: %+v", rep)
	}
	if rep.E2E.Count == 0 {
		t.Fatal("no client-side end-to-end latencies recorded")
	}
	var out bytes.Buffer
	rep.WriteText(&out)
	if !strings.Contains(out.String(), "mode=live") {
		t.Fatalf("report text: %s", out.String())
	}

	// The report's JSON form must round-trip (cmd/loadgen -json).
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
}
