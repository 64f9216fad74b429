package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := serviceOps(1, "service", 64), serviceOps(1, "service", 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different service requests")
	}
	c := serviceOps(2, "service", 64)
	sameRepeats := true
	for i := range a {
		if a[i].repeatOf < 0 && a[i].spec.Seed == c[i].spec.Seed {
			t.Fatalf("seeds 1 and 2 share request %d's experiment seed", i)
		}
		if a[i].repeatOf != c[i].repeatOf {
			sameRepeats = false
		}
	}
	if sameRepeats {
		t.Error("seeds 1 and 2 repeat the same earlier requests")
	}
	for i := 0; i < reanalyzeInputs; i++ {
		if !reflect.DeepEqual(reanalyzeConfig(1, i), reanalyzeConfig(1, i)) || reanalyzeConfig(1, i).Seed == reanalyzeConfig(2, i).Seed {
			t.Errorf("reanalyze input %d does not follow the workload seed", i)
		}
	}
	if monitorSpec(1, 0).Seed != monitorSpec(1, 0).Seed || monitorSpec(1, 0).Seed == monitorSpec(2, 0).Seed {
		t.Error("monitor spec does not follow the workload seed")
	}
}

func TestServiceRequestMix(t *testing.T) {
	ops := serviceOps(5, "service", 400)
	seen := make(map[int64]bool)
	var fresh, heavy, col, big, heavyCol, repeats int
	for i, op := range ops {
		if op.repeatOf >= 0 {
			repeats++
			if i%4 != 3 || i-op.repeatOf < 5 || i-op.repeatOf > 7 || ops[op.repeatOf].repeatOf >= 0 {
				t.Fatalf("request %d repeats request %d", i, op.repeatOf)
			}
			if !reflect.DeepEqual(op.spec, ops[op.repeatOf].spec) {
				t.Fatalf("request %d does not repeat request %d's spec", i, op.repeatOf)
			}
			continue
		}
		if seen[op.spec.Seed] {
			t.Fatalf("request %d reuses an experiment seed", i)
		}
		seen[op.spec.Seed] = true
		fresh++
		s := op.spec
		if s.Workers != 1 || s.SiteWorkers != 1 || s.PagesPerSite != 3 {
			t.Fatalf("request %d: spec %+v", i, s)
		}
		heavy += b2i(s.FaultProfile == "heavy")
		col += b2i(s.DatasetFormat == "col")
		big += b2i(s.Sites == 10)
		heavyCol += b2i(s.FaultProfile == "heavy" && s.DatasetFormat == "col")
	}
	if repeats != 400/4-1 {
		t.Errorf("%d repeats, want every 4th request after the first group", repeats)
	}
	// Over whole cycles of 16 fresh specs the mix is exact.
	whole := fresh / servicePeriod * servicePeriod
	heavy, col, big, heavyCol = 0, 0, 0, 0
	for f := 0; f < whole; f++ {
		s := serviceSpec(5, "service", f)
		heavy += b2i(s.FaultProfile == "heavy")
		col += b2i(s.DatasetFormat == "col")
		big += b2i(s.Sites == 10)
		heavyCol += b2i(s.FaultProfile == "heavy" && s.DatasetFormat == "col")
	}
	if heavy*4 != whole || col*2 != whole || big*2 != whole || heavyCol*2 != heavy {
		t.Errorf("mix over %d fresh specs: %d heavy (%d col), %d col, %d with 10 sites", whole, heavy, heavyCol, col, big)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDeriveSeedStreams(t *testing.T) {
	if deriveSeed(3, "a", 1) != deriveSeed(3, "a", 0)+1 {
		t.Error("seeds of one stream are not consecutive")
	}
	if deriveSeed(3, "a", 0) == deriveSeed(3, "b", 0) || deriveSeed(3, "a", 0) <= 0 {
		t.Error("streams share a seed or produce a non-positive one")
	}
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile of n samples (ties aside).
func samplesBeyond(n int, q float64) int {
	return n - 1 - rankIndex(n, q)
}

// TestPercentileTenBeyond pins the nearest-rank p90 to the rule that a
// reported percentile has at least ten samples beyond it: minOps is the
// smallest sample count that satisfies it.
func TestPercentileTenBeyond(t *testing.T) {
	for n := 1; n <= 300; n++ {
		if got := samplesBeyond(n, 0.9) >= 10; got != (n >= minOps) {
			t.Fatalf("n=%d: %d samples beyond p90", n, samplesBeyond(n, 0.9))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	beyond := 0
	for _, x := range xs {
		if x > 90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 of 1..100, want 10", beyond)
	}
	if p := percentile([]float64{3, 1, 2}, 0.5); p != 2 {
		t.Errorf("p50 of {1,2,3} = %v", p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of {1,2,3,4} = %v", m)
	}
}

func TestOpCount(t *testing.T) {
	for _, c := range []struct {
		seconds     int
		rate        float64
		period, out int
	}{
		{30, 7.4, 16, 224},
		{1, 7.4, 16, 112},
		{30, 8, 16, 240},
		{30, 6, 16, 192},
	} {
		if got := opCount(options{seconds: c.seconds}, c.rate, c.period); got != c.out {
			t.Errorf("opCount(%d s, %v/s, period %d) = %d, want %d", c.seconds, c.rate, c.period, got, c.out)
		}
	}
	if got := opCount(options{seconds: 30, smoke: true}, 8, 16); got != 16 {
		t.Errorf("smoke opCount = %d, want one period", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.record(1, 0, "op", at(0), at(100))
	tr.record(1, op, "a", at(10), at(40))
	child := tr.record(1, op, "b", at(50), at(90))
	tr.record(1, child, "c", at(200), at(250)) // a replayed child, after its parent
	tr.record(2, 0, "op", at(0), at(10))
	self := tr.selfMS(func(s span) bool { return s.Op == 1 })
	want := map[string]float64{"op": 30, "a": 30, "b": 0, "c": 50}
	for k, v := range want {
		if d := self[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self(%s) = %v, want %v", k, self[k], v)
		}
	}
}

// TestSmoke runs a few ops of every workload with all checks on, untraced
// and traced, and checks the result lines against the benchmark contract.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--smoke", "--seed", "7", "--trace", traced, "--build-dir", t.TempDir()}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, stderr.String())
		}
		want := []string{"alloc_mb_per_op", "cpu_ms_per_op", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb", "setup_s"}
		if traced == "1" {
			want = want[:0]
			for _, p := range perLayer {
				want = append(want, p.name)
			}
			sort.Strings(want)
		}
		sc := bufio.NewScanner(&stdout)
		lines := 0
		for sc.Scan() {
			lines++
			var r struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("trace %s: %v: %s", traced, err, sc.Text())
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s: %s\n%s", traced, sc.Text(), stderr.String())
			}
			var got []string
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("trace %s: metrics %v, want %v", traced, got, want)
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", traced, lines, len(workloads))
		}
	}
}
