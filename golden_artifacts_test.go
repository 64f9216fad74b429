package webmeasure

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"webmeasure/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite "+goldenArtifactsPath+" from this build")

// goldenArtifactsPath holds one SHA-256 per artifact of the golden matrix,
// under a header line naming the GOARCH it was recorded on.
const goldenArtifactsPath = "scripts/golden/artifacts.sha256"

// TestArtifactsGolden pins every exported artifact — report, JSON, CSV,
// Summary and encoded drift baseline — to the hashes committed in
// scripts/golden/artifacts.sha256. The matrix crosses three seeds with
// four configurations and three ways of reaching an analysis: a crawl-fed
// Run, a reload of its columnar dataset, and a three-shard run assembled
// from wire-encoded partials. A change that must not move any number
// passes unchanged; one that means to regenerates the file with
//
//	go test -run TestArtifactsGolden -update .
//
// and commits it beside the change.
func TestArtifactsGolden(t *testing.T) {
	got := goldenHashes(t)
	if *updateGolden {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# SHA-256 of every artifact of TestArtifactsGolden's matrix; rewrite with -update.\n")
		fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(goldenArtifactsPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	arch, want := readGoldenHashes(t)
	if arch != runtime.GOARCH {
		t.Skipf("%s was recorded on %s, not %s: the compiler may fuse floating-point multiply-adds on this architecture, which moves the last bits of derived figures", goldenArtifactsPath, arch, runtime.GOARCH)
	}
	for name, h := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: no longer produced", name)
		case g != h:
			t.Errorf("%s: sha256 %s, golden %s", name, g, h)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced but not in %s", name, goldenArtifactsPath)
		}
	}
}

// goldenHashes runs the matrix and hashes each artifact under
// "seed<N>/<config>/<path>/<artifact>".
func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Workers: 1}},
		{"heavy", Config{FaultProfile: "heavy", Workers: 2}},
		{"stateful", Config{Stateful: true}},
		{"heavy-3profiles", Config{FaultProfile: "heavy", Workers: 2, Profiles: []string{"Sim1", "Sim2", "NoAction"}}},
	}
	out := make(map[string]string)
	for _, seed := range []int64{11, 23, 37} {
		for _, c := range configs {
			cfg := c.cfg
			cfg.Seed, cfg.Sites, cfg.PagesPerSite = seed, 8, 3
			prefix := fmt.Sprintf("seed%d/%s/", seed, c.name)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%srun: %v", prefix, err)
			}
			hashArtifacts(t, out, prefix+"run/", res)

			var col bytes.Buffer
			if err := res.WriteDatasetCol(&col); err != nil {
				t.Fatal(err)
			}
			reload, err := LoadAndAnalyzeContext(context.Background(), &col, cfg)
			if err != nil {
				t.Fatalf("%scol: %v", prefix, err)
			}
			hashArtifacts(t, out, prefix+"col/", reload)

			hashArtifacts(t, out, prefix+"shards3/", assembleShards(t, cfg, 3))
		}
	}
	return out
}

// assembleShards runs each shard of cfg, round-trips its partial through
// the wire encoding, and assembles the results.
func assembleShards(t *testing.T, cfg Config, n int) *Results {
	t.Helper()
	cfg.Shards = n
	parts := make([]*core.Partial, n)
	for i := range parts {
		shardCfg := cfg
		shardCfg.ShardIndex = i
		res, err := Run(context.Background(), shardCfg)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		part, err := res.Partial()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = core.DecodePartial(wire); err != nil {
			t.Fatal(err)
		}
	}
	res, err := AssembleFromPartials(context.Background(), cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hashArtifacts(t *testing.T, out map[string]string, prefix string, res *Results) {
	t.Helper()
	a := renderArtifacts(t, res)
	baseline, err := res.DriftBaseline().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"report":  a.report,
		"json":    a.json,
		"csv":     a.csv,
		"summary": []byte(fmt.Sprintf("%+v", res.Summary())),
		"drift":   baseline,
	} {
		sum := sha256.Sum256(b)
		out[prefix+name] = hex.EncodeToString(sum[:])
	}
}

// readGoldenHashes parses the golden file: '#' comments, one
// "goarch <arch>" line, then "<sha256>  <name>" lines.
func readGoldenHashes(t *testing.T) (arch string, hashes map[string]string) {
	t.Helper()
	f, err := os.Open(goldenArtifactsPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	hashes = make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if a, ok := strings.CutPrefix(line, "goarch "); ok {
			arch = a
			continue
		}
		h, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenArtifactsPath, line)
		}
		hashes[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if arch == "" || len(hashes) == 0 {
		t.Fatalf("%s names no goarch or holds no hashes", goldenArtifactsPath)
	}
	return arch, hashes
}
