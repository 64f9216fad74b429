package drift

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// referenceEncode is the plain encoder: a fresh json.Encoder with
// SetIndent("", "  ") and SetEscapeHTML(false). Encode must write its
// bytes exactly.
func referenceEncode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// awkward are strings the JSON encoders treat differently: HTML
// characters json.Marshal escapes, the line separators encoding/json
// always escapes, invalid UTF-8 it replaces, and plain non-ASCII text.
var awkward = []string{
	"https://t.example/p?a=1&b=2",
	"<script>",
	"a>b",
	"line\u2028sep\u2029",
	"bad\xff\xfeutf8",
	"grüße-日本.example",
	"tab\tquote\"back\\slash",
}

// awkwardBaseline builds a baseline whose every string field holds one
// of the awkward strings, with sites × trees × nodes tree nodes.
func awkwardBaseline(sites, trees, nodes int) *Baseline {
	b := mkBaseline(3, awkward, awkward[:3], 1.0/3)
	b.Meta.Profiles = awkward
	b.Meta.FaultProfile = awkward[3]
	b.MeanNodes, b.MeanChildSim = 123.456789, 2.0/3
	b.SiteBaselines = nil
	for s := range sites {
		site := fmt.Sprintf("s%02d-%s", s, awkward[s%len(awkward)])
		sb := &SiteBaseline{Site: site, VettedPages: trees, ThirdParties: awkward, Trackers: awkward[4:]}
		for p := range trees {
			keys := make([]string, nodes)
			for k := range keys {
				keys[k] = fmt.Sprintf("https://cdn%d.example/r%d.js?id=%d&%s", k%7, k, p, awkward[(k+p)%len(awkward)])
			}
			sb.Trees = append(sb.Trees, rec(site, fmt.Sprintf("https://%s/page%d?x=<%d>", site, p, p), keys...))
		}
		b.SiteBaselines = append(b.SiteBaselines, sb)
	}
	return b
}

func awkwardDelta() *Delta {
	return &Delta{
		SchemaVersion:        SchemaVersion,
		FromEpoch:            2,
		ToEpoch:              3,
		NewThirdParties:      awkward,
		VanishedThirdParties: awkward[2:],
		ThirdPartyJaccard:    0.1 + 0.2,
		TrackingShareDrift:   -1e-9,
		NewSites:             awkward[:2],
		SiteDeltas: []SiteDelta{
			{Site: awkward[0], NewTrackers: awkward, TreeSimilarity: 0.75},
			{Site: awkward[4], VanishedTrackers: awkward[5:], EdgeSimilarity: 1},
		},
	}
}

// TestEncodeMatchesReferenceEncoder pins Baseline.Encode and Delta.Encode
// to the plain encoder's bytes on awkward strings, in an order that hands
// a large encode's pooled scratch to smaller ones and back.
func TestEncodeMatchesReferenceEncoder(t *testing.T) {
	values := []interface{ Encode() ([]byte, error) }{
		awkwardBaseline(6, 3, 40),
		awkwardDelta(),
		awkwardBaseline(1, 1, 2),
		&Delta{},
		awkwardBaseline(6, 3, 40),
	}
	for i, v := range values {
		got, err := v.Encode()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if want := referenceEncode(v); !bytes.Equal(got, want) {
			t.Fatalf("value %d: Encode differs from the reference encoder\n got: %.300q\nwant: %.300q", i, got, want)
		}
	}
	// The encoders keep &, < and > literal; json.Marshal would not.
	got, _ := awkwardDelta().Encode()
	for _, lit := range []string{"&b=2", "<script>", "a>b"} {
		if !strings.Contains(string(got), lit) {
			t.Errorf("delta lost the literal %q", lit)
		}
	}
}

var encodeSink []byte

func BenchmarkBaselineEncode(b *testing.B) {
	bl := awkwardBaseline(10, 4, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := bl.Encode()
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = data
	}
}
