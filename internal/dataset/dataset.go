// Package dataset stores the measurement output — the role the BigQuery
// warehouse plays in the paper's framework (Appendix C). Visits are held in
// memory with page-level grouping for the cross-profile analyses and can be
// round-tripped through JSON Lines for cmd/crawl → cmd/analyze pipelines.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"webmeasure/internal/measurement"
)

// PageKey identifies a page within its site.
type PageKey struct {
	Site    string `json:"site"`
	PageURL string `json:"page_url"`
}

// Less orders page keys by site, then page URL: the deterministic page
// order every analysis export follows.
func (k PageKey) Less(o PageKey) bool {
	if k.Site != o.Site {
		return k.Site < o.Site
	}
	return k.PageURL < o.PageURL
}

// PageVisits groups the visits every profile made to one page.
type PageVisits struct {
	Key       PageKey
	ByProfile map[string]*measurement.Visit
}

// Dataset is a collection of visits. It is safe for concurrent Add.
type Dataset struct {
	mu     sync.Mutex
	visits []*measurement.Visit
	byPage map[PageKey]*PageVisits
}

// New creates an empty dataset.
func New() *Dataset {
	return &Dataset{byPage: make(map[PageKey]*PageVisits)}
}

// Add records a visit.
func (d *Dataset) Add(v *measurement.Visit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.visits = append(d.visits, v)
	key := PageKey{Site: v.Site, PageURL: v.PageURL}
	pv := d.byPage[key]
	if pv == nil {
		pv = &PageVisits{Key: key, ByProfile: make(map[string]*measurement.Visit)}
		d.byPage[key] = pv
	}
	pv.ByProfile[v.Profile] = v
}

// Len returns the number of stored visits.
func (d *Dataset) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.visits)
}

// Visits returns all visits in insertion order. The slice must not be
// modified.
func (d *Dataset) Visits() []*measurement.Visit {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.visits
}

// Pages returns the per-page visit groups sorted by (site, page URL) for
// deterministic iteration.
func (d *Dataset) Pages() []*PageVisits {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*PageVisits, 0, len(d.byPage))
	for _, pv := range d.byPage {
		out = append(out, pv)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.Less(out[b].Key) })
	return out
}

// PageGroup returns the visit group for one page key, or nil.
func (d *Dataset) PageGroup(key PageKey) *PageVisits {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byPage[key]
}

// Profiles returns the distinct profile names present, sorted.
func (d *Dataset) Profiles() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := map[string]bool{}
	for _, v := range d.visits {
		seen[v.Profile] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sites returns the distinct sites present, sorted.
func (d *Dataset) Sites() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := map[string]bool{}
	for _, v := range d.visits {
		seen[v.Site] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SuccessRate returns a profile's share of successful visits (0 when the
// profile made none).
func (d *Dataset) SuccessRate(profile string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, ok := 0, 0
	for _, v := range d.visits {
		if v.Profile != profile {
			continue
		}
		total++
		if v.Success {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// WriteJSONL streams the dataset as one visit per line.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	return d.StreamJSONL(w, 0)
}

// flusher is the push half of http.Flusher, matched structurally so this
// package does not import net/http.
type flusher interface{ Flush() }

// StreamJSONL writes the dataset as one visit per line, flushing the
// buffer — and, when w is an http.ResponseWriter that supports it, the
// HTTP chunk — every flushEvery visits, so a client watching a large
// download sees steady progress instead of one burst at the end.
// flushEvery <= 0 flushes only once at the end (WriteJSONL's behavior).
func (d *Dataset) StreamJSONL(w io.Writer, flushEvery int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	fl, _ := w.(flusher)
	for i, v := range d.Visits() {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("dataset: encode visit: %w", err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("dataset: flush: %w", err)
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
	return bw.Flush()
}

// maxJSONLLine caps a single JSONL visit record. A visit with tens of
// thousands of requests fits comfortably; anything larger is almost
// certainly a corrupted or concatenated file.
const maxJSONLLine = 64 << 20

// ReadJSONL loads a dataset written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxJSONLLine)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v measurement.Visit
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		d.Add(&v)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("dataset: line %d: visit record exceeds the %d MiB per-line limit (corrupt file, or use the columnar format): %w",
				line+1, maxJSONLLine>>20, err)
		}
		return nil, fmt.Errorf("dataset: line %d: read: %w", line+1, err)
	}
	return d, nil
}
