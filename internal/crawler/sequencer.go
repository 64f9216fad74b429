package crawler

import "webmeasure/internal/measurement"

// siteResult is one worker's finished site, ready for the sequencer to
// hand on. The site's spans and metrics are already recorded; emission
// order — not completion order — defines the dataset's (or the sink's)
// insertion order, which is what makes every site-worker count produce
// the same bytes.
type siteResult struct {
	// index is the site's position in Config.Sites.
	index int
	// site is the generated domain.
	site string
	// skipped marks a site none of whose pages passed PageFilter; it
	// contributes nothing — no visits, no stats, no metrics samples.
	skipped bool
	// visits holds the site's recorded visits in canonical order: kept
	// pages in discovery order, profiles in configuration order within
	// each page.
	visits []*measurement.Visit
	// stats is the site's contribution to the run totals.
	stats Stats
}

// sequencer reorders out-of-order site completions back into site-list
// order. Workers finish sites in scheduling-dependent order; offer hands
// each finished site in, and emit fires exactly once per site, strictly
// in index order, as soon as the next expected index is available. The
// caller bounds how far completions may run ahead (the reorder window),
// so pending never grows past that window.
type sequencer struct {
	next    int
	pending map[int]*siteResult
	emit    func(*siteResult) error
}

func newSequencer(emit func(*siteResult) error) *sequencer {
	return &sequencer{pending: make(map[int]*siteResult), emit: emit}
}

// offer hands the sequencer a completed site and emits any newly
// contiguous run. The first emit error stops the emission loop and is
// returned; already-buffered later sites stay pending.
func (s *sequencer) offer(r *siteResult) error {
	s.pending[r.index] = r
	for {
		rr, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		s.next++
		if err := s.emit(rr); err != nil {
			return err
		}
	}
}
