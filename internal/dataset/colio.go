package dataset

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"webmeasure/internal/colstore"
)

// Format names the on-disk encodings a dataset can round-trip through.
// JSONL is the interchange format (human-greppable, line-per-visit);
// columnar is the compact analysis format (per-site blocks, interned
// strings, delta-coded columns).
const (
	FormatJSONL = "jsonl"
	FormatCol   = "col"
)

// WriteCol writes the dataset in the columnar format: one block per
// site, blocks in first-insertion order (the footer index stays sorted
// by site for seeks), each visit tagged with its insertion sequence
// number so ReadCol can restore the exact insertion order the JSONL form
// preserves positionally. A crawl-ordered dataset therefore encodes to
// the same bytes whether buffered through WriteCol or streamed site by
// site through ColSiteWriter, and a col -> jsonl -> col round trip is
// byte-identical.
func (d *Dataset) WriteCol(w io.Writer) error {
	visits := d.Visits()
	bySite := make(map[string][]colstore.VisitRow)
	var sites []string
	for i, v := range visits {
		if _, seen := bySite[v.Site]; !seen {
			sites = append(sites, v.Site)
		}
		bySite[v.Site] = append(bySite[v.Site], colstore.VisitRow{Seq: uint64(i), Visit: v})
	}
	cw := colstore.NewWriter(w)
	for _, site := range sites {
		if err := cw.WriteSite(site, bySite[site]); err != nil {
			return err
		}
	}
	return cw.Close()
}

// ReadCol loads a columnar dataset in one sequential pass and, once every
// block and the footer have been read and verified, adds the visits in
// their original insertion order, restored from the per-visit sequence
// numbers.
func ReadCol(r io.Reader) (*Dataset, error) {
	var rows []colstore.VisitRow
	if _, err := colstore.Scan(r, func(sb *colstore.SiteBlock) error {
		for i, v := range sb.Visits {
			rows = append(rows, colstore.VisitRow{Seq: sb.Seqs[i], Visit: v})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Seq < rows[b].Seq })
	d := New()
	for _, row := range rows {
		d.Add(row.Visit)
	}
	return d, nil
}

// DetectFormat sniffs the first bytes of r and reports which dataset
// format it holds, returning a reader that still yields the full stream:
// the sniffed prefix, then the rest of r. Input shorter than the magic,
// the empty input included, reports JSONL — an empty JSONL file is a
// valid empty dataset, while an empty columnar file is impossible (the
// envelope is mandatory).
func DetectFormat(r io.Reader) (format string, rd io.Reader, err error) {
	prefix := make([]byte, len(colstore.Magic))
	n, err := io.ReadFull(r, prefix)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return "", nil, fmt.Errorf("dataset: sniff format: %w", err)
	}
	prefix = prefix[:n]
	rd = io.MultiReader(bytes.NewReader(prefix), r)
	if colstore.Sniff(prefix) {
		return FormatCol, rd, nil
	}
	return FormatJSONL, rd, nil
}

// ReadAuto loads a dataset in either format, auto-detected from the
// magic bytes.
func ReadAuto(r io.Reader) (*Dataset, error) {
	format, rd, err := DetectFormat(r)
	if err != nil {
		return nil, err
	}
	if format == FormatCol {
		return ReadCol(rd)
	}
	return ReadJSONL(rd)
}

// OpenCol opens a columnar dataset for random access through its footer
// index, for callers that decode single blocks by position. The analysis
// does not use it: every columnar input, seekable or not, is analyzed in
// one colstore.ScanScratch pass in file order.
func OpenCol(ra io.ReaderAt, size int64) (*colstore.Reader, error) {
	return colstore.OpenReader(ra, size)
}
