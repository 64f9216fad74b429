package colstore

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Writer emits a columnar dataset file: header, one block per WriteSite
// call, and the index footer on Close. Each site may be written at most
// once, in any order — the streaming crawl emits blocks in site-list
// order, the batch writer in ascending site order — and each site's rows
// must carry ascending sequence numbers (the delta columns rely on it).
// Close sorts the footer's block list by site regardless of the order the
// body was written in, so index lookups never depend on emission order.
type Writer struct {
	bw     *bufio.Writer
	enc    blockEncoder
	frame  buf // a record's header (magic, length), then its CRC
	off    uint64
	blocks []BlockMeta
	seen   map[string]bool
	err    error
	closed bool
}

// NewWriter starts a columnar file on w by writing the header magic.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{bw: bufio.NewWriterSize(w, 1<<16), seen: make(map[string]bool)}
	if _, err := cw.bw.WriteString(Magic); err != nil {
		cw.err = fmt.Errorf("colstore: write header: %w", err)
	}
	cw.off = uint64(len(Magic))
	return cw
}

// WriteSite encodes one site's visit rows as a block. Rows must carry
// ascending sequence numbers and visits whose Site equals site.
func (w *Writer) WriteSite(site string, rows []VisitRow) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("colstore: WriteSite after Close")
	}
	if w.seen[site] {
		return w.setErr(fmt.Errorf("colstore: duplicate block for site %q", site))
	}
	w.seen[site] = true
	pages := make(map[string]bool, 16)
	for i, r := range rows {
		if r.Visit.Site != site {
			return w.setErr(fmt.Errorf("colstore: visit of site %q in block for %q", r.Visit.Site, site))
		}
		if i > 0 && rows[i-1].Seq >= r.Seq {
			return w.setErr(fmt.Errorf("colstore: site %q rows out of sequence order (%d then %d)", site, rows[i-1].Seq, r.Seq))
		}
		pages[r.Visit.PageURL] = true
	}
	head, cols := w.enc.encode(site, rows)
	length, err := w.writeRecord(blockMagic, head, cols)
	if err != nil {
		return w.setErr(err)
	}
	meta := BlockMeta{
		Site:   site,
		Offset: w.off,
		Length: length,
		Visits: len(rows),
		Pages:  make([]string, 0, len(pages)),
	}
	for p := range pages {
		meta.Pages = append(meta.Pages, p)
	}
	sort.Strings(meta.Pages)
	w.blocks = append(w.blocks, meta)
	w.off += length
	return nil
}

// Close writes the index footer and tail and flushes. The Writer cannot
// be used afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	// The footer lists blocks in site order whatever order the body was
	// written in: readers look blocks up by site through the index's
	// offsets, never by body position.
	sort.Slice(w.blocks, func(a, b int) bool { return w.blocks[a].Site < w.blocks[b].Site })
	var idx buf
	idx.uvarint(SchemaVersion)
	idx.uvarint(uint64(len(w.blocks)))
	for _, b := range w.blocks {
		idx.str(b.Site)
		idx.uvarint(b.Offset)
		idx.uvarint(b.Length)
		idx.uvarint(uint64(b.Visits))
		idx.uvarint(uint64(len(b.Pages)))
		for _, p := range b.Pages {
			idx.str(p)
		}
	}
	indexOff := w.off
	if _, err := w.writeRecord(indexMagic, idx.bytes()); err != nil {
		return w.setErr(err)
	}
	var tail buf
	tail.u64le(indexOff)
	tail.b = append(tail.b, tailMagic...)
	if _, err := w.bw.Write(tail.bytes()); err != nil {
		return w.setErr(fmt.Errorf("colstore: write tail: %w", err))
	}
	if err := w.bw.Flush(); err != nil {
		return w.setErr(fmt.Errorf("colstore: flush: %w", err))
	}
	return nil
}

func (w *Writer) setErr(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// writeRecord writes magic + uvarint(len) + payload + crc32, where the
// payload is the concatenation of parts, and returns the record's total
// byte length. The parts go out as they are: the CRC is folded over them
// in turn rather than over a joined copy.
func (w *Writer) writeRecord(magic string, parts ...[]byte) (uint64, error) {
	n := 0
	var crc uint32
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	w.frame.b = append(w.frame.b[:0], magic...)
	w.frame.uvarint(uint64(n))
	if _, err := w.bw.Write(w.frame.b); err != nil {
		return 0, fmt.Errorf("colstore: write record header: %w", err)
	}
	hdrLen := len(w.frame.b)
	for _, p := range parts {
		if _, err := w.bw.Write(p); err != nil {
			return 0, fmt.Errorf("colstore: write record payload: %w", err)
		}
	}
	w.frame.b = binary32le(w.frame.b[:0], crc)
	if _, err := w.bw.Write(w.frame.b); err != nil {
		return 0, fmt.Errorf("colstore: write record checksum: %w", err)
	}
	return uint64(hdrLen) + uint64(n) + 4, nil
}

func binary32le(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
