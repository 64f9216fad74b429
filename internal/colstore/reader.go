package colstore

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"webmeasure/internal/urlutil"
)

// Scan streams the file's site blocks in file order, calling fn with a
// fresh block for each, and returns the decoded footer index. It needs
// only sequential access — each block is self-contained — so it works on
// pipes and HTTP bodies; memory is bounded by the largest single block.
// Every block is read into one payload buffer, grown when a block is
// larger; the decoder copies every string out, so no block fn receives
// aliases it. A non-nil error from fn aborts the scan and is returned
// verbatim.
func Scan(r io.Reader, fn func(*SiteBlock) error) (*Index, error) {
	var payload []byte
	return scan(r, &payload, func(p []byte) error {
		sb, err := decodeBlock(p)
		if err != nil {
			return err
		}
		return fn(sb)
	})
}

// ScanScratch is Scan for a consumer that works on one block at a time:
// every block decodes into one scratch block, and its key cache
// (SiteBlock.KeyCache) fills one scratch cache. fn must be done with
// both, and with every slice and visit they reach, when it returns, since
// the next block overwrites them; strings stay valid, as each block
// allocates its own. The scratch — block, cache and payload buffer —
// grows to the file's largest block, and comes from a pool and goes back
// to it cleared, so a later scan may reuse its arrays and no pooled
// scratch keeps a string alive.
func ScanScratch(r io.Reader, fn func(*SiteBlock, *urlutil.KeyCache) error) (*Index, error) {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	return scan(r, &s.payload, func(p []byte) error {
		if err := s.block.decode(p); err != nil {
			return err
		}
		s.block.fillKeys(&s.keys)
		return fn(&s.block, &s.keys)
	})
}

// scratch is ScanScratch's decode target.
type scratch struct {
	block   SiteBlock
	keys    urlutil.KeyCache
	payload []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears every string and visit the scratch references, keeping
// its arrays, and puts it back in the pool.
func (s *scratch) release() {
	sb := &s.block
	sb.Site = ""
	sb.Strings = wipe(sb.Strings)
	sb.Visits = wipe(sb.Visits)
	ar := &sb.arena
	ar.visits = wipe(ar.visits)
	ar.requests = wipe(ar.requests)
	ar.frames = wipe(ar.frames)
	ar.setCookies = wipe(ar.setCookies)
	ar.cookies = wipe(ar.cookies)
	s.keys.Reset(0)
	scratchPool.Put(s)
}

// wipe zeroes s up to its capacity and empties it.
func wipe[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// byteReader is what a scan reads through: a bufio.Reader, or an
// in-memory reader that needs no buffer in front of it.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// scan reads the file's records in order and returns the decoded footer
// index. It reads each block's payload into *buf, grown when a block is
// larger, and hands it to block, whose error aborts the scan.
func scan(r io.Reader, buf *[]byte, block func(payload []byte) error) (*Index, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	hdr := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("colstore: read header: %w", err)
	}
	if string(hdr) != Magic {
		return nil, fmt.Errorf("colstore: bad header magic %q (not a columnar dataset)", hdr)
	}
	magic := make([]byte, len(blockMagic))
	for {
		if _, err := io.ReadFull(br, magic); err != nil {
			return nil, fmt.Errorf("colstore: read record magic: %w", err)
		}
		switch string(magic) {
		case blockMagic:
			payload, err := readRecordBody(br, "block", *buf)
			if err != nil {
				return nil, err
			}
			*buf = payload
			if err := block(payload); err != nil {
				return nil, err
			}
		case indexMagic:
			payload, err := readRecordBody(br, "index", nil)
			if err != nil {
				return nil, err
			}
			idx, err := decodeIndex(payload)
			if err != nil {
				return nil, err
			}
			tail := make([]byte, 8+len(tailMagic))
			if _, err := io.ReadFull(br, tail); err != nil {
				return nil, fmt.Errorf("colstore: read tail: %w", err)
			}
			if string(tail[8:]) != tailMagic {
				return nil, fmt.Errorf("colstore: bad tail magic %q", tail[8:])
			}
			return idx, nil
		default:
			return nil, fmt.Errorf("colstore: unknown record magic %q", magic)
		}
	}
}

// readRecordBody reads uvarint(len) + payload + crc32 and verifies the
// checksum. The payload reuses buf when it fits and is freshly allocated
// otherwise.
func readRecordBody(br byteReader, what string, buf []byte) ([]byte, error) {
	n, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("colstore: read %s length: %w", what, err)
	}
	if n > maxRecordLen {
		return nil, fmt.Errorf("colstore: %s record of %d bytes exceeds the %d-byte limit (corrupt length?)", what, n, maxRecordLen)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("colstore: read %s payload (%d bytes): %w", what, n, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("colstore: read %s checksum: %w", what, err)
	}
	if err := verifyCRC(crc[:], payload, what); err != nil {
		return nil, err
	}
	return payload, nil
}

func verifyCRC(crc, payload []byte, what string) error {
	want := uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("colstore: %s checksum mismatch (got %08x, want %08x): corrupted record", what, got, want)
	}
	return nil
}

// readUvarint reads a varint without over-reading past it.
func readUvarint(br io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, fmt.Errorf("varint overflows uint64")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
	}
}

func decodeIndex(payload []byte) (*Index, error) {
	c := &cur{b: payload}
	idx := &Index{Schema: int(c.uvarint())}
	if c.err == nil && idx.Schema != SchemaVersion {
		return nil, fmt.Errorf("colstore: index schema %d, want %d", idx.Schema, SchemaVersion)
	}
	nb := c.count("index block")
	if c.err != nil {
		return nil, c.err
	}
	idx.Blocks = make([]BlockMeta, nb)
	for i := range idx.Blocks {
		b := &idx.Blocks[i]
		b.Site = c.str()
		b.Offset = c.uvarint()
		b.Length = c.uvarint()
		b.Visits = int(c.uvarint())
		np := c.count("index page")
		if c.err != nil {
			return nil, c.err
		}
		b.Pages = make([]string, np)
		for j := range b.Pages {
			b.Pages[j] = c.str()
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("colstore: index payload has %d trailing bytes", len(c.b)-c.off)
	}
	return idx, nil
}

// Reader random-accesses a columnar file through its footer index: open
// the footer once, then decode exactly the blocks you need. The index
// carries each block's page list, so a caller can seek straight to the
// blocks holding given pages and never touch the rest of the file.
type Reader struct {
	ra  io.ReaderAt
	idx *Index
}

// OpenReader validates the header and tail and decodes the footer index.
func OpenReader(ra io.ReaderAt, size int64) (*Reader, error) {
	minLen := int64(len(Magic) + 8 + len(tailMagic))
	if size < minLen {
		return nil, fmt.Errorf("colstore: file of %d bytes is shorter than the %d-byte envelope", size, minLen)
	}
	hdr := make([]byte, len(Magic))
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("colstore: read header: %w", err)
	}
	if string(hdr) != Magic {
		return nil, fmt.Errorf("colstore: bad header magic %q (not a columnar dataset)", hdr)
	}
	tail := make([]byte, 8+len(tailMagic))
	if _, err := ra.ReadAt(tail, size-int64(len(tail))); err != nil {
		return nil, fmt.Errorf("colstore: read tail: %w", err)
	}
	if string(tail[8:]) != tailMagic {
		return nil, fmt.Errorf("colstore: bad tail magic %q (truncated file?)", tail[8:])
	}
	indexOff := int64(uint64(tail[0]) | uint64(tail[1])<<8 | uint64(tail[2])<<16 | uint64(tail[3])<<24 |
		uint64(tail[4])<<32 | uint64(tail[5])<<40 | uint64(tail[6])<<48 | uint64(tail[7])<<56)
	if indexOff < int64(len(Magic)) || indexOff >= size-int64(len(tail)) {
		return nil, fmt.Errorf("colstore: index offset %d outside file of %d bytes", indexOff, size)
	}
	payload, err := readRecordAt(ra, indexOff, size, indexMagic, "index")
	if err != nil {
		return nil, err
	}
	idx, err := decodeIndex(payload)
	if err != nil {
		return nil, err
	}
	return &Reader{ra: ra, idx: idx}, nil
}

// Index returns the footer index. Callers must not modify it.
func (r *Reader) Index() *Index { return r.idx }

// Block seeks to and decodes block i.
func (r *Reader) Block(i int) (*SiteBlock, error) {
	if i < 0 || i >= len(r.idx.Blocks) {
		return nil, fmt.Errorf("colstore: block %d out of range (%d blocks)", i, len(r.idx.Blocks))
	}
	meta := r.idx.Blocks[i]
	payload, err := readRecordAt(r.ra, int64(meta.Offset), int64(meta.Offset+meta.Length), blockMagic, "block")
	if err != nil {
		return nil, fmt.Errorf("colstore: site %q: %w", meta.Site, err)
	}
	sb, err := decodeBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("colstore: site %q: %w", meta.Site, err)
	}
	if sb.Site != meta.Site {
		return nil, fmt.Errorf("colstore: block %d decodes site %q but the index says %q", i, sb.Site, meta.Site)
	}
	return sb, nil
}

// readRecordAt reads and verifies one record starting at off, bounded by
// limit (exclusive).
func readRecordAt(ra io.ReaderAt, off, limit int64, wantMagic, what string) ([]byte, error) {
	// Magic + maximal varint length header.
	hdr := make([]byte, len(wantMagic)+10)
	if int64(len(hdr)) > limit-off {
		hdr = hdr[:limit-off]
	}
	if _, err := ra.ReadAt(hdr, off); err != nil {
		return nil, fmt.Errorf("colstore: read %s record at %d: %w", what, off, err)
	}
	if len(hdr) < len(wantMagic) || string(hdr[:len(wantMagic)]) != wantMagic {
		return nil, fmt.Errorf("colstore: bad %s record magic at offset %d", what, off)
	}
	n, used := uvarintFrom(hdr[len(wantMagic):])
	if used <= 0 {
		return nil, fmt.Errorf("colstore: truncated %s record length at offset %d", what, off)
	}
	if n > maxRecordLen {
		return nil, fmt.Errorf("colstore: %s record of %d bytes exceeds the %d-byte limit (corrupt length?)", what, n, maxRecordLen)
	}
	bodyOff := off + int64(len(wantMagic)) + int64(used)
	if bodyOff+int64(n)+4 > limit {
		return nil, fmt.Errorf("colstore: %s record of %d bytes overruns its %d-byte bound", what, n, limit-off)
	}
	body := make([]byte, n+4)
	if _, err := ra.ReadAt(body, bodyOff); err != nil {
		return nil, fmt.Errorf("colstore: read %s payload at %d: %w", what, bodyOff, err)
	}
	payload := body[:n]
	if err := verifyCRC(body[n:], payload, what); err != nil {
		return nil, err
	}
	return payload, nil
}

// uvarintFrom decodes a uvarint from b, returning (value, bytes used);
// used <= 0 means truncated.
func uvarintFrom(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, c := range b {
		if shift >= 64 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}

// DecodeBlockPayload decodes one raw block payload — exported for the
// fuzz target so corrupted payloads can be thrown at the decoder without
// the record envelope's CRC rejecting them first.
func DecodeBlockPayload(payload []byte) (*SiteBlock, error) {
	return decodeBlock(payload)
}

// EncodeBlockPayload encodes one site's rows as a raw block payload —
// the fuzz seed generator and tests use it to produce valid payloads.
func EncodeBlockPayload(site string, rows []VisitRow) []byte {
	return encodeBlock(site, rows)
}

// Sniff reports whether the first bytes look like a columnar file. It
// needs at least len(Magic) bytes; shorter prefixes report false.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && bytes.Equal(prefix[:len(Magic)], []byte(Magic))
}
