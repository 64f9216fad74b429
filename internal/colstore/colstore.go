// Package colstore implements the compact columnar binary format for
// page-visit datasets — the storage layer a field-scale measurement study
// needs once JSONL decode starts dominating analyze wall time. The format
// is built around the access pattern of the paper's setup-similarity
// analysis, which only ever needs one site's visits in memory at a time:
//
//	file   := header block* index tail
//	header := "WMCOL01\n"                          (8 bytes, version in magic)
//	block  := "BLK\n" uvarint(len) payload crc32   (one block per site)
//	index  := "IDX\n" uvarint(len) payload crc32   (footer: per-block meta)
//	tail   := uint64le(index offset) "WMCOLEND"    (16 bytes, seek anchor)
//
// Each block is self-contained: its payload opens with the site name and a
// per-block interned string table (URLs, hosts, node keys, header values),
// followed by field-major columns over the site's visits. Integer columns
// are varint encoded — monotonic ones (the global visit sequence numbers,
// per-visit request time offsets) as deltas — and every string-valued cell
// is a small table index, so a URL requested by five profiles on eleven
// pages is stored once and decoded into one shared Go string. The index
// footer records, per block, the site, byte offset, length, visit count,
// and sorted page-URL list, so a reader can seek straight to the blocks
// containing given pages instead of scanning the whole file.
//
// Two read paths: Scan streams blocks in file order from any io.Reader
// (every analysis load, seekable or not), and OpenReader random-accesses
// blocks through the footer from an io.ReaderAt. Both verify per-record
// CRCs and fail with clean errors on truncated or corrupted input.
package colstore

import (
	"encoding/binary"
	"fmt"
)

// Format constants. The version lives in the header magic: a reader that
// sees unknown magic bytes rejects the file instead of misparsing it.
const (
	// Magic opens every columnar dataset file ("WMCOL" + 2-digit version).
	Magic = "WMCOL01\n"
	// blockMagic opens every site block record.
	blockMagic = "BLK\n"
	// indexMagic opens the footer index record.
	indexMagic = "IDX\n"
	// tailMagic closes the file; the 8 bytes before it hold the index
	// record's offset so a ReaderAt can seek to the footer directly.
	tailMagic = "WMCOLEND"
	// SchemaVersion is the block/index payload schema, recorded in the
	// index so readers can reject payloads they do not understand.
	SchemaVersion = 1
)

// maxRecordLen bounds a single block or index record (1 GiB). A declared
// length beyond it is treated as corruption, not an allocation request.
const maxRecordLen = 1 << 30

// BlockMeta is one block's entry in the footer index.
type BlockMeta struct {
	// Site is the block's site; the footer lists blocks in ascending site
	// order regardless of the order the body was written in.
	Site string
	// Offset is the byte offset of the block record ("BLK\n") in the file.
	Offset uint64
	// Length is the full record length in bytes (magic through CRC).
	Length uint64
	// Visits is the number of visit rows in the block.
	Visits int
	// Pages lists the block's distinct page URLs in ascending order, so a
	// reader can tell whether the block holds a page without decoding it.
	Pages []string
}

// Index is the decoded footer: the file's table of contents.
type Index struct {
	Schema int
	Blocks []BlockMeta
}

// TotalVisits sums the per-block visit counts.
func (ix *Index) TotalVisits() int {
	n := 0
	for _, b := range ix.Blocks {
		n += b.Visits
	}
	return n
}

// zigzag folds a signed int into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// buf is an append-only encode buffer with the varint/string primitives
// the column encoders share.
type buf struct {
	b []byte
}

func (e *buf) bytes() []byte { return e.b }

func (e *buf) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *buf) varint(v int64) {
	e.b = binary.AppendUvarint(e.b, zigzag(v))
}

func (e *buf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *buf) byte(v byte) {
	e.b = append(e.b, v)
}

func (e *buf) u64le(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// cur is a bounds-checked decode cursor. The first malformed read latches
// err; later reads return zero values, so decoders can run straight-line
// and check the error once.
type cur struct {
	b   []byte
	off int
	err error
}

func (c *cur) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cur) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("colstore: truncated varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cur) varint() int64 { return unzigzag(c.uvarint()) }

// count reads a length-like varint and sanity-checks it against the bytes
// left: every counted element costs at least one encoded byte, so a count
// beyond the remainder is corruption and must not size an allocation.
func (c *cur) count(what string) int {
	v := c.uvarint()
	if c.err != nil {
		return 0
	}
	if v > uint64(len(c.b)-c.off) {
		c.fail("colstore: %s count %d exceeds remaining %d bytes", what, v, len(c.b)-c.off)
		return 0
	}
	return int(v)
}

func (c *cur) str() string {
	n := c.count("string length")
	if c.err != nil {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cur) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("colstore: truncated byte column at offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cur) u64le() uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 8 {
		c.fail("colstore: truncated fixed64 column at offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// interner assigns dense ids to strings in first-seen order; id 0 is
// always the empty string so optional fields encode as a single zero byte.
type interner struct {
	ids  map[string]uint64
	strs []string
}

// reset empties the table for the next block, keeping its storage.
func (in *interner) reset() {
	if in.ids == nil {
		in.ids = make(map[string]uint64)
	}
	clear(in.ids)
	in.ids[""] = 0
	in.strs = append(in.strs[:0], "")
}

func (in *interner) id(s string) uint64 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint64(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}
