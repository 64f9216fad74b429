package colstore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzColBlockDecode throws arbitrary bytes at the block decoder. The
// decoder must never panic and never over-allocate (every count is
// validated against the remaining payload before allocation), and any
// payload it accepts must re-encode to the identical bytes — the decoder
// and encoder are exact inverses on the valid subset of inputs. Decoding
// into a scratch block that already holds the big.example seed's arrays
// must give what a fresh decode gives: the same block, nil slices
// included, or the same error.
func FuzzColBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(EncodeBlockPayload("seed.org", nil))
	f.Add(EncodeBlockPayload("seed.org", siteRows("seed.org", 0, 1, 1)))
	f.Add(EncodeBlockPayload("seed.org", siteRows("seed.org", 3, 2, 3)))
	big := EncodeBlockPayload("big.example", siteRows("big.example", 0, 4, 2))
	f.Add(big)
	// A corrupted valid payload seeds the interesting error paths.
	mut := bytes.Clone(big)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, payload []byte) {
		sb, err := DecodeBlockPayload(payload)
		scratch := new(SiteBlock)
		if err := scratch.decode(big); err != nil {
			t.Fatal(err)
		}
		switch serr := scratch.decode(payload); {
		case (err == nil) != (serr == nil):
			t.Fatalf("fresh decode error %v, scratch decode error %v", err, serr)
		case err != nil && err.Error() != serr.Error():
			t.Fatalf("fresh decode error %q, scratch decode error %q", err, serr)
		case err == nil && !reflect.DeepEqual(scratch, sb):
			t.Fatalf("a scratch decode differs from a fresh decode")
		}
		if err != nil {
			return
		}
		rows := make([]VisitRow, len(sb.Visits))
		ascending := true
		for i := range sb.Visits {
			rows[i] = VisitRow{Seq: sb.Seqs[i], Visit: sb.Visits[i]}
			if i > 0 && sb.Seqs[i-1] >= sb.Seqs[i] {
				ascending = false
			}
		}
		// Seq deltas of zero decode fine but are unreachable from the
		// Writer (it enforces strictly ascending rows), so only strictly
		// ascending payloads are expected to round-trip canonically.
		if !ascending {
			return
		}
		re := EncodeBlockPayload(sb.Site, rows)
		if !bytes.Equal(re, payload) {
			sb2, err := DecodeBlockPayload(re)
			if err != nil {
				t.Fatalf("re-encoded payload fails to decode: %v", err)
			}
			// Non-canonical but semantically lossless inputs (e.g. an
			// over-long varint) may re-encode shorter; the decoded values
			// must still agree.
			if sb2.Site != sb.Site || !reflect.DeepEqual(sb2.Seqs, sb.Seqs) || !reflect.DeepEqual(sb2.Visits, sb.Visits) {
				t.Fatalf("decode→encode→decode is not value-stable")
			}
		}
	})
}
