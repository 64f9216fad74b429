package urlutil

// Canonical reports whether raw takes the byte path rather than the
// net/url fallback.
func Canonical(raw string) bool {
	_, ok := split(raw)
	return ok
}
