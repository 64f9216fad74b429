package core

// This file implements the vetting stage (§3.1): the paper only analyzes
// pages that every profile visited "successfully and consistently". Each
// excluded page is classified by the most severe problem among its
// visits, and the counts are aggregated so reports can state how much of
// the crawl the comparison actually rests on.

// Exclusion reasons, ordered by severity (a page with both a missing
// visit and a degraded one is counted as missing).
const (
	// ExcludeMissing: at least one profile never produced a visit record.
	ExcludeMissing = "missing"
	// ExcludeFailed: at least one profile's visit failed outright.
	ExcludeFailed = "failed"
	// ExcludeDegraded: every profile produced a record, but at least one
	// observation was truncated by a fault (Visit.Clean() is false).
	ExcludeDegraded = "degraded"
	// ExcludeBuild: visits looked clean but a dependency tree could not
	// be built from a record (malformed data).
	ExcludeBuild = "build"
)

// exclusionRank orders reasons so the classifier keeps the worst one.
func exclusionRank(reason string) int {
	switch reason {
	case ExcludeMissing:
		return 4
	case ExcludeFailed:
		return 3
	case ExcludeDegraded:
		return 2
	case ExcludeBuild:
		return 1
	default:
		return 0
	}
}

// Vetting summarizes the vetting stage: how many pages the crawl saw,
// how many survived into the analysis, and why the rest were excluded.
type Vetting struct {
	// PagesSeen is the number of (site, page) groups in the dataset.
	PagesSeen int `json:"pages_seen"`
	// PagesVetted is how many pages entered the analysis.
	PagesVetted int `json:"pages_vetted"`

	// Exclusion counts by reason; each excluded page is counted once,
	// under its most severe reason.
	ExcludedMissing  int `json:"excluded_missing"`
	ExcludedFailed   int `json:"excluded_failed"`
	ExcludedDegraded int `json:"excluded_degraded"`
	ExcludedBuild    int `json:"excluded_build"`
}

// Excluded is the total number of pages dropped by vetting.
func (v Vetting) Excluded() int {
	return v.ExcludedMissing + v.ExcludedFailed + v.ExcludedDegraded + v.ExcludedBuild
}

// ExclusionShare is the excluded fraction of all pages seen (0 when the
// dataset is empty).
func (v Vetting) ExclusionShare() float64 {
	if v.PagesSeen == 0 {
		return 0
	}
	return float64(v.Excluded()) / float64(v.PagesSeen)
}

// count books one page under its exclusion reason ("" = vetted).
func (v *Vetting) count(reason string) {
	v.PagesSeen++
	switch reason {
	case "":
		v.PagesVetted++
	case ExcludeMissing:
		v.ExcludedMissing++
	case ExcludeFailed:
		v.ExcludedFailed++
	case ExcludeDegraded:
		v.ExcludedDegraded++
	case ExcludeBuild:
		v.ExcludedBuild++
	}
}
