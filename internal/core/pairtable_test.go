package core

import (
	"reflect"
	"testing"

	"webmeasure/internal/faults"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// profilePairTableByCompare is Table 6 derived the way it was before the
// pair view: one two-tree treediff.Compare of each page's reference tree
// and other tree. ProfilePairTable must match it bit for bit.
func profilePairTableByCompare(a *Analysis, reference string) []ProfilePairRow {
	if a.profileIndex(reference) < 0 {
		return nil
	}
	var rows []ProfilePairRow
	for _, other := range a.profiles {
		if other == reference {
			continue
		}
		row := ProfilePairRow{Other: other}
		var fpChildPerfect, fpChildNone, fpChildN int
		var tpChildPerfect, tpChildNone, tpChildN int
		var fpParPerfect, fpParNone, fpParN int
		var tpParPerfect, tpParNone, tpParN int
		var parentSims, childSims []float64

		for _, pa := range a.pages {
			ref, oth := pa.TreeFor(reference), pa.TreeFor(other)
			if ref == nil || oth == nil {
				continue
			}
			pair := treediff.Compare([]*tree.Tree{ref, oth})
			for _, ni := range pair.Nodes[1:] {
				if ni.Presence != 2 {
					continue
				}
				childJ := ni.ChildSim
				parJ := ni.ParentSim
				if ni.Party == tree.FirstParty {
					fpChildN++
					if childJ == 1 {
						fpChildPerfect++
					}
					if childJ == 0 {
						fpChildNone++
					}
					fpParN++
					if parJ == 1 {
						fpParPerfect++
					}
					if parJ == 0 {
						fpParNone++
					}
				} else {
					tpChildN++
					if childJ == 1 {
						tpChildPerfect++
					}
					if childJ == 0 {
						tpChildNone++
					}
					tpParN++
					if parJ == 1 {
						tpParPerfect++
					}
					if parJ == 0 {
						tpParNone++
					}
				}
				if ni.MeanDepth() >= 2 {
					parentSims = append(parentSims, parJ)
				}
				if ni.HasChildAnywhere {
					childSims = append(childSims, childJ)
				}
			}
		}
		share := func(n, d int) float64 {
			if d == 0 {
				return 0
			}
			return float64(n) / float64(d)
		}
		row.FPChildrenPerfect = share(fpChildPerfect, fpChildN)
		row.FPChildrenNone = share(fpChildNone, fpChildN)
		row.TPChildrenPerfect = share(tpChildPerfect, tpChildN)
		row.TPChildrenNone = share(tpChildNone, tpChildN)
		row.FPParentPerfect = share(fpParPerfect, fpParN)
		row.FPParentNone = share(fpParNone, fpParN)
		row.TPParentPerfect = share(tpParPerfect, tpParN)
		row.TPParentNone = share(tpParNone, tpParN)
		row.MeanParentSim = stats.Mean(parentSims)
		row.MeanChildSim = stats.Mean(childSims)
		rows = append(rows, row)
	}
	return rows
}

// TestProfilePairTableMatchesTwoTreeCompare pins Table 6, read off each
// page's one comparison through its pair view, to the two-tree compares
// it replaced: over generated crawls, clean and under heavy faults, with
// all five profiles, a three-profile subset, and relaxed vetting that
// leaves some pages without the reference tree, the rows must be deeply
// equal, every float bit for bit.
func TestProfilePairTableMatchesTwoTreeCompare(t *testing.T) {
	for _, crawl := range []struct {
		name   string
		faults faults.Profile
	}{
		{"clean", faults.Off()},
		{"heavy", faults.Heavy()},
	} {
		for _, seed := range []int64{5, 11} {
			ds, filter, opts := faultyExperiment(t, seed, crawl.faults)
			for _, tc := range []struct {
				name       string
				profiles   []string
				minSuccess int
			}{
				{"all-profiles", opts.Profiles, 0},
				{"Sim1-Sim2-NoAction", []string{"Sim1", "Sim2", "NoAction"}, 0},
				{"min-success-3", opts.Profiles, 3},
			} {
				o := opts
				o.Profiles, o.MinSuccessProfiles, o.Workers = tc.profiles, tc.minSuccess, 2
				a, err := analyzeDataset(ds, filter, o)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", crawl.name, seed, tc.name, err)
				}
				got, want := a.ProfilePairTable(ReferenceProfile), profilePairTableByCompare(a, ReferenceProfile)
				if len(want) != len(tc.profiles)-1 {
					t.Fatalf("%s/%d/%s: reference derived %d rows", crawl.name, seed, tc.name, len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d/%s: pair-view rows differ from two-tree compares:\n got %+v\nwant %+v", crawl.name, seed, tc.name, got, want)
				}
				if tc.minSuccess > 0 && crawl.name == "heavy" && !anyPageLacks(a.Pages(), ReferenceProfile) {
					t.Errorf("%s/%d/%s: every page holds %s, so the missing-reference case went untested", crawl.name, seed, tc.name, ReferenceProfile)
				}
			}
		}
	}
}

func anyPageLacks(pages []*PageAnalysis, profile string) bool {
	for _, pa := range pages {
		if pa.TreeFor(profile) == nil {
			return true
		}
	}
	return false
}
