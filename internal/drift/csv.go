package drift

// drift.csv: one row per computed delta, the machine-readable companion
// of the report drift section. Floats render via strconv.FormatFloat
// 'g'/-1 (shortest exact form), so the bytes are deterministic.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVRow is one drift.csv line: a delta plus the number of alerts that
// fired on it.
type CSVRow struct {
	Delta  *Delta
	Alerts int
}

// CSVHeader is the drift.csv column list.
var CSVHeader = []string{
	"from_epoch", "to_epoch",
	"third_party_jaccard", "new_third_parties", "vanished_third_parties",
	"new_trackers", "vanished_trackers",
	"tracking_share", "tracking_share_drift",
	"tree_similarity", "edge_similarity",
	"child_sim_drift", "parent_sim_drift",
	"mean_nodes_drift_rel", "vetted_pages_drift_rel",
	"new_sites", "vanished_sites", "alerts",
}

// WriteCSV renders the rows as drift.csv.
func WriteCSV(w io.Writer, rows []CSVRow) error {
	if _, err := fmt.Fprintln(w, strings.Join(CSVHeader, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if err := WriteCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVRow renders one drift.csv row line.
func WriteCSVRow(w io.Writer, row CSVRow) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := row.Delta
	cols := []string{
		strconv.Itoa(d.FromEpoch), strconv.Itoa(d.ToEpoch),
		f(d.ThirdPartyJaccard), strconv.Itoa(len(d.NewThirdParties)), strconv.Itoa(len(d.VanishedThirdParties)),
		strconv.Itoa(len(d.NewTrackers)), strconv.Itoa(len(d.VanishedTrackers)),
		f(d.TrackingShareTo), f(d.TrackingShareDrift),
		f(d.TreeSimilarity), f(d.EdgeSimilarity),
		f(d.ChildSimDrift), f(d.ParentSimDrift),
		f(d.MeanNodesDriftRel), f(d.VettedPagesDriftRel),
		strconv.Itoa(len(d.NewSites)), strconv.Itoa(len(d.VanishedSites)), strconv.Itoa(row.Alerts),
	}
	_, err := fmt.Fprintln(w, strings.Join(cols, ","))
	return err
}
