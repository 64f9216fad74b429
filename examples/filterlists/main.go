// Filter lists: §6's limitation made concrete — the set of "tracking
// requests" a study reports depends on which blocklists define tracking.
// Compares the same crawl classified by the EasyList-style list alone and
// by the stacked EasyList+EasyPrivacy-style combination.
//
//	go run ./examples/filterlists
package main

import (
	"context"
	"fmt"
	"log"

	"webmeasure"
	"webmeasure/internal/core"
	"webmeasure/internal/filterlist"
)

func main() {
	res, err := webmeasure.Run(context.Background(), webmeasure.Config{
		Seed: 61, Sites: 50, PagesPerSite: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	u := res.Universe()
	base, _ := filterlist.Parse(u.FilterListText())
	privacy, _ := filterlist.Parse(u.PrivacyListText())
	combined := filterlist.Merge(base, privacy)

	ds := res.Analysis().Dataset()
	profiles := ds.Profiles()
	study := func(name string, list *filterlist.List) {
		s, err := core.NewStream(ds, list, core.Options{Profiles: profiles})
		if err != nil {
			log.Fatal(err)
		}
		if err := s.AddDataset(ds); err != nil {
			log.Fatal(err)
		}
		a, err := s.Finish()
		if err != nil {
			log.Fatal(err)
		}
		tr := a.TrackingStudy()
		fmt.Printf("%-28s tracking share %5.1f%%   set similarity %.2f   triggered by trackers %.0f%%\n",
			name, tr.TrackingShare*100, tr.TrackingNodeSim.Mean, tr.TriggeredByTracker*100)
	}

	fmt.Println("How the blocklist choice moves a tracking study's results")
	fmt.Println("-----------------------------------------------------------")
	fmt.Printf("primary list: %d rules; secondary: %d rules\n\n", base.Len(), privacy.Len())
	study("EasyList-style only", base)
	study("+ EasyPrivacy-style", combined)
	fmt.Println()
	fmt.Println("takeaway (§6): stacking lists increases coverage but also shifts")
	fmt.Println("the phenomenon's definition — a cross-study comparison must pin")
	fmt.Println("the exact list versions, not just 'we used EasyList'.")
}
