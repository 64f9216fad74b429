package webmeasure

import (
	"webmeasure/internal/core"
	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
)

// analyzeDataset analyzes every page of ds in one batch, with ds as the
// stream's dataset.
func analyzeDataset(ds *dataset.Dataset, filter *filterlist.List, opts core.Options) (*core.Analysis, error) {
	s, err := core.NewStream(ds, filter, opts)
	if err != nil {
		return nil, err
	}
	if err := s.AddDataset(ds); err != nil {
		return nil, err
	}
	return s.Finish()
}

// fig6Visit constructs a visit whose tree has exactly the given
// (child, parent) edges, expressed through synthetic call stacks.
func fig6Visit(profile, rootURL string, edges [][2]string) *measurement.Visit {
	v := &measurement.Visit{
		Site: "fig6.example", PageURL: rootURL, Profile: profile, Success: true,
		Requests: []measurement.Request{{URL: rootURL, Type: measurement.TypeMainFrame}},
	}
	for _, e := range edges {
		req := measurement.Request{URL: e[0], Type: measurement.TypeScript}
		if e[1] != rootURL {
			req.CallStack = []measurement.StackFrame{{FuncName: "f", URL: e[1]}}
		}
		v.Requests = append(v.Requests, req)
	}
	return v
}
