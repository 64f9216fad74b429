package tree

// This file is the wire codec for finalized trees: a flat, JSON-friendly
// Record that a shard worker can ship to the coordinator and that rebuilds
// into a Tree equal to the original in every analysis-visible way — node
// fields, parents, children order, and the memoized sorted views. The
// cross-comparison is deliberately NOT serialized; it is deterministic in
// the trees and cheap to recompute at merge time.

import (
	"fmt"

	"webmeasure/internal/measurement"
)

// NodeRecord is the wire form of one tree node. Parent is the parent's
// key ("" marks the root); Depth is derived on rebuild.
type NodeRecord struct {
	Key         string                   `json:"key"`
	RawURL      string                   `json:"raw_url,omitempty"`
	Type        measurement.ResourceType `json:"type"`
	Party       Party                    `json:"party"`
	Tracking    bool                     `json:"tracking,omitempty"`
	Status      int                      `json:"status,omitempty"`
	ContentType string                   `json:"content_type,omitempty"`
	BodySize    int                      `json:"body_size,omitempty"`
	Parent      string                   `json:"parent,omitempty"`
}

// Record is the wire form of a finalized tree. Nodes are in pre-order —
// every parent precedes its children, siblings keep their construction
// order — so the rebuild reproduces each node's Children slice exactly.
type Record struct {
	Site    string `json:"site"`
	PageURL string `json:"page_url"`
	Profile string `json:"profile"`

	StrippedURLs  int `json:"stripped_urls,omitempty"`
	TotalRequests int `json:"total_requests,omitempty"`

	Nodes []NodeRecord `json:"nodes"`
}

// Record flattens the tree for the wire.
func (t *Tree) Record() Record {
	r := Record{
		Site:          t.Site,
		PageURL:       t.PageURL,
		Profile:       t.Profile,
		StrippedURLs:  t.StrippedURLs,
		TotalRequests: t.TotalRequests,
		Nodes:         make([]NodeRecord, 0, len(t.nodes)),
	}
	// Iterative pre-order walk; children are pushed in reverse so they pop
	// in their original order.
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nr := NodeRecord{
			Key:         n.Key,
			RawURL:      n.RawURL,
			Type:        n.Type,
			Party:       n.Party,
			Tracking:    n.Tracking,
			Status:      n.Status,
			ContentType: n.ContentType,
			BodySize:    n.BodySize,
		}
		if n.Parent != nil {
			nr.Parent = n.Parent.Key
		}
		r.Nodes = append(r.Nodes, nr)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	return r
}

// Tree rebuilds the tree from its wire form, re-deriving depths with the
// same rule Builder.Build uses and finalizing the memoized views. It
// validates the structural invariants the pre-order encoding promises: a
// single parentless root first, unique keys, parents before children.
func (r Record) Tree() (*Tree, error) {
	if len(r.Nodes) == 0 {
		return nil, fmt.Errorf("tree: record of %s/%s has no nodes", r.Site, r.PageURL)
	}
	t := &Tree{
		Site:          r.Site,
		PageURL:       r.PageURL,
		Profile:       r.Profile,
		StrippedURLs:  r.StrippedURLs,
		TotalRequests: r.TotalRequests,
		nodes:         make(map[string]*Node, len(r.Nodes)),
	}
	for i, nr := range r.Nodes {
		if t.nodes[nr.Key] != nil {
			return nil, fmt.Errorf("tree: record of %s/%s repeats node %q", r.Site, r.PageURL, nr.Key)
		}
		n := &Node{
			Key:         nr.Key,
			RawURL:      nr.RawURL,
			Type:        nr.Type,
			Party:       nr.Party,
			Tracking:    nr.Tracking,
			Status:      nr.Status,
			ContentType: nr.ContentType,
			BodySize:    nr.BodySize,
		}
		if i == 0 {
			if nr.Parent != "" {
				return nil, fmt.Errorf("tree: record of %s/%s: first node %q is not a root", r.Site, r.PageURL, nr.Key)
			}
			t.Root = n
		} else {
			parent := t.nodes[nr.Parent]
			if parent == nil {
				return nil, fmt.Errorf("tree: record of %s/%s: node %q references unknown parent %q", r.Site, r.PageURL, nr.Key, nr.Parent)
			}
			n.Parent = parent
			n.Depth = parent.Depth + 1
			parent.Children = append(parent.Children, n)
		}
		t.nodes[nr.Key] = n
	}
	t.Finalize()
	return t, nil
}
