package main

import (
	"fmt"
	"math"
	"sort"

	"iuad"
	evaluate "iuad/internal/accuracy"
	"iuad/internal/bib"
)

// The checks in this file recompute what they verify from the
// generator's truth labels and the public query surface. None of them
// compares against stored output, so a change that keeps the numbers
// moving but breaks the answers fails the run.

// slotRef names one author occurrence by generation-order paper index
// and author position.
type slotRef struct{ paper, index int }

// assignment maps every generated paper to the PaperID the service gave
// it (identity for the fitted prefix; taken from AddPapers replies for
// streamed papers) and holds the vertex each slot resolved to.
type assignment struct {
	ids     []iuad.PaperID // generation index → service PaperID, -1 = not ingested
	cluster [][]int        // [paper][index] → author (vertex) ID
}

func identityIDs(n int) []iuad.PaperID {
	ids := make([]iuad.PaperID, n)
	for i := range ids {
		ids[i] = iuad.PaperID(i)
	}
	return ids
}

// resolveAll resolves every ingested slot through Service.ResolveSlot
// and checks that each lands on a vertex carrying the slot's name and
// listing the slot's paper; then it walks every vertex through
// Service.Author and checks that the vertices' (paper, name) claims
// partition the slots exactly: no slot claimed twice, none unclaimed,
// no claim outside the ingested slots.
func resolveAll(svc *iuad.Service, cd *corpusData, ids []iuad.PaperID) (*assignment, error) {
	type claim struct {
		paper iuad.PaperID
		name  string
	}
	as := &assignment{ids: ids, cluster: make([][]int, len(cd.papers))}
	want := make(map[claim]int)
	for i, p := range cd.papers {
		if ids[i] < 0 {
			continue
		}
		as.cluster[i] = make([]int, len(p.Authors))
		for j, name := range p.Authors {
			a, err := svc.ResolveSlot(iuad.Slot{Paper: ids[i], Index: j})
			if err != nil {
				return nil, fmt.Errorf("slot %d/%d: %w", ids[i], j, err)
			}
			if a.Name != name {
				return nil, fmt.Errorf("slot %d/%d (%q) resolves to author %d named %q", ids[i], j, name, a.ID, a.Name)
			}
			if !hasPaper(a.Papers, ids[i]) {
				return nil, fmt.Errorf("slot %d/%d resolves to author %d, which does not list paper %d", ids[i], j, a.ID, ids[i])
			}
			as.cluster[i][j] = a.ID
			want[claim{ids[i], name}] = a.ID
		}
	}
	n := svc.Stats().Authors
	claimed := 0
	for id := 0; id < n; id++ {
		a, err := svc.Author(id)
		if err != nil {
			return nil, fmt.Errorf("author %d of %d: %w", id, n, err)
		}
		for _, pid := range a.Papers {
			owner, ok := want[claim{pid, a.Name}]
			if !ok {
				return nil, fmt.Errorf("author %d (%q) claims paper %d, which has no such slot", id, a.Name, pid)
			}
			if owner != id {
				return nil, fmt.Errorf("author %d (%q) claims paper %d, whose slot resolves to author %d", id, a.Name, pid, owner)
			}
			claimed++
		}
	}
	if claimed != len(want) {
		return nil, fmt.Errorf("vertices claim %d slots, corpus has %d", claimed, len(want))
	}
	return as, nil
}

func hasPaper(ps []iuad.PaperID, p iuad.PaperID) bool {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= p })
	return i < len(ps) && ps[i] == p
}

// pairScore is pairwise precision/recall/F1 over same-name slot pairs.
type pairScore struct {
	TP, FP, FN int64
	P, R, F    float64
}

func (s *pairScore) finish() {
	if s.TP+s.FP > 0 {
		s.P = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.FN > 0 {
		s.R = float64(s.TP) / float64(s.TP+s.FN)
	}
	if s.P+s.R > 0 {
		s.F = 2 * s.P * s.R / (s.P + s.R)
	}
}

// nameSlots lists, per scored name, every slot carrying it.
func nameSlots(cd *corpusData) [][]slotRef {
	idx := make(map[string]int, len(cd.names))
	for i, n := range cd.names {
		idx[n] = i
	}
	out := make([][]slotRef, len(cd.names))
	for i, p := range cd.papers {
		for j, name := range p.Authors {
			if k, ok := idx[name]; ok {
				out[k] = append(out[k], slotRef{i, j})
			}
		}
	}
	return out
}

// pairwise enumerates every same-name slot pair directly and counts
// agreements between the predicted clustering and the truth labels.
func pairwise(cd *corpusData, blocks [][]slotRef, cluster func(b int, s slotRef) int) pairScore {
	var sc pairScore
	for b, slots := range blocks {
		pred := make([]int, len(slots))
		for k, s := range slots {
			pred[k] = cluster(b, s)
		}
		for x := 0; x < len(slots); x++ {
			tx := cd.truth[slots[x].paper][slots[x].index]
			for y := x + 1; y < len(slots); y++ {
				same := tx == cd.truth[slots[y].paper][slots[y].index]
				switch together := pred[x] == pred[y]; {
				case together && same:
					sc.TP++
				case together:
					sc.FP++
				case same:
					sc.FN++
				}
			}
		}
	}
	sc.finish()
	return sc
}

// accScores holds the service's pairwise score and the two trivial
// clusterings' scores on the same slots.
type accScores struct {
	got, singleton, perName pairScore
}

// check requires the service's F1 to beat singletons and, when perName
// is set, one author per name.
func (a accScores) check(perName bool) error {
	if a.got.F <= a.singleton.F || (perName && a.got.F <= a.perName.F) {
		return fmt.Errorf("pairwise F1 %.4f (P %.4f, R %.4f) does not beat singletons (%.4f) and one-author-per-name (%.4f)",
			a.got.F, a.got.P, a.got.R, a.singleton.F, a.perName.F)
	}
	return nil
}

// scoreAccuracy scores the service's clustering, cross-checks it
// against accuracy.EvaluateNetwork on the pipeline's own network, and
// scores the two trivial clusterings: every slot its own author, and
// one author per name.
func scoreAccuracy(cd *corpusData, as *assignment, gcn *iuad.Network) (accScores, error) {
	blocks := nameSlots(cd)
	var a accScores
	a.got = pairwise(cd, blocks, func(_ int, s slotRef) int { return as.cluster[s.paper][s.index] })
	slot := 0
	a.singleton = pairwise(cd, blocks, func(_ int, _ slotRef) int { slot++; return slot })
	a.perName = pairwise(cd, blocks, func(b int, _ slotRef) int { return b })

	// The program's evaluator reads truth from a corpus indexed by the
	// service's paper IDs.
	order := make([]int, len(cd.papers))
	for i, id := range as.ids {
		order[id] = i
	}
	tc := bib.NewCorpus(len(cd.papers))
	for _, i := range order {
		p := cd.papers[i]
		if _, err := tc.Add(bib.Paper{Title: p.Title, Venue: p.Venue, Year: p.Year, Authors: p.Authors, Truth: cd.truth[i]}); err != nil {
			return a, err
		}
	}
	tc.Freeze()
	ref := evaluate.EvaluateNetwork(tc, gcn, cd.names).Pairwise
	for _, c := range []struct {
		what      string
		own, prog float64
	}{{"precision", a.got.P, ref.MicroP}, {"recall", a.got.R, ref.MicroR}, {"F1", a.got.F, ref.MicroF}} {
		if math.Abs(c.own-c.prog) > 1e-12 {
			return a, fmt.Errorf("pairwise %s %.15f, accuracy.EvaluateNetwork says %.15f", c.what, c.own, c.prog)
		}
	}
	return a, nil
}

// sameResolution checks that two services resolve every ingested slot
// to the same author ID with the same paper set.
func sameResolution(live, rec *iuad.Service, cd *corpusData, ids []iuad.PaperID) error {
	for i, p := range cd.papers {
		if ids[i] < 0 {
			continue
		}
		for j := range p.Authors {
			s := iuad.Slot{Paper: ids[i], Index: j}
			a, err1 := live.ResolveSlot(s)
			b, err2 := rec.ResolveSlot(s)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("slot %d/%d: live %v, recovered %v", s.Paper, j, err1, err2)
			}
			if a.ID != b.ID || !equalIDs(a.Papers, b.Papers) {
				return fmt.Errorf("slot %d/%d: live author %d (%d papers), recovered author %d (%d papers)",
					s.Paper, j, a.ID, len(a.Papers), b.ID, len(b.Papers))
			}
		}
	}
	return nil
}

func equalIDs(a, b []iuad.PaperID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// netCount is the benchmark's own recount of the collaboration network.
type netCount struct {
	Authors, Edges, Components, Largest int
	Weight                              int64
}

// recountNetwork rebuilds the network statistics from Author and
// Coauthors alone: an edge per coauthor pair, weighted by the papers
// the two authors share, and components by union-find.
func recountNetwork(svc *iuad.Service) (netCount, error) {
	n := svc.Stats().Authors
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	nc := netCount{Authors: n}
	for id := 0; id < n; id++ {
		a, err := svc.Author(id)
		if err != nil {
			return nc, err
		}
		peers, err := svc.Coauthors(id)
		if err != nil {
			return nc, err
		}
		for _, b := range peers {
			if b.ID <= id {
				continue
			}
			nc.Edges++
			nc.Weight += int64(sharedPapers(a.Papers, b.Papers))
			if ra, rb := find(id), find(b.ID); ra != rb {
				parent[ra] = rb
			}
		}
	}
	size := make(map[int]int)
	for id := 0; id < n; id++ {
		size[find(id)]++
	}
	nc.Components = len(size)
	for _, s := range size {
		nc.Largest = max(nc.Largest, s)
	}
	return nc, nil
}

func sharedPapers(a, b []iuad.PaperID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// checkCommunities requires the community labels to cover every live
// author exactly once, every community to be non-empty, and the
// reported sizes to match the labels.
func checkCommunities(c *iuad.Communities, authors int) error {
	if len(c.Labels) != authors {
		return fmt.Errorf("communities label %d vertices, network has %d authors", len(c.Labels), authors)
	}
	count := make([]int, c.Count)
	for id, l := range c.Labels {
		if l < 0 || int(l) >= c.Count {
			return fmt.Errorf("author %d has community label %d outside [0,%d)", id, l, c.Count)
		}
		count[l]++
	}
	for l, k := range count {
		if k == 0 {
			return fmt.Errorf("community %d of %d has no members", l, c.Count)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(count)))
	for i, s := range c.Sizes {
		if i >= len(count) || count[i] != s {
			return fmt.Errorf("reported community size #%d is %d, labels give %v", i, s, count[:min(len(count), i+1)])
		}
	}
	return nil
}
