package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iuad"
	"iuad/internal/httpapi"
	"iuad/internal/loadgen"
)

const (
	serveConns       = 2  // HTTP connections, one per generator worker
	serveIngestEvery = 20 // every 20th arrival (5%) is a 4-paper ingest batch
	serveNames       = 96 // Zipf-ranked name universe of the read mix
	serveZipfS       = 1.3
	overheadSamples  = 400 // read requests timed both ways in a traced run
)

// serveOp is one planned arrival.
type serveOp struct {
	kind  string // read-mix endpoint name, or "ingest"
	path  string
	body  []byte
	first int // ingest: generation index of the batch's first paper
	n     int // ingest: papers in the batch
}

// analyticsKinds are the reads served from the netstats cache.
var analyticsKinds = map[string]bool{"ego": true, "collaborators": true, "network": true, "communities": true}

// servePlan builds the arrival sequence. Every serveIngestEvery-th
// arrival is an ingest of the next held-out papers; the reads between
// take their endpoints in exact loadgen.AnalyticsReadMix proportions by
// smooth weighted round-robin, and their targets — Zipf-ranked names
// and those names' authors — from the seed. The fixed pattern puts the
// same reads between every two epoch publishes in every run, so the
// read tail measures the analytics rebuilds, not how a random draw
// happened to bunch them.
func (b *bench) servePlan(svc *iuad.Service, n int) []serveOp {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5e12e))
	seen := make(map[string]bool)
	var names []string
	var ids [][]int
	base := b.cd.papers[:b.cd.prefix]
	for tries := 0; len(names) < serveNames && tries < 100*serveNames; tries++ {
		p := base[rng.Intn(len(base))]
		name := p.Authors[rng.Intn(len(p.Authors))]
		if seen[name] {
			continue
		}
		seen[name] = true
		var as []int
		for _, a := range svc.AuthorsByName(name) {
			as = append(as, a.ID)
		}
		names = append(names, name)
		ids = append(ids, as)
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(names)-1))
	author := func() int {
		as := ids[zipf.Uint64()]
		return as[rng.Intn(len(as))]
	}
	mix := loadgen.AnalyticsReadMix()
	kinds := make([]string, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var total float64
	for _, k := range kinds {
		total += mix[k]
	}
	credit := make([]float64, len(kinds)) // smooth weighted round-robin state
	next := b.cd.prefix
	ops := make([]serveOp, n)
	for i := range ops {
		if i%serveIngestEvery == serveIngestEvery-1 && next+streamBatch <= len(b.cd.papers) {
			body, _ := json.Marshal(wirePapers(b.cd.papers[next : next+streamBatch]))
			ops[i] = serveOp{kind: "ingest", path: "/v1/papers", body: body, first: next, n: streamBatch}
			next += streamBatch
			continue
		}
		pick := 0
		for k, name := range kinds {
			credit[k] += mix[name]
			if credit[k] > credit[pick] {
				pick = k
			}
		}
		credit[pick] -= total
		kind := kinds[pick]
		op := serveOp{kind: kind}
		switch kind {
		case "name":
			op.path = "/v1/authors?name=" + url.QueryEscape(names[zipf.Uint64()])
		case "author":
			op.path = fmt.Sprintf("/v1/authors/%d", author())
		case "ego":
			op.path = fmt.Sprintf("/v1/authors/%d/ego?hops=%d", author(), 1+rng.Intn(2))
		case "collaborators":
			op.path = fmt.Sprintf("/v1/authors/%d/collaborators?k=8", author())
		case "network":
			op.path = "/v1/network"
		case "communities":
			op.path = "/v1/communities"
		}
		ops[i] = op
	}
	return ops
}

// wirePaper is the ingest endpoint's JSON form of a paper.
type wirePaper struct {
	Title   string   `json:"title"`
	Venue   string   `json:"venue"`
	Year    int      `json:"year"`
	Authors []string `json:"authors"`
}

func wirePapers(ps []iuad.Paper) []wirePaper {
	out := make([]wirePaper, len(ps))
	for i, p := range ps {
		out[i] = wirePaper{Title: p.Title, Venue: p.Venue, Year: p.Year, Authors: p.Authors}
	}
	return out
}

// serveOut is what the serve phase measured.
type serveOut struct {
	reads, analytics, ingests, lag latencies
	arrivals                       int
	metrics                        httpapi.Metrics
	analyticsDelta                 iuad.AnalyticsStats
	epochs                         int64
	overheadUs                     float64 // traced runs: median handler − direct call
}

// servePhase restores the base from a plain snapshot, serves it over
// httpapi on a loopback listener and drives it with an open-loop
// generator: arrivals are due at fixed times start + i/rate; two
// workers, one connection each, take the next arrival whenever they
// are free, wait for its due time if it is still ahead, and send it at
// once if it is late. Late arrivals queue; none is dropped, and every
// latency runs from the due time, so a stall is charged to every
// arrival it delays. Ends with the network and community checks at the
// final epoch.
func (b *bench) servePhase(dur time.Duration) (*serveOut, error) {
	// A service opened from a plain snapshot owns no goroutines or
	// files; it is dropped rather than closed, because Close would
	// write the snapshot back.
	svc, err := iuad.Open(nil, iuad.WithSnapshot(b.base), iuad.WithWorkers(b.cd.cfg.Workers))
	if err != nil {
		return nil, fmt.Errorf("restore for serve: %w", err)
	}
	srv := httpapi.New(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	baseURL := "http://" + ln.Addr().String()

	n := int(dur.Seconds() * b.rate)
	ops := b.servePlan(svc, n)
	a0 := svc.Analytics()
	e0 := svc.Contention().Publishes

	type result struct {
		lat, lag time.Duration
		err      error
	}
	results := make([]result, n)
	ids := identityIDs(len(b.cd.papers))
	for i := b.cd.prefix; i < len(ids); i++ {
		ids[i] = -1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / b.rate)
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < serveConns; w++ {
		client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				body, err := do(client, baseURL, &ops[i])
				results[i] = result{lat: time.Since(due), lag: sent.Sub(due), err: err}
				if err == nil && ops[i].kind == "ingest" {
					results[i].err = ingestIDs(body, b.cd.papers[ops[i].first:ops[i].first+ops[i].n], ids[ops[i].first:])
				}
			}
		}()
	}
	wg.Wait()

	out := &serveOut{arrivals: n}
	var firstErr error
	for i, r := range results {
		c := &b.readOps
		if ops[i].kind == "ingest" {
			c = &b.ingestOps
		}
		c.attempted++
		if r.err != nil {
			c.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s %s: %w", ops[i].kind, ops[i].path, r.err)
			}
			continue
		}
		out.lag.add(r.lag)
		switch {
		case ops[i].kind == "ingest":
			out.ingests.add(r.lat)
		case analyticsKinds[ops[i].kind]:
			out.analytics.add(r.lat)
			out.reads.add(r.lat)
		default:
			out.reads.add(r.lat)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out.metrics = srv.Metrics()
	a1 := svc.Analytics()
	out.analyticsDelta = iuad.AnalyticsStats{
		Hits: a1.Hits - a0.Hits, Misses: a1.Misses - a0.Misses,
		Rebuilds: a1.Rebuilds - a0.Rebuilds, CompileNsTotal: a1.CompileNsTotal - a0.CompileNsTotal,
	}
	out.epochs = svc.Contention().Publishes - e0

	if err := checkServed(svc, baseURL, b.cd, ids); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if b.tr != nil {
		if out.overheadUs, err = b.handlerOverhead(svc, srv, ops); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// do sends one planned arrival and returns the 2xx response body.
func do(c *http.Client, baseURL string, op *serveOp) ([]byte, error) {
	var resp *http.Response
	var err error
	if op.kind == "ingest" {
		resp, err = c.Post(baseURL+op.path, "application/json", bytes.NewReader(op.body))
	} else {
		resp, err = c.Get(baseURL + op.path)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// ingestIDs checks an ingest reply (one assignment per author slot) and
// records the PaperIDs the papers got.
func ingestIDs(body []byte, batch []iuad.Paper, ids []iuad.PaperID) error {
	var reply struct {
		Assignments [][]struct {
			Paper, Index, Author int
		} `json:"assignments"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	if len(reply.Assignments) != len(batch) {
		return fmt.Errorf("%d papers acked with %d assignment lists", len(batch), len(reply.Assignments))
	}
	for i, as := range reply.Assignments {
		if len(as) != len(batch[i].Authors) {
			return fmt.Errorf("paper with %d authors got %d assignments", len(batch[i].Authors), len(as))
		}
		for j, a := range as {
			if a.Index != j || a.Paper != as[0].Paper {
				return fmt.Errorf("assignment %d names slot %d/%d", j, a.Paper, a.Index)
			}
		}
		ids[i] = iuad.PaperID(as[0].Paper)
	}
	return nil
}

// checkServed verifies the final epoch: every ingested slot resolves
// and the vertices partition the slots; /v1/network equals the
// benchmark's own recount; community labels cover every author once.
func checkServed(svc *iuad.Service, baseURL string, cd *corpusData, ids []iuad.PaperID) error {
	if _, err := resolveAll(svc, cd, ids); err != nil {
		return err
	}
	resp, err := http.Get(baseURL + "/v1/network")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ns iuad.NetworkStats
	if err := json.NewDecoder(resp.Body).Decode(&ns); err != nil {
		return err
	}
	if ns.Epoch != svc.Epoch() {
		return fmt.Errorf("/v1/network answered epoch %d, service is at %d", ns.Epoch, svc.Epoch())
	}
	own, err := recountNetwork(svc)
	if err != nil {
		return err
	}
	got := netCount{Authors: ns.Authors, Edges: ns.Edges, Weight: ns.TotalWeight, Components: ns.Components, Largest: ns.LargestComponent}
	if got != own {
		return fmt.Errorf("/v1/network says %+v, recount says %+v", got, own)
	}
	return checkCommunities(svc.Communities(), own.Authors)
}

// handlerOverhead times the same read requests through the HTTP
// handler (routing, query parsing, JSON encoding; no socket) and as
// direct Service calls on the final epoch, and records both as spans.
func (b *bench) handlerOverhead(svc *iuad.Service, srv *httpapi.Server, ops []serveOp) (float64, error) {
	var diffs []float64
	for i := range ops {
		op := &ops[i]
		if op.kind == "ingest" {
			continue
		}
		if len(diffs) == overheadSamples {
			break
		}
		u, err := url.Parse(op.path)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := direct(svc, op.kind, u); err != nil {
			return 0, fmt.Errorf("direct %s: %w", op.path, err)
		}
		t1 := time.Now()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, op.path, nil))
		t2 := time.Now()
		if rec.Code/100 != 2 {
			return 0, fmt.Errorf("handler %s: status %d", op.path, rec.Code)
		}
		b.tr.add("service."+op.kind, 0, t0, t1)
		b.tr.add("httpapi."+op.kind, 0, t1, t2)
		diffs = append(diffs, float64(t2.Sub(t1)-t1.Sub(t0))/1e3)
	}
	return median(diffs), nil
}

// direct answers a planned read with the Service call its endpoint
// makes.
func direct(svc *iuad.Service, kind string, u *url.URL) error {
	if kind == "name" {
		svc.AuthorsByName(u.Query().Get("name"))
		return nil
	}
	if kind == "network" {
		svc.Network()
		return nil
	}
	if kind == "communities" {
		svc.Communities()
		return nil
	}
	var id, hops int
	if _, err := fmt.Sscanf(u.Path, "/v1/authors/%d", &id); err != nil {
		return err
	}
	var err error
	switch kind {
	case "author":
		_, err = svc.Author(id)
	case "ego":
		if _, err = fmt.Sscanf(u.Query().Get("hops"), "%d", &hops); err == nil {
			_, err = svc.Ego(id, hops)
		}
	case "collaborators":
		_, err = svc.TopCollaborators(id, 8)
	}
	return err
}
