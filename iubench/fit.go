package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"iuad"
	"iuad/internal/core"
)

// fitOut is what the fit phase measured.
type fitOut struct {
	buildS  []float64 // corpus Add + Freeze per round
	fitS    []float64 // iuad.Open fit per round
	heapMB  []float64 // heap in use after GC with the fitted service live
	allocMB []float64 // bytes allocated by the fit
	f1      float64
	authors int // fitted GCN vertices, for the traced-path determinism check
}

// fitPhase runs whole batch fits of the full corpus through iuad.Open
// (no snapshot) until budget is spent. Every round's clustering is
// checked; rounds must agree exactly, since the fit is deterministic.
func (b *bench) fitPhase(budget time.Duration) (*fitOut, error) {
	out := &fitOut{}
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < budget; round++ {
		b.fitOps.attempted++
		t0 := time.Now()
		corpus, err := buildCorpus(b.cd.papers)
		if err != nil {
			b.fitOps.failed++
			return nil, fmt.Errorf("build corpus: %w", err)
		}
		out.buildS = append(out.buildS, secs(time.Since(t0)))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t1 := time.Now()
		svc, err := iuad.Open(corpus, iuad.WithConfig(b.cd.cfg))
		if err != nil {
			b.fitOps.failed++
			return nil, fmt.Errorf("fit: %w", err)
		}
		out.fitS = append(out.fitS, secs(time.Since(t1)))
		runtime.ReadMemStats(&after)
		out.allocMB = append(out.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		runtime.GC()
		runtime.ReadMemStats(&after)
		out.heapMB = append(out.heapMB, float64(after.HeapInuse)/(1<<20))

		st := svc.Stats()
		if round == 0 {
			as, err := resolveAll(svc, b.cd, identityIDs(len(b.cd.papers)))
			if err != nil {
				return nil, fmt.Errorf("fit: %w", err)
			}
			acc, err := scoreAccuracy(b.cd, as, svc.Pipeline().GCN)
			if err == nil {
				err = acc.check(true)
			}
			if err != nil {
				return nil, fmt.Errorf("fit: %w", err)
			}
			out.f1 = acc.got.F
			out.authors = st.Authors
		} else if st.Authors != out.authors {
			return nil, fmt.Errorf("fit round %d found %d authors, round 0 found %d", round, st.Authors, out.authors)
		}
		if err := svc.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stageSpan maps a core.Config.StageHook stage onto its layer span.
func stageSpan(stage string) string {
	switch {
	case stage == "score-initial":
		return "core.score_initial"
	case stage == "fit-prep":
		return "core.fit_prep"
	case stage == "em-fit":
		return "emfit.em"
	case stage == "decision":
		return "core.decision"
	case strings.HasPrefix(stage, "refine-round-"):
		return "core.refine"
	}
	return "core." + stage
}

// tracedFit repeats one fit through the entry points iuad.Open wraps —
// core.BuildSCN, core.TrainEmbeddings, core.BuildGCN (stage-2 phases
// from Config.StageHook) and iuad.NewService — with a span around each.
// It returns the traced pipeline for the caller's cross-check, the sum
// of the four layer spans and the fit's traced wall time.
func (b *bench) tracedFit(tr *tracer) (pl *iuad.Pipeline, layerSum, wall time.Duration, err error) {
	t0 := time.Now()
	corpus := iuad.NewCorpus(len(b.cd.papers))
	for _, p := range b.cd.papers {
		if _, err := corpus.Add(p); err != nil {
			return nil, 0, 0, err
		}
	}
	t1 := time.Now()
	corpus.Freeze()
	tr.add("bib.add", 0, t0, t1)
	tr.add("bib.freeze", 0, t1, time.Now())

	// lap closes one layer span that started at *t and moves *t on.
	lap := func(name string, parent int, t *time.Time) {
		now := time.Now()
		tr.add(name, parent, *t, now)
		layerSum += now.Sub(*t)
		*t = now
	}
	start := time.Now()
	root := tr.open("iuad.fit", 0)
	cfg := b.cd.cfg
	t := time.Now()
	scn, err := core.BuildSCN(corpus, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	lap("core.scn", root, &t)
	emb := core.TrainEmbeddings(corpus, cfg.Embedding)
	lap("textvec.train", root, &t)

	gcn := tr.open("core.gcn", root)
	cfg.StageHook = func(stage string, d time.Duration) {
		end := time.Now()
		tr.add(stageSpan(stage), gcn, end.Add(-d), end)
	}
	pl, err = core.BuildGCN(corpus, scn, emb, cfg)
	tr.close(gcn)
	if err != nil {
		return nil, 0, 0, err
	}
	layerSum += time.Since(t)
	t = time.Now()
	svc, err := iuad.NewService(pl)
	if err != nil {
		return nil, 0, 0, err
	}
	lap("core.publish_view", root, &t)
	tr.close(root)
	wall = time.Since(start)
	return pl, layerSum, wall, svc.Close()
}
