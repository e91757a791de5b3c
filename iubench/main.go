// Command iubench is the repository's end-to-end benchmark. One run
// generates a labeled synthetic corpus from --seed, then times the three
// ways the system is used, one after another in the same process:
//
//   - fit: batch iuad.Open fits of the whole corpus (the paper's
//     Table V path: stage 1, embeddings, EM, merge rounds);
//   - stream: a journaled service restored from an 80% base takes the
//     held-out 20% from two closed-loop writers in 4-paper batches, then
//     a copy of its journal directory is reopened (crash recovery);
//   - serve: a service restored from the same base answers an open-loop
//     HTTP read/ingest mix through httpapi on a loopback listener.
//
// Every phase checks its outputs against the generator's truth labels
// and the benchmark's own recounts. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced pass. See README.md.
//
//	bash iubench/run.sh --workload scalefree25k --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"iuad"
)

// workloads are two corpora of the ≈25k rung of the corpus ladder
// (synth.ScaleConfig(25000, corpusSeed)). Every run times all three phases,
// so each workload reports every metric; they differ in the shape of
// the collaboration network, which drives what disambiguation and the
// analytics cost (Kim, arXiv:1811.03030).
var workloads = map[string]workload{
	// Preferential attachment on: a scale-free degree tail of hub
	// authors with skewed name reuse.
	"scalefree25k": {target: 25000, attachment: -1},
	// Preferential attachment off: co-authors are drawn uniformly, so
	// the degree tail is thin and no author is a hub.
	"uniform25k": {target: 25000, attachment: 0},
}

// workload is one corpus recipe: a ScaleConfig target and the
// preferential-attachment probability (negative keeps ScaleConfig's).
type workload struct {
	target     int
	attachment float64
}

// serveRate is the open-loop arrival rate (requests per second). At
// this rate the read tail is set by the analytics rebuild each new epoch
// triggers rather than by queueing behind it, and the serve share of a
// 40 s run still yields over a thousand analytics reads for their p99.
const serveRate = 100

// Shares of --seconds each phase measures for.
const (
	fitShare    = 0.20
	streamShare = 0.25
	serveShare  = 0.55
)

// restoreReps is how many times set-up restores the base for setup_s.
const restoreReps = 5

// tracedFits is how many fits the traced pass times; the layer-sum
// check uses their median.
const tracedFits = 3

// opCount counts one operation class.
type opCount struct{ attempted, failed int64 }

// bench is one run's state.
type bench struct {
	cd      *corpusData
	seed    int64
	rate    float64
	work    string // scratch directory, removed at exit
	base    string // fitted 80% base snapshot
	tr      *tracer
	stdout  io.Writer
	metrics map[string]metric

	fitOps, commitOps, reopenOps, readOps, ingestOps opCount
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "scalefree25k", "corpus: scalefree25k or uniform25k")
	seed := fs.Int64("seed", 1, "seed of the held-out arrival order and the read targets")
	seconds := fs.Float64("seconds", 40, "measured seconds, split across the fit, stream and serve phases")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced pass (plus the untraced counters)")
	workDir := fs.String("work", ".bench_build", "directory for scratch files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "iubench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rate: serveRate, workDir: *workDir, name: *workload,
	}
	res, err := benchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "iubench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "iubench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// config is one run's parameters.
type config struct {
	name    string
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	rate    float64
	workDir string
}

// benchmark runs the phases and returns the result line. A failed
// check returns the result with Correct false together with the error;
// an error with a nil result means nothing could be measured.
func benchmark(cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workDir, "iubench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		seed: cfg.seed, rate: cfg.rate, work: work, stdout: stdout,
		base: filepath.Join(work, "base.snap"), metrics: make(map[string]metric),
	}
	b.stamp(cfg)

	b.cd = generate(cfg.wl, cfg.seed)
	fmt.Fprintf(stdout, "corpus: %d papers (%d base + %d held out), %d scored names\n",
		len(b.cd.papers), b.cd.prefix, len(b.cd.papers)-b.cd.prefix, len(b.cd.names))
	err = b.phases(cfg)
	for name, m := range b.metrics {
		if err == nil && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			err = fmt.Errorf("metric %s is %v: its phase measured nothing", name, m.Value)
		}
	}
	res := &result{Correct: err == nil, Metrics: b.metrics}
	for _, c := range []opCount{b.fitOps, b.commitOps, b.reopenOps, b.readOps, b.ingestOps} {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	fmt.Fprintf(stdout, "ops: fits %d/%d failed, commits %d/%d, reopens %d/%d, reads %d/%d, ingests %d/%d\n",
		b.fitOps.failed, b.fitOps.attempted, b.commitOps.failed, b.commitOps.attempted,
		b.reopenOps.failed, b.reopenOps.attempted, b.readOps.failed, b.readOps.attempted,
		b.ingestOps.failed, b.ingestOps.attempted)
	if err != nil {
		res.Metrics = map[string]metric{}
		return res, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if b.tr != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("iubench-trace-%s-seed%d.jsonl", cfg.name, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return res, nil
}

// phases runs set-up, the three measured phases and, for a traced run,
// the traced pass; then fills b.metrics.
func (b *bench) phases(cfg config) error {
	t := time.Now()
	sub, err := buildCorpus(b.cd.papers[:b.cd.prefix])
	if err != nil {
		return err
	}
	baseSvc, err := iuad.Open(sub, iuad.WithConfig(b.cd.cfg))
	if err != nil {
		return fmt.Errorf("fit base: %w", err)
	}
	if err := baseSvc.SaveFile(b.base); err != nil {
		return err
	}
	if err := baseSvc.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "base: fitted and saved in %.2fs\n", time.Since(t).Seconds())

	// Set-up as a user pays it: restore the base from its snapshot.
	// Plain-snapshot services own no goroutines or files and are
	// dropped unclosed (Close would write the snapshot back).
	t = time.Now()
	var restoreS []float64
	for i := 0; i < restoreReps; i++ {
		t0 := time.Now()
		if _, err := iuad.Open(nil, iuad.WithSnapshot(b.base), iuad.WithWorkers(b.cd.cfg.Workers)); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restoreS = append(restoreS, secs(time.Since(t0)))
	}

	fmt.Fprintf(b.stdout, "set-up: %d restores (%.1fs)\n", restoreReps, time.Since(t).Seconds())
	t = time.Now()
	budget := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}
	// Each phase starts on a collected heap, so garbage from set-up or
	// the previous phase is not charged to it.
	runtime.GC()
	fit, err := b.fitPhase(budget(fitShare))
	if err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "fit: %d rounds, F1 %.4f (phase %.1fs)\n", len(fit.fitS), fit.f1, time.Since(t).Seconds())
	t = time.Now()
	runtime.GC()
	rounds, err := b.streamPhase(budget(streamShare))
	if err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "stream: %d rounds (phase %.1fs)\n", len(rounds), time.Since(t).Seconds())
	t = time.Now()
	if cfg.trace {
		b.tr = newTracer()
	}
	runtime.GC()
	serve, err := b.servePhase(budget(serveShare))
	if err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "serve: %d arrivals at %.0f/s, generator lag p99 %.3f ms (phase %.1fs)\n",
		serve.arrivals, b.rate, quantile(serve.lag, 0.99), time.Since(t).Seconds())
	for _, l := range []struct {
		name string
		lat  latencies
	}{{"reads", serve.reads}, {"analytics reads", serve.analytics}, {"ingests", serve.ingests}} {
		fmt.Fprintf(b.stdout, "serve %s: n=%d p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms\n", l.name, len(l.lat),
			quantile(l.lat, 0.5), quantile(l.lat, 0.9), quantile(l.lat, 0.95), quantile(l.lat, 0.99))
	}

	if !cfg.trace {
		b.endToEnd(fit, rounds, serve, restoreS)
		return nil
	}
	return b.perLayer(fit, rounds, serve)
}

// endToEnd fills the metrics a user of the system sees.
func (b *bench) endToEnd(fit *fitOut, rounds []*streamRoundOut, serve *serveOut, restoreS []float64) {
	m := b.metrics
	m["setup_s"] = metric{median(fit.buildS) + median(restoreS), "s"}
	m["fit_s"] = metric{median(fit.fitS), "s"}
	m["fit_heap_mb"] = metric{median(fit.heapMB), "MB"}
	m["fit_pairwise_f1"] = metric{fit.f1, "ratio"}

	var commits latencies
	var rate, recov, f1 []float64
	for _, r := range rounds {
		commits = append(commits, r.commits...)
		rate = append(rate, float64(r.papers)/r.wall.Seconds())
		recov = append(recov, r.recoverS...)
		f1 = append(f1, r.f1)
	}
	m["ingest_papers_per_s"] = metric{median(rate), "1/s"}
	m["commit_p50_ms"] = metric{quantile(commits, 0.5), "ms"}
	m["commit_p99_ms"] = metric{quantile(commits, 0.99), "ms"}
	m["recover_s"] = metric{median(recov), "s"}
	m["stream_pairwise_f1"] = metric{median(f1), "ratio"}

	// The read tails are per-layer metrics (serve.read_p99_ms,
	// serve.analytics_p99_ms): on a shared 2-CPU machine they moved by
	// 30–50% of their median between runs of the same inputs, more
	// than any bound the benchmark may set.
	m["read_p50_ms"] = metric{quantile(serve.reads, 0.5), "ms"}
	m["serve_ingest_p50_ms"] = metric{quantile(serve.ingests, 0.5), "ms"}
}

// Tolerances of the layer-sum checks: the traced layers of one fit
// (and of the whole stream) must add up to the untraced wall time
// within this share. See README.md for where the residue comes from.
const (
	fitSumTolerance    = 0.20
	streamSumTolerance = 0.25
	// minSumRef is the shortest untraced time the check applies to;
	// below it (tiny corpora) scheduling noise alone exceeds the
	// tolerances.
	minSumRef = 1.0 // seconds
)

// layerSumError reports traced layers that do not add up to the
// untraced time within its tolerance.
type layerSumError struct {
	what             string
	traced, untraced float64 // seconds
	tolerance        float64
}

func (e *layerSumError) Error() string {
	return fmt.Sprintf("traced %s layers sum to %.3fs, untraced %s takes %.3fs (tolerance %.0f%%)",
		e.what, e.traced, e.what, e.untraced, 100*e.tolerance)
}

// perLayer runs the traced pass and fills the per-layer metrics. The
// counters the program keeps itself come from the untraced phases that
// just ran; span times come from the traced pass.
func (b *bench) perLayer(fit *fitOut, rounds []*streamRoundOut, serve *serveOut) error {
	tr := b.tr
	var pl *iuad.Pipeline
	var fitSums, fitWalls []float64
	for i := 0; i < tracedFits; i++ {
		var sum, wall time.Duration
		var err error
		if pl, sum, wall, err = b.tracedFit(tr); err != nil {
			return fmt.Errorf("traced fit: %w", err)
		}
		if pl.GCN.VertexCount() != fit.authors {
			return fmt.Errorf("traced fit found %d authors, iuad.Open found %d", pl.GCN.VertexCount(), fit.authors)
		}
		fitSums = append(fitSums, sum.Seconds())
		fitWalls = append(fitWalls, wall.Seconds())
	}
	ts, err := b.tracedStream(tr)
	if err != nil {
		return fmt.Errorf("traced stream: %w", err)
	}
	L := tr.layers()
	m := b.metrics
	spanMed := func(name string, scale float64) float64 {
		if lt := L[name]; lt != nil {
			xs := make([]float64, len(lt.durs))
			for i, d := range lt.durs {
				xs[i] = float64(d) / scale
			}
			return median(xs)
		}
		return 0
	}
	// Fit spans are reported per fit: the total over the traced fits
	// divided by their number.
	perFit := func(name string) float64 {
		if lt := L[name]; lt != nil {
			return float64(lt.TotalNs) / 1e9 / tracedFits
		}
		return 0
	}
	countPerFit := func(name string) float64 {
		if lt := L[name]; lt != nil {
			return float64(lt.Count) / tracedFits
		}
		return 0
	}

	// fit
	m["bib.freeze_s"] = metric{perFit("bib.freeze"), "s"}
	m["core.scn_s"] = metric{perFit("core.scn"), "s"}
	m["textvec.train_s"] = metric{perFit("textvec.train"), "s"}
	m["core.score_initial_s"] = metric{perFit("core.score_initial"), "s"}
	m["core.fit_prep_s"] = metric{perFit("core.fit_prep"), "s"}
	m["emfit.em_s"] = metric{perFit("emfit.em"), "s"}
	m["emfit.iterations"] = metric{float64(pl.Model.Iterations), "count"}
	m["core.decision_s"] = metric{perFit("core.decision"), "s"}
	m["core.refine_s"] = metric{perFit("core.refine"), "s"}
	m["core.refine_rounds"] = metric{countPerFit("core.refine"), "count"}
	m["core.training_pairs"] = metric{float64(pl.TrainingPairs), "count"}
	m["core.publish_view_s"] = metric{perFit("core.publish_view"), "s"}
	m["core.alloc_mb"] = metric{median(fit.allocMB), "MB"}
	fitSum, fitRef := median(fitSums), median(fit.fitS)
	m["trace.fit_layer_sum_pct"] = metric{100 * fitSum / fitRef, "%"}
	m["trace.fit_overhead_pct"] = metric{100 * (median(fitWalls) - fitRef) / fitRef, "%"}

	// stream: counters from the untraced rounds (median over rounds)
	per := func(f func(r *streamRoundOut) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m["ingestq.queue_wait_p50_us"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.ingest.QueueWait.P50Ns) / 1e3 }), "us"}
	m["ingestq.queue_wait_p99_us"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.ingest.QueueWait.P99Ns) / 1e3 }), "us"}
	m["ingestq.papers_per_commit"] = metric{per(func(r *streamRoundOut) float64 {
		return float64(r.ingest.AdmittedPapers) / float64(r.ingest.Commits)
	}), "ratio"}
	m["core.ingest_lock_wait_ms"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.cont.IngestWaitNs) / 1e6 }), "ms"}
	m["core.apply_wait_ms"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.cont.ApplyWaitNs) / 1e6 }), "ms"}
	m["core.delta_entries_copied"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.cont.DeltaEntriesCopied) }), "count"}
	m["wal.fsync_p50_us"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.journal.FsyncLatency.P50Ns) / 1e3 }), "us"}
	m["wal.fsync_p99_us"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.journal.FsyncLatency.P99Ns) / 1e3 }), "us"}
	m["wal.fsyncs"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.journal.Fsyncs) }), "count"}
	m["wal.appended_bytes"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.journal.AppendedBytes) }), "bytes"}
	m["wal.rotations"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.journal.Rotations) }), "count"}
	m["wal.replay_s"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.replay.WallNs) / 1e9 }), "s"}
	m["wal.replayed_batches"] = metric{per(func(r *streamRoundOut) float64 { return float64(r.replay.Batches) }), "count"}

	// stream: span times from the traced commit path
	m["core.add_papers_us"] = metric{spanMed("core.add_papers", 1e3), "us"}
	m["core.capture_us"] = metric{spanMed("core.capture", 1e3), "us"}
	m["core.apply_us"] = metric{spanMed("core.apply", 1e3), "us"}
	m["wal.append_us"] = metric{spanMed("wal.append", 1e3), "us"}
	m["wal.compact_s"] = metric{spanMed("wal.compact", 1e9), "s"}
	m["snapshot.encode_s"] = metric{spanMed("snapshot.encode", 1e9), "s"}
	snapBytes := 0.0 // no compaction on corpora below CompactEvery commits
	if len(ts.snapBytes) > 0 {
		snapBytes = median(ts.snapBytes)
	}
	m["snapshot.bytes"] = metric{snapBytes, "bytes"}
	m["snapshot.decode_s"] = metric{ts.decodeS, "s"}
	var commitPath int64
	for _, name := range []string{"commit", "wal.append", "core.add_papers", "core.capture", "core.apply",
		"wal.compact", "snapshot.encode", "snapshot.write", "wal.rotate"} {
		if lt := L[name]; lt != nil {
			commitPath += lt.SelfNs
		}
	}
	var walls []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
	}
	streamRef := median(walls)
	m["trace.stream_layer_sum_pct"] = metric{100 * float64(commitPath) / 1e9 / streamRef, "%"}
	m["trace.stream_overhead_pct"] = metric{100 * (ts.wall.Seconds() - streamRef) / streamRef, "%"}

	// serve
	ad := serve.analyticsDelta
	m["netstats.compile_ms"] = metric{float64(ad.CompileNsTotal) / 1e6 / float64(max(ad.Rebuilds, 1)), "ms"}
	m["netstats.rebuilds"] = metric{float64(ad.Rebuilds), "count"}
	m["netstats.hit_ratio"] = metric{float64(ad.Hits) / float64(max(ad.Hits+ad.Misses, 1)), "ratio"}
	for _, ep := range []string{"authors_by_name", "author", "ego", "collaborators", "network", "communities", "ingest"} {
		m["httpapi."+ep+"_p99_us"] = metric{float64(serve.metrics.HTTP.Endpoints[ep].P99Ns) / 1e3, "us"}
	}
	m["httpapi.overhead_us"] = metric{serve.overheadUs, "us"}
	m["core.epochs_published"] = metric{float64(serve.epochs), "count"}
	m["serve.generator_lag_p99_ms"] = metric{quantile(serve.lag, 0.99), "ms"}
	m["serve.read_p99_ms"] = metric{quantile(serve.reads, 0.99), "ms"}
	m["serve.analytics_p99_ms"] = metric{quantile(serve.analytics, 0.99), "ms"}

	b.printLayers(L)
	fitDev := fitSum/fitRef - 1
	streamDev := float64(commitPath)/1e9/streamRef - 1
	fmt.Fprintf(b.stdout, "layer sums: fit %+.1f%% of untraced fit_s (tolerance ±%.0f%%), stream commit path %+.1f%% of untraced stream wall (tolerance ±%.0f%%)\n",
		100*fitDev, 100*fitSumTolerance, 100*streamDev, 100*streamSumTolerance)
	if fitRef >= minSumRef && abs(fitDev) > fitSumTolerance {
		return &layerSumError{"fit", fitSum, fitRef, fitSumTolerance}
	}
	if streamRef >= minSumRef && abs(streamDev) > streamSumTolerance {
		return &layerSumError{"stream", float64(commitPath) / 1e9, streamRef, streamSumTolerance}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// printLayers prints every traced layer's count, total and self time.
func (b *bench) printLayers(L map[string]*layerTime) {
	names := make([]string, 0, len(L))
	for n := range L {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b.stdout, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		lt := L[n]
		fmt.Fprintf(b.stdout, "%-28s %8d %12.3f %12.3f\n", n, lt.Count, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6)
	}
}

// stamp prints the run's environment.
func (b *bench) stamp(cfg config) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(b.stdout, "iubench: workload %s (ScaleConfig %d), seed %d, %.0fs measured, trace %v\n",
		cfg.name, cfg.wl.target, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(b.stdout, "env: gomaxprocs %d, num_cpu %d, %s, git rev %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rev)
}
