package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"prefdb/internal/colstore"
)

// run sets the workload up, measures it and checks its outputs.
func (b *bench) run() (*result, error) {
	start := time.Now()
	repeats := setupRepeats
	if b.cfg.trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		b.teardown()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()
	tables := b.userTables()
	b.rec.RowCounts = rowCounts(tables)
	raw := rawBytes(tables)
	memRatio := ratio(float64(liveHeap()), float64(raw))
	b.rec.Dists["setup_s"] = summarize(setups)

	var metrics map[string]metric
	if b.cfg.trace {
		metrics = b.tracedRun()
	} else {
		metrics = b.endToEnd(median(setups), memRatio)
	}
	b.rec.WallS = time.Since(start).Seconds()
	b.rec.ErrorRatio = ratio(float64(b.failed), float64(b.attempted))
	b.rec.Failures = b.failures
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

func (b *bench) duration() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// endToEnd measures the closed loop with nothing traced.
func (b *bench) endToEnd(setupS, memRatio float64) map[string]metric {
	lp := b.closedLoop(b.duration(), 1, b.plain)
	b.checkReads(lp.samples, 1, b.w.isolatedWrites)
	b.waitCompaction()
	b.checkWrites()

	reads, all, wl := latencies(lp.samples)
	var medians []float64
	for _, tmpl := range b.w.templates {
		b.rec.Dists["query_ms."+tmpl] = summarize(reads[tmpl])
		if len(reads[tmpl]) > 0 {
			medians = append(medians, median(reads[tmpl]))
		}
	}
	b.rec.Dists["query_ms"] = summarize(all)
	b.rec.Dists["write_ms"] = summarize(wl)
	qTail, qPct := tail(all)
	wTail, wPct := tail(wl)
	b.rec.TailPct["query_tail_ms"] = qPct
	b.rec.TailPct["write_tail_ms"] = wPct
	done := completed(lp.samples)
	b.rec.WriteShare = ratio(float64(len(wl)), float64(done))
	return map[string]metric{
		"setup_s":                 {setupS, "s"},
		"throughput_ops_s":        {float64(done) / lp.elapsed.Seconds(), "ops/s"},
		"query_geomean_ms":        {geomean(medians), "ms"},
		"query_p50_ms":            {median(all), "ms"},
		"query_tail_ms":           {qTail, "ms"},
		"write_p50_ms":            {median(wl), "ms"},
		"write_tail_ms":           {wTail, "ms"},
		"cpu_ms_per_op":           {ratio(ms(lp.cpu), float64(done)), "ms"},
		"mem_bytes_per_user_byte": {memRatio, "ratio"},
	}
}

func completed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err == nil {
			n++
		}
	}
	return n
}

// tracedRun first repeats the closed loop untraced for half the run, for
// the throughput the tracing overhead is measured against and for the Go
// runtime's counters, then runs it traced for the other half.
func (b *bench) tracedRun() map[string]metric {
	half := b.duration() / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := b.closedLoop(half, 2, b.plain)
	runtime.ReadMemStats(&m1)
	plainDone := float64(completed(plain.samples))

	tr := newTracer()
	lp := b.closedLoop(half, 3, b.traced(tr))
	b.checkReads(lp.samples, 3, b.w.isolatedWrites)
	b.checkSample(lp.samples, 5, func(s sample) string { return b.sequentialFidelity(s.s) })
	b.waitCompaction()
	compactionWait := b.compactionWait
	b.checkWrites()
	if b.srv == nil {
		if err := b.wireProbe(tr); err != nil {
			b.fail("wire probe: %v", err)
		}
	}
	b.checkSplits(tr)
	var builds []float64
	if t, err := b.db.Catalog().Table(b.w.bigTable); err == nil {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			colstore.Build(t.Heap, t.Version())
			builds = append(builds, ms(time.Since(t0)))
		}
	}
	heapPages := 0
	for _, t := range b.userTables() {
		heapPages += t.Heap.Pages()
	}
	hits, misses := 0, 0
	if b.srv != nil {
		_, hits, misses = b.srv.StmtCacheStats()
	}
	b.rec.SpanFile = filepath.Join(b.cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := tr.write(b.rec.SpanFile); err != nil {
		b.fail("writing spans: %v", err)
	}

	q := float64(tr.queries)
	st := tr.stats
	tracedDone := float64(completed(lp.samples))
	out := map[string]metric{
		"parser.parse_us":                    {medianUS(tr.durations(spanParse)), "us"},
		"planner.plan_us":                    {medianUS(tr.durations(spanPlan)), "us"},
		"optimizer.optimize_us":              {medianUS(tr.durations(spanOptimize)), "us"},
		"engine.self_us":                     {median(tr.selfUS), "us"},
		"exec.run_ms":                        {medianUS(tr.durations(spanExec)) / 1000, "ms"},
		"exec.rows_scanned_per_result_row":   {ratio(float64(st.RowsScanned), float64(tr.rows)), "ratio"},
		"exec.tuples_materialized_per_query": {ratio(float64(st.TuplesMaterialized), q), "count"},
		"exec.cells_materialized_per_query":  {ratio(float64(st.CellsMaterialized), q), "count"},
		"exec.prefer_evals_per_query":        {ratio(float64(st.PreferEvals), q), "count"},
		"exec.score_evals_per_query":         {ratio(float64(st.ScoreEvals), q), "count"},
		"exec.join_probe_batches_per_query":  {ratio(float64(st.JoinProbeBatches), q), "count"},
		"exec.batches_per_query":             {ratio(float64(st.Batches), q), "count"},
		"exec.col_batches_per_query":         {ratio(float64(st.ColBatches), q), "count"},
		"exec.rows_materialized_ratio":       {ratio(float64(st.RowsMaterialized), float64(st.RowsScanned)), "ratio"},
		"exec.cache_hit_ratio":               {ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), "ratio"},
		"exec.score_cache_split_ratio":       {ratio(float64(len(tr.split)), q), "ratio"},
		"exec.index_probes_per_query":        {ratio(float64(st.IndexProbes), q), "count"},
		"colstore.segments_skipped_ratio":    {ratio(float64(st.SegmentsSkipped), float64(st.SegmentsScanned+st.SegmentsSkipped)), "ratio"},
		"colstore.build_ms":                  {median(builds), "ms"},
		"catalog.insert_us":                  {medianUS(tr.durations(spanInsert)), "us"},
		"catalog.compaction_wait_ms":         {ms(compactionWait), "ms"},
		"storage.heap_pages":                 {float64(heapPages), "count"},
		"wire.roundtrip_overhead_us":         {median(tr.overheadUS), "us"},
		"wire.encode_ns_per_row":             {ratio(float64(tr.encNS.Nanoseconds()), float64(tr.rows)), "ns"},
		"wire.decode_ns_per_row":             {ratio(float64(tr.decNS.Nanoseconds()), float64(tr.rows)), "ns"},
		"wire.bytes_per_row":                 {ratio(float64(tr.wireBytes), float64(tr.rows)), "bytes"},
		"server.stmt_cache_hit_ratio":        {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"server.refused_ops":                 {float64(refused(lp.samples) + refused(plain.samples)), "count"},
		"runtime.alloc_bytes_per_op":         {ratio(float64(m1.TotalAlloc-m0.TotalAlloc), plainDone), "bytes"},
		"runtime.gc_cycles_per_op":           {ratio(float64(m1.NumGC-m0.NumGC), plainDone), "count"},
		"trace.throughput_ops_s":             {tracedDone / lp.elapsed.Seconds(), "ops/s"},
		"trace.untraced_throughput_ops_s":    {plainDone / plain.elapsed.Seconds(), "ops/s"},
		"trace.replayed_statements":          {q, "count"},
	}
	return out
}

func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// refused counts statements the server turned away at admission.
func refused(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err != nil && (strings.Contains(s.err.Error(), "statement limit") || strings.Contains(s.err.Error(), "memory pool exhausted")) {
			n++
		}
	}
	return n
}

// wireProbe sends a sample of an embedded workload's reads through an
// in-process server, so the wire metrics exist for every workload: each
// template twice, each followed by the embedded replay.
func (b *bench) wireProbe(tr *tracer) error {
	if err := b.startServer(1); err != nil {
		return err
	}
	exec := b.traced(tr)
	r := rand.New(rand.NewSource(b.cfg.seed*7919 + 4))
	for seq := 0; seq < 2*len(b.w.templates); seq++ {
		b.attempted++
		if s := exec(0, b.w.read(r, seq)); s.err != nil {
			b.fail("wire probe: %s: %v", s.s.tmpl, s.err)
		}
	}
	return nil
}
