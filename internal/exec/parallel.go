// Morsel-driven parallel execution (tentpole of the scaling roadmap).
//
// The executor fans the hot pipeline segments — scan → filter → prefer
// chains, the hash-join build and probe sides, and top-k selection —
// across a worker pool that claims morsels from a shared counter. On the
// batch path a σ/λ chain directly over a full-table scan splits storage,
// not rows: each morsel is one sealed columnar segment or one heap page
// range of morselSize rows, read by a per-worker copy of the sequential
// batch chain (parallelScanSegment), so the column store, zone-map pruning and the
// direct-column kernels engage at every worker count. Everywhere else —
// index access paths, non-scan leaves, the row path — the input is
// drained once and split into fixed-size row morsels (morselSegment).
// Three invariants keep the parallel mode indistinguishable from the
// sequential one:
//
//  1. Determinism: results are merged in morsel-index order (scan units
//     are numbered in storage order), the hash-join build partitions
//     insert rows in global row order, and the parallel top-k breaks
//     ranking ties by input position, so output rows and their order do
//     not depend on scheduling.
//  2. Exact stats: each worker accumulates a private Stats that is merged
//     once when the pipeline ends, so counters stay exact without per-row
//     atomics, and the score caches of parallel workers share one
//     query-wide table per prefer (workerMemos), so each key is a miss
//     once. (The diagnostic Batches counter reflects block sizing and is
//     excluded from the worker-count identity.)
//  3. Identical per-row code: workers execute the same kernels and
//     iterators over their morsels that the sequential path uses, so
//     Workers=1 and Workers=N produce byte-identical rows.
//
// Compiled expressions (expr.Compiled) are immutable after compilation and
// are shared read-only by all workers; a prefer operator's R_P in-place
// update writes only the per-row ⟨S,C⟩ copy flowing through the pipeline,
// never shared state, so prefer semantics are unaffected by partitioning.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
)

// morselSize is the number of rows per scheduling unit (per heap page
// range of a parallel scan). Small enough that a skewed filter still
// load-balances, large enough that the per-morsel goroutine handoff is
// amortized over hundreds of rows. Inputs of at most one morsel stay on
// the sequential path.
const morselSize = 512

// workerCount resolves the configured pool width: Workers if positive,
// GOMAXPROCS otherwise.
func (e *Executor) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelOK reports whether the current pipeline may fan out. Under a
// Limit the consumer can stop pulling early, so eager parallel evaluation
// would inflate PreferEvals relative to the sequential path; blocking
// operators below a Limit re-enable parallelism because they exhaust
// their inputs regardless (drain resets the depth).
func (e *Executor) parallelOK() bool {
	return e.workerCount() > 1 && e.limitDepth == 0
}

// segOp is one per-row stage of an extracted pipeline segment: either a
// filter (σ) or a prefer (λ) with its compiled conditional and scoring
// parts. Compiled expressions are read-only and shared by all workers.
type segOp struct {
	filter *expr.Compiled // non-nil for σ

	cond  *expr.Compiled // prefer conditional part
	score *expr.Compiled // prefer scoring part
	conf  float64
	// cache marks a prefer whose ⟨S,C⟩ contributions are memoized; each
	// worker gets a private scoreMemo for it (no lock contention), built
	// from p (the preference identifies the shared level-2 dictionary).
	cache bool
	p     pref.Preference
}

// collectChain walks the maximal σ/λ chain rooted at n, returning the
// chain nodes (outermost first) and the leaf below them. Shared by the
// morsel-parallel segment extraction here and the fused vectorized
// segment in batch.go.
func collectChain(n algebra.Node) ([]algebra.Node, algebra.Node) {
	var chain []algebra.Node
	cur := n
	for {
		switch x := cur.(type) {
		case *algebra.Select:
			chain = append(chain, x)
			cur = x.Input
		case *algebra.Prefer:
			chain = append(chain, x)
			cur = x.Input
		default:
			return chain, cur
		}
	}
}

// compileSegOps compiles a collected σ/λ chain against s into per-row
// segment ops, innermost-first (matching sequential build order, including
// its error wrapping).
func (e *Executor) compileSegOps(chain []algebra.Node, s *schema.Schema) ([]segOp, error) {
	ops := make([]segOp, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		switch x := chain[i].(type) {
		case *algebra.Select:
			cond, cErr := expr.CompileCondition(x.Cond, s, e.Funcs)
			if cErr != nil {
				return nil, cErr
			}
			ops = append(ops, segOp{filter: cond})
		case *algebra.Prefer:
			if vErr := x.P.Validate(); vErr != nil {
				return nil, vErr
			}
			cond, cErr := expr.CompileCondition(x.P.Cond, s, e.Funcs)
			if cErr != nil {
				return nil, fmt.Errorf("prefer %s (conditional part): %w", x.P.Label(), cErr)
			}
			score, sErr := expr.Compile(x.P.Score, s, e.Funcs)
			if sErr != nil {
				return nil, fmt.Errorf("prefer %s (scoring part): %w", x.P.Label(), sErr)
			}
			ops = append(ops, segOp{cond: cond, score: score, conf: x.P.Conf, cache: e.scoreCacheOn(x), p: x.P})
		}
	}
	return ops, nil
}

// trySegment extracts a maximal σ/λ chain rooted at n, builds its leaf
// with the sequential row machinery (preserving index access-path
// selection), and evaluates the chain morsel-parallel over the
// materialized leaf: the parallel chain of the row path, and of the batch
// path over leaves other than a scan. It reports handled=false when the
// node should take the sequential path.
func (e *Executor) trySegment(n algebra.Node) (iter, *schema.Schema, bool, error) {
	if !e.parallelOK() {
		return nil, nil, false, nil
	}
	chain, cur := collectChain(n)

	// Build the leaf exactly as the sequential build would: a select
	// directly over a scan keeps its shot at an index access path.
	var base iter
	var s *schema.Schema
	var err error
	switch leaf := cur.(type) {
	case *algebra.Scan:
		var conjuncts []expr.Node
		if sel, ok := chain[len(chain)-1].(*algebra.Select); ok {
			conjuncts = expr.Conjuncts(sel.Cond)
			chain = chain[:len(chain)-1]
		}
		base, s, err = e.buildScan(leaf, conjuncts)
	case *algebra.Values:
		base, s = &sliceIter{rows: leaf.Rel.Rows}, leaf.Rel.Schema
	case nil:
		return nil, nil, false, fmt.Errorf("exec: nil plan node")
	default:
		base, s, err = e.build(leaf)
	}
	if err != nil {
		return nil, nil, true, err
	}

	ops, err := e.compileSegOps(chain, s)
	if err != nil {
		return nil, nil, true, err
	}
	return e.morselSegment(base, ops, s), s, true, nil
}

// morselSegment drains base and evaluates the compiled chain over it
// morsel-parallel: the drain-then-split path of trySegment and of the
// batch build's index access paths (whose workers run the batch kernel
// per morsel).
func (e *Executor) morselSegment(base iter, ops []segOp, s *schema.Schema) iter {
	rows := drainIter(base)
	if len(rows) <= morselSize {
		return e.segmentIter(rows, ops, e.segMemos(ops, s, nil), &e.stats)
	}
	// Per-worker memos: worker w lazily builds its own on its first morsel
	// and reuses it across every morsel it claims (see workerMemos).
	// memos[w] is touched only by worker w (no races).
	newMemos := e.workerMemos(ops, s)
	memos := make([][]*scoreMemo, e.workerCount())
	started := make([]bool, e.workerCount())
	memosOf := func(w int) []*scoreMemo {
		if !started[w] {
			memos[w], started[w] = newMemos(), true
		}
		return memos[w]
	}
	var apply func(morsel []prel.Row, stats *Stats, w int) []prel.Row
	if e.batchOK() {
		// Vectorized morsel kernel: each worker reuses one private batch,
		// treating every claimed morsel as a whole batch. Per-row semantics
		// (and hence Stats) match segmentIter exactly — see applySegOps.
		bufs := make([]*prel.Batch, e.workerCount())
		scrs := make([]segScratch, e.workerCount())
		apply = func(morsel []prel.Row, stats *Stats, w int) []prel.Row {
			if bufs[w] == nil {
				bufs[w] = prel.NewBatch(morselSize)
			}
			b := bufs[w]
			b.FillRows(morsel)
			stats.Batches++
			applySegOps(b, ops, memosOf(w), e.Agg, stats, &scrs[w])
			return b.AppendRows(nil)
		}
	} else {
		apply = func(morsel []prel.Row, stats *Stats, w int) []prel.Row {
			return drainIter(e.segmentIter(morsel, ops, memosOf(w), stats))
		}
	}
	return &sliceIter{rows: e.runMorsels(rows, apply)}
}

// parallelScanSegment evaluates a σ/λ chain over a scan leaf whose access
// path scanAccess already resolved (acc, residual), with multiple workers.
// Following morsel-driven execution (HyPer, Leis et al. SIGMOD 2014), the
// unit of parallel work for a full-table access is a sealed segment or a
// heap page range, never a drained row slice: each worker builds the
// sequential batch chain — a fullScan source, the residual filterBatch,
// the fused segBatchIter — once, with a private Stats, memo, batch buffer
// and scratch, and re-bounds its source to every unit it claims. So the
// column store, zone-map pruning and the direct-column kernels engage at
// every worker count. Survivors concatenate in unit order (the sequential
// row order).
//
// A full-table access of at most one unit reports handled=false: the
// caller builds the sequential fused chain over the same access. An index
// access path keeps the drain-then-split morsel path (its probe already
// ran, and was counted, in scanAccess).
func (e *Executor) parallelScanSegment(scan *algebra.Scan, conjuncts []expr.Node, acc iter, residual *expr.Compiled, chain []algebra.Node, s *schema.Schema) (batchIter, bool, error) {
	h, full := acc.(*heapScanIter)
	var fs fullScan
	var units []scanUnit
	if full {
		var err error
		if fs, err = e.newFullScan(scan, conjuncts, h.heap, s); err != nil {
			return nil, true, err
		}
		if units = fs.units(); len(units) <= 1 {
			return nil, false, nil
		}
	}
	ops, err := e.compileSegOps(chain, s)
	if err != nil {
		return nil, true, err
	}
	if !full {
		if residual != nil {
			acc = &filterIter{in: acc, cond: residual, tick: pollTick{g: e.gd}}
		}
		return e.asBatchIter(e.morselSegment(acc, ops, s)), true, nil
	}

	newMemos := e.workerMemos(ops, s)
	size := e.batchSize()
	srcs := make([]unitSrc, e.workerCount())
	chains := make([]batchIter, e.workerCount())
	rows := e.runUnits(len(units), func(u int, stats *Stats, w int) []prel.Row {
		if srcs[w] == nil {
			tick := pollTick{g: e.gd}
			srcs[w] = fs.source(units[u], stats, tick, size)
			var bi batchIter = srcs[w]
			if residual != nil {
				bi = &filterBatch{in: bi, cond: residual, stats: stats, tick: tick}
			}
			if len(ops) > 0 {
				bi = &segBatchIter{in: bi, ops: ops, memos: newMemos(), agg: e.Agg, stats: stats, tick: tick}
			}
			chains[w] = bi
		} else {
			srcs[w].rewind(units[u])
		}
		// Drain as drainPipeline would, counting the same diagnostics.
		var out []prel.Row
		for {
			b, ok := chains[w].nextBatch()
			if !ok {
				return out
			}
			stats.Batches++
			if b.Columnar() {
				stats.RowsMaterialized += b.Live()
			}
			out = b.AppendRows(out)
		}
	})
	return newSliceBatchSrc(rows, size), true, nil
}

// units splits the scan into the morsels of a parallel scan: each sealed
// segment when the column store serves it, then heap page ranges of
// morselSize rows — the heap tail from SealedPages, or every page when
// the scan reads the heap.
func (fs fullScan) units() []scanUnit {
	const pages = max(1, morselSize/storage.PageSize)
	var units []scanUnit
	first := 0
	if fs.store != nil {
		for i := range fs.store.Segments {
			units = append(units, scanUnit{seg: i, segEnd: i + 1})
		}
		first = fs.store.SealedPages
	}
	for p, n := first, fs.heap.Blocks(); p < n; p += pages {
		units = append(units, scanUnit{page: p, pageEnd: min(p+pages, n)})
	}
	return units
}

// segMemos builds the scoreMemo slice (aligned with ops; nil for filters
// and uncached prefers) for one owner — the sequential pipeline, or one
// parallel worker fronting the query-wide tables in shared (see
// workerMemos). Returns nil when no op caches.
func (e *Executor) segMemos(ops []segOp, s *schema.Schema, shared []*sharedMemo) []*scoreMemo {
	var memos []*scoreMemo
	for i, op := range ops {
		if !op.cache {
			continue
		}
		if memos == nil {
			memos = make([]*scoreMemo, len(ops))
		}
		memos[i] = e.newScoreMemo(op.cond, op.score, op.p, s)
		if shared != nil {
			memos[i].shared = shared[i]
		}
	}
	return memos
}

// workerMemos returns the memo constructor for the workers of one
// parallel segment: every worker gets private level-1 memos, and the
// memos of one cached prefer front a single query-wide sharedMemo, so
// each key is computed (and counted as a miss) once per query at any
// worker count.
func (e *Executor) workerMemos(ops []segOp, s *schema.Schema) func() []*scoreMemo {
	var shared []*sharedMemo
	for i, op := range ops {
		if !op.cache {
			continue
		}
		if shared == nil {
			shared = make([]*sharedMemo, len(ops))
		}
		shared[i] = &sharedMemo{}
	}
	return func() []*scoreMemo { return e.segMemos(ops, s, shared) }
}

// segmentIter chains the sequential per-row iterators over a row slice;
// the parallel path runs it per morsel with a worker-private Stats and
// memo shard, so per-row behavior is identical at every worker count.
func (e *Executor) segmentIter(rows []prel.Row, ops []segOp, memos []*scoreMemo, stats *Stats) iter {
	var it iter = &sliceIter{rows: rows}
	for i, op := range ops {
		if op.filter != nil {
			it = &filterIter{in: it, cond: op.filter, tick: pollTick{g: e.gd}}
		} else {
			pi := &preferIter{in: it, cond: op.cond, score: op.score, conf: op.conf, agg: e.Agg, stats: stats, tick: pollTick{g: e.gd}}
			if memos != nil {
				pi.memo = memos[i]
			}
			it = pi
		}
	}
	return it
}

// workerStats pads each worker's counters to a cache line so per-row
// increments on neighbouring workers do not false-share.
type workerStats struct {
	Stats
	_ [64]byte
}

// runMorsels fans rows out over the worker pool in morselSize chunks
// (see runUnits).
func (e *Executor) runMorsels(rows []prel.Row, apply func(morsel []prel.Row, stats *Stats, worker int) []prel.Row) []prel.Row {
	return e.runMorselsIdx(len(rows), func(lo, hi int, stats *Stats, w int) []prel.Row {
		return apply(rows[lo:hi:hi], stats, w)
	})
}

// runMorselsIdx is runMorsels over an index space: apply sees the global
// [lo, hi) range instead of a row slice, so callers can address per-row
// side arrays — the hash-join probe's precomputed key hashes — by global
// offset alongside the rows themselves.
func (e *Executor) runMorselsIdx(n int, apply func(lo, hi int, stats *Stats, worker int) []prel.Row) []prel.Row {
	return e.runUnits((n+morselSize-1)/morselSize, func(m int, stats *Stats, w int) []prel.Row {
		lo := m * morselSize
		return apply(lo, min(lo+morselSize, n), stats, w)
	})
}

// runUnits fans units 0..units-1 out over the worker pool. Workers claim
// unit indices from a shared counter (work stealing over a global queue);
// results land in a per-unit slot and are concatenated in unit order, so
// the output order is that of the input. Worker-local stats are merged
// once at the end.
//
// Cancellation: each worker re-checks the lifecycle guard before claiming
// a unit and stops claiming once the query tripped, so the pool drains
// within one unit of a cancellation; wg.Wait always joins every worker,
// so no goroutine outlives the call.
func (e *Executor) runUnits(units int, apply func(unit int, stats *Stats, worker int) []prel.Row) []prel.Row {
	workers := min(e.workerCount(), units)
	outs := make([][]prel.Row, units)
	locals := make([]workerStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				// poll (not just stopped): per-unit iterators are too
				// short-lived for their own amortized ticks to fire, so the
				// claim loop is where parallel workers observe cancellation.
				if e.gd.poll() != nil {
					return
				}
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				outs[u] = apply(u, &locals[w].Stats, w)
			}
		}(w)
	}
	wg.Wait()
	for i := range locals {
		e.stats.Add(locals[i].Stats)
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]prel.Row, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// parallelFor splits [0, n) into contiguous chunks across the pool.
func parallelFor(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelHashJoinIter executes the extended hash join ⋈_{φ,F} with a
// partitioned parallel build and a morsel-parallel probe over the shared
// read-only partition tables. Each build partition owns the keys with
// hash ≡ partition (mod P) and inserts its rows in global row order, so
// every per-key candidate list — and therefore the probe output — is
// identical to the sequential hashJoinIter's.
//
// On the batch path the sides arrive as batch iterators (leftB/rightB)
// instead of row iterators: the drain then computes each row's key hash
// with the vector kernel (expr.HashCols) while the window is still live,
// one batch at a time, and the partitioned build and morsel probe consume
// the precomputed hashes by global row offset (runMorselsIdx) — the same
// buckets and the same order, with per-row tuple hashing gone.
type parallelHashJoinIter struct {
	e             *Executor
	left, right   iter      // row-path sources (batch mode off)
	leftB, rightB batchIter // batch-path sources (set instead of left/right)
	eqL, eqR      []int

	built bool
	out   []prel.Row
	pos   int
}

func (p *parallelHashJoinIter) next() (prel.Row, bool) {
	if !p.built {
		p.run()
		p.built = true
	}
	if p.pos >= len(p.out) {
		return prel.Row{}, false
	}
	r := p.out[p.pos]
	p.pos++
	return r, true
}

// drainSide buffers one join side from its batch source, computing each
// row's key hash with the vector kernel (expr.HashCols) while the batch's
// column windows are still live. The buffered rows are the batch's row
// views — stable, store-owned storage — never the windows themselves (the
// build-side borrow contract). Batches whose key columns lack typed
// vectors fall back to tuple hashing; for the probe side, direct[i]
// records which rows were hashed off the vectors, so the probe can count
// only their matches as late materialization (fallback columnar rows were
// already fully touched — and counted — here).
func (p *parallelHashJoinIter) drainSide(in batchIter, keys []int, probe bool) (rows []prel.Row, hashes []uint64, direct []bool) {
	stats := &p.e.stats
	var ks expr.KeyScratch
	var hbuf []uint64
	for {
		b, ok := in.nextBatch()
		if !ok {
			break
		}
		if probe {
			stats.JoinProbeBatches++
		}
		n := len(b.Sel)
		if cap(hbuf) < n {
			hbuf = make([]uint64, n)
		}
		hb := hbuf[:n]
		isDirect := b.Columnar() && expr.HashCols(b.Cols, b.Sel, keys, hb, &ks)
		if !isDirect {
			rs := b.Rows()
			if b.Columnar() {
				stats.RowsMaterialized += n
			}
			for k, j := range b.Sel {
				hb[k] = hashCols(rs[j], keys)
			}
		} else if !probe {
			// Build rows are retained as the join's buffered state: the
			// whole side crosses the materialization boundary here.
			stats.RowsMaterialized += n
		}
		hashes = append(hashes, hb...)
		if probe {
			for i := 0; i < n; i++ {
				direct = append(direct, isDirect)
			}
		}
		rows = b.AppendRows(rows)
	}
	return rows, hashes, direct
}

func (p *parallelHashJoinIter) run() {
	var lRows, rRows []prel.Row
	var lHashes, rHashes []uint64
	var rDirect []bool
	if p.leftB != nil {
		lRows, lHashes, _ = p.drainSide(p.leftB, p.eqL, false)
		rRows, rHashes, rDirect = p.drainSide(p.rightB, p.eqR, true)
	} else {
		lRows = drainIter(p.left)
		rRows = drainIter(p.right)
	}
	if len(lRows) <= morselSize && len(rRows) <= morselSize {
		seq := newHashJoinIter(&sliceIter{rows: lRows}, &sliceIter{rows: rRows},
			0, p.eqL, p.eqR, p.e.Agg, &p.e.stats, p.e.gd)
		p.out = drainIter(seq)
		return
	}
	parts := uint64(p.e.workerCount())

	// The build side is buffered state: charge it against the query's
	// budgets once (the sequential hash join meters the same total).
	if g := p.e.gd; g != nil && len(lRows) > 0 {
		_ = g.add(len(lRows), len(lRows)*(len(lRows[0].Tuple)+2))
	}
	if p.e.gd.stopped() {
		return
	}

	// Hash every build row once, morsel-parallel — unless the batch drain
	// already hashed them off the column vectors.
	hashes := lHashes
	if hashes == nil {
		hashes = make([]uint64, len(lRows))
		parallelFor(int(parts), len(lRows), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hashes[i] = hashCols(lRows[i].Tuple, p.eqL)
			}
		})
	}

	// Partitioned build: one goroutine per partition, inserting in global
	// row order; each partition polls the guard amortized so a mid-build
	// cancellation drains the pool within one poll interval.
	tables := make([]map[uint64][]prel.Row, parts)
	var wg sync.WaitGroup
	for j := uint64(0); j < parts; j++ {
		wg.Add(1)
		go func(j uint64) {
			defer wg.Done()
			tick := pollTick{g: p.e.gd}
			t := map[uint64][]prel.Row{}
			for i, h := range hashes {
				if tick.stop() {
					return
				}
				if h%parts == j {
					t[h] = append(t[h], lRows[i])
				}
			}
			tables[j] = t
		}(j)
	}
	wg.Wait()
	if p.e.gd.stopped() {
		return
	}
	for _, t := range tables {
		debugCheckJoinTable(t, p.eqL)
	}

	// Morsel-parallel probe against the shared read-only tables; ordered
	// merge restores the sequential probe order. With precomputed vector
	// hashes the probe addresses them by global offset, and a direct-hashed
	// probe row counts as materialized only when it joins.
	p.out = p.e.runMorselsIdx(len(rRows), func(lo, hi int, stats *Stats, _ int) []prel.Row {
		var out []prel.Row
		for i := lo; i < hi; i++ {
			rRow := rRows[i]
			var key uint64
			if rHashes != nil {
				key = rHashes[i]
			} else {
				key = hashCols(rRow.Tuple, p.eqR)
			}
			matched := false
			for _, lRow := range tables[key%parts][key] {
				if equalOn(lRow.Tuple, rRow.Tuple, p.eqL, p.eqR) {
					out = append(out, combineRows(lRow, rRow, p.e.Agg))
					matched = true
				}
			}
			if matched && rDirect != nil && rDirect[i] {
				stats.RowsMaterialized++
			}
		}
		return out
	})
}

// parallelTopK selects the k best rows with per-worker bounded heaps over
// contiguous partitions, merged by prel.MergeTopK. Ranking ties break by
// input position, so the selection matches the sequential bounded heap
// (which keeps the earliest-seen rows at the k boundary).
func (e *Executor) parallelTopK(rows []prel.Row, k int, byConf bool) []prel.Row {
	workers := e.workerCount()
	chunk := (len(rows) + workers - 1) / workers
	if chunk < morselSize {
		chunk = morselSize
	}
	nParts := (len(rows) + chunk - 1) / chunk
	parts := make([][]prel.SeqRow, nParts)
	var wg sync.WaitGroup
	for i := 0; i < nParts; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(rows))
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			parts[i] = prel.TopKSeq(rows[lo:hi], lo, k, byConf)
		}(i, lo, hi)
	}
	wg.Wait()
	return prel.MergeTopK(parts, k, byConf)
}
