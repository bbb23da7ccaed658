package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prefdb"
	"prefdb/internal/catalog"
	"prefdb/internal/exec"
	"prefdb/internal/parser"
	"prefdb/internal/planner"
	"prefdb/internal/prel"
	"prefdb/internal/types"
	"prefdb/internal/wire"
)

// The traced run records spans only from the benchmark's own code. For
// each ad hoc read it calls the layers the engine calls — parser, planner,
// optimizer, executor — with the configuration the engine would resolve,
// then runs the statement through DB.QueryContext and compares Stats and
// rows. A prepared read is replayed the way the server runs it, through
// Prepared.RunContext twice, and both runs are compared. For serve the
// wire round trip is the parent span and the embedded replay right after
// it supplies the split beneath.
//
// Any difference fails the run, with one exception: at the default
// Workers the engine's own Stats are not repeatable in how the score
// cache splits the same lookups into hits, misses and evaluations (each
// parallel worker keeps its own level-1 memo), although DB.Workers
// documents them as identical at every setting. A replay that differs
// only there is counted as that engine defect (score_cache_split in the
// run record, exec.score_cache_split_ratio), and after the timed phase
// its fidelity is proven exactly, on every Stats field, at Workers = 1,
// where the engine is deterministic; a difference there fails the run.

// shadowSuffix names the traced run's copies of written tables: every
// INSERT is repeated into the copy through catalog.Table.Insert, which
// times the catalog layer without a second write to the real table.
const shadowSuffix = "_shadow"

// Span names: one per layer boundary the benchmark calls across.
const (
	spanStatement = "statement"
	spanWire      = "wire.roundtrip"
	spanParse     = "parser.ParseQuery"
	spanPlan      = "planner.Planner.Plan"
	spanOptimize  = "optimizer.Optimizer.OptimizeContext"
	spanExec      = "exec.Executor.RunContext"
	spanEngine    = "engine.DB.QueryContext"
	spanPrepared  = "engine.Prepared.RunContext"
	spanDMLWait   = "client.dml_wait"
	spanInsert    = "catalog.Table.Insert"
)

// span is one timed call. Parent is -1 for a statement's root. A wire
// round trip holds the client's wait for the dml lock; its other children
// are replays that start after it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and per-statement counters in memory until the run
// ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stmts int

	queries int
	stats   prefdb.Stats
	// selfUS is each ad hoc read's QueryContext wall time minus the layer
	// calls that reproduce it; overheadUS is each ad hoc wire round trip,
	// less the client's wait for the dml lock, minus the QueryContext
	// replay.
	selfUS, overheadUS []float64
	encNS, decNS       time.Duration
	// split holds the replayed reads whose Stats differed only in the
	// score cache's split; splitMsgs the first few differences.
	split     []stmt
	splitMsgs []string
	// rows counts the replayed statements' result rows; wireBytes their
	// wire encoding.
	rows, wireBytes int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newStmt() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmts++
	return t.stmts
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, stmt int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Stmt: stmt, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// durations lists the durations of the spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// makeShadows creates an empty copy, with the same schema and indexes, of
// every table the workload writes.
func (b *bench) makeShadows() error {
	b.shadows = map[string]*catalog.Table{}
	cat := b.db.Catalog()
	for _, name := range sortedKeys(b.w.writeTargets()) {
		src, err := cat.Table(name)
		if err != nil {
			return err
		}
		dst, err := cat.CreateTable(name+shadowSuffix, src.Schema())
		if err != nil {
			return err
		}
		for _, c := range src.HashIndexColumns() {
			if err := cat.CreateHashIndex(dst.Name, c); err != nil {
				return err
			}
		}
		for _, c := range src.BTreeIndexColumns() {
			if err := cat.CreateBTreeIndex(dst.Name, c); err != nil {
				return err
			}
		}
		b.shadows[name] = dst
	}
	return nil
}

// traced runs one statement with spans around every layer call.
func (b *bench) traced(tr *tracer) execFn {
	return func(client int, s stmt) sample {
		id := tr.newStmt()
		wired := b.srv != nil
		rootName := spanStatement
		if wired {
			rootName = spanWire
		}
		root := tr.begin(rootName, -1, id)
		wait := tr.begin(spanDMLWait, root, id)
		defer b.lockDML(s)()
		waitDur := tr.end(wait)
		out := sample{s: s}
		var res *prefdb.Result
		// roundTrip is the wire round trip less the wait for the lock.
		var wireDur, roundTrip time.Duration
		if wired || s.w != nil {
			res, out.err = run(b.ctx, b.sessions[client], s)
		}
		if wired {
			wireDur = tr.end(root)
			roundTrip = wireDur - waitDur
		}
		switch {
		case out.err != nil:
		case s.w != nil:
			b.acknowledge(s)
			if sh := b.shadows[s.w.table]; sh != nil && s.w.insert {
				ins := tr.begin(spanInsert, root, id)
				if err := sh.Insert(append([]types.Value(nil), s.w.vals...)); err != nil {
					b.fail("shadow insert: %v", err)
				}
				tr.end(ins)
			}
			out.path = pathOf(res.Stats)
		default:
			res, out.err = b.replay(tr, s, root, id, res, roundTrip)
			if out.err == nil {
				out.path = pathOf(res.Stats)
			}
		}
		if wired {
			out.dur = wireDur
		} else {
			out.dur = tr.end(root)
		}
		return out
	}
}

// replay decomposes a read into its layer calls, runs it through
// DB.QueryContext, and checks that both agree exactly. wireRes and wireDur
// are the wire round trip's result and its time less the dml wait for
// serve; nil and 0 embedded.
func (b *bench) replay(tr *tracer, s stmt, root, id int, wireRes *prefdb.Result, wireDur time.Duration) (*prefdb.Result, error) {
	if s.prepared {
		return b.replayPrepared(tr, s, root, id, wireRes)
	}
	// Which of the two executions runs first alternates, so warm caches
	// favour neither side of engine.self_us.
	var rel *prel.PRelation
	var st prefdb.Stats
	var layers, qDur time.Duration
	var res *prefdb.Result
	var dErr, qErr error
	for i := 0; i < 2; i++ {
		if (i+id)%2 == 0 {
			rel, st, layers, dErr = b.decompose(tr, s.sql, b.db.Workers, root, id)
			continue
		}
		q := tr.begin(spanEngine, root, id)
		res, qErr = b.db.QueryContext(b.ctx, s.sql)
		qDur = tr.end(q)
	}
	if dErr != nil {
		return nil, dErr
	}
	if qErr != nil {
		return nil, qErr
	}
	if msg := sameStats(st, res.Stats); msg != "" {
		if cacheSplitOnly(st, res.Stats) {
			tr.noteSplit(s, "decomposition vs QueryContext: "+msg)
		} else {
			b.fail("%s: traced decomposition Stats differ from QueryContext: %s", s.tmpl, msg)
		}
	}
	if msg := sameRows(res.Rel, rel); msg != "" {
		b.fail("%s: traced decomposition rows differ from QueryContext: %s", s.tmpl, msg)
	}
	shown := res
	if wireRes != nil {
		shown = wireRes
	}
	tr.add(st, shown.Rel)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.selfUS = append(tr.selfUS, us(qDur-layers))
	if wireRes != nil {
		tr.overheadUS = append(tr.overheadUS, us(wireDur-qDur))
	}
	return shown, nil
}

// replayPrepared re-executes a read the server ran from its statement
// cache the way the server runs it: Prepared.RunContext on a statement
// prepared once, with the engine's score dictionaries. Preparing is left
// untimed, so no parser, planner or optimizer span is recorded. A second
// run must repeat the first's Stats and rows exactly.
func (b *bench) replayPrepared(tr *tracer, s stmt, root, id int, wireRes *prefdb.Result) (*prefdb.Result, error) {
	p, err := b.db.Prepare(s.sql)
	if err != nil {
		return nil, err
	}
	var runs [2]*prefdb.Result
	for i := range runs {
		sp := tr.begin(spanPrepared, root, id)
		runs[i], err = p.RunContext(b.ctx)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if msg := sameStats(runs[0].Stats, runs[1].Stats); msg != "" {
		if cacheSplitOnly(runs[0].Stats, runs[1].Stats) {
			tr.noteSplit(s, "two Prepared.RunContext calls: "+msg)
		} else {
			b.fail("%s: Stats differ between two Prepared.RunContext calls: %s", s.tmpl, msg)
		}
	}
	if msg := sameRows(runs[0].Rel, runs[1].Rel); msg != "" {
		b.fail("%s: rows differ between two Prepared.RunContext calls: %s", s.tmpl, msg)
	}
	shown := runs[0]
	if wireRes != nil {
		shown = wireRes
	}
	tr.add(runs[0].Stats, shown.Rel)
	return shown, nil
}

// add counts one replayed read: its Stats, and the rows the client was
// shown, which it encodes and decodes as the wire does.
func (t *tracer) add(st prefdb.Stats, shown *prel.PRelation) {
	enc, dec, n := codec(shown)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	t.stats.Add(st)
	t.encNS += enc
	t.decNS += dec
	t.wireBytes += n
	t.rows += len(shown.Rows)
}

// noteSplit records a replay whose Stats differed only in the score
// cache's split.
func (t *tracer) noteSplit(s stmt, msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.split = append(t.split, s)
	if len(t.splitMsgs) < 5 {
		t.splitMsgs = append(t.splitMsgs, s.tmpl+": "+msg)
	}
}

// splitRecord is the run record's account of the score-cache split
// defect: how many replays showed it, and of those, how many differ again
// between two plain executions through the engine at the default
// configuration, which shows the engine does not repeat itself.
type splitRecord struct {
	Replayed     int      `json:"replayed"`
	Differed     int      `json:"differed"`
	EngineRepeat int      `json:"engine_repeat_differed"`
	Examples     []string `json:"examples,omitempty"`
}

// checkSplits proves, at Workers = 1, the fidelity of every replay that
// differed only in the score cache's split, and counts how many of those
// statements the engine itself does not repeat at the default Workers.
func (b *bench) checkSplits(tr *tracer) {
	rec := &splitRecord{Replayed: tr.queries, Differed: len(tr.split), Examples: tr.splitMsgs}
	for _, s := range tr.split {
		b.attempted++
		if msg := b.sequentialFidelity(s); msg != "" {
			b.fail("%s: %s", s.tmpl, msg)
			continue
		}
		var st [2]prefdb.Stats
		for i := range st {
			res, err := run(b.ctx, b.embedded, s)
			if err != nil {
				b.fail("%s: engine repeat: %v", s.tmpl, err)
				return
			}
			st[i] = res.Stats
		}
		if st[0] != st[1] {
			rec.EngineRepeat++
		}
	}
	b.rec.ScoreCacheSplit = rec
}

// cacheSplitOnly reports whether a and b differ only in how the score
// cache split the same prefer lookups: ScoreEvals, CacheHits and
// CacheMisses, with CacheHits+CacheMisses equal.
func cacheSplitOnly(a, b prefdb.Stats) bool {
	if a.CacheHits+a.CacheMisses != b.CacheHits+b.CacheMisses {
		return false
	}
	a.ScoreEvals, a.CacheHits, a.CacheMisses = b.ScoreEvals, b.CacheHits, b.CacheMisses
	return a == b
}

// sequentialFidelity repeats a read's fidelity check with Workers = 1 on
// both sides, where the engine's Stats are deterministic, and requires
// every Stats field and every row to match: the decomposition against
// DB.QueryContext for an ad hoc read, two Prepared.RunContext calls for a
// prepared one.
func (b *bench) sequentialFidelity(s stmt) string {
	one := prefdb.WithWorkers(1)
	if s.prepared {
		p, err := b.db.Prepare(s.sql)
		if err != nil {
			return err.Error()
		}
		r1, err1 := p.RunContext(b.ctx, one)
		r2, err2 := p.RunContext(b.ctx, one)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("prepared runs: %v, %v", err1, err2)
		}
		if msg := sameStats(r1.Stats, r2.Stats); msg != "" {
			return "Workers=1: Stats differ between two Prepared.RunContext calls: " + msg
		}
		return ""
	}
	rel, st, _, err := b.decompose(newTracer(), s.sql, 1, -1, 0)
	if err != nil {
		return "Workers=1 decomposition: " + err.Error()
	}
	res, err := b.db.QueryContext(b.ctx, s.sql, one)
	if err != nil {
		return "Workers=1 QueryContext: " + err.Error()
	}
	if msg := sameStats(st, res.Stats); msg != "" {
		return "Workers=1: decomposition Stats differ from QueryContext: " + msg
	}
	if msg := sameRows(res.Rel, rel); msg != "" {
		return "Workers=1: decomposition rows differ from QueryContext: " + msg
	}
	return ""
}

// decompose runs a query through the layers DB.QueryContext calls, with
// the configuration a query without options resolves to except for the
// given executor width, and returns the time the layer calls took
// together.
func (b *bench) decompose(tr *tracer, sql string, workers, parent, id int) (*prel.PRelation, prefdb.Stats, time.Duration, error) {
	db := b.db
	if db.Mode != prefdb.ModeGBU || !db.Optimize {
		return nil, prefdb.Stats{}, 0, fmt.Errorf("traced run expects the default GBU mode with the optimizer on")
	}
	var layers time.Duration
	sp := tr.begin(spanParse, parent, id)
	q, err := parser.ParseQuery(sql)
	layers += tr.end(sp)
	if err != nil {
		return nil, prefdb.Stats{}, 0, err
	}
	sp = tr.begin(spanPlan, parent, id)
	plan, err := b.planner.Plan(q)
	layers += tr.end(sp)
	if err != nil {
		return nil, prefdb.Stats{}, 0, err
	}
	sp = tr.begin(spanOptimize, parent, id)
	root, err := db.Optimizer().OptimizeContext(b.ctx, plan.Root)
	layers += tr.end(sp)
	if err != nil {
		return nil, prefdb.Stats{}, 0, err
	}
	sp = tr.begin(spanExec, parent, id)
	ex := exec.New(db.Catalog())
	ex.Agg = plan.Agg
	ex.Workers = workers
	ex.ScoreCache = db.ScoreCache
	ex.Batch = db.Batch
	ex.BatchSize = db.BatchSize
	ex.Colstore = db.Colstore
	rel, err := ex.RunContext(b.ctx, root, exec.GBU)
	layers += tr.end(sp)
	if err != nil {
		return nil, prefdb.Stats{}, 0, err
	}
	rel, err = trim(rel, plan)
	return rel, ex.Stats(), layers, err
}

// trim projects the extended result back to the requested columns, as
// the engine does before returning.
func trim(rel *prel.PRelation, plan *planner.Plan) (*prel.PRelation, error) {
	ords, err := plan.TrimToOutput(rel.Schema)
	if err != nil {
		return nil, err
	}
	out := prel.New(rel.Schema.Project(ords))
	for _, row := range rel.Rows {
		tuple := make([]types.Value, len(ords))
		for i, o := range ords {
			tuple[i] = row.Tuple[o]
		}
		out.Append(prel.Row{Tuple: tuple, SC: row.SC})
	}
	return out, nil
}

// sameStats requires identical Stats.
func sameStats(a, b prefdb.Stats) string {
	if a != b {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}

// codec times wire.Encoder.Row and wire.Decoder.Row over a result's rows.
func codec(rel *prel.PRelation) (enc, dec time.Duration, n int) {
	var e wire.Encoder
	t0 := time.Now()
	for _, r := range rel.Rows {
		e.Row(r)
	}
	enc = time.Since(t0)
	d := wire.NewDecoder(e.Bytes())
	var buf []types.Value
	t0 = time.Now()
	for range rel.Rows {
		_, buf = d.Row(buf)
	}
	return enc, time.Since(t0), len(e.Bytes())
}
