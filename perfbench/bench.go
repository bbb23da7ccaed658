package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prefdb"
	"prefdb/internal/catalog"
	"prefdb/internal/planner"
	"prefdb/internal/server"
	"prefdb/internal/types"
)

// setupRepeats is how often an end-to-end run sets the workload up;
// setup_s is the median.
const setupRepeats = 3

// bench holds one run: the workload instance under test and what the run
// has seen so far.
type bench struct {
	cfg config
	w   *workload
	rec *runRecord
	ctx context.Context

	db  *prefdb.DB
	srv *server.Server
	// sessions are the closed-loop clients: one embedded session, or one
	// wire connection per client for serve.
	sessions []prefdb.Session
	// embedded is a default-configuration session on db for the checks.
	embedded prefdb.Session
	// dml keeps writes from overlapping queries: the catalog requires
	// that DML not run concurrently with queries (catalog.Table.Stats,
	// ColStore), and neither the engine nor the server serializes the
	// two, so the clients do, as an application on this engine must.
	// Latencies include the wait for it.
	dml sync.RWMutex
	// ledger holds every acknowledged write: table → key → column →
	// expected value. Guarded by dml (written under its write lock).
	ledger  map[string]map[int64]map[string]prefdb.Value
	writeID atomic.Int64

	compactionWait time.Duration
	// shadows maps a written table to its traced-run copy (see trace.go).
	shadows map[string]*catalog.Table
	served  chan struct{}

	planner *planner.Planner

	attempted int
	failMu    sync.Mutex
	failed    int      // prefdb:guarded-by failMu
	failures  []string // prefdb:guarded-by failMu
}

func newBench(cfg config, w *workload) *bench {
	return &bench{cfg: cfg, w: w, rec: newRecord(cfg), ctx: context.Background(),
		ledger: map[string]map[int64]map[string]prefdb.Value{}}
}

func (b *bench) fail(format string, args ...any) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	b.failed++
	b.rec.FailureCounts[format]++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// setup loads the data, drains background compaction, starts the server
// and its connections for serve, and warms every template up. It replaces
// any earlier instance.
func (b *bench) setup() error {
	db := prefdb.Open()
	if err := b.w.load(db, b.cfg.seed); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	b.db = db
	b.planner = planner.New(db.Catalog())
	b.waitCompaction()
	b.embedded = prefdb.NewSession(db)
	if b.cfg.trace {
		if err := b.makeShadows(); err != nil {
			return err
		}
	}
	b.sessions = []prefdb.Session{b.embedded}
	if b.w.clients > 0 {
		if err := b.startServer(b.w.clients); err != nil {
			return err
		}
	}
	// Warm-up: two statements of every template on every client, so
	// table statistics are analyzed and caches hold what a running
	// application's would.
	r := rand.New(rand.NewSource(b.cfg.seed ^ 0x5eed))
	for c, sess := range b.sessions {
		for seq := 0; seq < 2*len(b.w.templates); seq++ {
			s := b.w.read(r, seq)
			if _, err := run(b.ctx, sess, s); err != nil {
				return fmt.Errorf("warm-up on client %d: %s: %w", c, s.tmpl, err)
			}
		}
	}
	return nil
}

// startServer serves db on loopback with default server options and
// replaces the clients with that many wire connections.
func (b *bench) startServer(clients int) error {
	b.srv = server.New(b.db, server.Options{})
	if err := b.srv.Listen(); err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.srv.Serve() // returns once teardown closes the server
	}()
	b.sessions = nil
	for i := 0; i < clients; i++ {
		s, err := prefdb.Dial(b.srv.Addr().String())
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		b.sessions = append(b.sessions, s)
	}
	return nil
}

func (b *bench) waitCompaction() {
	t0 := time.Now()
	for _, name := range b.db.Catalog().Tables() {
		if t, err := b.db.Catalog().Table(name); err == nil {
			t.WaitCompaction()
		}
	}
	b.compactionWait += time.Since(t0)
}

func (b *bench) teardown() {
	for _, s := range b.sessions {
		if s != b.embedded {
			s.Close()
		}
	}
	if b.srv != nil {
		b.srv.Close()
		<-b.served
	}
	b.sessions, b.srv, b.db, b.embedded, b.shadows = nil, nil, nil, nil, nil
	b.compactionWait = 0
	runtime.GC()
}

// run executes one statement on a session.
func run(ctx context.Context, sess prefdb.Session, s stmt) (*prefdb.Result, error) {
	switch {
	case s.w != nil:
		return sess.ExecContext(ctx, s.sql)
	case s.prepared:
		p, err := sess.Prepare(s.sql)
		if err != nil {
			return nil, err
		}
		res, err := p.RunContext(ctx)
		if cErr := p.Close(); err == nil && cErr != nil {
			return nil, cErr
		}
		return res, err
	default:
		return sess.QueryContext(ctx, s.sql)
	}
}

// sample is one statement of the closed loop.
type sample struct {
	s    stmt
	dur  time.Duration
	path path
	err  error
}

// execFn runs one statement for a client and times it.
type execFn func(client int, s stmt) sample

// plain runs a statement as the application would. Its time includes
// any wait for the dml lock, as the client sees it.
func (b *bench) plain(client int, s stmt) sample {
	t0 := time.Now()
	defer b.lockDML(s)()
	res, err := run(b.ctx, b.sessions[client], s)
	out := sample{s: s, dur: time.Since(t0), err: err}
	if err == nil {
		out.path = pathOf(res.Stats)
		b.acknowledge(s)
	}
	return out
}

// lockDML takes the dml lock a statement needs, exclusive for writes and
// shared for reads, and returns its release.
func (b *bench) lockDML(s stmt) func() {
	if s.w != nil {
		b.dml.Lock()
		return b.dml.Unlock
	}
	b.dml.RLock()
	return b.dml.RUnlock
}

// acknowledge enters a completed write in the ledger; callers hold the
// dml write lock, which orders acknowledgments.
func (b *bench) acknowledge(s stmt) {
	if s.w == nil {
		return
	}
	rows := b.ledger[s.w.table]
	if rows == nil {
		rows = map[int64]map[string]prefdb.Value{}
		b.ledger[s.w.table] = rows
	}
	row := rows[s.w.id]
	if row == nil {
		row = map[string]prefdb.Value{}
		rows[s.w.id] = row
	}
	for i, c := range s.w.cols {
		row[c] = s.w.vals[i]
	}
}

// loop is what one closed-loop phase measured.
type loop struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
}

// closedLoop runs every client for d: each sends its next statement only
// after the previous reply. salt separates the statement streams of
// different phases of one run.
func (b *bench) closedLoop(d time.Duration, salt int64, exec execFn) loop {
	per := make([][]sample, len(b.sessions))
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range b.sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(b.cfg.seed*7919 + salt*131 + int64(c)))
			reads := 0
			for i := 1; time.Now().Before(deadline); i++ {
				var s stmt
				if i%b.w.writeEvery == 0 {
					s = b.w.write(r, b.writeID.Add(1))
				} else {
					s = b.w.read(r, reads)
					reads++
				}
				per[c] = append(per[c], exec(c, s))
			}
		}(c)
	}
	wg.Wait()
	out := loop{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, ss := range per {
		out.samples = append(out.samples, ss...)
	}
	b.count(out.samples)
	return out
}

func (b *bench) count(samples []sample) {
	b.attempted += len(samples)
	for _, s := range samples {
		if s.err != nil {
			b.fail("%s: %v", label(s.s), s.err)
		}
	}
}

func label(s stmt) string {
	if s.w != nil {
		return "write to " + s.w.table
	}
	return s.tmpl
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live Go heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// userTables lists the workload's tables, without traced-run shadows.
func (b *bench) userTables() []*catalog.Table {
	var out []*catalog.Table
	for _, name := range b.db.Catalog().Tables() {
		t, err := b.db.Catalog().Table(name)
		if err == nil && !strings.HasSuffix(name, shadowSuffix) {
			out = append(out, t)
		}
	}
	return out
}

// rawBytes sums the bytes of every stored value: 8 per number, the
// length of each string, 1 per bool.
func rawBytes(tables []*catalog.Table) int64 {
	var n int64
	for _, t := range tables {
		blocks := t.Heap.Blocks()
		for i := 0; i < blocks; i++ {
			rows, dead, _ := t.Heap.Block(i)
			for j, row := range rows {
				if dead != nil && dead[j] {
					continue
				}
				for _, v := range row {
					switch v.Kind() {
					case types.KindInt, types.KindFloat:
						n += 8
					case types.KindString:
						n += int64(len(v.AsString()))
					case types.KindBool:
						n++
					}
				}
			}
		}
	}
	return n
}

func rowCounts(tables []*catalog.Table) map[string]int {
	out := map[string]int{}
	for _, t := range tables {
		out[t.Name] = t.Len()
	}
	return out
}

// latencies splits samples into per-template read latencies and write
// latencies, in milliseconds, skipping failed statements.
func latencies(samples []sample) (reads map[string][]float64, all, writes []float64) {
	reads = map[string][]float64{}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if s.s.w != nil {
			writes = append(writes, ms(s.dur))
			continue
		}
		reads[s.s.tmpl] = append(reads[s.s.tmpl], ms(s.dur))
		all = append(all, ms(s.dur))
	}
	return reads, all, writes
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
