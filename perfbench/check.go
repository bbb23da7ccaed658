package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"prefdb"
)

// checksPerTemplate is how many read statements of each template the
// output check re-executes.
const checksPerTemplate = 3

// path is the execution path a statement took, from Result.Stats.
type path struct {
	Batches          int `json:"batches"`
	ColBatches       int `json:"col_batches"`
	SegmentsScanned  int `json:"segments_scanned"`
	SegmentsSkipped  int `json:"segments_skipped"`
	IndexProbes      int `json:"index_probes"`
	JoinProbeBatches int `json:"join_probe_batches"`
}

func pathOf(s prefdb.Stats) path {
	return path{s.Batches, s.ColBatches, s.SegmentsScanned, s.SegmentsSkipped, s.IndexProbes, s.JoinProbeBatches}
}

// reference is the row-path configuration every checked result must
// match: sequential, row-at-a-time, heap storage, no score cache.
var reference = []prefdb.QueryOption{
	prefdb.WithWorkers(1), prefdb.WithBatch(prefdb.BatchOff),
	prefdb.WithColstore(prefdb.ColstoreOff), prefdb.WithScoreCache(prefdb.CacheOff),
}

// checkReads re-executes a seeded sample of each template's reads outside
// the timed phase and compares rows, their order and ⟨S,C⟩ pairs with the
// reference configuration. sameData says the tables the reads touch have
// not changed since the loop, so the loop's recorded path must repeat;
// otherwise (serve) the wire and embedded runs are each other's repeat.
func (b *bench) checkReads(samples []sample, salt int64, sameData bool) {
	b.checkSample(samples, salt, func(s sample) string { return b.checkOne(s, sameData) })
}

// checkSample applies check to checksPerTemplate reads of each template,
// drawn from the completed samples with a seeded generator; a non-empty
// message fails the run.
func (b *bench) checkSample(samples []sample, salt int64, check func(sample) string) {
	r := rand.New(rand.NewSource(b.cfg.seed*104729 + salt))
	byTmpl := map[string][]sample{}
	for _, s := range samples {
		if s.err == nil && s.s.w == nil {
			byTmpl[s.s.tmpl] = append(byTmpl[s.s.tmpl], s)
		}
	}
	for _, tmpl := range b.w.templates {
		cands := byTmpl[tmpl]
		if len(cands) == 0 {
			b.attempted++
			b.fail("%s: no statement completed in the timed phase", tmpl)
			continue
		}
		for i := 0; i < checksPerTemplate; i++ {
			b.attempted++
			if msg := check(cands[r.Intn(len(cands))]); msg != "" {
				b.fail("%s: %s", tmpl, msg)
			}
		}
	}
}

func (b *bench) checkOne(s sample, sameData bool) string {
	ref, err := b.db.QueryContext(b.ctx, s.s.sql, reference...)
	if err != nil {
		return "reference run: " + err.Error()
	}
	def, err := run(b.ctx, b.embedded, s.s)
	if err != nil {
		return "default run: " + err.Error()
	}
	if msg := sameRows(ref.Rel, def.Rel); msg != "" {
		return "default vs reference: " + msg
	}
	got := pathOf(def.Stats)
	if _, seen := b.rec.Paths[s.s.tmpl]; !seen {
		b.rec.Paths[s.s.tmpl] = got
	}
	if sameData && got != s.path {
		return fmt.Sprintf("path changed on repeat: %+v then %+v", s.path, got)
	}
	if b.w.clients == 0 {
		return ""
	}
	wire, err := run(b.ctx, b.sessions[0], s.s)
	if err != nil {
		return "wire run: " + err.Error()
	}
	if msg := sameRows(def.Rel, wire.Rel); msg != "" {
		return "wire vs embedded: " + msg
	}
	if p := pathOf(wire.Stats); p != got {
		return fmt.Sprintf("path differs between wire and embedded runs: %+v vs %+v", p, got)
	}
	return ""
}

// sameRows compares two results row by row: values, order and ⟨S,C⟩.
func sameRows(want, got *prefdb.PRelation) string {
	if want == nil || got == nil {
		return "missing result"
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		w, g := want.Rows[i], got.Rows[i]
		if w.SC != g.SC {
			return fmt.Sprintf("row %d: ⟨S,C⟩ %+v, want %+v", i, g.SC, w.SC)
		}
		if len(w.Tuple) != len(g.Tuple) {
			return fmt.Sprintf("row %d: %d values, want %d", i, len(g.Tuple), len(w.Tuple))
		}
		for j := range w.Tuple {
			if !sameValue(w.Tuple[j], g.Tuple[j]) {
				return fmt.Sprintf("row %d column %d: %v, want %v", i, j, g.Tuple[j], w.Tuple[j])
			}
		}
	}
	return ""
}

func sameValue(a, b prefdb.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

// checkWrites reads back every acknowledged INSERT and UPDATE after the
// timed phase: each key must be present once, holding the last values
// written to it.
func (b *bench) checkWrites() {
	const chunk = 200
	for _, table := range sortedKeys(b.ledger) {
		rows := b.ledger[table]
		t, err := b.db.Catalog().Table(table)
		if err != nil {
			b.fail("write check: %v", err)
			continue
		}
		cols := make([]string, 0, t.Schema().Len())
		for _, c := range t.Schema().Columns {
			cols = append(cols, c.Name)
		}
		key := b.w.writeTargets()[table]
		ids := make([]int64, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for lo := 0; lo < len(ids); lo += chunk {
			part := ids[lo:min(lo+chunk, len(ids))]
			b.attempted += len(part)
			sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s IN (%s)", strings.Join(cols, ", "), table, key, sqlList(part))
			res, err := b.db.QueryContext(b.ctx, sql)
			if err != nil {
				for range part {
					b.fail("write check on %s: %v", table, err)
				}
				continue
			}
			b.compareWritten(table, cols, key, part, rows, res.Rel)
		}
	}
}

func (b *bench) compareWritten(table string, cols []string, key string, ids []int64, rows map[int64]map[string]prefdb.Value, rel *prefdb.PRelation) {
	keyOrd := -1
	for i, c := range cols {
		if c == key {
			keyOrd = i
		}
	}
	found := map[int64]int{}
	for _, row := range rel.Rows {
		id := row.Tuple[keyOrd].AsInt()
		found[id]++
		for i, c := range cols {
			if want, ok := rows[id][c]; ok && !sameValue(want, row.Tuple[i]) {
				b.fail("write check on %s: %s = %d has %s = %v, want %v", table, key, id, c, row.Tuple[i], want)
			}
		}
	}
	for _, id := range ids {
		if found[id] != 1 {
			b.fail("write check on %s: %s = %d read back %d times, want once", table, key, id, found[id])
		}
	}
}

// writeTargets maps each table the workload writes to the key column its
// writes use.
func (w *workload) writeTargets() map[string]string {
	out := map[string]string{}
	r := rand.New(rand.NewSource(1))
	for id := int64(0); id < 3; id++ {
		s := w.write(r, id)
		out[s.w.table] = s.w.key
	}
	return out
}
