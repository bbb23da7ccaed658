// Columnar scan path: segBatchSrc streams a table's columnar segment
// store (internal/colstore) plus the heap tail into the vectorized
// pipeline, consulting per-segment zone maps to skip whole segments
// against the pushed-down filter conjuncts before any kernel runs.
//
// Two columnar forms exist. ColstoreRows packs live decoded row views
// into ordinary row-form batches (the PR 6 behavior, kept as the
// benchmark baseline). ColstoreOn is the direct-on-column path: each
// batch is one window of one segment carrying borrowed column vectors
// (prel.Batch.Cols) next to the decoded row views, so filter and score
// kernels run on dense typed vectors and tuples are touched only by
// operators that genuinely need rows (the late-materialization
// boundary; see Stats.RowsMaterialized).
package exec

import (
	"fmt"
	"strings"

	"prefdb/internal/colstore"
	"prefdb/internal/prel"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// ColstoreMode selects whether batch scans read the columnar segment
// store (with zone-map pruning) or the row heap, and in which form.
type ColstoreMode uint8

const (
	// ColstoreOff (the zero value) keeps batch scans on the row heap.
	ColstoreOff ColstoreMode = iota
	// ColstoreOn serves batch scans from the table's columnar segments
	// (built lazily, invalidated by DML version counters) plus the heap
	// tail, handing kernels direct column vectors with late
	// materialization. Results, order and Stats — modulo the diagnostic
	// Batches / ColBatches / RowsMaterialized / SegmentsScanned /
	// SegmentsSkipped counters — are identical to the heap path.
	ColstoreOn
	// ColstoreRows serves batch scans from columnar segments but
	// materializes every surviving row view up front (no direct column
	// kernels) — the pre-direct-path behavior, kept as a baseline for
	// the E16 sweep and as a fallback switch.
	ColstoreRows
)

// String implements fmt.Stringer.
func (m ColstoreMode) String() string {
	switch m {
	case ColstoreOn:
		return "on"
	case ColstoreRows:
		return "rows"
	default:
		return "off"
	}
}

// ParseColstoreMode resolves a colstore mode by name.
func ParseColstoreMode(name string) (ColstoreMode, error) {
	switch strings.ToLower(name) {
	case "on":
		return ColstoreOn, nil
	case "rows":
		return ColstoreRows, nil
	case "off":
		return ColstoreOff, nil
	default:
		return 0, fmt.Errorf("exec: unknown colstore mode %q (on, rows, off)", name)
	}
}

// colstoreOK reports whether batch scans may read columnar segments.
func (e *Executor) colstoreOK() bool { return e.Colstore != ColstoreOff }

// colstoreDirect reports whether columnar scans hand out direct column
// vectors (ColstoreOn) rather than pre-packed row views (ColstoreRows).
func (e *Executor) colstoreDirect() bool { return e.Colstore == ColstoreOn }

// segBatchSrc streams a columnar segment store and then the heap tail
// (pages the compaction has not sealed) into a reused batch. Tuples alias
// the store's shared arena-backed row views and the heap's pages — both
// immutable during execution — so the source copies nothing.
//
// Zone-map pruning: a segment whose zones prove the pushed-down conjuncts
// reject every live row is dropped unread. Its live rows are still
// credited to RowsScanned — the counter states which rows the scan
// accounted for, and the pruned rows were (provably) evaluated against the
// filter by metadata alone — so Stats stay byte-identical to the heap
// path; the benefit shows up in wall-clock time and the SegmentsSkipped
// diagnostic counter.
//
// In direct mode each columnar batch covers one window of one segment
// (windows never span segments, so every vector is a single borrowed
// slice); the heap tail still streams in row form. In rows mode batches
// pack live row views across segment and tail boundaries exactly as
// before.
//
// The source reads the segments and heap-tail pages of one scanUnit: the
// whole store for a sequential scan, one segment or one tail page range
// per claimed unit of a parallel one (rewind).
type segBatchSrc struct {
	store  *colstore.Store
	heap   *storage.Heap
	preds  []colstore.Pred
	stats  *Stats
	tick   pollTick
	size   int
	direct bool

	buf     *prel.Batch
	vecs    []types.ColVec
	scratch [][]int64 // per-column unpack scratch for bit-packed ints
	seg     int       // current segment ordinal
	segEnd  int       // segment bound (exclusive)
	slot    int       // next slot within the current segment
	page    int       // heap-tail page cursor (from store.SealedPages)
	pageEnd int       // heap-tail page bound (exclusive)
	tail    int       // next slot within the current tail page
	done    bool
}

// rewind bounds the source to the segments and tail pages of u and
// restarts it, keeping the batch buffer, vector slots and unpack scratch.
func (s *segBatchSrc) rewind(u scanUnit) {
	s.seg, s.segEnd, s.page, s.pageEnd = u.seg, u.segEnd, u.page, u.pageEnd
	s.slot, s.tail, s.done = 0, 0, false
}

func (s *segBatchSrc) nextBatch() (*prel.Batch, bool) {
	if s.done {
		return nil, false
	}
	if s.buf == nil {
		s.buf = prel.NewBatch(s.size)
	}
	b := s.buf
	if s.direct {
		if b, ok := s.nextDirect(b); ok {
			return b, true
		}
	}
	b.Reset()
	for b.Cap() < s.size && s.seg < s.segEnd {
		seg := s.store.Segments[s.seg]
		if s.slot == 0 {
			// Segment entry: elide empty segments silently (the heap path
			// skips dead pages the same way) and prune on zone maps.
			if seg.Live == 0 {
				s.seg++
				continue
			}
			if len(s.preds) > 0 && seg.Skip(s.preds) {
				s.stats.SegmentsSkipped++
				s.stats.RowsScanned += seg.Live
				s.seg++
				continue
			}
			s.stats.SegmentsScanned++
		}
		for ; s.slot < seg.Rows && b.Cap() < s.size; s.slot++ {
			if seg.Dead(s.slot) {
				continue
			}
			b.PushTuple(seg.Tuple(s.slot))
		}
		if s.slot >= seg.Rows {
			s.seg++
			s.slot = 0
		}
	}
	// Heap tail: pages the compaction left on the row side.
	for b.Cap() < s.size && s.page < s.pageEnd {
		rows, dead, live := s.heap.Block(s.page)
		if live == 0 {
			s.page++
			s.tail = 0
			continue
		}
		for ; s.tail < len(rows) && b.Cap() < s.size; s.tail++ {
			if dead[s.tail] {
				continue
			}
			b.PushTuple(rows[s.tail])
		}
		if s.tail >= len(rows) {
			s.page++
			s.tail = 0
		}
	}
	if b.Cap() == 0 {
		s.done = true
		return nil, false
	}
	s.stats.RowsScanned += b.Cap()
	if s.tick.stopN(b.Cap()) {
		s.done = true // guard tripped: stop producing, like heapBatchSrc
	}
	return b, true
}

// nextDirect emits the next columnar segment window, or reports false
// once the segments are exhausted (the caller then drains the heap tail
// in row form). RowsScanned counts the window's live rows — the same
// rows the packing path would have pushed — so totals match the other
// scan modes.
func (s *segBatchSrc) nextDirect(b *prel.Batch) (*prel.Batch, bool) {
	for s.seg < s.segEnd {
		seg := s.store.Segments[s.seg]
		if s.slot == 0 {
			if seg.Live == 0 {
				s.seg++
				continue
			}
			if len(s.preds) > 0 && seg.Skip(s.preds) {
				s.stats.SegmentsSkipped++
				s.stats.RowsScanned += seg.Live
				s.seg++
				continue
			}
			s.stats.SegmentsScanned++
		}
		lo := s.slot
		hi := min(lo+s.size, seg.Rows)
		s.slot = hi
		if s.slot >= seg.Rows {
			s.seg++
			s.slot = 0
		}
		if cap(s.vecs) < len(seg.Cols) {
			s.vecs = make([]types.ColVec, len(seg.Cols))
		}
		vecs := s.vecs[:len(seg.Cols)]
		// Reset first: it runs (and clears) the prefdbdebug borrowed-vector
		// check against the previous window before ColVecs legitimately
		// rewrites the shared vecs and unpack scratch for this one.
		b.Reset()
		s.scratch = seg.ColVecs(lo, hi, vecs, s.scratch)
		b.SetColumnar(vecs, seg.Views(lo, hi))
		for i := lo; i < hi; i++ {
			if !seg.Dead(i) {
				b.Sel = append(b.Sel, int32(i-lo))
			}
		}
		if b.Live() == 0 {
			continue
		}
		b.Check()
		s.stats.RowsScanned += b.Live()
		s.stats.ColBatches++
		if s.tick.stopN(b.Live()) {
			s.done = true
		}
		return b, true
	}
	return nil, false
}
