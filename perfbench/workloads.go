package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"prefdb"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// stmt is one generated statement.
type stmt struct {
	// tmpl names the read template; empty for writes.
	tmpl string
	sql  string
	// prepared runs the statement as Prepare, RunContext, Close, the way
	// an application re-executes a statement it keeps the text of.
	prepared bool
	// w is set for writes: what a later read must find.
	w *write
}

// write is one INSERT or single-row UPDATE, keyed by an int column.
type write struct {
	table, key string
	id         int64
	insert     bool
	cols       []string
	vals       []prefdb.Value
}

// workload is one input set: its data, its statement generators and the
// closed loop that drives them.
type workload struct {
	load      func(db *prefdb.DB, seed int64) error
	templates []string
	// read returns the seq-th read of one client.
	read func(r *rand.Rand, seq int) stmt
	// write returns the write with the given process-wide id.
	write func(r *rand.Rand, id int64) stmt
	// clients is the number of wire connections; 0 runs one embedded
	// session.
	clients int
	// writeEvery makes every writeEvery-th statement of a client a write.
	// paper and scan write once per round of their read templates, the
	// least that gives the write metrics samples; serve writes one
	// statement in five.
	writeEvery int
	// isolatedWrites says no read touches a table the writes change, so
	// a read re-run after the loop must take the path it took in it.
	isolatedWrites bool
	// bigTable is the table whose columnar build colstore.build_ms times.
	bigTable string
}

// datagenScale sizes the IMDB and DBLP data: ≈20k movies and ≈20k
// publications.
const datagenScale = 1.0

var workloads = map[string]*workload{
	"paper": {
		load: loadPaper, templates: paperTemplates,
		read: paperRead, write: awardWrite, writeEvery: 7, isolatedWrites: true, bigTable: "cast",
	},
	"scan": {
		load: loadScan, templates: []string{"range", "dict", "unclustered"},
		read: scanRead, write: restockWrite, writeEvery: 4, isolatedWrites: true, bigTable: "items",
	},
	"serve": {
		load: loadServe, templates: serveTemplates, read: serveRead,
		write: serveWrite, clients: 2, writeEvery: 5, bigTable: "cast",
	},
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// roundRobin returns the template of the seq-th read: every round of n
// reads visits each template once, in an order that changes from round to
// round, so no template keeps the same place relative to periodic work
// such as garbage collection.
func roundRobin(seq, n int) int {
	return rand.New(rand.NewSource(int64(seq / n))).Perm(n)[seq%n]
}

// between returns a uniform int in [lo, hi].
func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// --- paper: the six Table II queries with seeded constants ---

var paperTemplates = []string{"IMDB-1", "IMDB-2", "IMDB-3", "DBLP-1", "DBLP-2", "DBLP-3"}

func loadPaper(db *prefdb.DB, seed int64) error {
	cfg := prefdb.DatagenConfig{Scale: datagenScale, Seed: seed}
	if _, err := prefdb.LoadIMDB(db, cfg); err != nil {
		return err
	}
	_, err := prefdb.LoadDBLP(db, cfg)
	return err
}

// paperRead goes round-robin over the templates. Constants that decide
// how many rows a query touches stay in narrow bands and the rest vary
// freely, so every seed asks for about the same work.
func paperRead(r *rand.Rand, seq int) stmt {
	tmpl := paperTemplates[roundRobin(seq, len(paperTemplates))]
	var sql string
	switch tmpl {
	case "IMDB-1":
		sql = fmt.Sprintf(`SELECT title, year FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			WHERE year >= %d
			PREFERRING genre = '%s' SCORE 1 CONF 0.9 ON genres,
			           year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
			USING sum TOP 10 BY score`, between(r, 1989, 1991), pick(r, "Comedy", "Drama", "Action", "Thriller"))
	case "IMDB-2":
		d := between(r, 115, 125)
		sql = fmt.Sprintf(`SELECT title, director FROM movies
			JOIN directors ON movies.d_id = directors.d_id
			JOIN genres ON movies.m_id = genres.m_id
			JOIN ratings ON movies.m_id = ratings.m_id
			WHERE year >= %d
			PREFERRING genre = '%s' SCORE 0.9 CONF 0.8 ON genres,
			           votes > %d SCORE linear(rating, 0.1) CONF 0.8 ON ratings,
			           duration <= %d SCORE around(duration, %d) CONF 0.5 ON movies
			USING sum TOP 20 BY score`, between(r, 1979, 1981), pick(r, "Drama", "Comedy", "Romance"),
			between(r, 400, 600), d, d)
	case "IMDB-3":
		sql = fmt.Sprintf(`SELECT title, actor FROM movies
			JOIN cast ON movies.m_id = cast.m_id
			JOIN actors ON cast.a_id = actors.a_id
			JOIN genres ON movies.m_id = genres.m_id
			WHERE year >= 2000
			PREFERRING genre = 'Action' SCORE recency(year, %d) CONF 0.8 ON (movies, genres),
			           genre = 'Drama' SCORE %s CONF 0.6 ON genres
			USING sum THRESHOLD conf >= 0.6`, between(r, 2010, 2012), pick(r, "1", "0.9", "0.8"))
	case "DBLP-1":
		sql = fmt.Sprintf(`SELECT title, name FROM publications
			JOIN conferences ON publications.p_id = conferences.p_id
			PREFERRING name = '%s' SCORE 1 CONF 0.9 ON conferences,
			           year >= %d SCORE recency(year, 2011) CONF 0.8 ON conferences
			USING sum TOP 10 BY score`, pick(r, "ICDE", "SIGMOD", "VLDB", "EDBT"), between(r, 1998, 2002))
	case "DBLP-2":
		sql = fmt.Sprintf(`SELECT title, name FROM publications
			JOIN pub_authors ON publications.p_id = pub_authors.p_id
			JOIN authors ON pub_authors.a_id = authors.a_id
			PREFERRING pub_type = '%s' SCORE 0.8 CONF 0.9 ON publications,
			           pub_authors.a_id < %d SCORE 1 CONF 0.7 ON pub_authors
			USING sum TOP 25 BY score`, pick(r, "article", "inproceedings"), between(r, 80, 120))
	case "DBLP-3":
		sql = fmt.Sprintf(`SELECT title FROM publications
			JOIN citations ON publications.p_id = citations.p2_id
			JOIN conferences ON publications.p_id = conferences.p_id
			WHERE year >= 1990
			PREFERRING name IN ('SIGMOD', 'VLDB', 'ICDE') SCORE 1 CONF 0.8 ON conferences,
			           year >= %d SCORE recency(year, 2011) CONF 0.9 ON conferences
			USING max SKYLINE`, between(r, 2003, 2007))
	}
	return stmt{tmpl: tmpl, sql: sql}
}

// updateEvery makes every fifth write a single-row UPDATE and the others
// INSERTs: the write median then sits among the INSERTs and the write tail
// among the UPDATEs on every seed.
const updateEvery = 5

// awardWrite records awards for new movie ids and corrects the year of the
// award written just before. No Table II query reads awards, so the reads
// keep their statistics and plans while the writes run.
func awardWrite(r *rand.Rand, id int64) stmt {
	year := int64(between(r, 1980, 2011))
	if id%updateEvery == 0 {
		m := 10_000_000 + id - 1
		return stmt{
			sql: fmt.Sprintf("UPDATE awards SET year = %d WHERE m_id = %d", year, m),
			w:   &write{table: "awards", key: "m_id", id: m, cols: []string{"year"}, vals: []prefdb.Value{prefdb.Int(year)}},
		}
	}
	m, award := 10_000_000+id, pick(r, "Oscar", "Golden Globe", "BAFTA")
	return stmt{
		sql: fmt.Sprintf("INSERT INTO awards VALUES (%d, '%s', %d)", m, award, year),
		w: &write{table: "awards", key: "m_id", id: m, insert: true, cols: []string{"m_id", "award", "year"},
			vals: []prefdb.Value{prefdb.Int(m), prefdb.Str(award), prefdb.Int(year)}},
	}
}

// --- scan: one ≈1M-row table, three selective top-k templates ---

const scanRows = 1_000_000

var tiers = []string{"gold", "silver", "bronze", "basic"}

// loadScan builds items(k clustered int key, year int, tier 4-value
// string, price unclustered float) through catalog inserts, the way the
// repository's own loaders bulk-load, and the empty restocks table the
// writes go to.
func loadScan(db *prefdb.DB, seed int64) error {
	t, err := db.Catalog().CreateTable("items", schema.New(
		schema.Column{Name: "k", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "tier", Kind: types.KindString},
		schema.Column{Name: "price", Kind: types.KindFloat},
	).WithKey("k"))
	if err != nil {
		return err
	}
	_, err = db.Catalog().CreateTable("restocks", schema.New(
		schema.Column{Name: "k", Kind: types.KindInt},
		schema.Column{Name: "item", Kind: types.KindInt},
		schema.Column{Name: "qty", Kind: types.KindInt},
	).WithKey("k"))
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < scanRows; i++ {
		err := t.Insert([]types.Value{
			types.Int(int64(i)), types.Int(int64(between(r, 1970, 2011))),
			types.Str(tiers[r.Intn(len(tiers))]), types.Float(r.Float64() * 1000),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanRead goes round-robin over the templates; each selects about 0.1%
// of the table before preferences and TOP k apply.
func scanRead(r *rand.Rand, seq int) stmt {
	const prefer = `PREFERRING year >= %d SCORE recency(year, 2011) CONF 0.9 ON items`
	switch roundRobin(seq, 3) {
	case 0:
		lo := r.Intn(scanRows - 1000)
		return stmt{tmpl: "range", sql: fmt.Sprintf(`SELECT k, year, price FROM items
			WHERE k >= %d AND k < %d `+prefer+` TOP 10 BY score`, lo, lo+1000, between(r, 1998, 2002))}
	case 1:
		lo := r.Intn(scanRows - 4000)
		p := between(r, 200, 800)
		return stmt{tmpl: "dict", sql: fmt.Sprintf(`SELECT k, tier, price FROM items
			WHERE tier = '%s' AND k >= %d AND k < %d `+prefer+`,
			price <= %d SCORE around(price, %d) CONF 0.5 ON items
			USING sum TOP 10 BY score`, pick(r, tiers...), lo, lo+4000, between(r, 1998, 2002), p, p)}
	default:
		lo := between(r, 0, 998)
		return stmt{tmpl: "unclustered", sql: fmt.Sprintf(`SELECT k, year, price FROM items
			WHERE price >= %d.0 AND price < %d.0 `+prefer+` TOP 10 BY score`, lo, lo+1, between(r, 1998, 2002))}
	}
}

// restockWrite logs restocks of random items and corrects the quantity of
// the restock logged just before. The reads never touch restocks, so items
// keeps the statistics and storage it was loaded with.
func restockWrite(r *rand.Rand, id int64) stmt {
	qty := int64(between(r, 1, 500))
	if id%updateEvery == 0 {
		k := id - 1
		return stmt{
			sql: fmt.Sprintf("UPDATE restocks SET qty = %d WHERE k = %d", qty, k),
			w:   &write{table: "restocks", key: "k", id: k, cols: []string{"qty"}, vals: []prefdb.Value{prefdb.Int(qty)}},
		}
	}
	item := int64(r.Intn(scanRows))
	return stmt{
		sql: fmt.Sprintf("INSERT INTO restocks VALUES (%d, %d, %d)", id, item, qty),
		w: &write{table: "restocks", key: "k", id: id, insert: true, cols: []string{"k", "item", "qty"},
			vals: []prefdb.Value{prefdb.Int(id), prefdb.Int(item), prefdb.Int(qty)}},
	}
}

// --- serve: IMDB behind the wire server, two connections ---

func loadServe(db *prefdb.DB, seed int64) error {
	_, err := prefdb.LoadIMDB(db, prefdb.DatagenConfig{Scale: datagenScale, Seed: seed})
	return err
}

// servePrepared are the statements clients re-execute; their texts never
// change, so after the first Prepare every one hits the server's
// statement cache.
var servePrepared = func() []string {
	var out []string
	for year := 2005; year <= 2008; year++ {
		out = append(out, fmt.Sprintf(`SELECT title, rating FROM movies
			JOIN ratings ON movies.m_id = ratings.m_id
			WHERE year >= %d
			PREFERRING votes > 1000 SCORE linear(rating, 0.1) CONF 0.8 ON ratings
			TOP 10 BY score`, year))
	}
	return out
}()

var (
	serveTemplates = []string{"director", "year", "genre", "prepared"}
	// serveWeights sum to 100.
	serveWeights = []float64{40, 30, 15, 15}
)

// serveRead draws short ad hoc lookups whose constants make nearly every
// text distinct, beside re-executions of the prepared statements.
func serveRead(r *rand.Rand, _ int) stmt {
	x := r.Float64() * 100
	i := 0
	for ; x >= serveWeights[i]; i++ {
		x -= serveWeights[i]
	}
	switch serveTemplates[i] {
	case "director":
		return stmt{tmpl: "director", sql: fmt.Sprintf(`SELECT title, year FROM movies WHERE d_id = %d
			PREFERRING year >= %d SCORE recency(year, 2011) CONF 0.8 ON movies TOP 5 BY score`,
			r.Intn(2400), between(r, 1990, 2005))}
	case "year":
		d := between(r, 90, 130)
		return stmt{tmpl: "year", sql: fmt.Sprintf(`SELECT title, duration FROM movies WHERE year = %d
			PREFERRING duration <= %d SCORE around(duration, %d) CONF 0.7 ON movies TOP 5 BY score`,
			between(r, 1960, 2011), d, d)}
	case "genre":
		return stmt{tmpl: "genre", sql: fmt.Sprintf(`SELECT title, genre FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			WHERE year = %d AND genre = '%s'
			PREFERRING duration <= %d SCORE around(duration, 100) CONF 0.6 ON movies TOP 5 BY score`,
			between(r, 1960, 2011), pick(r, "Drama", "Comedy", "Documentary", "Action", "Thriller"), between(r, 90, 130))}
	default:
		return stmt{tmpl: "prepared", sql: pick(r, servePrepared...), prepared: true}
	}
}

// serveWrite inserts genre rows for new movie ids and updates the vote
// count of one rating. Every write makes the
// next read of its table re-analyze the table's statistics; these writes
// land in the tables of the genre and prepared templates only, so the
// short lookups that make up most reads keep one latency population and
// query_p50_ms stays inside it.
func serveWrite(r *rand.Rand, id int64) stmt {
	if id%updateEvery == 0 {
		m := int64(5 * r.Intn(4000)) // ratings hold every fifth movie
		votes := int64(between(r, 10, 60000))
		return stmt{
			sql: fmt.Sprintf("UPDATE ratings SET votes = %d WHERE m_id = %d", votes, m),
			w:   &write{table: "ratings", key: "m_id", id: m, cols: []string{"votes"}, vals: []prefdb.Value{prefdb.Int(votes)}},
		}
	}
	m, genre := 10_000_000+id, pick(r, "Drama", "Comedy", "Documentary", "Action", "Thriller")
	return stmt{
		sql: fmt.Sprintf("INSERT INTO genres VALUES (%d, '%s')", m, genre),
		w: &write{table: "genres", key: "m_id", id: m, insert: true, cols: []string{"m_id", "genre"},
			vals: []prefdb.Value{prefdb.Int(m), prefdb.Str(genre)}},
	}
}

// sqlList renders ints as a comma-separated SQL list.
func sqlList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(parts, ", ")
}
