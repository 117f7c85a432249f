package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/relstore"
)

// checkConservation accounts for every generated record of a load: per
// table, rows loaded plus rows the database rejected never exceed the
// records generated for it; over the night, loaded + rejected + client
// parse errors equal the records generated; and the objects table holds
// exactly the objects the benchmark's own reading of the record text says
// a correct load keeps, by object id. base holds the per-table row counts
// before the load, prior the objects of a night loaded before it (nil if
// none).
func checkConservation(db *relstore.DB, n *night, st core.Stats, base map[string]int64, prior *objectSet) error {
	gen := map[string]int{}
	for _, f := range n.Files {
		for t, c := range f.RowsByTable {
			gen[t] += c
		}
	}
	counts := db.RowCounts()
	total := 0
	for _, t := range catalog.CatalogTables() {
		loaded := int(counts[t] - base[t])
		if loaded < 0 || loaded+st.SkippedByTable[t] > gen[t] {
			return fmt.Errorf("table %s: %d loaded + %d rejected > %d generated", t, loaded, st.SkippedByTable[t], gen[t])
		}
		if loaded != st.RowsLoadedByTable[t] {
			return fmt.Errorf("table %s: database holds %d new rows, loaders report %d", t, loaded, st.RowsLoadedByTable[t])
		}
		total += loaded + st.SkippedByTable[t]
	}
	if total+st.ParseErrors != n.Rows {
		return fmt.Errorf("%d loaded+rejected + %d parse errors != %d generated records", total, st.ParseErrors, n.Rows)
	}
	held, err := objectIDs(db)
	if err != nil {
		return err
	}
	want := len(n.Objects.byID)
	if prior != nil {
		want += len(prior.byID)
	}
	for _, id := range held {
		if _, ok := n.Objects.byID[id]; ok {
			continue
		}
		if prior != nil {
			if _, ok := prior.byID[id]; ok {
				continue
			}
		}
		return fmt.Errorf("objects table holds object %d, which no correct load keeps", id)
	}
	if len(held) != want {
		return fmt.Errorf("objects table holds %d objects, the generated text has %d loadable objects", len(held), want)
	}
	return nil
}

// objectIDs lists the object ids a database's objects table holds.
func objectIDs(db *relstore.DB) ([]int64, error) {
	col := db.Schema().Table(catalog.TObjects).ColumnIndex("object_id")
	var ids []int64
	err := db.ScanRef(catalog.TObjects, func(r relstore.Row) bool {
		ids = append(ids, r[col].Int())
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("scan objects: %w", err)
	}
	return ids, nil
}

// checkIntegrity runs the engine's own referential and key checks.
func checkIntegrity(db *relstore.DB) error {
	orphans, err := db.VerifyIntegrity()
	if err != nil {
		return fmt.Errorf("integrity check: %w", err)
	}
	if orphans != 0 {
		return fmt.Errorf("integrity check: %d orphaned rows", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		return fmt.Errorf("primary-key check: %w", err)
	}
	return nil
}

// checkObjectSample fetches a seeded sample of loadable objects by primary
// key and compares every column with the values parsed from the record
// text, and the unit vector with one computed here, within each column's
// precision.
func checkObjectSample(db *relstore.DB, n *night, seed int64, samples int) error {
	ts := db.Schema().Table(catalog.TObjects)
	col := func(name string) int { return ts.ColumnIndex(name) }
	rng := rand.New(rand.NewSource(seed + 99))
	ids := n.Objects.order
	for i := 0; i < samples && len(ids) > 0; i++ {
		want := n.Objects.byID[ids[rng.Intn(len(ids))]]
		row, err := db.LookupByPK(catalog.TObjects, []relstore.Value{relstore.Int(want.ID)})
		if err != nil {
			return fmt.Errorf("object %d: %w", want.ID, err)
		}
		if row == nil {
			return fmt.Errorf("object %d: missing after load", want.ID)
		}
		const rad = math.Pi / 180
		cx := math.Cos(want.Dec*rad) * math.Cos(want.RA*rad)
		cy := math.Cos(want.Dec*rad) * math.Sin(want.RA*rad)
		cz := math.Sin(want.Dec * rad)
		ints := []struct {
			c string
			v int64
		}{{"object_id", want.ID}, {"frame_id", want.Frame}, {"flags", want.Flags}}
		for _, c := range ints {
			if got := row[col(c.c)].Int(); got != c.v {
				return fmt.Errorf("object %d: %s = %d, generated %d", want.ID, c.c, got, c.v)
			}
		}
		floats := []struct {
			c   string
			v   float64
			tol float64
		}{
			{"ra", want.RA, 5e-7}, {"dec", want.Dec, 5e-7}, {"mag", want.Mag, 5e-4},
			{"mag_err", want.MagErr, 5e-4}, {"fwhm", want.FWHM, 5e-3}, {"ellipticity", want.Ell, 5e-4},
			{"cx", cx, 1e-7}, {"cy", cy, 1e-7}, {"cz", cz, 1e-7},
		}
		for _, c := range floats {
			if got := row[col(c.c)].Float(); math.Abs(got-c.v) > c.tol {
				return fmt.Errorf("object %d: %s = %v, generated %v", want.ID, c.c, got, c.v)
			}
		}
	}
	return nil
}

// tableDigest is one table's comparable state: row count, an
// order-independent hash of its rows, and a hash of each index's iteration
// order (keys and row ids), including a temporary unique index over the
// primary key. Rows are compared as a set because a heap scan's order is
// physical: recovery replays committed transactions in commit order, so
// two loaders' interleaved inserts may come back in another scan order.
// The primary-key index ties every row to its row id, so together the two
// compare (row id, row) pairs.
type tableDigest struct {
	Table   string
	Rows    int64
	RowHash [2]uint64 // sum and xor of per-row hashes
	Indexes map[string]uint64
	// Small tables keep their rows as sorted text, so a difference can be
	// shown.
	Text []string
}

// digestTextRows is the largest table whose rows a digest keeps as text.
const digestTextRows = 10_000

// pkDigestIndex is the temporary primary-key index digestDB builds.
const pkDigestIndex = "perfbench_pk_digest"

// digestDB captures every table of a database for a row-for-row comparison.
func digestDB(db *relstore.DB) ([]tableDigest, error) {
	names := db.Schema().TableNames()
	sort.Strings(names)
	out := make([]tableDigest, 0, len(names))
	var buf []byte
	for _, name := range names {
		t := db.Table(name)
		d := tableDigest{Table: name, Rows: t.RowCount(), Indexes: map[string]uint64{}}
		err := db.ScanRef(name, func(r relstore.Row) bool {
			buf = relstore.AppendOrderedKey(buf[:0], r)
			h := fnv.New64a()
			_, _ = h.Write(buf)
			sum := h.Sum64()
			d.RowHash[0] += sum
			d.RowHash[1] ^= sum
			if d.Rows <= digestTextRows {
				d.Text = append(d.Text, formatRow(r))
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", name, err)
		}
		sort.Strings(d.Text)
		pk := db.Schema().Table(name).PrimaryKey
		if _, err := db.CreateIndexWith(name, pkDigestIndex, pk, true, relstore.IndexImmediate); err != nil {
			return nil, fmt.Errorf("primary-key index on %s: %w", name, err)
		}
		for _, ix := range t.Indexes() {
			ih := fnv.New64a()
			var idb [8]byte
			ix.Tree().AscendRange(nil, nil, func(key []byte, rowIDs []int64) bool {
				_, _ = ih.Write(key)
				for _, id := range rowIDs {
					for i := range idb {
						idb[i] = byte(id >> (8 * i))
					}
					_, _ = ih.Write(idb[:])
				}
				return true
			})
			d.Indexes[ix.Name] = ih.Sum64()
		}
		if err := db.DropIndex(name, pkDigestIndex); err != nil {
			return nil, fmt.Errorf("drop primary-key index on %s: %w", name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// compareDigests reports the first difference between two databases.
func compareDigests(want, got []tableDigest) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d tables before, %d after", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		switch {
		case w.Table != g.Table:
			return fmt.Errorf("table %s vs %s", w.Table, g.Table)
		case w.Rows != g.Rows:
			return fmt.Errorf("table %s: %d rows before, %d after", w.Table, w.Rows, g.Rows)
		case w.RowHash != g.RowHash:
			for j := range w.Text {
				if j < len(g.Text) && w.Text[j] != g.Text[j] {
					return fmt.Errorf("table %s: row %d differs: before %s, after %s", w.Table, j, w.Text[j], g.Text[j])
				}
			}
			return fmt.Errorf("table %s: rows differ", w.Table)
		case len(w.Indexes) != len(g.Indexes):
			return fmt.Errorf("table %s: %d indexes before, %d after", w.Table, len(w.Indexes), len(g.Indexes))
		}
		for name, h := range w.Indexes {
			if gh, ok := g.Indexes[name]; !ok || gh != h {
				return fmt.Errorf("table %s: index %s iterates differently", w.Table, name)
			}
		}
	}
	return nil
}

// formatRow renders a row as text for difference reports.
func formatRow(r relstore.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = relstore.FormatValue(v)
	}
	return strings.Join(parts, "|")
}
