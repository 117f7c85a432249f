package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"skyloader/internal/catalog"
)

// nightSpec describes one generated night: its files, their row budget and
// the share of detail records corrupted by the generator.
type nightSpec struct {
	// Index separates nights of one run: night n's files draw primary keys
	// from their own IDBase range, so a second night loaded into the same
	// repository never collides with the first.
	Index     int
	Files     int
	Rows      int     // total real rows (records) across all files
	ErrorRate float64 // generator's detail-record corruption rate
}

// fileSizeSkew is the exponential tail of the file-size weights: most
// files are within ±40% of the mean, a few are two to three times it.
const fileSizeSkew = 0.3

// night is a generated night and what the benchmark knows about it apart
// from the program: the objects it should hold after a load.
type night struct {
	Files       []*catalog.File
	Rows        int
	ActualBytes int64
	Injected    int
	GenSeconds  float64 // summed wall time of the catalog.Generate calls
	Objects     *objectSet
}

// idBase gives file i of night n its own 10^9-wide key range; the
// generator's orphan corruption points 9·10^8 above a file's base, which
// stays inside the file's own range and so never hits a real key.
func idBase(nightIdx, file int) int64 {
	return (int64(nightIdx)*1000 + int64(file) + 1) * 1_000_000_000
}

// genNight builds a night file by file with catalog.Generate. File sizes
// follow seeded weights 0.6+0.8u+fileSizeSkew·Exp, scaled so the night holds
// spec.Rows rows; the file seeds derive from the run seed and night index.
func genNight(seed int64, spec nightSpec) *night { return genFiles(seed, spec, spec.Files) }

// genFiles generates only the first k files of the night genNight builds.
func genFiles(seed int64, spec nightSpec, k int) *night {
	rng := rand.New(rand.NewSource(seed*7919 + int64(spec.Index)*104729 + 17))
	weights := make([]float64, spec.Files)
	var sum float64
	for i := range weights {
		weights[i] = 0.6 + 0.8*rng.Float64() + fileSizeSkew*rng.ExpFloat64()
		sum += weights[i]
	}
	n := &night{}
	for i := 0; i < k; i++ {
		rows := float64(spec.Rows) * weights[i] / sum
		start := time.Now()
		f := catalog.Generate(catalog.GenSpec{
			Name:      fmt.Sprintf("s%d_n%d_f%02d.cat", seed, spec.Index, i+1),
			SizeMB:    rows / 100,
			RowsPerMB: 100,
			Seed:      rng.Int63(),
			ErrorRate: spec.ErrorRate,
			IDBase:    idBase(spec.Index, i),
			RunID:     int64(1 + (spec.Index*spec.Files+i)%32),
		})
		n.GenSeconds += time.Since(start).Seconds()
		n.Files = append(n.Files, f)
		n.Rows += f.DataRows
		n.ActualBytes += f.ActualBytes
		n.Injected += f.TotalInjectedErrors()
	}
	n.Objects = parseObjects(n.Files)
	return n
}

// obj is an object as the benchmark reads it from the record text.
type obj struct {
	ID, Frame int64
	RA, Dec   float64
	Mag       float64
	MagErr    float64
	FWHM      float64
	Ell       float64
	Flags     int64
}

// objectSet is the set of objects a correct load stores: for each object
// id, the first record carrying it whose fields all parse, lie inside the
// schema's ranges and reference a frame of the same file. Everything else
// (malformed numbers, missing values, out-of-range magnitudes, orphaned
// frames, re-used keys) must be rejected.
type objectSet struct {
	byID    map[int64]obj
	order   []int64 // ids in file order
	byFrame map[int64][]int64
	// groups holds each file's ids with a bounding circle around its first
	// object, so the brute-force cone pass can skip files far from a cone.
	groups []objGroup
}

type objGroup struct {
	RA, Dec, Radius float64
	IDs             []int64
}

func parseObjects(files []*catalog.File) *objectSet {
	s := &objectSet{byID: make(map[int64]obj), byFrame: make(map[int64][]int64)}
	for _, f := range files {
		var g objGroup
		frames := make(map[int64]bool)
		for _, rec := range f.Records {
			if rec.Tag == catalog.TagFRM {
				if id, err := strconv.ParseInt(rec.Fields[0], 10, 64); err == nil {
					frames[id] = true
				}
			}
		}
		for _, rec := range f.Records {
			if rec.Tag != catalog.TagOBJ {
				continue
			}
			o, ok := parseObj(rec.Fields)
			if !ok || !frames[o.Frame] {
				continue
			}
			if _, dup := s.byID[o.ID]; dup {
				continue
			}
			s.byID[o.ID] = o
			s.order = append(s.order, o.ID)
			s.byFrame[o.Frame] = append(s.byFrame[o.Frame], o.ID)
			if len(g.IDs) == 0 {
				g.RA, g.Dec = o.RA, o.Dec
			}
			g.Radius = math.Max(g.Radius, separationDeg(g.RA, g.Dec, o.RA, o.Dec))
			g.IDs = append(g.IDs, o.ID)
		}
		if len(g.IDs) > 0 {
			s.groups = append(s.groups, g)
		}
	}
	return s
}

// parseObj reads an OBJ record: id, frame, ra, dec, mag, mag_err, fwhm,
// ellipticity, flags. ok is false when any field is missing, malformed or
// outside the objects table's check ranges.
func parseObj(fields []string) (obj, bool) {
	if len(fields) != 9 {
		return obj{}, false
	}
	var o obj
	var err error
	ints := []*int64{&o.ID, &o.Frame}
	for i, p := range ints {
		if *p, err = strconv.ParseInt(fields[i], 10, 64); err != nil {
			return obj{}, false
		}
	}
	floats := []*float64{&o.RA, &o.Dec, &o.Mag, &o.MagErr, &o.FWHM, &o.Ell}
	for i, p := range floats {
		if *p, err = strconv.ParseFloat(fields[2+i], 64); err != nil || math.IsNaN(*p) || math.IsInf(*p, 0) {
			return obj{}, false
		}
	}
	if o.Flags, err = strconv.ParseInt(fields[8], 10, 64); err != nil {
		return obj{}, false
	}
	if o.RA < 0 || o.RA > 360 || o.Dec < -90 || o.Dec > 90 || o.Mag < -5 || o.Mag > 35 {
		return obj{}, false
	}
	return o, true
}
