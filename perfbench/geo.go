package main

import (
	"fmt"
	"math"

	"skyloader/internal/queries"
)

// rimToleranceDeg is the band around a cone's rim inside which either
// answer is accepted: the program and the checker compute the separation
// with different formulas, which may disagree in the last few bits.
const rimToleranceDeg = 1e-7

// separationDeg is the great-circle distance between two sky positions by
// the haversine formula, written apart from the program's own geometry.
func separationDeg(ra1, dec1, ra2, dec2 float64) float64 {
	const rad = math.Pi / 180
	dRA := (ra2 - ra1) * rad
	dDec := (dec2 - dec1) * rad
	h := math.Sin(dDec/2)*math.Sin(dDec/2) +
		math.Cos(dec1*rad)*math.Cos(dec2*rad)*math.Sin(dRA/2)*math.Sin(dRA/2)
	if h > 1 {
		h = 1
	}
	return 2 * math.Asin(math.Sqrt(h)) / rad
}

// checkCone compares a cone answer with a brute-force pass over the objects
// the repository must hold (must) and may hold (may, for rows a concurrent
// ingest is still adding; nil when nothing else can be there). Every
// returned object must be known, carry its generated position and lie
// inside the cone; every object of must strictly inside must be returned.
func checkCone(q queries.Cone, got []queries.Object, must, may *objectSet) error {
	returned := make(map[int64]bool, len(got))
	for _, o := range got {
		if returned[o.ObjectID] {
			return fmt.Errorf("cone %s: object %d returned twice", q.Signature(), o.ObjectID)
		}
		returned[o.ObjectID] = true
		want, ok := must.byID[o.ObjectID]
		if !ok && may != nil {
			want, ok = may.byID[o.ObjectID]
		}
		if !ok {
			return fmt.Errorf("cone %s: returned unknown object %d", q.Signature(), o.ObjectID)
		}
		if !near(o.RA, want.RA) || !near(o.Dec, want.Dec) {
			return fmt.Errorf("cone %s: object %d at (%v,%v), generated at (%v,%v)",
				q.Signature(), o.ObjectID, o.RA, o.Dec, want.RA, want.Dec)
		}
		if d := separationDeg(q.RA, q.Dec, want.RA, want.Dec); d > q.RadiusDeg+rimToleranceDeg {
			return fmt.Errorf("cone %s: object %d lies %.9f deg out, outside the cone",
				q.Signature(), o.ObjectID, d)
		}
	}
	for _, id := range must.candidates(q) {
		if returned[id] {
			continue
		}
		o := must.byID[id]
		if d := separationDeg(q.RA, q.Dec, o.RA, o.Dec); d < q.RadiusDeg-rimToleranceDeg {
			return fmt.Errorf("cone %s: dropped object %d at %.9f deg", q.Signature(), id, d)
		}
	}
	return nil
}

// checkLookup requires a lookup to return exactly the generated object.
func checkLookup(id int64, got []queries.Object, set *objectSet) error {
	want, ok := set.byID[id]
	if !ok {
		return fmt.Errorf("lookup %d: target is not a loadable object", id)
	}
	if len(got) != 1 || got[0].ObjectID != id {
		return fmt.Errorf("lookup %d: got %d objects", id, len(got))
	}
	g := got[0]
	if g.FrameID != want.Frame || !near(g.RA, want.RA) || !near(g.Dec, want.Dec) || !near(g.Mag, want.Mag) {
		return fmt.Errorf("lookup %d: got %+v, generated %+v", id, g, want)
	}
	return nil
}

// checkFrame requires a frame query to return exactly the objects the
// night generated on that frame.
func checkFrame(frame int64, got []queries.Object, set *objectSet) error {
	want := len(set.byFrame[frame])
	if len(got) != want {
		return fmt.Errorf("frame %d: got %d objects, generated %d", frame, len(got), want)
	}
	for _, o := range got {
		w, ok := set.byID[o.ObjectID]
		if !ok || w.Frame != frame || !near(o.RA, w.RA) || !near(o.Dec, w.Dec) {
			return fmt.Errorf("frame %d: object %d does not match the generated one", frame, o.ObjectID)
		}
	}
	return nil
}

// near compares a stored value with the value parsed from the record text;
// the text carries at most 8 decimals, so 1e-9 separates rounding from a
// wrong value.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// candidates lists the ids of every file whose bounding circle reaches the cone.
func (s *objectSet) candidates(q queries.Cone) []int64 {
	var out []int64
	for _, g := range s.groups {
		if separationDeg(q.RA, q.Dec, g.RA, g.Dec) <= q.RadiusDeg+g.Radius+1e-6 {
			out = append(out, g.IDs...)
		}
	}
	return out
}
